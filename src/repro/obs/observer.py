"""The observability facade: one object that watches a whole run.

:class:`Observer` attaches to a live simulator exactly the way
:class:`repro.check.CheckHarness` does — ``attach(sim)`` before the
Network is built, ``bind_network(...)`` after agents are installed, both
done for it as a run hook (:mod:`repro.sim.hooks`) — and ties the three
observability pillars together:

* a :class:`~repro.obs.registry.CounterRegistry` refreshed from the
  run's existing totals (trace counters, channel frames, node energy);
* a :class:`~repro.obs.spans.SpanRecorder` fed by the run's phase
  events (prefix build, HELLO warmup, route discovery, data delivery)
  and that the observer extends with window-granular fault-recovery
  spans;
* a :class:`~repro.obs.sampler.StreamingSampler` emitting windowed
  time-series rows during the run.

Non-perturbation contract (same as the check harness, but stricter on
cost): the observer emits no trace records, draws no rng, and never
mutates protocol state, so the trace digest with and without it is
bit-identical; and because counters are derived from totals the run
already maintains, the attach overhead is a handful of kernel events per
simulated second — bounded at <=10% of a full round by
``tests/obs/test_overhead.py``.  A run without an observer executes
*zero* observability code (its hook list is empty).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.obs.registry import CounterRegistry
from repro.obs.sampler import Sample, StreamingSampler
from repro.obs.spans import SpanRecorder
from repro.sim.hooks import RunHook

__all__ = ["Observer"]


class Observer(RunHook):
    """Attachable run observer: counters + spans + streamed samples.

    Parameters
    ----------
    window:
        Simulated seconds per sampler window.
    on_sample:
        Callback invoked per closed window (see
        :class:`~repro.obs.sampler.StreamingSampler`).
    sample:
        Set False to skip the sampler entirely (counters/spans only —
        no kernel events are scheduled at all).
    """

    def __init__(
        self,
        window: float = 0.25,
        on_sample=None,
        sample: bool = True,
    ) -> None:
        self.registry = CounterRegistry()
        self.spans = SpanRecorder()
        self.sampler: Optional[StreamingSampler] = (
            StreamingSampler(window=window, on_sample=self._on_window)
            if sample
            else None
        )
        self._user_on_sample = on_sample
        self._sim = None
        self._net = None
        self.context: Any = None
        self.seed: Optional[int] = None
        # window-granular fault-recovery tracking
        self._recovery_open = False
        self.recovery_spans: List[tuple] = []

    # ------------------------------------------------------------------ #
    # wiring (mirrors CheckHarness)
    # ------------------------------------------------------------------ #
    def attach(self, sim, context: Any = None) -> "Observer":
        """Hook into ``sim`` — call before the Network is constructed."""
        if self._sim is not None:
            raise RuntimeError("Observer.attach() called twice")
        self._sim = sim
        self.seed = sim.rng.seed
        self.context = context
        self.registry.bind(sim=sim)
        if self.sampler is not None:
            self.sampler.attach(sim)
        return self

    def bind_network(
        self, net, receivers: Sequence[int] = (), sessions=None
    ) -> None:
        """Point the observer at the built deployment.

        ``sessions`` (optional) maps each :class:`SessionSpec` to its
        installed receiver ids; when given, the sampler emits one
        ``delivers_w.<key>``/``delivery_ratio.<key>`` column pair per
        flow next to the aggregate columns.
        """
        self._net = net
        self.registry.bind(net=net)
        if self.sampler is not None and receivers:
            self.sampler.bind_receivers(receivers)
        if self.sampler is not None and sessions:
            self.sampler.bind_sessions(sessions)

    # ------------------------------------------------------------------ #
    # run hook events
    # ------------------------------------------------------------------ #
    def on_attach(self, sim, cfg) -> None:
        self.attach(sim, context=cfg)

    def on_phase_begin(self, name: str, sim, net, **meta) -> None:
        self.spans.begin(name, sim, **meta)

    def on_phase_end(self, name: str, sim, net) -> None:
        self.spans.end(sim)

    def on_bind(self, net, agents, cfg, receivers, members) -> None:
        if members is None:
            self.bind_network(net, receivers)
            return
        from repro.traffic.spec import active_sessions

        # sampler delivery_ratio tracks every session's receivers;
        # per-flow columns split the same series by SessionSpec.key()
        self.bind_network(
            net,
            sorted({m for ms in members.values() for m in ms}),
            sessions={spec: members[spec.flow] for spec in active_sessions(cfg)},
        )

    def on_finish(self) -> None:
        self.finish()

    def finish(self) -> "Observer":
        """Close a run: final sample, final counter refresh, close spans.

        Then drop every reference to the run (the sampler's callback back
        into this observer included), so a finished observer holds only
        what it measured and the run frees itself by reference counting.
        """
        if self._sim is None:
            raise RuntimeError("Observer.finish() before attach()")
        if self.sampler is not None:
            self.sampler.sample_now()
        if self._recovery_open:
            self._close_recovery(float(self._sim.now))
        self._route_state_spans()
        self.spans.close_all(self._sim)
        self.registry.refresh()
        self._sim = self._net = None
        self.registry.unbind()
        if self.sampler is not None:
            self.sampler.detach()
        return self

    def export(self, out_dir) -> dict:
        """Write every export under ``out_dir``; returns ``{name: Path}``.

        Files: ``counters.prom`` (Prometheus text), ``counters.json``,
        ``samples.jsonl``, ``spans.jsonl`` and ``spans_chrome.json``
        (Chrome-trace timeline).
        """
        import json as _json

        from repro.obs.export import counters_json, prometheus_text, write_text

        labels = {"seed": self.seed if self.seed is not None else ""}
        out = {
            "counters.prom": write_text(
                f"{out_dir}/counters.prom", prometheus_text(self.registry, labels=labels)
            ),
            "counters.json": write_text(
                f"{out_dir}/counters.json", counters_json(self.registry, seed=self.seed)
            ),
            "samples.jsonl": write_text(
                f"{out_dir}/samples.jsonl",
                self.sampler.to_jsonl() if self.sampler is not None else "",
            ),
            "spans.jsonl": write_text(f"{out_dir}/spans.jsonl", self.spans.to_jsonl()),
            "spans_chrome.json": write_text(
                f"{out_dir}/spans_chrome.json",
                _json.dumps(self.spans.chrome_trace(), default=float),
            ),
        }
        return out

    @property
    def samples(self) -> List[Sample]:
        return self.sampler.samples if self.sampler is not None else []

    # ------------------------------------------------------------------ #
    # fault-recovery spans (window granularity — see sampler docstring)
    # ------------------------------------------------------------------ #
    def _on_window(self, s: Sample) -> None:
        import time as _time

        if s.route_errors_w > 0 and not self._recovery_open:
            # the RouteError happened somewhere in the window that just
            # closed, so the span starts at that window's opening edge
            self._recovery_open = True
            self._recovery_sim_start = max(0.0, s.time - self.sampler.window)
            self._recovery_wall_start = _time.perf_counter()
        elif self._recovery_open and s.delivers_w > 0 and s.route_errors_w == 0:
            self._close_recovery(s.time)
        if self._user_on_sample is not None:
            self._user_on_sample(s)

    def _close_recovery(self, t: float) -> None:
        import time as _time

        self.spans.add_finished(
            "fault-recovery",
            wall_start=self._recovery_wall_start,
            wall_end=_time.perf_counter(),
            sim_start=self._recovery_sim_start,
            sim_end=t,
            granularity=self.sampler.window if self.sampler is not None else None,
        )
        self.recovery_spans.append((self._recovery_sim_start, t))
        self._recovery_open = False

    # ------------------------------------------------------------------ #
    # route-state spans (self-healing layer; derived at finish time)
    # ------------------------------------------------------------------ #
    def _route_state_spans(self) -> None:
        """Synthesise repairing/degraded spans from ``RouteState`` notes.

        One pass over the stored records, run only when the trace actually
        contains RouteState transitions (i.e. a RepairPolicy was active) —
        flag-off runs skip this entirely.  Wall-clock extents are
        degenerate on purpose: these are simulated-time intervals detected
        after the fact.
        """
        import time as _time

        from repro.sim.trace import TraceKind

        trace = self._sim.trace
        if trace.counters_only or not trace.counts[(TraceKind.NOTE, "RouteState")]:
            return
        wall = _time.perf_counter()
        end = float(self._sim.now)
        open_spans: dict = {}  # (node, source, group) -> (state, since)
        for rec in trace.records:
            if rec.kind is not TraceKind.NOTE or rec.packet_type != "RouteState":
                continue
            state, source, group = rec.detail[0], rec.detail[1], rec.detail[2]
            k = (rec.node, source, group)
            prev = open_spans.pop(k, None)
            if prev is not None:
                self.spans.add_finished(
                    f"route-{prev[0]}",
                    wall_start=wall,
                    wall_end=wall,
                    sim_start=prev[1],
                    sim_end=rec.time,
                    node=k[0], source=source, group=group,
                )
            if state != "healthy":
                open_spans[k] = (state, rec.time)
        for (node, source, group), (state, since) in sorted(open_spans.items()):
            self.spans.add_finished(
                f"route-{state}",
                wall_start=wall,
                wall_end=wall,
                sim_start=since,
                sim_end=end,
                node=node, source=source, group=group,
            )
