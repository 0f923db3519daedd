"""Windowed time-series sampling of a live simulation.

The sampler schedules one cheap self-rescheduling kernel event per window
(default 0.25 simulated seconds) that snapshots the run's running totals
— trace counters, heap depth, distinct forwarders/delivered receivers —
and appends one :class:`Sample` row.  The callback reads state only: it
emits no trace records, draws no rng, and mutates nothing outside the
sampler, so an attached sampler leaves the trace digest bit-identical
(pinned by ``tests/obs/test_observer.py``).  Extra events do consume
event-queue sequence numbers, but sequence assignment is order-preserving
for every other event, so tie-breaking among protocol events is
untouched.

Fault-recovery detection rides on the same windows: the first window
whose RouteError delta is positive opens a ``fault-recovery`` span (at
window granularity), closed by the next window that sees a delivery —
precise-to-the-emit detection would need a per-emit trace watcher, whose
cost the observability layer deliberately refuses to pay by default.
"""

from __future__ import annotations

import json
from typing import Callable, List, NamedTuple, Optional

from repro.sim.trace import TraceKind

__all__ = ["Sample", "StreamingSampler"]


class Sample(NamedTuple):
    """One window of the streamed time-series.

    Windowed fields (``*_w``) count events inside the window; the rest
    are cumulative or instantaneous at the window's closing edge.
    """

    #: simulated time at the window's closing edge
    time: float
    #: transmissions / receptions / deliveries inside this window
    tx_w: int
    rx_w: int
    delivers_w: int
    collisions_w: int
    route_errors_w: int
    #: cumulative fraction of the multicast group reached so far
    delivery_ratio: float
    #: distinct nodes that have transmitted a data packet so far
    forwarders: int
    #: event-heap depth at sample time (live + not-yet-reconciled pops)
    pending: int
    #: per-flow columns ``(key, delivers_w, delivery_ratio)`` — one triple
    #: per bound :meth:`SessionSpec.key`; empty unless sessions are bound
    sessions: tuple = ()

    def to_dict(self) -> dict:
        d = self._asdict()
        # flatten per-flow triples into flat JSONL columns so per-session
        # time series are recoverable straight from the export
        for key, delivers_w, ratio in d.pop("sessions"):
            d[f"delivers_w.{key}"] = delivers_w
            d[f"delivery_ratio.{key}"] = ratio
        return d


class StreamingSampler:
    """Emit one :class:`Sample` per ``window`` simulated seconds.

    Parameters
    ----------
    window:
        Simulated seconds per sample (> 0).
    on_sample:
        Optional callback invoked as ``on_sample(sample)`` the moment a
        window closes — the streaming hook ``Observer(on_sample=)``
        builds on.  Exceptions propagate (a broken consumer should fail
        loudly, not silently corrupt its series).
    """

    def __init__(
        self,
        window: float = 0.25,
        on_sample: Optional[Callable[[Sample], None]] = None,
    ) -> None:
        if not window > 0:
            raise ValueError(f"window must be > 0, got {window!r}")
        self.window = float(window)
        self.on_sample = on_sample
        self.samples: List[Sample] = []
        self._sim = None
        self._receivers: frozenset = frozenset()
        self._delivered: set = set()
        self._last = {"tx": 0, "rx": 0, "delivers": 0, "collisions": 0, "route_errors": 0}
        self._started = False
        # per-flow column state (bind_sessions)
        self._flow_meta: List[tuple] = []  # (key, (source, group))
        self._flow_members: dict = {}
        self._flow_total: dict = {}
        self._flow_nodes: dict = {}
        self._flow_last: dict = {}
        self._scan_pos = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach(self, sim) -> "StreamingSampler":
        """Bind to a simulator and schedule the first window edge."""
        if self._sim is not None:
            raise RuntimeError("StreamingSampler.attach() called twice")
        self._sim = sim
        sim.schedule(self.window, self._tick)
        self._started = True
        return self

    def bind_receivers(self, receivers) -> None:
        """Tell the sampler the multicast group (delivery-ratio maths)."""
        self._receivers = frozenset(int(r) for r in receivers)

    def bind_sessions(self, sessions) -> None:
        """Register per-flow columns from ``{SessionSpec: receiver ids}``.

        Each spec contributes two columns to every subsequent sample —
        ``delivers_w.<key>`` (that flow's deliveries inside the window)
        and ``delivery_ratio.<key>`` (distinct member receivers reached
        so far over the member count) — keyed by
        :meth:`~repro.traffic.spec.SessionSpec.key`.  Attribution walks
        only the trace records appended since the previous window
        (DELIVER details carry the ``(source, group, seq)`` flow key),
        so the whole-run cost stays one pass over the stored records.
        """
        self._flow_meta = []
        self._flow_members = {}
        self._flow_total = {}
        self._flow_nodes = {}
        self._flow_last = {}
        for spec, members in sessions.items():
            fl = tuple(spec.flow)
            self._flow_meta.append((spec.key(), fl))
            self._flow_members[fl] = frozenset(int(m) for m in members)
            self._flow_total[fl] = 0
            self._flow_nodes[fl] = set()
            self._flow_last[fl] = 0

    # ------------------------------------------------------------------ #
    # the per-window callback
    # ------------------------------------------------------------------ #
    def _totals(self) -> dict:
        counts = self._sim.trace.counts
        tx = rx = col = 0
        for (kind, _pt), v in counts.items():
            if kind is TraceKind.TX:
                tx += v
            elif kind is TraceKind.RX:
                rx += v
            elif kind is TraceKind.COLLISION:
                col += v
        return {
            "tx": tx,
            "rx": rx,
            "delivers": self._sim.trace.count(TraceKind.DELIVER),
            "collisions": col,
            "route_errors": counts[(TraceKind.TX, "RouteError")],
        }

    def sample_now(self) -> Sample:
        """Close a window at the current instant (also used by _tick)."""
        sim = self._sim
        if sim is None:
            raise RuntimeError("StreamingSampler.sample_now() before attach()")
        totals = self._totals()
        trace = sim.trace
        if not trace.counters_only and self._receivers:
            self._delivered = trace.nodes_with(TraceKind.DELIVER) & self._receivers
            ratio = len(self._delivered) / len(self._receivers)
        else:
            ratio = 0.0
        forwarders = (
            len(trace.nodes_with(TraceKind.TX, "DataPacket"))
            if not trace.counters_only
            else 0
        )
        sess: tuple = ()
        if self._flow_meta and not trace.counters_only:
            recs = trace.records
            for rec in recs[self._scan_pos:]:
                d = rec.detail
                if (
                    rec.kind is TraceKind.DELIVER
                    and isinstance(d, tuple)
                    and len(d) == 3
                ):
                    fl = (d[0], d[1])
                    tot = self._flow_total.get(fl)
                    if tot is not None:
                        self._flow_total[fl] = tot + 1
                        if rec.node in self._flow_members[fl]:
                            self._flow_nodes[fl].add(rec.node)
            self._scan_pos = len(recs)
            cols = []
            for key, fl in self._flow_meta:
                total = self._flow_total[fl]
                members = self._flow_members[fl]
                ratio = len(self._flow_nodes[fl]) / len(members) if members else 0.0
                cols.append((key, total - self._flow_last[fl], ratio))
                self._flow_last[fl] = total
            sess = tuple(cols)
        s = Sample(
            time=float(sim.now),
            tx_w=totals["tx"] - self._last["tx"],
            rx_w=totals["rx"] - self._last["rx"],
            delivers_w=totals["delivers"] - self._last["delivers"],
            collisions_w=totals["collisions"] - self._last["collisions"],
            route_errors_w=totals["route_errors"] - self._last["route_errors"],
            delivery_ratio=ratio,
            forwarders=forwarders,
            pending=sim.heap_depth,
            sessions=sess,
        )
        self._last = totals
        self.samples.append(s)
        if self.on_sample is not None:
            self.on_sample(s)
        return s

    def _tick(self) -> None:
        self.sample_now()
        self._sim.schedule(self.window, self._tick)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def series(self, field: str) -> List[float]:
        """One column of the sampled series, by :class:`Sample` field name."""
        return [getattr(s, field) for s in self.samples]

    def to_jsonl(self) -> str:
        """One JSON object per sample, in time order."""
        return "\n".join(json.dumps(s.to_dict(), default=float) for s in self.samples)
