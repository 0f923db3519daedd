"""The runtime invariant-checking harness.

Wiring order matters: :meth:`CheckHarness.attach` must run *before* the
:class:`~repro.net.network.Network` is built (the channel caches a bound
``trace.emit`` at construction, and the harness's RouteError watcher
shadows it), and :meth:`CheckHarness.bind_network` after agents are
installed.  As a run hook (:mod:`repro.sim.hooks`) the harness does both
itself, checkpoints when route discovery ends and at the end of the run,
then detaches: :func:`repro.experiments.runner.run_single` passes
``check=`` in its hook list, and :func:`repro.check.fuzz.run_scenario`
and the chaos campaign pass it to ``build_prefix`` beside their stressors.

The harness only ever *reads* simulator state: it emits no trace records,
draws from no rng stream, and schedules no events, so an attached harness
cannot perturb a run — the trace digest with and without it is identical
(pinned by ``tests/check/test_harness_overhead.py``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.check.invariants import (
    DATA_PACKET_TYPES,
    check_energy,
    check_feasible_forwarding,
    check_repair,
    check_sessions,
    scan_degraded,
    scan_trace,
)
from repro.check.violations import Finding, InvariantViolation
from repro.sim.hooks import RunHook
from repro.sim.trace import TraceKind

__all__ = ["CheckHarness", "CheckReport", "INVARIANTS"]

#: Every invariant the harness can enforce, by selection key.
INVARIANTS = (
    "trace-time-monotone",
    "silent-when-down",
    "deliver-membership",
    "profit-nonnegative",
    "path-profit-sum",
    "seq-monotone",
    "energy-conserved",
    "feasible-forwarding-set",
    "no-repair-storm",
    "repair-converges-or-degrades",
    "degraded-ttl-bounded",
)


class CheckReport:
    """What a harness observed over one run."""

    def __init__(self) -> None:
        #: violations in detection order (mode="collect"; with
        #: mode="raise" the first one is raised instead)
        self.violations: List[InvariantViolation] = []
        #: checkpoint labels in execution order
        self.checkpoints: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"ok ({len(self.checkpoints)} checkpoints, 0 violations)"
        by_inv: Dict[str, int] = {}
        for v in self.violations:
            by_inv[v.invariant] = by_inv.get(v.invariant, 0) + 1
        detail = ", ".join(f"{k}={n}" for k, n in sorted(by_inv.items()))
        return f"{len(self.violations)} violation(s): {detail}"


class CheckHarness(RunHook):
    """Attach to a run and assert protocol invariants at checkpoints.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) raises the first :class:`InvariantViolation`
        where it is detected — including from inside the event loop for
        the RouteError checkpoint — which is what tests want.
        ``"collect"`` accumulates violations on :attr:`report` and lets
        the run finish, which is what fuzz campaigns want.
    invariants:
        Subset of :data:`INVARIANTS` to enforce (default: all).
    on_route_error:
        Run a checkpoint whenever a RouteError transmission appears in
        the trace (default True; at most once per simulated instant).
    """

    def __init__(
        self,
        mode: str = "raise",
        invariants: Optional[Sequence[str]] = None,
        on_route_error: bool = True,
    ) -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        selected = tuple(invariants) if invariants is not None else INVARIANTS
        unknown = sorted(set(selected) - set(INVARIANTS))
        if unknown:
            raise ValueError(f"unknown invariants {unknown}; expected among {INVARIANTS}")
        self.mode = mode
        self.enabled = frozenset(selected)
        self.on_route_error = on_route_error
        self.report = CheckReport()
        self.seed: Optional[int] = None
        #: repr-able run description embedded in violations; as a hook the
        #: harness keeps a context set before the run, else uses the config
        self.context: Any = None
        # wiring
        self._sim = None
        self._net = None
        self._agents: Sequence = ()
        self._source: Optional[int] = None
        self._members: Optional[Any] = None
        self._receivers: Tuple[int, ...] = ()
        #: multi-session runs: flow (source, group) -> receiver tuple
        self._sessions: Optional[Dict[Tuple[int, int], Tuple[int, ...]]] = None
        self._watcher = None
        # incremental checker state
        self._scan_pos = 0
        self._last_time = -math.inf
        self._crashed: Set[int] = set()
        self._asleep: Set[int] = set()
        self._prev_seq: Dict[Tuple[int, int, int], int] = {}
        self._prev_consumed: Dict[int, float] = {}
        self._positions0 = None
        self._last_route_error_t: Optional[float] = None
        self._in_checkpoint = False
        self._degraded_pos = 0
        self._degraded_ttl_limit: Optional[int] = None

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach(self, sim, context: Any = None) -> "CheckHarness":
        """Hook into ``sim`` — call before the Network is constructed.

        ``context`` is any repr-able description of the run (typically
        the :class:`SimulationConfig` or a fuzz ``Scenario``) embedded in
        violation messages as the repro recipe.
        """
        if self._sim is not None:
            raise RuntimeError("CheckHarness.attach() called twice")
        trace = sim.trace
        if trace.counters_only:
            raise ValueError(
                "CheckHarness needs stored trace records; "
                "TraceRecorder(counters_only=True) keeps none"
            )
        needed = {TraceKind.TX, TraceKind.DELIVER, TraceKind.NOTE}
        if trace._enabled is not None and not needed <= trace._enabled:
            missing = sorted(k.value for k in needed - trace._enabled)
            raise ValueError(f"CheckHarness needs trace kinds {missing} enabled")
        self._sim = sim
        self.seed = sim.rng.seed
        self.context = context
        if self.on_route_error:
            self._watcher = self._on_emit
            trace.add_watcher(self._watcher)
        return self

    def bind_network(
        self,
        net,
        agents: Sequence,
        source: int,
        group: int,
        receivers: Sequence[int],
        sessions: Optional[Dict[Tuple[int, int], Sequence[int]]] = None,
    ) -> None:
        """Point the harness at the built deployment — call after install().

        ``sessions`` (multi-session runs) maps each flow's
        ``(source, group)`` key to its installed receiver set; membership
        and feasible-forwarding checks then run *per session* instead of
        against the single configured group.
        """
        self._net = net
        self._agents = agents
        self._source = int(source)
        self._receivers = tuple(int(r) for r in receivers)
        if sessions is not None:
            self._sessions = {
                (int(s), int(g)): tuple(int(r) for r in recv)
                for (s, g), recv in sessions.items()
            }
            # per-group membership for the deliver-membership scan; the
            # session's source may legitimately deliver too (loopback is
            # filtered at the agent), so membership is what the nodes say
            self._members = {
                g: {n.node_id for n in net.nodes if n.is_member(g)}
                for (_s, g) in self._sessions
            }
        else:
            self._members = {n.node_id for n in net.nodes if n.is_member(group)}
        self._positions0 = net.positions.copy()
        # the channel caches a bound trace.emit at construction; if the
        # harness was attached afterwards, rebind so the RouteError
        # watcher still sees every record
        if self._watcher is not None and net.channel is not None:
            net.channel._emit = net.sim.trace.emit

    def detach(self) -> None:
        """Remove the trace watcher (leave collected results intact)."""
        if self._watcher is not None and self._sim is not None:
            self._sim.trace.remove_watcher(self._watcher)
            self._watcher = None

    # ------------------------------------------------------------------ #
    # run hook events
    # ------------------------------------------------------------------ #
    def on_attach(self, sim, cfg) -> None:
        self.attach(sim, context=cfg if self.context is None else self.context)

    def on_bind(self, net, agents, cfg, receivers, members) -> None:
        self.bind_network(net, agents, cfg.source, cfg.group, receivers, sessions=members)

    def on_phase_end(self, name: str, sim, net) -> None:
        if name == "route-discovery":
            self.checkpoint(name)

    def on_finish(self) -> None:
        self.checkpoint("end-of-run")
        self.detach()

    # ------------------------------------------------------------------ #
    # checkpoints
    # ------------------------------------------------------------------ #
    def checkpoint(self, label: str) -> List[InvariantViolation]:
        """Run every enabled invariant now; returns new violations.

        With ``mode="raise"`` the first finding is raised instead.
        """
        if self._sim is None:
            raise RuntimeError("CheckHarness.checkpoint() before attach()")
        self.report.checkpoints.append(label)
        enabled = self.enabled
        findings: List[Finding] = []

        if enabled & {"trace-time-monotone", "silent-when-down", "deliver-membership"}:
            scanned, self._last_time = scan_trace(
                self._sim.trace.records,
                self._scan_pos,
                self._last_time,
                self._crashed,
                self._asleep,
                self._members,
            )
            self._scan_pos = len(self._sim.trace.records)
            findings.extend(f for f in scanned if f.invariant in enabled)

        if self._agents and enabled & {
            "profit-nonnegative", "path-profit-sum", "seq-monotone"
        }:
            found = check_sessions(self._agents, self._prev_seq)
            findings.extend(f for f in found if f.invariant in enabled)

        if self._agents and enabled & {
            "no-repair-storm", "repair-converges-or-degrades"
        }:
            found = check_repair(self._agents)
            findings.extend(f for f in found if f.invariant in enabled)

        if "degraded-ttl-bounded" in enabled:
            ttl_limit = self._repair_ttl_limit()
            if ttl_limit is not None:
                findings.extend(
                    scan_degraded(
                        self._sim.trace.records, self._degraded_pos, ttl_limit
                    )
                )
                self._degraded_pos = len(self._sim.trace.records)

        if self._net is not None and "energy-conserved" in enabled:
            findings.extend(check_energy(self._net.nodes, self._prev_consumed))

        if (
            self._net is not None
            and "feasible-forwarding-set" in enabled
            and label == "end-of-run"
            and not self._moved()
        ):
            trace = self._sim.trace
            transmitters: Set[int] = set()
            for ptype in DATA_PACKET_TYPES:
                transmitters |= trace.nodes_with(TraceKind.TX, ptype)
            if self._sessions is not None:
                findings.extend(self._check_session_forwarding(transmitters))
            else:
                delivered = trace.nodes_with(TraceKind.DELIVER)
                findings.extend(
                    check_feasible_forwarding(
                        self._net.graph(),
                        self._source,
                        self._receivers,
                        transmitters,
                        delivered,
                    )
                )

        violations = [
            InvariantViolation(
                f, seed=self.seed, checkpoint=label, context=self.context
            )
            for f in findings
        ]
        if violations and self.mode == "raise":
            raise violations[0]
        self.report.violations.extend(violations)
        return violations

    def _check_session_forwarding(self, tx_nodes: Set[int]) -> List[Finding]:
        """Per-session Sec. III feasibility on a multi-session run.

        TX trace details carry only packet uids, so per-session
        transmitters come from the protocol layer's own accounting
        (``data_tx_by_session``), intersected with the nodes that really
        have a data TX record — a scheduled forward swallowed by a crash
        claims no airtime.  Sessions whose agents keep no such accounting
        (stateless relays, e.g. geographic forwarding) are skipped: there
        is no per-session transmitter claim to validate.
        """
        findings: List[Finding] = []
        graph = self._net.graph()
        trace = self._sim.trace
        for (source, group), receivers in self._sessions.items():
            claimed: Set[int] = set()
            for agent in self._agents:
                counts = getattr(agent, "data_tx_by_session", None)
                if counts and counts.get((source, group), 0) > 0:
                    claimed.add(agent.node_id)
            if not claimed:
                continue
            delivered: Set[int] = set()
            for rec in trace.filter(TraceKind.DELIVER):
                d = rec.detail
                if (
                    isinstance(d, tuple)
                    and len(d) == 3
                    and d[0] == source
                    and d[1] == group
                ):
                    delivered.add(rec.node)
            findings.extend(
                check_feasible_forwarding(
                    graph, source, receivers, claimed & tx_nodes, delivered
                )
            )
        return findings

    def _repair_ttl_limit(self) -> Optional[int]:
        """Largest installed ``degraded_ttl`` across agents (None = layer off).

        Cached after the first hit: policies are installed once,
        post-install, and never swapped mid-run.
        """
        if self._degraded_ttl_limit is not None:
            return self._degraded_ttl_limit
        limit = None
        for agent in self._agents:
            policy = getattr(agent, "repair_policy", None)
            if policy is not None:
                ttl = int(policy.degraded_ttl)
                limit = ttl if limit is None else max(limit, ttl)
        self._degraded_ttl_limit = limit
        return limit

    def _moved(self) -> bool:
        """Did any node move since bind_network()? (mobility runs)"""
        if self._positions0 is None or self._net is None:
            return False
        pos = self._net.positions
        return pos.shape != self._positions0.shape or bool(
            (pos != self._positions0).any()
        )

    # ------------------------------------------------------------------ #
    # trace watcher
    # ------------------------------------------------------------------ #
    def _on_emit(self, time, kind, node, packet_type, detail) -> None:
        if kind is TraceKind.TX and packet_type == "RouteError":
            # debounce to one checkpoint per simulated instant — one
            # RouteError typically fans out into several transmissions
            if time != self._last_route_error_t and not self._in_checkpoint:
                self._last_route_error_t = time
                self._in_checkpoint = True
                try:
                    self.checkpoint("route-error")
                finally:
                    self._in_checkpoint = False
