"""Counter/gauge registry derived from the run's existing instrumentation.

The recorder already maintains a :class:`collections.Counter` over every
``(kind, packet_type)`` pair — even for kinds it stores no records of —
and the channel/network keep their own frame and energy totals.  The registry
therefore *derives* its counters from state the run maintains anyway,
instead of paying a per-emit callback: reading the registry costs a dict
scan at sample time, and an unread registry costs exactly nothing.  That
is what makes the observability layer free when detached and digest-safe
when attached.

Counter semantics (all monotone over a run):

===================  =====================================================
``tx``               radio transmissions (every packet type)
``rx``               successful receptions
``collisions``       frames lost to overlapping transmissions
``drops``            duplicate/TTL/loss drops
``delivers``         application-level multicast deliveries
``join_query_tx``    JoinQuery (re)broadcasts — the flood cost
``join_reply_tx``    JoinReply transmissions
``hello_tx``         HELLO beacon transmissions
``data_tx``          data-plane transmissions
``route_error_tx``   RouteError transmissions (fault recovery traffic)
``phs_prunes``       Path Handover Scheme prunes (``PathHandover`` notes)
``reply_suppressed`` JoinReplies elided by reply suppression
``forwarder_marks``  forwarder-state MARK records (soft-state churn)
===================  =====================================================

Gauges (point-in-time): ``energy_joules``, ``frames_lost``,
``frames_sent``, ``frames_collided``, ``pending_events``, ``forwarders``.

Process-wide (not per-run): ``batch_runs`` / ``batch_sessions`` /
``batch_fallback`` mirror ``repro.sim.batch.STATS`` — how many Monte
Carlo replicates (and (seed × session) flows) went through the
vectorized batch kernel versus fell back to the scalar path, plus a
``batch_fallback.<reason>`` counter per fallback cause.  Likewise the
``service_*`` family mirrors ``repro.service.stats.STATS`` — campaign
requests, result-store cache hits, in-flight coalesces, replicates
re-queued after failures and worker-pool restarts — so an observed run
inside the campaign service exports the service's health counters
through the same Prometheus/JSONL pipeline as the protocol counters.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim.trace import TraceKind, TraceRecorder

__all__ = ["CounterRegistry", "counters_from_trace", "session_counters"]

#: ``(name, kind, packet_type)`` — packet_type None sums every type.
_TRACE_COUNTERS: Tuple[Tuple[str, TraceKind, Optional[str]], ...] = (
    ("tx", TraceKind.TX, None),
    ("rx", TraceKind.RX, None),
    ("collisions", TraceKind.COLLISION, None),
    ("drops", TraceKind.DROP, None),
    ("delivers", TraceKind.DELIVER, None),
    ("join_query_tx", TraceKind.TX, "JoinQuery"),
    ("join_reply_tx", TraceKind.TX, "JoinReply"),
    ("hello_tx", TraceKind.TX, "HelloPacket"),
    ("data_tx", TraceKind.TX, "DataPacket"),
    ("route_error_tx", TraceKind.TX, "RouteError"),
    ("phs_prunes", TraceKind.NOTE, "PathHandover"),
    ("reply_suppressed", TraceKind.NOTE, "ReplySuppressed"),
    ("forwarder_marks", TraceKind.MARK, "Forwarder"),
    # self-healing layer (all zero unless a RepairPolicy is installed)
    ("repair_query_tx", TraceKind.TX, "RepairQuery"),
    ("repair_reply_tx", TraceKind.TX, "RepairReply"),
    ("degraded_data_tx", TraceKind.TX, "ScopedFloodData"),
    ("grafts_ok", TraceKind.NOTE, "GraftOk"),
    ("grafts_failed", TraceKind.NOTE, "GraftFail"),
    ("route_state_changes", TraceKind.NOTE, "RouteState"),
    ("degraded_forwards", TraceKind.NOTE, "DegradedForward"),
)


def counters_from_trace(trace: TraceRecorder) -> Dict[str, int]:
    """Snapshot the trace's running totals into named counters.

    One pass over ``trace.counts`` (a few dozen keys) — no record scan,
    so it works on a recorder that stores no records too.
    """
    by_kind: Dict[TraceKind, int] = {}
    counts = trace.counts
    for (kind, _pt), v in counts.items():
        by_kind[kind] = by_kind.get(kind, 0) + v
    out: Dict[str, int] = {}
    for name, kind, ptype in _TRACE_COUNTERS:
        out[name] = by_kind.get(kind, 0) if ptype is None else counts[(kind, ptype)]
    return out


def session_counters(trace: TraceRecorder) -> Dict[str, int]:
    """Per-session delivery totals, keyed ``session_delivers.<src>.<grp>``.

    DELIVER record details carry the flow key ``(source, group, seq)``,
    so one pass over the stored records attributes every application
    delivery to its multicast session.  Needs stored DELIVER records
    (empty without them — per-session attribution has no running total
    to lean on); single-session runs simply yield one key.
    """
    out: Dict[str, int] = {}
    for rec in trace.filter(TraceKind.DELIVER):
        d = rec.detail
        if isinstance(d, tuple) and len(d) == 3:
            name = f"session_delivers.{d[0]}.{d[1]}"
            out[name] = out.get(name, 0) + 1
    return out


class CounterRegistry:
    """Named monotone counters plus point-in-time gauges.

    ``refresh`` re-derives every counter from the bound run state; callers
    may also ``inc``/``set_gauge`` directly (custom experiment metrics).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {name: 0 for name, _k, _p in _TRACE_COUNTERS}
        self.counters["batch_runs"] = 0
        self.counters["batch_sessions"] = 0
        self.counters["batch_fallback"] = 0
        from repro.service.stats import STATS as _svc_stats

        for name in _svc_stats.snapshot():
            self.counters[f"service_{name}"] = 0
        self.gauges: Dict[str, float] = {}
        self._trace: Optional[TraceRecorder] = None
        self._net = None
        self._sim = None

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #
    def bind(self, sim=None, net=None) -> "CounterRegistry":
        """Point the registry at a live run (all arguments optional)."""
        if sim is not None:
            self._sim = sim
            self._trace = sim.trace
        if net is not None:
            self._net = net
        return self

    def unbind(self) -> None:
        """Forget the run; the counters and gauges keep their last values."""
        self._sim = self._net = self._trace = None

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def inc(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def refresh(self) -> "CounterRegistry":
        """Re-derive every counter/gauge from the bound run state."""
        if self._trace is not None:
            self.counters.update(counters_from_trace(self._trace))
            self.counters.update(session_counters(self._trace))
        if self._sim is not None:
            self.set_gauge("pending_events", self._sim.heap_depth)
            if self._trace is not None:
                self.set_gauge(
                    "forwarders",
                    len(self._trace.nodes_with(TraceKind.TX, "DataPacket")),
                )
        if self._net is not None:
            self.set_gauge("energy_joules", self._net.energy_summary()["total_joules"])
            ch = self._net.channel
            if ch is not None:
                self.set_gauge("frames_sent", ch.frames_sent)
                self.set_gauge("frames_lost", ch.frames_lost)
                self.set_gauge("frames_collided", ch.frames_collided)
            # MAC-local retry accounting (CSMA unicast): surfaced here so
            # link-layer retry exhaustion is visible next to the
            # route-level repair counters it usually precedes
            self.set_gauge(
                "mac_retries",
                sum(getattr(n.mac, "retries", 0) for n in self._net.nodes),
            )
            self.set_gauge(
                "mac_dropped_retry",
                sum(getattr(n.mac, "dropped_retry", 0) for n in self._net.nodes),
            )
        # Monte Carlo batching stats (process-wide, see repro.sim.batch.STATS):
        # runs served by the vectorized kernel vs scalar fallbacks, with one
        # reason-tagged counter per fallback cause.  This is the
        # ``batch_fallback`` signal PERFORMANCE.md tells readers to check
        # when a campaign is slower than expected.
        from repro.sim.batch import STATS as _batch_stats

        self.counters["batch_runs"] = _batch_stats.batched_runs
        self.counters["batch_sessions"] = _batch_stats.batched_sessions
        self.counters["batch_fallback"] = _batch_stats.fallback_runs
        for reason, n in _batch_stats.fallback_reasons.items():
            self.counters[f"batch_fallback.{reason}"] = n
        # campaign-service health (process-wide, see repro.service.stats):
        # request/dedupe/recovery counters exported alongside the run's
        # protocol counters when a run executes inside the service tier
        from repro.service.stats import STATS as _svc_stats

        for name, n in _svc_stats.snapshot().items():
            self.counters[f"service_{name}"] = n
        return self

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, float]:
        """Counters and gauges flattened into one name->value mapping."""
        out: Dict[str, float] = dict(self.counters)
        out.update(self.gauges)
        return out

    def table(self) -> str:
        """Fixed-width counter/gauge table (the ``obs`` CLI report body)."""
        lines = [f"{'counter':<20} {'value':>14}"]
        for name in sorted(self.counters):
            lines.append(f"{name:<20} {self.counters[name]:>14}")
        for name in sorted(self.gauges):
            v = self.gauges[name]
            shown = f"{v:.6g}"
            lines.append(f"{name:<20} {shown:>14}  (gauge)")
        return "\n".join(lines)
