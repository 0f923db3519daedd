"""Metrics for runs with fault injection.

All functions consume the trace (DELIVER records and the injector's
``"Fault"`` NOTE records) plus static deployment facts — the same
discipline as :mod:`repro.metrics.collect`: no protocol internals.

Three fault-specific measurements:

* **delivery ratio under faults** — per-packet and aggregate fractions of
  receivers reached, split before/after the first crash;
* **recovery latency** — seconds from a crash until the first packet sent
  *after* the crash reaches a threshold fraction of the surviving
  receivers (how fast the refresh/RouteError cycle heals the tree);
* **time to first partition** — when the crash schedule first disconnects
  a surviving receiver from the source in the residual connectivity
  graph: past that instant no protocol can deliver to everyone, so it
  bounds the network's useful lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.sim.trace import TraceKind, TraceRecorder

__all__ = [
    "FaultMetrics",
    "fault_log",
    "fault_timeline",
    "deliveries_by_seq",
    "delivery_ratio",
    "recovery_latency",
    "first_partition_time",
    "collect_fault_metrics",
    "windowed_delivery",
    "mean_time_to_recovery",
    "route_state_timeline",
    "time_in_state",
]


@dataclass(frozen=True)
class FaultMetrics:
    """Aggregate outcome of one faulty multicast run."""

    #: delivered receiver-packets / expected receiver-packets, whole run
    delivery_ratio: float
    #: same, restricted to packets sent before the first crash
    pre_fault_delivery: float
    #: same, packets sent at/after the first crash (surviving receivers only)
    post_fault_delivery: float
    #: seconds from first crash to the first post-crash packet reaching
    #: ``threshold`` of the surviving receivers; None if never
    recovery_latency: Optional[float]
    #: when the crash schedule first partitions a surviving receiver from
    #: the source; None if the residual graph stays connected
    time_to_first_partition: Optional[float]
    packets_sent: int
    crashes: int


def fault_log(trace: TraceRecorder) -> List[Tuple[float, int, str, str]]:
    """The injector's applied-fault log from its NOTE records:
    (time, node, kind, cause)."""
    return [
        (rec.time, rec.node, *rec.detail)
        for rec in trace.filter(kind=TraceKind.NOTE, packet_type="Fault")
    ]


def fault_timeline(trace: TraceRecorder) -> List[Tuple[float, int, str]]:
    """Applied faults from the injector's NOTE records: (time, node, kind)."""
    return [(t, n, kind) for t, n, kind, _cause in fault_log(trace)]


def deliveries_by_seq(
    trace: TraceRecorder,
    receivers: Iterable[int],
    source: int = 0,
    group: int = 1,
) -> Dict[int, List[Tuple[float, int]]]:
    """Per data seq: sorted (time, receiver) delivery events."""
    r = set(receivers)
    out: Dict[int, List[Tuple[float, int]]] = {}
    for rec in trace.filter(kind=TraceKind.DELIVER):
        if rec.node not in r or not isinstance(rec.detail, tuple):
            continue
        src, grp, seq = rec.detail
        if src != source or grp != group:
            continue
        out.setdefault(seq, []).append((rec.time, rec.node))
    for lst in out.values():
        lst.sort()
    return out


def delivery_ratio(
    trace: TraceRecorder,
    receivers: Sequence[int],
    seqs: Sequence[int],
    source: int = 0,
    group: int = 1,
) -> float:
    """Delivered receiver-packets over ``len(seqs) * len(receivers)``."""
    if not receivers or not seqs:
        return 1.0
    by_seq = deliveries_by_seq(trace, receivers, source, group)
    want = set(seqs)
    got = sum(len({node for _t, node in evs}) for s, evs in by_seq.items() if s in want)
    return got / (len(want) * len(set(receivers)))


def recovery_latency(
    trace: TraceRecorder,
    receivers: Sequence[int],
    crash_time: float,
    send_times: Dict[int, float],
    source: int = 0,
    group: int = 1,
    threshold: float = 0.9,
    surviving: Optional[Set[int]] = None,
) -> Optional[float]:
    """Seconds from ``crash_time`` until delivery recovers.

    Recovery = the earliest instant at which some packet sent at/after
    the crash has reached at least ``threshold`` of the ``surviving``
    receivers (default: all receivers).  ``send_times`` maps data seq ->
    application send time.  Returns None when no post-crash packet ever
    crosses the threshold.
    """
    alive = set(surviving) if surviving is not None else set(receivers)
    if not alive:
        return None
    need = max(1, math.ceil(threshold * len(alive)))
    by_seq = deliveries_by_seq(trace, alive, source, group)
    best: Optional[float] = None
    for seq, t_sent in send_times.items():
        if t_sent < crash_time:
            continue
        first_delivery: Dict[int, float] = {}
        for t, node in by_seq.get(seq, []):
            first_delivery.setdefault(node, t)
        times = sorted(first_delivery.values())
        if len(times) >= need:
            t_ok = times[need - 1]
            lat = t_ok - crash_time
            if best is None or lat < best:
                best = lat
    return best


def windowed_delivery(
    trace: TraceRecorder,
    receivers: Sequence[int],
    send_times: Dict[int, float],
    window: float,
    source: int = 0,
    group: int = 1,
) -> List[Tuple[float, float]]:
    """Delivery ratio per time window of the send schedule.

    Packets are bucketed by *send* time into ``window``-second bins (so a
    late delivery still credits the window its packet belongs to — the
    availability question is "of the traffic offered in this interval,
    how much arrived at all").  Returns sorted ``(window_start, ratio)``
    pairs; windows with no traffic are omitted.
    """
    if not receivers or not send_times or window <= 0:
        return []
    n_recv = len(set(receivers))
    by_seq = deliveries_by_seq(trace, receivers, source, group)
    buckets: Dict[int, List[int]] = {}
    for seq, t in send_times.items():
        buckets.setdefault(int(t // window), []).append(seq)
    out: List[Tuple[float, float]] = []
    for k in sorted(buckets):
        seqs = buckets[k]
        got = sum(
            len({node for _t, node in by_seq.get(s, [])}) for s in seqs
        )
        out.append((k * window, got / (len(seqs) * n_recv)))
    return out


def mean_time_to_recovery(
    trace: TraceRecorder,
    receivers: Sequence[int],
    send_times: Dict[int, float],
    source: int = 0,
    group: int = 1,
    threshold: float = 0.9,
    surviving: Optional[Set[int]] = None,
) -> Tuple[Optional[float], int, int]:
    """MTTR over every crash in the trace.

    Computes :func:`recovery_latency` per crash event and returns
    ``(mean_latency_or_None, recovered_count, crash_count)`` — the MTTR
    is over the crashes that recovered at all; the two counts let callers
    report unrecovered crashes honestly instead of hiding them in a mean.
    """
    crashes = [(t, n) for t, n, kind in fault_timeline(trace) if kind == "crash"]
    if surviving is None:
        surviving = set(receivers) - {n for _t, n in crashes}
    lats: List[float] = []
    for t, _n in crashes:
        lat = recovery_latency(
            trace, receivers, t, send_times, source, group,
            threshold=threshold, surviving=surviving,
        )
        if lat is not None:
            lats.append(lat)
    mttr = sum(lats) / len(lats) if lats else None
    return mttr, len(lats), len(crashes)


def route_state_timeline(trace: TraceRecorder) -> List[Tuple[float, int, str, str]]:
    """Route-state transitions: sorted ``(time, node, state, reason)``.

    Emitted by the self-healing layer as ``NOTE "RouteState"`` records;
    empty for flag-off runs.
    """
    out = []
    for rec in trace.filter(kind=TraceKind.NOTE, packet_type="RouteState"):
        state, _source, _group, reason = rec.detail
        out.append((rec.time, rec.node, state, reason))
    out.sort()
    return out


def time_in_state(trace: TraceRecorder, end_time: float) -> Dict[str, float]:
    """Total seconds spent per route state, summed over every session.

    Each (node, source, group) stream contributes from its *first*
    transition onward (sessions are implicitly healthy before that, so
    ``healthy`` here under-counts by design — the interesting totals are
    ``repairing`` and ``degraded``, which are exact).
    """
    totals: Dict[str, float] = {}
    open_state: Dict[Tuple[int, int, int], Tuple[str, float]] = {}
    for rec in trace.filter(kind=TraceKind.NOTE, packet_type="RouteState"):
        state, source, group, _reason = rec.detail
        k = (rec.node, source, group)
        prev = open_state.get(k)
        if prev is not None:
            totals[prev[0]] = totals.get(prev[0], 0.0) + (rec.time - prev[1])
        open_state[k] = (state, rec.time)
    for state, since in open_state.values():
        totals[state] = totals.get(state, 0.0) + (end_time - since)
    return totals


def first_partition_time(
    positions: np.ndarray,
    comm_range: float,
    source: int,
    receivers: Sequence[int],
    crashes: Iterable[Tuple[float, int]],
) -> Optional[float]:
    """When the crash schedule first cuts a surviving receiver off.

    Walks the crashes in time order over the unit-disk connectivity graph
    and returns the first crash time after which the source can no longer
    reach every *surviving* receiver (a crashed receiver stops counting).
    A crashed source partitions everything.  None = never partitioned.
    """
    from repro.net.topology import connectivity_graph

    g = connectivity_graph(np.asarray(positions, dtype=float), comm_range)
    dead: Set[int] = set()
    for t, node in sorted(crashes):
        dead.add(node)
        targets = [r for r in set(receivers) if r not in dead]
        if not targets:
            continue
        if source in dead:
            return t
        sub = g.subgraph(n for n in g.nodes if n not in dead)
        if any(not nx.has_path(sub, source, r) for r in targets):
            return t
    return None


def collect_fault_metrics(
    trace: TraceRecorder,
    positions: np.ndarray,
    comm_range: float,
    receivers: Sequence[int],
    send_times: Dict[int, float],
    source: int = 0,
    group: int = 1,
    threshold: float = 0.9,
) -> FaultMetrics:
    """Assemble all fault metrics for one finished run.

    ``send_times`` maps each data seq the application emitted to its send
    time; the fault timeline is reconstructed from the trace.
    """
    crashes = [(t, n) for t, n, kind in fault_timeline(trace) if kind == "crash"]
    crash_time = crashes[0][0] if crashes else None
    crashed_nodes = {n for _t, n in crashes}
    surviving = set(receivers) - crashed_nodes

    all_seqs = sorted(send_times)
    overall = delivery_ratio(trace, receivers, all_seqs, source, group)
    if crash_time is None:
        return FaultMetrics(
            delivery_ratio=overall,
            pre_fault_delivery=overall,
            post_fault_delivery=overall,
            recovery_latency=None,
            time_to_first_partition=None,
            packets_sent=len(all_seqs),
            crashes=0,
        )
    pre = [s for s in all_seqs if send_times[s] < crash_time]
    post = [s for s in all_seqs if send_times[s] >= crash_time]
    return FaultMetrics(
        delivery_ratio=overall,
        pre_fault_delivery=delivery_ratio(trace, receivers, pre, source, group),
        post_fault_delivery=delivery_ratio(trace, sorted(surviving), post, source, group),
        recovery_latency=recovery_latency(
            trace, receivers, crash_time, send_times, source, group,
            threshold=threshold, surviving=surviving,
        ),
        time_to_first_partition=first_partition_time(
            positions, comm_range, source, receivers, crashes
        ),
        packets_sent=len(all_seqs),
        crashes=len(crashes),
    )
