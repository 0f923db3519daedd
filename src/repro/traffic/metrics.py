"""Per-session and aggregate traffic metrics.

DELIVER records carry the flow key ``(source, group, seq)`` in their
detail, so deliveries attribute to sessions straight from the trace.  TX
records carry only the packet uid (changing that detail would break every
pinned digest), so per-session *transmitter* attribution comes from agent
state — the ``data_tx_by_session`` counters the protocol layer maintains
— and per-session forwarder sets come from each agent's session table.

Aggregate measures:

* **fairness** — Jain's index over per-session delivery ratios
  (``(Σx)² / (n·Σx²)``); 1.0 means every session is served equally, 1/n
  means one session starved the rest.
* **shared-forwarder ratio** — nodes forwarding for ≥ 2 sessions over
  nodes forwarding for ≥ 1: MTMRP's cross-session reuse, the quantity
  the ``traffic`` CLI ramps against ODMRP.
* **saturation** — a session set saturates the channel when aggregate
  delivery drops below a threshold (default 0.95); the ``traffic`` CLI
  ramps session count to locate the knee (see ``docs/TRAFFIC.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.sim.trace import TraceKind, TraceRecorder
from repro.traffic.spec import SessionSpec

__all__ = [
    "SessionMetrics",
    "TrafficMetrics",
    "jain_fairness",
    "session_deliveries",
    "flow_delivery_columns",
    "session_forwarders",
    "flow_forwarder_columns",
    "session_transmitters",
    "collect_traffic_metrics",
    "SATURATION_THRESHOLD",
]

#: aggregate delivery ratio below which the channel counts as saturated
SATURATION_THRESHOLD = 0.95

#: packet types counting as data-plane transmissions (mirrors
#: ``repro.check.invariants.DATA_PACKET_TYPES``; the traffic layer keeps
#: its own copy so it never imports the check layer)
_DATA_TYPES = ("DataPacket", "GeoDataPacket", "FloodPacket", "ScopedFloodData")


@dataclass(frozen=True)
class SessionMetrics:
    """One session's slice of a multi-session run."""

    source: int
    group: int
    n_receivers: int
    #: receivers with at least one DELIVER of this session's flow
    delivered: int
    #: total application deliveries (across all packets of the stream)
    deliveries: int
    #: packets the source originated
    packets_sent: int
    #: deliveries / (packets_sent * n_receivers)
    delivery_ratio: float
    #: deliveries per simulated second of this session's data window
    goodput: float
    #: nodes holding FG state for this session (source excluded)
    forwarders: Tuple[int, ...]

    @property
    def flow(self) -> Tuple[int, int]:
        return (self.source, self.group)


@dataclass(frozen=True)
class TrafficMetrics:
    """Aggregate view over every session of one run."""

    sessions: Tuple[SessionMetrics, ...]
    #: Jain's fairness index over per-session delivery ratios
    fairness: float
    #: nodes forwarding for >= 1 session
    forwarding_nodes: int
    #: nodes forwarding for >= 2 sessions
    shared_forwarders: int
    #: shared_forwarders / forwarding_nodes (0.0 when none forward)
    shared_forwarder_ratio: float
    #: sum of per-session forwarder-set sizes minus distinct forwarders —
    #: the per-node state MTMRP's forwarder sharing amortises
    forwarder_reuse: int
    #: all data-plane transmissions (every session, every packet)
    aggregate_data_tx: int
    #: all application deliveries
    aggregate_deliveries: int
    #: mean per-session delivery ratio
    aggregate_delivery_ratio: float
    #: aggregate_delivery_ratio < SATURATION_THRESHOLD
    saturated: bool


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index; 1.0 for empty/uniform inputs."""
    vals = [float(v) for v in values]
    if not vals:
        return 1.0
    total = sum(vals)
    squares = sum(v * v for v in vals)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(vals) * squares)


def flow_delivery_columns(
    trace: TraceRecorder, flows: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], Tuple[Set[int], int]]:
    """``{flow: (receivers that delivered, total deliveries)}``, one pass.

    DELIVER details are flow keys ``(source, group, seq)``; matching on
    the (source, group) prefix collects every packet of each stream.
    The per-flow :func:`session_deliveries` scan is O(records) *per
    flow*; multi-session plans (and the batch kernel's campaigns) call
    this columnar form instead — O(records) once for the whole plan.
    """
    out: Dict[Tuple[int, int], Tuple[Set[int], int]] = {
        (int(s), int(g)): (set(), 0) for s, g in flows
    }
    for rec in trace.filter(TraceKind.DELIVER):
        d = rec.detail
        if isinstance(d, tuple) and len(d) == 3:
            cell = out.get((d[0], d[1]))
            if cell is not None:
                nodes, total = cell
                nodes.add(rec.node)
                out[(d[0], d[1])] = (nodes, total + 1)
    return out


def session_deliveries(
    trace: TraceRecorder, flow: Tuple[int, int]
) -> Tuple[Set[int], int]:
    """(receivers that delivered, total deliveries) for one flow."""
    return flow_delivery_columns(trace, [flow])[tuple(int(x) for x in flow)]


def flow_forwarder_columns(
    agents: Sequence, flows: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], Set[int]]:
    """``{flow: forwarder node set}`` in one pass over the agents.

    Each agent's session table is consulted once for every flow of the
    plan, instead of re-walking all agents per flow.
    """
    keys = [tuple(int(x) for x in f) for f in flows]
    out: Dict[Tuple[int, int], Set[int]] = {k: set() for k in keys}
    for a in agents:
        sessions = getattr(a, "sessions", None)
        if not sessions:
            continue
        for k in keys:
            st = sessions.get(k)
            if st is not None and st.is_forwarder:
                out[k].add(a.node_id)
    return out


def session_forwarders(agents: Sequence, flow: Tuple[int, int]) -> Set[int]:
    """Nodes holding forwarder state for ``flow`` (from agent session tables)."""
    return flow_forwarder_columns(agents, [flow])[tuple(int(x) for x in flow)]


def session_transmitters(agents: Sequence, flow: Tuple[int, int]) -> Set[int]:
    """Nodes that transmitted data for ``flow``, from agent accounting.

    TX trace details carry no session identity, so this reads the
    protocol layer's per-session counters; callers wanting physical
    ground truth intersect with ``trace.nodes_with(TX, <data types>)``
    (a scheduled forward can be swallowed by a crash before airtime).
    """
    out: Set[int] = set()
    for a in agents:
        counts = getattr(a, "data_tx_by_session", None)
        if counts and counts.get(flow, 0) > 0:
            out.add(a.node_id)
    return out


def collect_traffic_metrics(
    net,
    agents: Sequence,
    plan: Sequence[SessionSpec],
    members: Dict[Tuple[int, int], List[int]],
    horizon: float,
) -> TrafficMetrics:
    """Assemble the per-session + aggregate view after the run quiesced.

    ``members`` maps each flow to its installed receiver set and
    ``horizon`` is the traffic duration (for goodput normalisation).
    """
    trace = net.sim.trace
    per: List[SessionMetrics] = []
    forwarder_count: Dict[int, int] = {}
    # columnar passes: deliveries and forwarder sets for every flow of
    # the plan are gathered in one trace scan / one agent walk
    flows = [spec.flow for spec in plan]
    delivery_cols = flow_delivery_columns(trace, flows)
    forwarder_cols = flow_forwarder_columns(agents, flows)
    for spec in plan:
        flow = spec.flow
        recv = set(members[flow])
        nodes, total = delivery_cols[flow]
        delivered_nodes = nodes & recv
        fwd = forwarder_cols[flow] - {spec.source}
        for node in fwd:
            forwarder_count[node] = forwarder_count.get(node, 0) + 1
        expected = spec.n_packets * len(recv)
        window = max(horizon - spec.start, 1e-9)
        per.append(
            SessionMetrics(
                source=spec.source,
                group=spec.group,
                n_receivers=len(recv),
                delivered=len(delivered_nodes),
                deliveries=total,
                packets_sent=spec.n_packets,
                delivery_ratio=total / expected if expected else 1.0,
                goodput=total / window if window > 0 else 0.0,
                forwarders=tuple(sorted(fwd)),
            )
        )
    ratios = [s.delivery_ratio for s in per]
    forwarding_nodes = len(forwarder_count)
    shared = sum(1 for n in forwarder_count.values() if n >= 2)
    reuse = sum(forwarder_count.values()) - forwarding_nodes
    data_tx = sum(trace.count(TraceKind.TX, pt) for pt in _DATA_TYPES)
    agg_ratio = sum(ratios) / len(ratios) if ratios else 1.0
    return TrafficMetrics(
        sessions=tuple(per),
        fairness=jain_fairness(ratios),
        forwarding_nodes=forwarding_nodes,
        shared_forwarders=shared,
        shared_forwarder_ratio=(shared / forwarding_nodes) if forwarding_nodes else 0.0,
        forwarder_reuse=reuse,
        aggregate_data_tx=data_tx,
        aggregate_deliveries=sum(s.deliveries for s in per),
        aggregate_delivery_ratio=agg_ratio,
        saturated=agg_ratio < SATURATION_THRESHOLD,
    )
