"""Reconstructing multicast trees from protocol state and traces."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set

from repro.sim.trace import TraceKind, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

    from repro.protocols.base import OnDemandMulticastAgent

__all__ = ["forwarder_set", "reverse_path_tree", "data_tree_from_trace"]


def forwarder_set(agents: Sequence["OnDemandMulticastAgent"], source: int, group: int) -> Set[int]:
    """Node ids whose FG flag is set for the (source, group) session."""
    out = set()
    for a in agents:
        st = a.state_of(source, group)
        if st is not None and st.is_forwarder:
            out.add(a.node_id)
    return out


def reverse_path_tree(
    agents: Sequence["OnDemandMulticastAgent"], source: int, group: int
) -> "nx.DiGraph":
    """The tree implied by each node's learned upstream pointer.

    Edges point downstream (parent -> child).  Note that path-handover
    forwarders receive data from a *neighbor forwarder* rather than their
    JoinQuery upstream, so for MTMRP-with-PHS the data-plane tree
    (:func:`data_tree_from_trace`) is the authoritative structure; this
    one reflects control-plane reverse paths.
    """
    import networkx as nx

    t = nx.DiGraph()
    t.add_node(source)
    for a in agents:
        st = a.state_of(source, group)
        if st is None or st.upstream is None:
            continue
        if st.is_forwarder or st.covered:
            t.add_edge(st.upstream, a.node_id)
    return t


def data_tree_from_trace(trace: TraceRecorder, source: int) -> "nx.DiGraph":
    """Who-heard-the-data-first-from-whom tree.

    Uses the uid stamped on every per-hop data transmission: a TX record
    maps uid -> transmitter; each node's first data RX record names the
    uid it received, i.e. its data-plane parent.  Requires RX records to
    be retained by the trace.
    """
    import networkx as nx

    uid_sender: Dict[int, int] = {}
    for rec in trace.filter(kind=TraceKind.TX, packet_type="DataPacket"):
        uid_sender[rec.detail] = rec.node
    t = nx.DiGraph()
    t.add_node(source)
    seen: Set[int] = {source}
    for rec in trace.records:
        if rec.kind is not TraceKind.RX or rec.packet_type != "DataPacket":
            continue
        if rec.node in seen:
            continue
        sender = uid_sender.get(rec.detail)
        if sender is None:  # pragma: no cover - foreign uid
            continue
        t.add_edge(sender, rec.node)
        seen.add(rec.node)
    return t
