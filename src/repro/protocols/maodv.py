"""MAODV-style shared-tree multicast (related work, family 1).

The paper's Related Work opens its taxonomy with *tree-based* approaches,
citing MAODV [Perkins & Royer, ref. 8]: a hard-state shared multicast
tree maintained by receiver-initiated joins.  This simplified,
single-source variant captures the family's defining trade-off — a strict
tree with per-link parent/child state gives low forwarding redundancy but
brittle routes ("high data forwarding efficiency at the expense of low
robustness", ref. [17]):

* the source floods a **GroupHello** (our RouteRequest analogue) carrying
  a sequence number and hop count, establishing fresh upstream pointers;
* each receiver unicasts a **TreeJoin** up its pointer chain; every node
  the join traverses activates the link to the child it heard it from,
  becoming a tree member (forwarder) exactly like MAODV's MACT-grafted
  branches;
* data flows down the tree only: a tree node rebroadcasts a packet only
  if it arrived *from its tree parent* — the strict-tree rule that
  distinguishes this family from ODMRP's forwarding-group mesh (any
  forwarder rebroadcasts any first copy);
* a node whose parent link breaks is **pruned** (it cannot repair
  locally in this simplified variant); delivery then fails until the next
  GroupHello round rebuilds the branch.

Differences from full MAODV, kept out of scope deliberately: multicast
group leaders and group-sequence-number management, mid-session member
join/leave grafting and pruning, and link-breakage repair timers.  What
remains is the family's structural behaviour, which is what the
comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Set, Tuple

from repro.core.messages import JoinQuery, JoinReply
from repro.net.agent import Agent
from repro.net.packet import DataPacket, Packet
from repro.protocols.base import OnDemandMulticastAgent, SessionState
from repro.sim.trace import TraceKind

__all__ = ["MaodvAgent"]


class MaodvAgent(OnDemandMulticastAgent):
    """Simplified single-source MAODV: strict shared tree, parent-only data.

    Reuses the on-demand framework's JoinQuery/JoinReply machinery (the
    GroupHello/TreeJoin pair maps onto it) but enforces tree semantics in
    the data plane: packets are accepted only from the tree parent, and
    each tree node tracks its child set explicitly.
    """

    protocol_name = "MAODV"

    def __init__(self, query_jitter: float = 2e-3, **kwargs) -> None:
        super().__init__(query_jitter=query_jitter, **kwargs)
        #: per (source, group): the children whose TreeJoins we accepted
        self.tree_children: Dict[Tuple[int, int], Set[int]] = {}

    # ------------------------------------------------------------------ #
    # control plane: framework defaults = flood + reverse-path joins;
    # the tree structure is recorded via the children sets.
    # ------------------------------------------------------------------ #
    def _recv_join_query(self, jq: JoinQuery) -> None:
        key = (jq.source, jq.group)
        st = self.sessions.get(key)
        if st is None or jq.seq > st.seq:
            # a fresh GroupHello round invalidates the old branch structure
            self.tree_children.pop(key, None)
        super()._recv_join_query(jq)

    def _reply_as_nexthop(self, jr: JoinReply, st: SessionState) -> None:
        if jr.receiver in st.acted_nexthop_for:
            return
        # activate the tree link to the child that sent this TreeJoin
        self.tree_children.setdefault((st.source, st.group), set()).add(jr.src)
        super()._reply_as_nexthop(jr, st)

    # ------------------------------------------------------------------ #
    # data plane: strict tree — accept only from the parent
    # ------------------------------------------------------------------ #
    def _recv_data(self, pkt: DataPacket) -> None:
        st = self.sessions.get((pkt.source, pkt.group))
        if st is not None and st.upstream is not None and pkt.src != st.upstream:
            # Not from our tree parent: a strict tree ignores side copies
            # (unless we have no session at all, in which case there is
            # nothing to do either).
            key = pkt.flow_key
            if key not in self.data_seen and self.node.is_member(pkt.group):
                # strict trees do not even deliver off-tree copies; MAODV
                # receivers get data exclusively through their branch
                self.sim.trace.emit(
                    self.sim.now, TraceKind.DROP, self.node_id, pkt.ptype, "off-tree"
                )
            return
        super()._recv_data(pkt)

    # ------------------------------------------------------------------ #
    # inspection / maintenance helpers
    # ------------------------------------------------------------------ #
    def children_of(self, source: int, group: int) -> Set[int]:
        """Active downstream tree links."""
        return set(self.tree_children.get((source, group), set()))

    def prune_child(self, source: int, group: int, child: int) -> None:
        """Drop a broken downstream link (MAODV prune)."""
        self.tree_children.get((source, group), set()).discard(child)

    def _graft_adopt(self, child: int, st: SessionState) -> None:
        """A graft re-attaches ``child`` as an explicit tree link.

        MAODV's strict data plane accepts packets only from the tree
        parent, so the self-healing layer must record grafted children the
        same way JoinReply-built branches are recorded — otherwise the
        donor would forward data the grafted subtree then discards.
        """
        super()._graft_adopt(child, st)
        self.tree_children.setdefault((st.source, st.group), set()).add(child)
