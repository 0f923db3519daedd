"""MTMRP — the distributed Minimum Transmission Multicast Routing Protocol.

This agent implements Sec. IV of the paper on top of the shared on-demand
framework (:class:`repro.protocols.base.OnDemandMulticastAgent`):

**Biased backoff** (Sec. IV-C-3).  The JoinQuery forwarding delay is
Eq. (4) — see :mod:`repro.core.backoff`.  RelayProfit (Definition 1) is
computed from the neighbor table at JoinQuery arrival, *before* the
backoff starts, and the same cached value is added to the JoinQuery's
PathProfit when it is eventually re-broadcast (this matches the worked
example of Fig. 3, where node E receives ``PP = RP(B) = 2`` even though B
overhears coverage updates while its backoff runs).

**Overhearing marks.**  Every received JoinReply teaches us something
(Sec. IV-C-4): an *original* reply (``NodeID == ReceiverID``) marks the
sender as a covered receiver; a *relayed* reply marks the sender as a
forwarder.  Covered marks feed RelayProfit's "not already covered by other
forwarding nodes" exclusion; forwarder marks feed the path handover
scheme.

**Path handover scheme (PHS)** (Sec. IV-C-4, Algorithms 1-2), enabled by
``phs=True`` (the ``MTMRP w/o PHS`` arm of the evaluation disables it):

* a receiver that already knows a forwarder among its neighbors stays
  silent instead of originating a JoinReply — it is covered for free;
* a node selected as next hop of a JoinReply that knows a forwarder
  neighbor marks *itself* forwarder and drops the reply instead of
  propagating it — handing the path over to the established route and
  pruning the redundant upstream segment;
* a covered receiver selected as next hop marks itself forwarder and
  drops the reply (its own earlier JoinReply already confirmed the
  upstream route).

**Data forwarding / recovery** (Sec. IV-D) come from the base class:
forwarders re-broadcast the first copy of each data packet; receivers that
lose their serving forwarder flood a RouteError so the source rebuilds.
"""

from __future__ import annotations

from typing import Optional

from repro.core.backoff import BackoffParams, BiasedBackoff
from repro.core.messages import JoinQuery, JoinReply, Session
from repro.protocols.base import OnDemandMulticastAgent, SessionState
from repro.sim.trace import TraceKind

__all__ = ["MtmrpAgent"]

# Trace kinds as module globals: an enum member lookup costs ~5x a global
# read on Python 3.11, and these emit sites run once per handled frame.
_MARK = TraceKind.MARK
_NOTE = TraceKind.NOTE

#: Default backoff shared across agents — :class:`BiasedBackoff` is
#: stateless (frozen params, rng passed per call), so one instance
#: serves every node.
_DEFAULT_BACKOFF = BiasedBackoff(BackoffParams())


class MtmrpAgent(OnDemandMulticastAgent):
    """The paper's protocol.  ``phs=False`` gives the "MTMRP w/o PHS" arm."""

    protocol_name = "MTMRP"

    def __init__(
        self,
        backoff: Optional[BiasedBackoff] = None,
        phs: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.backoff = backoff if backoff is not None else _DEFAULT_BACKOFF
        self.phs = phs
        if not phs:
            self.protocol_name = "MTMRP w/o PHS"

    # ------------------------------------------------------------------ #
    # biased backoff hooks
    # ------------------------------------------------------------------ #
    def compute_relay_profit(self, group: int, session: Session) -> int:
        """Definition 1, evaluated against the live neighbor table."""
        return self.node.neighbor_table.relay_profit(group, session)

    def query_forward_delay(self, jq: JoinQuery, st: SessionState) -> float:
        """Eq. (4): the biased backoff delay."""
        return self.backoff.delay(
            relay_profit=st.relay_profit,
            path_profit=st.path_profit,
            is_member=self.node.is_member(jq.group),
            rng=self._rng(),
        )

    # ------------------------------------------------------------------ #
    # Algorithm 1 — RecvJoinQuery, receiver branch
    # ------------------------------------------------------------------ #
    def _receiver_on_query(self, jq: JoinQuery, st: SessionState) -> None:
        st.covered = True
        self.sim.trace.emit(
            self.sim.now, _MARK, self.node_id, "Covered", st.session
        )
        if self.phs and self.node.neighbor_table.has_forwarder(st.session):
            # A forwarder neighbor already connects us to the tree: stay
            # silent (Algorithm 1, lines 4-5).
            st.replied = False
            self.stats["replies_suppressed"] += 1
            self.sim.trace.emit(
                self.sim.now, _NOTE, self.node_id, "ReplySuppressed", st.session
            )
            return
        self._originate_reply(st)

    # ------------------------------------------------------------------ #
    # Algorithm 2 — RecvJoinReply
    # ------------------------------------------------------------------ #
    def _reply_as_nexthop(self, jr: JoinReply, st: SessionState) -> None:
        if jr.receiver in st.acted_nexthop_for:
            return
        st.acted_nexthop_for.add(jr.receiver)
        # The sender chose us as its route to the source: from now on its
        # data delivery depends on us, so it must never serve as *our*
        # handover target (the paper's pseudocode checks only "any
        # forwarder among neighbors"; without this exclusion two nodes can
        # each wait for data from the other and the subtree starves).
        st.downstream_children.add(jr.src)
        self._learn_from_reply(jr, st)
        if self.node_id == st.source:
            self._source_accept_reply(jr, st)
            return
        if self.phs and self.node.neighbor_table.has_forwarder(
            st.session, exclude=st.downstream_children
        ):
            # Path handover (Algorithm 2, lines 4-6): an established route
            # already passes next to us; join it instead of extending the
            # redundant reverse path toward the source.
            if not st.is_forwarder:
                self._become_forwarder(st)
                self.stats["handovers"] += 1
                self.sim.trace.emit(
                    self.sim.now, _NOTE, self.node_id, "PathHandover", st.session
                )
            return
        if st.is_forwarder:
            return  # route to the source already confirmed through us (l. 8-9)
        if self.node.is_member(st.group) and st.covered and st.replied:
            # Covered receiver asked to relay: our own JoinReply already
            # built the upstream route; just turn on forwarding (l. 10-12).
            self._become_forwarder(st)
            return
        self._become_forwarder(st)
        self._forward_reply(jr, st)

    def _reply_overheard(self, jr: JoinReply, st: SessionState) -> None:
        self._learn_from_reply(jr, st)

    # ------------------------------------------------------------------ #
    # overhearing (Sec. IV-C-4)
    # ------------------------------------------------------------------ #
    def _learn_from_reply(self, jr: JoinReply, st: SessionState) -> None:
        """Extract coverage/forwarder marks from any received JoinReply."""
        if jr.src == self.node_id:  # pragma: no cover - cannot hear ourselves
            return
        if jr.is_original:
            # The sender is a receiver that just connected itself.
            self.node.neighbor_table.mark_covered(jr.src, st.session)
        else:
            # The sender relayed someone else's reply: it is a forwarder.
            self.node.neighbor_table.mark_forwarder(jr.src, st.session)
