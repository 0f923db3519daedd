"""Shared machinery for on-demand multicast routing protocols.

:class:`OnDemandMulticastAgent` implements everything ODMRP, DODMRP and
MTMRP have in common — the paper positions MTMRP as "a general
architectural extension to those on-demand routing protocols where the
route discovery process is performed", and this class is that architecture:

* **JoinQuery flooding** with per-session duplicate suppression, reverse
  path learning (upstream NodeID, HopCount) and a protocol-specific
  forwarding delay (the hook MTMRP's biased backoff plugs into);
* **JoinReply propagation** along the reverse path, marking forwarders
  (``FG_FLAG`` in ODMRP terms);
* **data dissemination** over the forwarding group: source and forwarders
  broadcast each data packet once, receivers record delivery;
* **route recovery**: RouteError packets flooded back to the source, which
  rebuilds the tree with a fresh sequence number (Sec. IV-D).

Protocol behaviour is customised through a small set of hooks (see the
"subclass hooks" section); the default implementations give plain ODMRP
semantics.

Sessions
--------
A *session* is one route-discovery round ``(source, group, seq)``.  Each
node keeps at most one :class:`SessionState` per ``(source, group)``; a
JoinQuery with a larger ``seq`` replaces the state (route refresh), equal
``seq`` is a duplicate, smaller is stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.messages import (
    JoinQuery,
    JoinReply,
    RepairQuery,
    RepairReply,
    RouteError,
    Session,
)
from repro.net.agent import Agent
from repro.net.packet import DataPacket, Packet, ScopedFloodData
from repro.protocols.repair import RepairPolicy, RepairSession, RouteState
from repro.sim.trace import TraceKind

__all__ = ["SessionState", "OnDemandMulticastAgent"]

# Trace kinds as module globals: an enum member lookup costs ~5x a global
# read on Python 3.11, and these emit sites run once per handled frame.
_DROP = TraceKind.DROP
_MARK = TraceKind.MARK
_DELIVER = TraceKind.DELIVER
_NOTE = TraceKind.NOTE

GroupKey = Tuple[int, int]  # (source, group)


@dataclass(slots=True)
class SessionState:
    """One node's state for the current round of a multicast session."""

    source: int
    group: int
    seq: int
    #: neighbor we first received the JoinQuery from (reverse path)
    upstream: Optional[int]
    #: our hop distance from the source
    hop_count: int = 0
    #: PathProfit carried by the JoinQuery we accepted (Definition 2)
    path_profit: int = 0
    #: our RelayProfit, cached at JoinQuery arrival (Definition 1)
    relay_profit: int = 0
    #: FG_FLAG — we re-broadcast data packets of this session
    is_forwarder: bool = False
    #: (receivers only) we are connected to the multicast tree
    covered: bool = False
    #: (receivers only) we originated a JoinReply
    replied: bool = False
    #: we already re-broadcast the JoinQuery
    query_forwarded: bool = False
    #: upstream was rewired by a local repair graft (self-healing layer);
    #: hop_count/path_profit no longer describe the actual reverse path
    grafted: bool = False
    #: receivers whose JoinReply we already acted on as next hop
    acted_nexthop_for: Set[int] = field(default_factory=set)
    #: neighbors that named us as their next hop toward the source — their
    #: data delivery depends on us, so they can never serve as our own
    #: path-handover target (would deadlock the data flow)
    downstream_children: Set[int] = field(default_factory=set)

    @property
    def session(self) -> Session:
        return (self.source, self.group, self.seq)


class OnDemandMulticastAgent(Agent):
    """Base class for ODMRP-family multicast routing agents."""

    handled_packets = (JoinQuery, JoinReply, DataPacket, RouteError, RepairQuery, RepairReply)

    #: protocol name used in traces/reports; subclasses override
    protocol_name = "base"

    #: whether this protocol participates in the self-healing layer
    #: (stateless protocols like GMR have no sessions to repair)
    supports_repair = True

    def __init__(
        self,
        query_jitter: float = 2e-3,
        reply_jitter: float = 5e-3,
        data_jitter: float = 50e-3,
        fg_timeout: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.query_jitter = query_jitter
        self.reply_jitter = reply_jitter
        self.data_jitter = data_jitter
        #: soft-state forwarding-group timeout (ODMRP's FG_FLAG timer).
        #: When set, a node keeps forwarding data for this long after its
        #: last forwarder mark even across route refreshes — the "mesh"
        #: redundancy that makes ODMRP-family protocols robust under
        #: periodic refresh.  None (default) = strict per-round trees,
        #: which is what the paper's single-round metrics measure.
        self.fg_timeout = fg_timeout
        #: per (source, group): simulated time until which the FG soft
        #: state stays active
        self._fg_until: Dict[GroupKey, float] = {}
        #: per group: periodic-refresh bookkeeping at the source
        self._refresh_events: Dict[int, object] = {}
        #: per (source, group): receiver-side route-health watchdog events
        self._monitor_events: Dict[GroupKey, object] = {}
        self.sessions: Dict[GroupKey, SessionState] = {}
        #: flow keys of data packets already processed (duplicate filter)
        self.data_seen: Set[tuple] = set()
        #: flow keys delivered to the application (receivers)
        self.delivered: Set[tuple] = set()
        #: at the source: receivers whose JoinReply reached us (flat
        #: historical view; multi-session sources serve several groups,
        #: see ``connected_by_group`` for the per-flow breakdown)
        self.connected_receivers: Set[int] = set()
        #: at the source: connected receivers per group id
        self.connected_by_group: Dict[int, Set[int]] = {}
        #: data-plane transmissions this node made, per (source, group).
        #: TX trace records carry only packet uids, so per-session
        #: transmitter attribution (traffic metrics, per-session
        #: feasible-forwarding checks) reads this instead of the trace.
        self.data_tx_by_session: Dict[GroupKey, int] = {}
        #: at the source: next JoinQuery sequence number per group
        self._next_seq: Dict[int, int] = {}
        #: route errors already forwarded (duplicate filter; pruned when a
        #: new round supersedes the complained-about one)
        self._route_errors_seen: Set[tuple] = set()
        #: last-hop node of the most recent data packet per (source, group)
        self.last_data_from: Dict[GroupKey, int] = {}
        #: self-healing layer configuration; ``None`` (default) = the
        #: paper's plain RouteError-flood recovery, bit-identical traces
        self.repair_policy: Optional[RepairPolicy] = None
        #: per (source, group): repair state machine bookkeeping
        self._repair: Dict[GroupKey, RepairSession] = {}
        #: RepairQuery instances already processed (duplicate filter)
        self._repair_seen: Set[tuple] = set()
        #: per (source, group): neighbor we relayed the last RepairQuery
        #: from (reverse path for the matching RepairReply)
        self._repair_reverse: Dict[GroupKey, int] = {}
        # statistics
        self.stats: Dict[str, int] = {
            "queries_forwarded": 0,
            "replies_originated": 0,
            "replies_forwarded": 0,
            "replies_suppressed": 0,
            "handovers": 0,
            "data_forwarded": 0,
            "route_errors_sent": 0,
            "repair_queries_sent": 0,
            "grafts_ok": 0,
            "grafts_failed": 0,
            "route_errors_suppressed": 0,
            "repair_rebuilds": 0,
            "degraded_data": 0,
            "degraded_forwards": 0,
        }
        self._rng_gen = None

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def _rng(self):
        gen = self._rng_gen
        if gen is None:
            gen = self._rng_gen = self.sim.rng.stream("proto", self.node_id)
        return gen

    def state_of(self, source: int, group: int) -> Optional[SessionState]:
        return self.sessions.get((source, group))

    # ------------------------------------------------------------------ #
    # source API
    # ------------------------------------------------------------------ #
    def request_route(self, group: int) -> Session:
        """Source: flood a JoinQuery for ``group``; returns the session."""
        seq = self._next_seq.get(group, 0)
        self._next_seq[group] = seq + 1
        me = self.node_id
        st = SessionState(source=me, group=group, seq=seq, upstream=None, hop_count=0)
        st.query_forwarded = True  # the origination below is our transmission
        self.sessions[(me, group)] = st
        if self._route_errors_seen:
            self._prune_route_errors(me, group, seq)
        st.relay_profit = self.compute_relay_profit(group, st.session)
        jq = JoinQuery(
            src=me, source=me, group=group, seq=seq, hop_count=0,
            path_profit=0,
        )
        self.send(jq)
        return st.session

    def start_periodic_refresh(self, group: int, interval: float) -> None:
        """Source: re-flood the JoinQuery every ``interval`` seconds.

        This is ODMRP's soft-state route refresh; pair it with a
        ``fg_timeout`` of 2-3x the interval for mesh-like robustness under
        membership churn, mobility, or node failures.  The refresh cycle
        is also the recovery mechanism fault injection relies on: a dead
        forwarder simply drops out of the next round's tree.  While the
        source itself is down the timer keeps ticking but floods nothing,
        so a recovered source resumes refreshing on its own.
        """
        if group in self._refresh_events:
            return
        self._refresh_events[group] = self.sim.schedule(
            interval, self._refresh_tick, group, interval
        )

    def _refresh_tick(self, group: int, interval: float) -> None:
        # a bound method rather than a nested closure: a closure that
        # reschedules itself references itself through its cell, a cycle
        # that would outlive the run (likewise _monitor_tick)
        if group not in self._refresh_events:
            return  # stopped
        if self.node.is_active:
            self.request_route(group)
        self._refresh_events[group] = self.sim.schedule(
            interval, self._refresh_tick, group, interval
        )

    def stop_periodic_refresh(self, group: int) -> None:
        """Source: cancel the periodic refresh for ``group``."""
        ev = self._refresh_events.pop(group, None)
        if ev is not None:
            self.sim.cancel(ev)

    def send_data(self, group: int, seq: int = 0) -> DataPacket:
        """Source: broadcast one data packet into the established tree.

        While the session is DEGRADED (self-healing layer, retry budgets
        exhausted) the tree is gone, so the packet goes out as a
        TTL-bounded scoped flood instead — best-effort delivery until a
        later rebuild round succeeds.
        """
        me = self.node_id
        policy = self.repair_policy
        if policy is not None:
            rs = self._repair.get((me, group))
            if rs is not None and rs.state is RouteState.DEGRADED:
                pkt = ScopedFloodData(
                    src=me, source=me, group=group, seq=seq, ttl=policy.degraded_ttl
                )
                self.data_seen.add(pkt.flow_key)
                self.stats["degraded_data"] += 1
                self._count_data_tx(me, group)
                self.send(pkt)
                return pkt
        pkt = DataPacket(src=me, source=me, group=group, seq=seq)
        self.data_seen.add(pkt.flow_key)
        self._count_data_tx(me, group)
        self.send(pkt)
        return pkt

    def _count_data_tx(self, source: int, group: int) -> None:
        key = (source, group)
        self.data_tx_by_session[key] = self.data_tx_by_session.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def on_packet(self, packet: Packet) -> None:
        if isinstance(packet, JoinQuery):
            self._recv_join_query(packet)
        elif isinstance(packet, JoinReply):
            self._recv_join_reply(packet)
        elif isinstance(packet, DataPacket):
            if type(packet) is ScopedFloodData:
                self._recv_scoped_flood(packet)
            else:
                self._recv_data(packet)
        elif isinstance(packet, RouteError):
            self._recv_route_error(packet)
        elif isinstance(packet, RepairQuery):
            self._recv_repair_query(packet)
        elif isinstance(packet, RepairReply):
            self._recv_repair_reply(packet)

    # ------------------------------------------------------------------ #
    # JoinQuery path
    # ------------------------------------------------------------------ #
    def _recv_join_query(self, jq: JoinQuery) -> None:
        key = (jq.source, jq.group)
        st = self.sessions.get(key)
        sim = self.sim
        if st is not None and jq.seq <= st.seq:
            # duplicate of the current round, or stale round
            sim.trace.emit(sim.now, _DROP, self.node_id, jq.ptype, "dup")
            return
        st = SessionState(
            source=jq.source,
            group=jq.group,
            seq=jq.seq,
            upstream=jq.src,
            hop_count=jq.hop_count + 1,
            path_profit=jq.path_profit,
        )
        self.sessions[key] = st
        # the new round supersedes the old datapath: whoever served us data
        # last round is no longer "the route", so the health watchdog must
        # not keep complaining about it while the rebuild is in flight
        self.last_data_from.pop(key, None)
        if self._route_errors_seen:
            self._prune_route_errors(jq.source, jq.group, jq.seq)
        if self.repair_policy is not None:
            self._repair_round_reset(key, jq.seq)
        st.relay_profit = self.compute_relay_profit(jq.group, st.session)
        if self.node.is_member(jq.group):
            self._receiver_on_query(jq, st)
        delay = self.query_forward_delay(jq, st)
        sim.schedule_fire(delay, self._forward_query, key, jq.seq)

    def _forward_query(self, key: GroupKey, seq: int) -> None:
        st = self.sessions.get(key)
        if st is None or st.seq != seq or st.query_forwarded:
            return
        st.query_forwarded = True
        out = JoinQuery(
            src=self.node_id,
            source=st.source,
            group=st.group,
            seq=st.seq,
            hop_count=st.hop_count,
            path_profit=st.path_profit + st.relay_profit,
        )
        self.stats["queries_forwarded"] += 1
        self.send(out)

    # ------------------------------------------------------------------ #
    # JoinReply path
    # ------------------------------------------------------------------ #
    def _recv_join_reply(self, jr: JoinReply) -> None:
        key = (jr.source, jr.group)
        st = self.sessions.get(key)
        if st is None or st.seq != jr.seq:
            # we never saw this round's JoinQuery (or it's stale)
            self.sim.trace.emit(
                self.sim.now, _DROP, self.node_id, jr.ptype, "no-session"
            )
            return
        if jr.nexthop == self.node_id:
            self._reply_as_nexthop(jr, st)
        else:
            self._reply_overheard(jr, st)

    def _reply_as_nexthop(self, jr: JoinReply, st: SessionState) -> None:
        """Default (ODMRP) next-hop behaviour: join the forwarding group once."""
        if jr.receiver in st.acted_nexthop_for:
            return
        st.acted_nexthop_for.add(jr.receiver)
        if self.node_id == st.source:
            self._source_accept_reply(jr, st)
            return
        if st.is_forwarder:
            return  # route to the source already confirmed through us
        self._become_forwarder(st)
        self._forward_reply(jr, st)

    def _source_accept_reply(self, jr: JoinReply, st: SessionState) -> None:
        """Source: a receiver's JoinReply made it all the way back to us."""
        self.connected_receivers.add(jr.receiver)
        self.connected_by_group.setdefault(st.group, set()).add(jr.receiver)
        if self.repair_policy is not None:
            self._rebuild_succeeded((st.source, st.group))

    def _reply_overheard(self, jr: JoinReply, st: SessionState) -> None:
        """Default: baselines ignore replies not addressed to them."""

    def _become_forwarder(self, st: SessionState) -> None:
        st.is_forwarder = True
        if self.fg_timeout is not None:
            self._fg_until[(st.source, st.group)] = self.sim.now + self.fg_timeout
        self.sim.trace.emit(
            self.sim.now, _MARK, self.node_id, "Forwarder", st.session
        )

    def _forward_reply(self, jr: JoinReply, st: SessionState) -> None:
        if st.upstream is None:  # pragma: no cover - source handled earlier
            return
        out = JoinReply(
            src=self.node_id,
            dst=st.upstream,  # link-layer unicast: ACK-protected, overheard
            nexthop=st.upstream,
            receiver=jr.receiver,
            source=st.source,
            group=st.group,
            seq=st.seq,
        )
        self.stats["replies_forwarded"] += 1
        self.sim.schedule_fire(float(self._rng().uniform(0.0, self.reply_jitter)), self.send, out)

    def _originate_reply(self, st: SessionState) -> None:
        """Receiver: send our own JoinReply up the reverse path."""
        if st.replied or st.upstream is None:
            return
        st.replied = True
        st.covered = True
        out = JoinReply(
            src=self.node_id,
            dst=st.upstream,  # link-layer unicast: ACK-protected, overheard
            nexthop=st.upstream,
            receiver=self.node_id,
            source=st.source,
            group=st.group,
            seq=st.seq,
        )
        self.stats["replies_originated"] += 1
        self.sim.schedule_fire(float(self._rng().uniform(0.0, self.reply_jitter)), self.send, out)

    # ------------------------------------------------------------------ #
    # data path
    # ------------------------------------------------------------------ #
    def _recv_data(self, pkt: DataPacket) -> None:
        key = pkt.flow_key
        sim = self.sim
        if key in self.data_seen:
            sim.trace.emit(sim.now, _DROP, self.node_id, pkt.ptype, "dup")
            return
        self.data_seen.add(key)
        skey = (pkt.source, pkt.group)
        self.last_data_from[skey] = pkt.src
        if self.node.is_member(pkt.group) and key not in self.delivered:
            self.delivered.add(key)
            sim.trace.emit(sim.now, _DELIVER, self.node_id, pkt.ptype, key)
        st = self.sessions.get(skey)
        soft = self._fg_until.get(skey, float("-inf")) > sim.now
        if (st is not None and st.is_forwarder) or soft:
            fwd = pkt.clone_for_forwarding(self.node_id)
            self.stats["data_forwarded"] += 1
            self._count_data_tx(pkt.source, pkt.group)
            sim.schedule_fire(float(self._rng().uniform(0.0, self.data_jitter)), self.send, fwd)

    # ------------------------------------------------------------------ #
    # route recovery (Sec. IV-D)
    # ------------------------------------------------------------------ #
    def report_route_failure(self, source: int, group: int, failed_node: int = -1) -> None:
        """Receiver: flood a RouteError asking the source to rebuild.

        At most one flood per route round: re-complaining about the same
        ``(source, group, seq)`` is a no-op, so a periodic watchdog
        (:meth:`start_route_monitor`) cannot storm the network while the
        rebuild is in flight.
        """
        st = self.sessions.get((source, group))
        seq = st.seq if st is not None else 0
        if (self.node_id, source, group, seq) in self._route_errors_seen:
            return
        pkt = RouteError(
            src=self.node_id,
            receiver=self.node_id,
            source=source,
            group=group,
            seq=seq,
            failed_node=failed_node,
        )
        self._route_errors_seen.add((pkt.receiver, pkt.source, pkt.group, pkt.seq))
        self.stats["route_errors_sent"] += 1
        self.send(pkt)

    def _recv_route_error(self, pkt: RouteError) -> None:
        key = (pkt.receiver, pkt.source, pkt.group, pkt.seq)
        if key in self._route_errors_seen:
            return
        self._route_errors_seen.add(key)
        if self.node_id == pkt.source:
            if self.repair_policy is not None:
                self._source_route_error(pkt)
                return
            # Rebuild with a fresh sequence number after a short debounce.
            self.sim.schedule(
                float(self._rng().uniform(0.0, self.query_jitter)),
                self.request_route,
                pkt.group,
            )
            return
        fwd = pkt.clone_for_forwarding(self.node_id)
        self.sim.schedule_fire(float(self._rng().uniform(0.0, self.query_jitter)), self.send, fwd)

    def _prune_route_errors(self, source: int, group: int, seq: int) -> None:
        """Drop RouteError dedup entries superseded by round ``seq``.

        Without this the per-round dedup keys accumulate forever — a slow
        leak (and ever-growing set lookups) in long soak runs.  The
        *previous* round's entries are deliberately kept: in-flight
        duplicate copies of a RouteError can still arrive after this node
        accepted the rebuild round they triggered, and re-flooding them
        would perturb the trace.  Memory is therefore bounded at two
        rounds' worth of receivers per (source, group).
        """
        stale = [
            e
            for e in self._route_errors_seen
            if e[1] == source and e[2] == group and e[3] < seq - 1
        ]
        for e in stale:
            self._route_errors_seen.discard(e)

    def start_route_monitor(self, source: int, group: int, interval: float) -> None:
        """Receiver: periodically verify the serving forwarder is alive.

        Runs :meth:`check_route_health` every ``interval`` seconds — the
        watchdog that turns HELLO-table expiry into RouteErrors without
        hand-driving it from the experiment script.  Skips checks while
        this node is down or asleep but keeps ticking, so a recovered
        receiver resumes monitoring automatically.
        """
        key = (source, group)
        if key in self._monitor_events:
            return
        self._monitor_events[key] = self.sim.schedule(
            interval, self._monitor_tick, source, group, interval
        )

    def _monitor_tick(self, source: int, group: int, interval: float) -> None:
        if self.node.is_active:
            self.check_route_health(source, group)
        self._monitor_events[(source, group)] = self.sim.schedule(
            interval, self._monitor_tick, source, group, interval
        )

    def check_route_health(self, source: int, group: int) -> bool:
        """Is the neighbor we last got data from still alive in our table?

        Intended to be called by receivers while HELLO maintenance runs:
        returns False (and sends a RouteError) when the serving forwarder's
        neighbor-table entry has expired.
        """
        serving = self.last_data_from.get((source, group))
        if serving is None:
            return True
        if serving in self.node.neighbor_table:
            return True
        if self.repair_policy is not None:
            self._start_repair(source, group, serving)
        else:
            self.report_route_failure(source, group, failed_node=serving)
        return False

    # ------------------------------------------------------------------ #
    # self-healing layer (active only with a RepairPolicy installed)
    #
    # Receiver side: a dead serving forwarder triggers a TTL-scoped
    # RepairQuery graft burst (bounded retries, exponential backoff) that
    # escalates to the legacy RouteError flood only on failure, and to an
    # explicit DEGRADED state once the per-episode RouteError budget is
    # spent.  Source side: RouteErrors drive bounded rebuild rounds with
    # backoff; exhaustion degrades the session, after which send_data
    # falls back to TTL-bounded scoped flooding until a refresh round
    # brings a JoinReply home again.
    # ------------------------------------------------------------------ #
    def _repair_session(self, key: GroupKey) -> RepairSession:
        rs = self._repair.get(key)
        if rs is None:
            rs = self._repair[key] = RepairSession(since=self.sim.now)
        return rs

    def route_state(self, source: int, group: int) -> RouteState:
        """Current health of the session at this node (HEALTHY if untracked)."""
        rs = self._repair.get((source, group))
        return rs.state if rs is not None else RouteState.HEALTHY

    def _set_route_state(
        self, key: GroupKey, rs: RepairSession, new: RouteState, reason: str
    ) -> None:
        if rs.state is new:
            return
        now = self.sim.now
        rs.time_in[rs.state.value] = rs.time_in.get(rs.state.value, 0.0) + (
            now - rs.since
        )
        rs.since = now
        rs.state = new
        self.sim.trace.emit(
            now,
            _NOTE,
            self.node_id,
            "RouteState",
            (new.value, key[0], key[1], reason),
        )

    # -- receiver side: graft machine ---------------------------------- #
    def _start_repair(self, source: int, group: int, failed_node: int) -> None:
        key = (source, group)
        st = self.sessions.get(key)
        if st is None:
            # no session to graft — only the legacy flood can help
            self.report_route_failure(source, group, failed_node=failed_node)
            return
        rs = self._repair_session(key)
        if rs.active or rs.state is RouteState.DEGRADED:
            return  # episode in flight, or deliberately quiescent
        if rs.state is RouteState.HEALTHY:
            rs.episodes += 1
            rs.route_errors = 0
        rs.graft_attempt = 0
        rs.seq = st.seq
        rs.failed_node = failed_node
        rs.active = True
        self._set_route_state(key, rs, RouteState.REPAIRING, "forwarder-lost")
        self._send_repair_query(key, rs)

    def _send_repair_query(self, key: GroupKey, rs: RepairSession) -> None:
        policy = self.repair_policy
        source, group = key
        attempt = rs.graft_attempt
        rs.graft_attempt += 1
        # self-dedup: our own flood copies must not bounce back through us
        self._repair_seen.add((self.node_id, source, group, rs.seq, attempt))
        rq = RepairQuery(
            src=self.node_id,
            origin=self.node_id,
            source=source,
            group=group,
            seq=rs.seq,
            failed_node=rs.failed_node,
            ttl=policy.repair_ttl,
            attempt=attempt,
        )
        self.stats["repair_queries_sent"] += 1
        self.send(rq)
        timeout = policy.graft_timeout * policy.backoff_factor**attempt + float(
            self._rng().uniform(0.0, policy.backoff_jitter)
        )
        self.sim.schedule_fire(timeout, self._graft_timeout, key, rs.token)

    def _graft_timeout(self, key: GroupKey, token: int) -> None:
        rs = self._repair.get(key)
        if rs is None or not rs.active or rs.token != token:
            return  # graft succeeded / round reset — stale timer
        if rs.graft_attempt < self.repair_policy.max_graft_attempts:
            self._send_repair_query(key, rs)
            return
        self._graft_failed(key, rs)

    def _graft_failed(self, key: GroupKey, rs: RepairSession) -> None:
        policy = self.repair_policy
        source, group = key
        rs.active = False
        rs.grafts_failed += 1
        self.stats["grafts_failed"] += 1
        self.sim.trace.emit(
            self.sim.now,
            _NOTE,
            self.node_id,
            "GraftFail",
            (source, group, rs.seq, rs.graft_attempt),
        )
        if rs.route_errors < policy.route_error_budget:
            rs.route_errors += 1
            self.report_route_failure(source, group, failed_node=rs.failed_node)
            # stay REPAIRING: the watchdog re-enters with a fresh burst
            return
        self.stats["route_errors_suppressed"] += 1
        self._set_route_state(key, rs, RouteState.DEGRADED, "budget-exhausted")

    def _repair_round_reset(self, key: GroupKey, seq: int) -> None:
        """A new JoinQuery round arrived: whatever we were repairing is moot."""
        rs = self._repair.get(key)
        if rs is not None:
            rs.token += 1
            rs.active = False
            rs.graft_attempt = 0
            rs.route_errors = 0
            rs.rebuild_attempts = 0
            if rs.state is not RouteState.HEALTHY:
                self._set_route_state(key, rs, RouteState.HEALTHY, "new-round")
        self._repair_reverse.pop(key, None)
        if self._repair_seen:
            source, group = key
            stale = [
                e
                for e in self._repair_seen
                if e[1] == source and e[2] == group and e[3] < seq - 1
            ]
            for e in stale:
                self._repair_seen.discard(e)

    # -- graft donors and relays --------------------------------------- #
    def _can_serve_graft(self, rq: RepairQuery, st: SessionState) -> bool:
        """Can this node adopt ``rq.origin`` into the forwarding structure?"""
        if rq.origin in st.downstream_children:
            return False  # their data delivery depends on us: a loop
        if self.node_id == st.source:
            return True
        soft = self._fg_until.get((st.source, st.group), float("-inf")) > self.sim.now
        if not (st.is_forwarder or soft):
            return False
        up = st.upstream
        if up is None or up == rq.failed_node:
            return False  # our own route runs through the dead node
        return up in self.node.neighbor_table

    def _recv_repair_query(self, rq: RepairQuery) -> None:
        if self.repair_policy is None:
            return  # layer off at this node: stay silent
        if rq.origin == self.node_id:
            return
        dedup = (rq.origin, rq.source, rq.group, rq.seq, rq.attempt)
        if dedup in self._repair_seen:
            return
        self._repair_seen.add(dedup)
        key = (rq.source, rq.group)
        st = self.sessions.get(key)
        if st is None or st.seq < rq.seq:
            return  # we know less than the origin does
        if self._can_serve_graft(rq, st):
            self._graft_adopt(rq.src, st)
            out = RepairReply(
                src=self.node_id,
                dst=rq.src,  # link-layer unicast: ACK-protected, overheard
                nexthop=rq.src,
                origin=rq.origin,
                source=rq.source,
                group=rq.group,
                seq=rq.seq,
                attempt=rq.attempt,
            )
            self.sim.schedule_fire(
                float(self._rng().uniform(0.0, self.reply_jitter)), self.send, out
            )
            return
        if rq.ttl <= 1:
            return  # scope exhausted
        self._repair_reverse[key] = rq.src
        fwd = RepairQuery(
            src=self.node_id,
            origin=rq.origin,
            source=rq.source,
            group=rq.group,
            seq=rq.seq,
            failed_node=rq.failed_node,
            ttl=rq.ttl - 1,
            attempt=rq.attempt,
        )
        self.sim.schedule_fire(
            float(self._rng().uniform(0.0, self.query_jitter)), self.send, fwd
        )

    def _recv_repair_reply(self, rp: RepairReply) -> None:
        if self.repair_policy is None:
            return
        key = (rp.source, rp.group)
        st = self.sessions.get(key)
        if rp.nexthop != self.node_id:
            # overheard: the transmitter just proved it has a live route
            if st is not None and st.seq == rp.seq:
                self.node.neighbor_table.mark_forwarder(rp.src, st.session)
            return
        if rp.origin == self.node_id:
            rs = self._repair.get(key)
            if rs is None or not rs.active or st is None:
                return  # stale (round reset or a parallel graft already won)
            rs.active = False
            rs.token += 1
            rs.grafts_ok += 1
            rs.route_errors = 0
            self.stats["grafts_ok"] += 1
            st.upstream = rp.src
            st.grafted = True
            # the watchdog now monitors the new parent, not the dead one
            self.last_data_from[key] = rp.src
            self.sim.trace.emit(
                self.sim.now,
                _NOTE,
                self.node_id,
                "GraftOk",
                (rp.source, rp.group, rp.seq, rp.src),
            )
            self._set_route_state(key, rs, RouteState.HEALTHY, "graft-ok")
            return
        # relay on the reverse path: splice ourselves into the data flow
        if st is None:
            return
        rev = self._repair_reverse.get(key)
        if rev is None:
            return
        if not st.is_forwarder:
            self._become_forwarder(st)
        st.grafted = True
        st.upstream = rp.src
        self._graft_adopt(rev, st)
        out = RepairReply(
            src=self.node_id,
            dst=rev,  # link-layer unicast: ACK-protected, overheard
            nexthop=rev,
            origin=rp.origin,
            source=rp.source,
            group=rp.group,
            seq=rp.seq,
            attempt=rp.attempt,
        )
        self.sim.schedule_fire(
            float(self._rng().uniform(0.0, self.reply_jitter)), self.send, out
        )

    # -- source side: bounded rebuilds --------------------------------- #
    def _source_route_error(self, pkt: RouteError) -> None:
        key = (pkt.source, pkt.group)
        rs = self._repair_session(key)
        if rs.active or rs.state is RouteState.DEGRADED:
            return  # rebuild episode in flight / already degraded
        if rs.state is RouteState.HEALTHY:
            rs.episodes += 1
        rs.rebuild_attempts = 0
        rs.active = True
        self._set_route_state(key, rs, RouteState.REPAIRING, "route-error")
        self.sim.schedule_fire(
            float(self._rng().uniform(0.0, self.query_jitter)),
            self._do_rebuild,
            key,
            rs.token,
        )

    def _do_rebuild(self, key: GroupKey, token: int) -> None:
        rs = self._repair.get(key)
        if rs is None or not rs.active or rs.token != token:
            return
        policy = self.repair_policy
        rs.rebuild_attempts += 1
        self.stats["repair_rebuilds"] += 1
        self.request_route(key[1])
        timeout = policy.rebuild_timeout * policy.backoff_factor ** (
            rs.rebuild_attempts - 1
        ) + float(self._rng().uniform(0.0, policy.backoff_jitter))
        self.sim.schedule_fire(timeout, self._verify_rebuild, key, rs.token)

    def _verify_rebuild(self, key: GroupKey, token: int) -> None:
        rs = self._repair.get(key)
        if rs is None or not rs.active or rs.token != token:
            return  # a JoinReply landed — episode already closed
        if rs.rebuild_attempts >= self.repair_policy.max_rebuild_attempts:
            rs.active = False
            self._set_route_state(key, rs, RouteState.DEGRADED, "rebuild-exhausted")
            return
        self._do_rebuild(key, token)

    def _rebuild_succeeded(self, key: GroupKey) -> None:
        rs = self._repair.get(key)
        if rs is None or rs.state is RouteState.HEALTHY:
            return
        rs.active = False
        rs.token += 1
        rs.rebuild_attempts = 0
        self._set_route_state(key, rs, RouteState.HEALTHY, "reply-received")

    # -- degraded-mode data plane --------------------------------------- #
    def _recv_scoped_flood(self, pkt: ScopedFloodData) -> None:
        """TTL-bounded flood forwarding while a session is DEGRADED.

        Deliberately does *not* touch ``last_data_from``: a flood hop is
        not a route, so the health watchdog must not start monitoring it.
        """
        key = pkt.flow_key
        sim = self.sim
        if key in self.data_seen:
            sim.trace.emit(sim.now, _DROP, self.node_id, pkt.ptype, "dup")
            return
        self.data_seen.add(key)
        if self.node.is_member(pkt.group) and key not in self.delivered:
            self.delivered.add(key)
            sim.trace.emit(sim.now, _DELIVER, self.node_id, pkt.ptype, key)
        if pkt.ttl <= 0:
            return
        fwd = pkt.hop(self.node_id)
        self.stats["degraded_forwards"] += 1
        self._count_data_tx(pkt.source, pkt.group)
        sim.trace.emit(
            sim.now,
            _NOTE,
            self.node_id,
            "DegradedForward",
            (fwd.ttl, pkt.source, pkt.group, pkt.seq),
        )
        sim.schedule_fire(
            float(self._rng().uniform(0.0, self.data_jitter)), self.send, fwd
        )

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #
    def _graft_adopt(self, child: int, st: SessionState) -> None:
        """Adopt ``child`` as a downstream dependent after a graft.

        Subclasses that keep explicit child structure (MAODV's tree links)
        extend this; the base records the dependency so path handover never
        picks the child as its own target.
        """
        st.downstream_children.add(child)

    def compute_relay_profit(self, group: int, session: Session) -> int:
        """RelayProfit at JoinQuery arrival; baselines don't use it."""
        return 0

    def query_forward_delay(self, jq: JoinQuery, st: SessionState) -> float:
        """How long to defer the JoinQuery rebroadcast (ODMRP: small jitter)."""
        return float(self._rng().uniform(0.0, self.query_jitter))

    def _receiver_on_query(self, jq: JoinQuery, st: SessionState) -> None:
        """Receiver behaviour on first JoinQuery (ODMRP: always reply)."""
        st.covered = True
        self.sim.trace.emit(
            self.sim.now, _MARK, self.node_id, "Covered", st.session
        )
        self._originate_reply(st)
