"""HELLO protocol and neighbor tables (Sec. IV-B).

Each node periodically broadcasts a HELLO carrying its multicast group
memberships.  Receivers upsert a timestamped entry; entries not refreshed
within ``expiry`` are recycled, exactly as Sec. IV-B describes.

On top of the paper's table, entries carry the two per-session marks that
MTMRP's RelayProfit and path-handover logic need:

* ``covered_sessions`` — "this neighbor is a multicast receiver already
  connected to the tree" (set when we overhear the neighbor originate a
  JoinReply);
* ``forwarder_sessions`` — "this neighbor is a forwarder of the session"
  (set when we overhear it relay a JoinReply).

A *session* is the tuple ``(source, group, seq)`` identifying one
JoinQuery round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.net.agent import Agent
from repro.net.packet import HelloPacket, Packet

__all__ = ["NeighborEntry", "NeighborTable", "HelloAgent"]

Session = Tuple[int, int, int]  # (source, group, seq)

#: the mark sets of a neighbor nobody has marked yet: one shared empty
#: frozenset, replaced by a set on the first mark (readers only test
#: ``in``), so an unmarked entry carries no set of its own
_NO_MARKS: FrozenSet[Session] = frozenset()


@dataclass(slots=True)
class NeighborEntry:
    """State kept about one one-hop neighbor."""

    node_id: int
    last_seen: float = 0.0
    #: immutable, so entries can share a HELLO's frozenset
    groups: FrozenSet[int] = frozenset()
    covered_sessions: AbstractSet[Session] = _NO_MARKS
    forwarder_sessions: AbstractSet[Session] = _NO_MARKS
    #: neighbor coordinates, when HELLOs carry positions (geographic mode)
    position: Optional[Tuple[float, float]] = None

    def __reduce__(self):
        # one constructor call per entry when a warm fork restores it,
        # instead of pickle's slot state set attribute by attribute
        return (NeighborEntry, (self.node_id, self.last_seen, self.groups,
                                self.covered_sessions, self.forwarder_sessions,
                                self.position))


class NeighborTable:
    """One node's view of its one-hop neighborhood.

    ``_oldest`` is a lower bound on every entry's ``last_seen`` (``inf``
    while empty), so :meth:`purge` skips its scan when the bound proves
    nothing is stale.  Code that writes ``_entries`` or an entry's
    ``last_seen`` directly (the batch kernel) must keep it a lower bound:
    lower it to at most the written stamp, or set it to ``-inf`` so the
    next purge scans and recomputes it.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, NeighborEntry] = {}
        self._oldest = math.inf

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def update_hello(
        self,
        nbr: int,
        groups: Iterable[int],
        now: float,
        position: Optional[Tuple[float, float]] = None,
    ) -> NeighborEntry:
        """Insert or refresh an entry from a received HELLO."""
        entry = self._entries.get(nbr)
        if entry is None:
            entry = NeighborEntry(node_id=nbr)
            self._entries[nbr] = entry
        entry.last_seen = now
        if now < self._oldest:
            self._oldest = now
        # frozenset() of a HELLO's frozenset is that same object: no copy
        entry.groups = frozenset(groups)
        if position is not None:
            entry.position = (float(position[0]), float(position[1]))
        return entry

    def positions_known(self) -> Dict[int, Tuple[float, float]]:
        """Neighbors whose coordinates we know (geographic mode)."""
        return {
            nid: e.position for nid, e in self._entries.items() if e.position is not None
        }

    def purge(self, now: float, expiry: float) -> int:
        """Recycle entries older than ``expiry`` seconds; returns #removed.

        Without a scan when ``now - _oldest <= expiry``: IEEE subtraction
        is monotone, so ``now - e.last_seen <= now - _oldest`` for every
        entry and none is stale.  A scan recomputes the bound exactly.
        """
        if now - self._oldest <= expiry:
            return 0
        stale = []
        oldest = math.inf
        for nid, e in self._entries.items():
            seen = e.last_seen
            if now - seen > expiry:
                stale.append(nid)
            elif seen < oldest:
                oldest = seen
        for nid in stale:
            del self._entries[nid]
        self._oldest = oldest
        return len(stale)

    def remove(self, nbr: int) -> None:
        self._entries.pop(nbr, None)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def __contains__(self, nbr: int) -> bool:
        return nbr in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, nbr: int) -> Optional[NeighborEntry]:
        return self._entries.get(nbr)

    def ids(self) -> Set[int]:
        return set(self._entries)

    def members_of(self, group: int) -> Set[int]:
        """Neighbors known to be receivers of ``group``."""
        return {nid for nid, e in self._entries.items() if group in e.groups}

    # ------------------------------------------------------------------ #
    # per-session marks (MTMRP)
    # ------------------------------------------------------------------ #
    def _ensure(self, nbr: int) -> NeighborEntry:
        entry = self._entries.get(nbr)
        if entry is None:
            # A JoinReply can be overheard from a neighbor whose HELLO was
            # lost; create a groupless entry rather than dropping the mark.
            entry = NeighborEntry(node_id=nbr)
            self._entries[nbr] = entry
            if 0.0 < self._oldest:
                self._oldest = 0.0  # the entry's default stamp
        return entry

    def mark_covered(self, nbr: int, session: Session) -> None:
        """Record that neighbor ``nbr`` is a covered receiver of ``session``."""
        entry = self._ensure(nbr)
        marks = entry.covered_sessions
        if isinstance(marks, frozenset):  # the shared default (or a fork's copy)
            entry.covered_sessions = {session, *marks}
        else:
            marks.add(session)

    def mark_forwarder(self, nbr: int, session: Session) -> None:
        """Record that neighbor ``nbr`` is a forwarder of ``session``."""
        entry = self._ensure(nbr)
        marks = entry.forwarder_sessions
        if isinstance(marks, frozenset):  # the shared default (or a fork's copy)
            entry.forwarder_sessions = {session, *marks}
        else:
            marks.add(session)

    def has_forwarder(self, session: Session, exclude: Iterable[int] = ()) -> bool:
        """Is any neighbor known to be a forwarder of ``session``? (PHS test)

        ``exclude`` removes candidates that must not count — MTMRP's path
        handover excludes its *downstream* nodes, whose own data delivery
        depends on us (see :meth:`MtmrpAgent._reply_as_nexthop`).
        """
        excl = set(exclude)
        return any(
            session in e.forwarder_sessions and nid not in excl
            for nid, e in self._entries.items()
        )

    def forwarders_of(self, session: Session) -> Set[int]:
        return {
            nid for nid, e in self._entries.items() if session in e.forwarder_sessions
        }

    def uncovered_members(self, group: int, session: Session) -> Set[int]:
        """Receivers of ``group`` among neighbors not yet covered (Def. 1).

        A neighbor counts as covered if we saw it originate a JoinReply
        (covered mark) or act as a forwarder (a forwarding receiver is by
        definition connected to the tree).
        """
        out = set()
        for nid, e in self._entries.items():
            if group not in e.groups:
                continue
            if session in e.covered_sessions or session in e.forwarder_sessions:
                continue
            out.add(nid)
        return out

    def relay_profit(self, group: int, session: Session) -> int:
        """Definition 1: number of uncovered receiver neighbors.

        Same semantics as ``len(uncovered_members(...))`` without building
        the intermediate set — this runs once per JoinQuery arrival.
        """
        n = 0
        for e in self._entries.values():
            if (
                group in e.groups
                and session not in e.covered_sessions
                and session not in e.forwarder_sessions
            ):
                n += 1
        return n


class HelloAgent(Agent):
    """Periodic HELLO broadcaster + neighbor-table maintainer.

    Parameters
    ----------
    period:
        HELLO interval in seconds.
    expiry:
        Entries older than this are recycled (paper: "the overdue entries
        in the neighbor table will be recycled after a time").
    jitter:
        Uniform start/period jitter to desynchronise the network.
    """

    handled_packets = (HelloPacket,)

    def __init__(
        self,
        period: float = 1.0,
        expiry: float = 3.5,
        jitter: float = 0.1,
        share_position: bool = False,
    ) -> None:
        super().__init__()
        self.period = period
        self.expiry = expiry
        self.jitter = jitter
        #: include our coordinates in HELLOs (geographic-multicast mode)
        self.share_position = share_position
        self.hellos_sent = 0
        self._rng_gen = None

    def _rng(self):
        gen = self._rng_gen
        if gen is None:
            gen = self._rng_gen = self.sim.rng.stream("hello", self.node.node_id)
        return gen

    def start(self) -> None:
        self.sim.schedule_fire(float(self._rng().uniform(0.0, self.jitter)), self._tick)

    def _tick(self) -> None:
        # The next tick is drawn first, as the beacon may only be sent
        # isolated if it ends before that tick; it is this stream's one
        # draw per tick, so no drawn value moves.
        delay = max(self.period + float(self._rng().uniform(-self.jitter, self.jitter)), 1e-6)
        sim, node = self.sim, self.node
        # A dead or sleeping node beacons nothing, but the timer keeps
        # ticking so a recovered/woken node resumes HELLOs on its own.
        if node.is_active:
            pkt = self._hello()
            # a beacon nothing else touches is sent and heard right here
            if not node.mac.send_isolated(pkt, sim.now + delay):
                node.send(pkt)
            self.hellos_sent += 1
            node.neighbor_table.purge(sim.now, self.expiry)
        sim.schedule_fire(delay, self._tick)

    def broadcast_hello(self) -> None:
        """Send one HELLO now (also used for membership-change updates)."""
        self.node.send(self._hello())
        self.hellos_sent += 1

    def _hello(self) -> HelloPacket:
        node = self.node
        return HelloPacket(
            src=node.node_id,
            groups=frozenset(node.groups),
            position=node.position if self.share_position else None,
        )

    def on_packet(self, packet: Packet) -> None:
        assert isinstance(packet, HelloPacket)
        self.node.neighbor_table.update_hello(
            packet.src, packet.groups, self.sim.now, position=packet.position
        )
