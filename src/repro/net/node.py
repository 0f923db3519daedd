"""Nodes.

A :class:`Node` is position + radio + MAC + an ordered stack of
:class:`~repro.net.agent.Agent` objects.  Agents declare which packet
classes they handle; incoming packets are dispatched to every agent whose
declaration matches (so e.g. the HELLO agent and a routing protocol
coexist).  Agents send by calling :meth:`Node.send`, which hands the
packet to the MAC.

This mirrors ns-2's node/agent architecture at the granularity the
protocols need, without the OTcl plumbing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple, Type

from repro.net.agent import Agent
from repro.net.neighbor import NeighborTable
from repro.net.packet import Packet
from repro.phy.energy import EnergyAccount

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network

__all__ = ["Node", "Agent"]

#: Handler chains of every agent stack this process has dispatched on:
#: ``(each agent's handled_packets in install order, packet class)`` ->
#: the chain as positions in the stack.  Classes only, never instances,
#: so a stack resolved on one deployment (a warm fork, a sweep's next
#: run) is resolved for every later one.
_CHAINS: Dict[Tuple[tuple, type], Tuple[int, ...]] = {}


def _chain(agents: List[Agent], cls: Type[Packet]) -> Tuple[int, ...]:
    """Positions of the agents a received ``cls`` packet reaches, in call
    order: packet classes in the order agents first declared them, each
    class's agents in install order, every class ``cls`` is a subclass
    of."""
    by_class: Dict[type, List[int]] = {}
    for i, agent in enumerate(agents):
        for pcls in agent.handled_packets:
            by_class.setdefault(pcls, []).append(i)
    return tuple(i for pcls, pos in by_class.items() if issubclass(cls, pcls) for i in pos)


class Node:
    """One sensor node: identity, position, stack, state."""

    def __init__(self, node_id: int, position: Tuple[float, float]) -> None:
        self.node_id = node_id
        self.position = (float(position[0]), float(position[1]))
        self.network: "Network" = None  # type: ignore[assignment]  # set by Network
        self.mac = None  # set by Network
        self.energy = EnergyAccount()
        self.neighbor_table = NeighborTable()
        #: multicast groups this node is a member (receiver) of
        self.groups: Set[int] = set()
        #: operational flag; a failed node neither sends nor receives
        self.alive = True
        #: duty-cycle flag; a sleeping node's radio is off (it neither
        #: sends nor receives) but its volatile state survives, unlike a
        #: crash
        self.asleep = False
        self._agents: List[Agent] = []
        #: resolved handler chain per *concrete* packet class, filled on
        #: first receipt (the chain is looked up once per type, not per
        #: frame — the receive path is the simulation's hottest loop)
        self._dispatch_cache: Dict[Type[Packet], Tuple[Agent, ...]] = {}

    # ------------------------------------------------------------------ #
    # stack assembly
    # ------------------------------------------------------------------ #
    def add_agent(self, agent: Agent) -> Agent:
        """Install ``agent`` on this node.

        Only the chains of packet classes the agent handles change: those
        are dropped from the dispatch cache, and the channel drops its
        isolated-HELLO plans if HELLOs are among them
        (:meth:`Channel.drop_plans`).
        """
        agent.attach(self)
        self._agents.append(agent)
        handled = agent.handled_packets
        if handled:
            cache = self._dispatch_cache
            for cls in [c for c in cache if issubclass(c, handled)]:
                del cache[cls]
            self.network.channel.drop_plans(handled)
        return agent

    def agents_of(self, cls: type) -> List[Agent]:
        """All installed agents that are instances of ``cls``."""
        return [a for a in self._agents if isinstance(a, cls)]

    def agent_of(self, cls: type) -> Agent:
        """The unique installed agent of type ``cls`` (raises if 0 or >1)."""
        found = self.agents_of(cls)
        if len(found) != 1:
            raise LookupError(f"node {self.node_id}: {len(found)} agents of {cls.__name__}")
        return found[0]

    def start_agents(self) -> None:
        for agent in self._agents:
            agent.start()

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def join_group(self, group: int) -> None:
        """Become a multicast receiver of ``group``."""
        self.groups.add(group)

    def leave_group(self, group: int) -> None:
        self.groups.discard(group)

    def is_member(self, group: int) -> bool:
        return group in self.groups

    # ------------------------------------------------------------------ #
    # data path
    # ------------------------------------------------------------------ #
    def send(self, packet: Packet) -> None:
        """Hand ``packet`` to the MAC for broadcast."""
        if not self.alive or self.asleep:
            return
        self.mac.send(packet)

    def on_packet_received(self, packet: Packet) -> None:
        """Called by the channel when a frame survives reception.

        The MAC gets first look (consumes ACKs, auto-acknowledges unicast
        frames addressed to us); everything else reaches the agents —
        including frames unicast to *other* nodes, which models the
        promiscuous overhearing the protocols rely on.
        """
        if not self.alive or self.asleep:
            return
        mac = self.mac
        if mac is not None and mac.inspects_frames and mac.on_frame(packet):
            return
        cls = packet.__class__
        handlers = self._dispatch_cache.get(cls)
        if handlers is None:
            handlers = self.handlers_of(cls)
        for agent in handlers:
            agent.on_packet(packet)

    def handlers_of(self, cls: Type[Packet]) -> Tuple[Agent, ...]:
        """The agents a received ``cls`` packet reaches, in call order.

        Kept per class in ``_dispatch_cache`` (``add_agent`` drops the
        classes it changes).  The chain's positions are resolved once per
        agent stack in the process (``_CHAINS``), by :func:`_chain`'s
        rule.
        """
        handlers = self._dispatch_cache.get(cls)
        if handlers is None:
            agents = self._agents
            key = (tuple([a.handled_packets for a in agents]), cls)
            positions = _CHAINS.get(key)
            if positions is None:
                positions = _CHAINS[key] = _chain(agents, cls)
            handlers = self._dispatch_cache[cls] = tuple(map(agents.__getitem__, positions))
        return handlers

    # ------------------------------------------------------------------ #
    # failure injection (route-recovery experiments, Sec. IV-D;
    # driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------ #
    @property
    def is_active(self) -> bool:
        """Can this node's radio send and receive right now?"""
        return self.alive and not self.asleep

    def fail(self) -> None:
        """Kill this node: it stops transmitting and receiving."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def sleep(self) -> None:
        """Enter a duty-cycle sleep window: radio off, state retained."""
        self.asleep = True

    def wake(self) -> None:
        self.asleep = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id} @ {self.position})"
