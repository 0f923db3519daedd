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
        self._dispatch: Dict[Type[Packet], List[Agent]] = {}
        #: resolved handler chain per *concrete* packet class, filled on
        #: first receipt (the isinstance scan runs once per type, not per
        #: frame — the receive path is the simulation's hottest loop)
        self._dispatch_cache: Dict[Type[Packet], Tuple[Agent, ...]] = {}

    # ------------------------------------------------------------------ #
    # stack assembly
    # ------------------------------------------------------------------ #
    def add_agent(self, agent: Agent) -> Agent:
        """Install ``agent`` on this node and index its packet interests."""
        agent.attach(self)
        self._agents.append(agent)
        for pcls in agent.handled_packets:
            self._dispatch.setdefault(pcls, []).append(agent)
        self._dispatch_cache.clear()
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

        Resolved once per class and kept in ``_dispatch_cache`` (which
        ``add_agent`` clears): the same match rule and order as a
        per-frame scan, declaration order over agents' handled classes.
        """
        handlers = self._dispatch_cache.get(cls)
        if handlers is None:
            handlers = self._dispatch_cache[cls] = tuple(
                agent
                for pcls, agents in self._dispatch.items()
                if issubclass(cls, pcls)
                for agent in agents
            )
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
