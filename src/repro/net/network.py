"""Deployment assembly: simulator + channel + nodes + stacks.

:class:`Network` is the one-stop constructor experiments use::

    sim = Simulator(seed=42)
    net = Network(sim, positions=grid_topology(), comm_range=40.0)
    net.set_group_members(group=1, members=[5, 17, 42])
    net.bootstrap_neighbor_tables()        # or net.install_hello(); sim.run(until=...)
    # install protocol agents, then:
    net.start()
    # run and measure, then let reference counting free the deployment:
    net.close()

Neighbor-table bootstrap vs HELLO
---------------------------------
The paper runs a HELLO initialization phase (Sec. IV-B).  In a *static*
network the HELLO phase converges to exactly the geometric one-hop
neighborhood with group memberships, so for the large Monte-Carlo sweeps we
offer :meth:`bootstrap_neighbor_tables`, which installs that fixed point
directly and costs zero simulated traffic.  The equivalence is asserted by
``tests/integration/test_hello_equivalence.py``, and experiments can opt
into the full HELLO phase with ``SimulationConfig(hello_phase=True)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.mac.base import Mac
from repro.mac.ideal import IdealMac
from repro.net.channel import Channel
from repro.net.loss import LossModel
from repro.net.neighbor import HelloAgent
from repro.net.node import Node
from repro.net.topology import link_graph
from repro.phy.propagation import PropagationModel
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["Network"]


class Network:
    """A fully wired deployment."""

    def __init__(
        self,
        sim: Simulator,
        positions: np.ndarray,
        comm_range: float = 40.0,
        mac_factory: Optional[Callable[[], Mac]] = None,
        propagation: Optional[PropagationModel] = None,
        perfect_channel: bool = False,
        loss: Optional[LossModel] = None,
    ) -> None:
        self.sim = sim
        self.positions = np.asarray(positions, dtype=float)
        self.channel = Channel(
            sim,
            self.positions,
            comm_range=comm_range,
            propagation=propagation,
            perfect=perfect_channel,
            loss=loss,
        )
        if mac_factory is None:
            mac_factory = IdealMac
        self.nodes: List[Node] = []
        for i, pos in enumerate(self.positions):
            node = Node(i, (pos[0], pos[1]))
            node.network = self
            mac = mac_factory()
            mac.attach(node, self.channel, sim)
            node.mac = mac
            self.nodes.append(node)
        self.channel.attach_nodes(self.nodes)
        self._graph: Optional["nx.Graph"] = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def neighbors(self, node_id: int) -> np.ndarray:
        """Geometric one-hop neighborhood (channel ground truth)."""
        return self.channel.neighbors(node_id)

    def graph(self) -> "nx.Graph":
        """The link graph G=(V, E) of Sec. III: the channel's links (cached).

        Under the paper's TwoRayGround these are the unit-disk links of
        :func:`repro.net.topology.connectivity_graph`; under fading, the
        links the radio actually uses.
        """
        if self._graph is None:
            self._graph = link_graph(self.positions, self.channel.neighbor_ids)
        return self._graph

    def update_positions(self, positions: np.ndarray) -> None:
        """Move the deployment (mobility extension): updates nodes, the
        channel's geometry and invalidates the cached connectivity graph."""
        self.positions = np.asarray(positions, dtype=float).copy()
        for node, pos in zip(self.nodes, self.positions):
            node.position = (float(pos[0]), float(pos[1]))
        self.channel.update_positions(self.positions)
        self._graph = None

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def set_group_members(self, group: int, members: Iterable[int]) -> None:
        """Declare the receiver set of a multicast group."""
        for m in members:
            self.nodes[m].join_group(group)

    def members_of(self, group: int) -> List[int]:
        return [n.node_id for n in self.nodes if n.is_member(group)]

    # ------------------------------------------------------------------ #
    # neighbor discovery
    # ------------------------------------------------------------------ #
    def bootstrap_neighbor_tables(self, with_positions: bool = False) -> None:
        """Install the HELLO-phase fixed point directly (static network).

        Every node learns its geometric neighbors and their current group
        memberships with ``last_seen = now``; ``with_positions`` also fills
        neighbor coordinates (geographic-multicast mode).
        """
        now = self.sim.now
        nodes = self.nodes
        for node in nodes:
            update = node.neighbor_table.update_hello
            for nbr in self.channel.neighbors(node.node_id).tolist():
                nbr_node = nodes[nbr]
                update(
                    nbr,
                    nbr_node.groups,
                    now,
                    position=nbr_node.position if with_positions else None,
                )

    def install_hello(
        self,
        period: float = 1.0,
        expiry: float = 3.5,
        jitter: float = 0.1,
        share_position: bool = False,
    ) -> List[HelloAgent]:
        """Install a :class:`HelloAgent` on every node (real HELLO phase)."""
        return [
            node.add_agent(
                HelloAgent(
                    period=period, expiry=expiry, jitter=jitter,
                    share_position=share_position,
                )
            )
            for node in self.nodes
        ]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def install(self, agent_factory: Callable[[Node], object]) -> list:
        """Install ``agent_factory(node)`` on every node; returns the agents."""
        return [node.add_agent(agent_factory(node)) for node in self.nodes]

    def start(self) -> None:
        """Start every agent on every node."""
        for node in self.nodes:
            node.start_agents()

    def close(self) -> None:
        """End the deployment so reference counting can free it.

        A wired deployment is a web of reference cycles: node ↔ network,
        node ↔ MAC, node ↔ agents, and agents reachable from their own
        pending events' callbacks.  Closing cancels and drops every pending
        event and clears each node's back-references (network, MAC, agent
        list, dispatch tables), so the whole graph dies with the caller's
        last reference instead of waiting for the cyclic collector.  The
        trace, channel counters, energy accounts and neighbor tables stay
        readable; the deployment can no longer run.  Call it after
        ``sim.run`` has returned.
        """
        self.sim._queue.clear()
        for node in self.nodes:
            node.network = None
            node.mac = None
            node._agents.clear()
            node._dispatch_cache.clear()

    # ------------------------------------------------------------------ #
    # inspection helpers used by metrics / tests
    # ------------------------------------------------------------------ #
    def energy_summary(self) -> Dict[str, float]:
        """Aggregate energy use across the deployment (joules)."""
        tx = sum(n.energy.tx_joules for n in self.nodes)
        rx = sum(n.energy.rx_joules for n in self.nodes)
        return {"tx_joules": tx, "rx_joules": rx, "total_joules": tx + rx}
