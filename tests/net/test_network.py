"""Unit tests for Network assembly."""

import numpy as np
import pytest

from repro.mac.ideal import IdealMac
from repro.net.network import Network
from repro.net.topology import connectivity_graph, grid_topology, random_topology
from repro.sim.kernel import Simulator


def make(sim=None):
    sim = sim or Simulator(seed=1)
    return sim, Network(sim, grid_topology(4, 4, 66.0), comm_range=25.0,
                        mac_factory=IdealMac, perfect_channel=True)


def test_nodes_created_and_wired():
    sim, net = make()
    assert len(net) == 16
    for node in net.nodes:
        assert node.network is net
        assert node.mac is not None
        assert node.mac.channel is net.channel


def test_graph_cached_and_correct():
    _sim, net = make()
    g1 = net.graph()
    g2 = net.graph()
    assert g1 is g2
    assert g1.number_of_nodes() == 16
    assert set(g1.neighbors(0)) == {int(x) for x in net.neighbors(0)}


@pytest.mark.parametrize("topology", ["grid", "random"])
def test_graph_reads_the_channel_links(topology):
    """Under TwoRayGround the channel's links are the unit-disk graph:
    equal nodes with ``pos``, edges with ``weight``, adjacency order."""
    if topology == "grid":
        pos = grid_topology()
    else:
        pos = random_topology(200, rng=np.random.default_rng(3), comm_range=40.0)
    net = Network(Simulator(seed=1), pos, comm_range=40.0, mac_factory=IdealMac)
    got, ref = net.graph(), connectivity_graph(pos, 40.0)
    assert list(got.nodes(data=True)) == list(ref.nodes(data=True))
    assert list(got.edges(data=True)) == list(ref.edges(data=True))
    assert [list(got.adj[k]) for k in got] == [list(ref.adj[k]) for k in ref]


def test_set_group_members():
    _sim, net = make()
    net.set_group_members(3, [1, 5, 9])
    assert net.members_of(3) == [1, 5, 9]
    assert net.node(5).is_member(3)


def test_bootstrap_neighbor_tables_groups_visible():
    _sim, net = make()
    net.set_group_members(1, [5])
    net.bootstrap_neighbor_tables()
    for nbr in net.neighbors(5):
        assert 5 in net.node(int(nbr)).neighbor_table.members_of(1)


def test_install_returns_agents_in_node_order():
    from repro.net.flooding import FloodingAgent

    _sim, net = make()
    agents = net.install(lambda node: FloodingAgent())
    assert len(agents) == 16
    for i, a in enumerate(agents):
        assert a.node_id == i


def test_energy_summary_zero_initially():
    _sim, net = make()
    s = net.energy_summary()
    assert s == {"tx_joules": 0.0, "rx_joules": 0.0, "total_joules": 0.0}


def test_close_cancels_pending_events_and_cuts_back_references():
    from repro.net.flooding import FloodingAgent

    sim, net = make()
    net.install(lambda node: FloodingAgent())
    held = sim.schedule(1.0, lambda: None)
    sim.schedule_fire(2.0, lambda: None)
    net.node(3).energy.charge_tx(0.5)
    net.close()
    assert sim.pending == 0
    assert not held.active and held.fn is None
    sim.cancel(held)  # a handle from before the close stays harmless
    assert sim.pending == 0
    for node in net.nodes:
        assert node.network is None and node.mac is None
        assert node.agents_of(FloodingAgent) == []
    # what a run measured stays readable
    assert net.energy_summary()["tx_joules"] == 0.5
    assert net.channel.frames_sent == 0
