"""Unit tests for nodes and agent dispatch."""

import numpy as np
import pytest

from repro.mac.ideal import IdealMac
from repro.net import node as node_mod
from repro.net.agent import Agent
from repro.net.network import Network
from repro.net.packet import DataPacket, HelloPacket, Packet
from repro.sim.kernel import Simulator


class Recorder(Agent):
    handled_packets = (DataPacket,)

    def __init__(self):
        super().__init__()
        self.got = []
        self.started = False

    def start(self):
        self.started = True

    def on_packet(self, packet):
        self.got.append(packet)


def two_nodes():
    sim = Simulator(seed=1)
    pos = np.array([[0.0, 0.0], [10.0, 0.0]])
    net = Network(sim, pos, comm_range=40.0, mac_factory=IdealMac, perfect_channel=True)
    return sim, net


def test_dispatch_by_packet_class():
    sim, net = two_nodes()
    rec = Recorder()
    net.node(1).add_agent(rec)
    net.node(0).send(DataPacket(src=0))
    net.node(0).send(HelloPacket(src=0))
    sim.run()
    assert len(rec.got) == 1  # only the DataPacket


def test_multiple_agents_both_receive():
    sim, net = two_nodes()
    a, b = Recorder(), Recorder()
    net.node(1).add_agent(a)
    net.node(1).add_agent(b)
    net.node(0).send(DataPacket(src=0))
    sim.run()
    assert len(a.got) == 1 and len(b.got) == 1


def test_start_agents():
    _sim, net = two_nodes()
    rec = Recorder()
    net.node(0).add_agent(rec)
    net.start()
    assert rec.started


def test_group_membership():
    _sim, net = two_nodes()
    n = net.node(0)
    assert not n.is_member(1)
    n.join_group(1)
    assert n.is_member(1)
    n.leave_group(1)
    assert not n.is_member(1)


def test_failed_node_neither_sends_nor_receives():
    sim, net = two_nodes()
    rec = Recorder()
    net.node(1).add_agent(rec)
    net.node(1).fail()
    net.node(0).send(DataPacket(src=0))
    sim.run()
    assert rec.got == []
    net.node(1).recover()
    net.node(0).send(DataPacket(src=0))
    sim.run()
    assert len(rec.got) == 1


def test_failed_node_send_is_noop():
    sim, net = two_nodes()
    net.node(0).fail()
    net.node(0).send(DataPacket(src=0))
    sim.run()
    assert net.channel.frames_sent == 0


def test_agent_of_unique_lookup():
    _sim, net = two_nodes()
    rec = Recorder()
    net.node(0).add_agent(rec)
    assert net.node(0).agent_of(Recorder) is rec
    with pytest.raises(LookupError):
        net.node(1).agent_of(Recorder)
    net.node(0).add_agent(Recorder())
    with pytest.raises(LookupError):
        net.node(0).agent_of(Recorder)


def test_agent_convenience_accessors():
    _sim, net = two_nodes()
    rec = Recorder()
    net.node(1).add_agent(rec)
    assert rec.node_id == 1
    assert rec.network is net
    assert rec.sim is net.sim


class Overhearer(Recorder):
    """Handles every packet and, again, DataPackets."""

    handled_packets = (Packet, DataPacket)


def test_chain_order_follows_declaration_order():
    """Classes in the order agents first declared them, each class's
    agents in install order; an agent declaring two matching classes is
    called once per class."""
    _sim, net = two_nodes()
    node = net.node(1)
    a, b = Recorder(), Overhearer()
    node.add_agent(a)
    node.add_agent(b)
    assert node.handlers_of(DataPacket) == (a, b, b)
    assert node.handlers_of(HelloPacket) == (b,)


def test_chains_are_resolved_once_per_stack():
    """Equal stacks share one resolution, kept as positions: the
    process-wide cache holds classes, never a run's agents."""
    _sim, net = two_nodes()
    for node in net.nodes:
        node.add_agent(Recorder())
        node.add_agent(Overhearer())
    first = net.node(0).handlers_of(DataPacket)
    key = ((Recorder.handled_packets, Overhearer.handled_packets), DataPacket)
    assert node_mod._CHAINS[key] == (0, 1, 1)
    resolved = len(node_mod._CHAINS)
    second = net.node(1).handlers_of(DataPacket)
    assert len(node_mod._CHAINS) == resolved
    assert [a.node_id for a in first] == [0, 0, 0] and [a.node_id for a in second] == [1, 1, 1]
    for (stack, cls), positions in node_mod._CHAINS.items():
        assert all(isinstance(p, type) for handled in stack for p in handled)
        assert isinstance(cls, type) and all(type(i) is int for i in positions)


def test_install_drops_only_the_chains_it_changes():
    _sim, net = two_nodes()
    node = net.node(1)
    rec = node.add_agent(Recorder())
    data_chain = node.handlers_of(DataPacket)
    hello_chain = node.handlers_of(HelloPacket)
    assert data_chain == (rec,) and hello_chain == ()
    extra = node.add_agent(Recorder())  # handles DataPacket only
    assert node._dispatch_cache[HelloPacket] is hello_chain
    assert DataPacket not in node._dispatch_cache
    assert node.handlers_of(DataPacket) == (rec, extra)
