"""Unit tests for the wireless channel."""

import heapq

import numpy as np
import pytest

import repro.net.channel as channel_mod
from repro.experiments.config import SimulationConfig
from repro.mac.ideal import IdealMac
from repro.net.channel import Channel
from repro.net.network import Network
from repro.net.packet import DataPacket
from repro.net.topology import grid_topology
from repro.sim.kernel import Simulator
from repro.sim.snapshot import build_prefix
from repro.sim.trace import TraceKind


def test_reachability_is_disk():
    sim = Simulator(seed=1)
    pos = np.array([[0.0, 0.0], [39.9, 0.0], [40.0, 0.0], [40.1, 0.0]])
    ch = Channel(sim, pos, comm_range=40.0)
    assert set(ch.neighbors(0).tolist()) == {1, 2}


def test_airtime_scales_with_size():
    sim = Simulator(seed=1)
    ch = Channel(sim, grid_topology(2, 2, 40.0), comm_range=40.0)
    pkt = DataPacket(src=0)
    assert ch.airtime(pkt) == pytest.approx(pkt.size_bits() / 2e6)  # 2 Mb/s


def test_transmit_reaches_all_in_range():
    sim = Simulator(seed=1)
    net = Network(sim, grid_topology(3, 3, 60.0), comm_range=45.0,
                  mac_factory=IdealMac, perfect_channel=True)
    net.node(4).send(DataPacket(src=4))  # center node: all 8 within 45 m
    sim.run()
    assert sim.trace.count(TraceKind.RX) == 8


def test_sender_does_not_hear_itself():
    sim = Simulator(seed=1)
    net = Network(sim, grid_topology(2, 1, 10.0), comm_range=40.0,
                  mac_factory=IdealMac, perfect_channel=True)
    net.node(0).send(DataPacket(src=0))
    sim.run()
    assert sim.trace.nodes_with(TraceKind.RX) == {1}


def test_energy_charged_tx_and_rx():
    sim = Simulator(seed=1)
    net = Network(sim, grid_topology(2, 1, 10.0), comm_range=40.0,
                  mac_factory=IdealMac, perfect_channel=True)
    net.node(0).send(DataPacket(src=0))
    sim.run()
    assert net.node(0).energy.tx_joules > 0
    assert net.node(1).energy.rx_joules > 0
    assert net.node(0).energy.rx_joules == 0


def test_perfect_channel_ignores_collisions():
    sim = Simulator(seed=1)
    pos = np.array([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0]])
    net = Network(sim, pos, comm_range=25.0, mac_factory=IdealMac, perfect_channel=True)
    # 0 and 2 both transmit to 1 simultaneously (out of each other's range)
    net.node(0).send(DataPacket(src=0))
    net.node(2).send(DataPacket(src=2))
    sim.run()
    assert sim.trace.count(TraceKind.RX) == 2
    assert sim.trace.count(TraceKind.COLLISION) == 0


def test_physical_channel_detects_collisions():
    sim = Simulator(seed=1)
    pos = np.array([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0]])
    net = Network(sim, pos, comm_range=25.0, mac_factory=IdealMac, perfect_channel=False)
    net.node(0).send(DataPacket(src=0))
    net.node(2).send(DataPacket(src=2))
    sim.run()
    # equidistant senders -> comparable powers -> both frames collide at 1
    assert sim.trace.count(TraceKind.COLLISION, "DataPacket") == 2
    assert sim.trace.count(TraceKind.RX) == 0
    assert net.channel.frames_collided == 2


def test_capture_near_sender_wins():
    sim = Simulator(seed=1)
    # interferer is >1.78x farther -> >=10 dB weaker under d^4 -> capture
    pos = np.array([[10.0, 0.0], [0.0, 0.0], [25.0, 0.0]])
    net = Network(sim, pos, comm_range=30.0, mac_factory=IdealMac, perfect_channel=False)
    net.node(0).send(DataPacket(src=0))  # 10 m from node 1
    net.node(2).send(DataPacket(src=2))  # 25 m from node 1
    sim.run()
    rx_nodes = [r.node for r in sim.trace.filter(kind=TraceKind.RX)]
    assert 1 in rx_nodes  # node 1 captured the near frame


def test_counters():
    sim = Simulator(seed=1)
    net = Network(sim, grid_topology(2, 1, 10.0), comm_range=40.0,
                  mac_factory=IdealMac, perfect_channel=True)
    net.node(0).send(DataPacket(src=0))
    sim.run()
    assert net.channel.frames_sent == 1
    assert net.channel.frames_delivered == 1


def test_attach_nodes_size_mismatch():
    sim = Simulator(seed=1)
    ch = Channel(sim, grid_topology(2, 2, 40.0), comm_range=40.0)
    with pytest.raises(ValueError):
        ch.attach_nodes([])


def test_transmit_takes_one_seq_per_live_receiver_in_delivery_order():
    """Arrival entries go straight onto the heap: one seq per live
    receiver, in delivery-list order, so equal arrival times fire in it."""
    sim = Simulator(seed=1)
    # four receivers at exactly 30 m: bit-equal delays, one arrival instant
    pos = np.array([[0.0, 0.0], [30.0, 0.0], [-30.0, 0.0], [0.0, 30.0], [0.0, -30.0]])
    net = Network(sim, pos, comm_range=40.0, mac_factory=IdealMac, perfect_channel=True)
    net.node(3).fail()
    queue = sim._queue
    seq0 = queue._seq
    net.channel.transmit(0, DataPacket(src=0))
    delivery = [entry[0] for entry in net.channel._delivery[0]]
    live = [nbr for nbr in delivery if nbr != 3]
    assert delivery == [1, 2, 3, 4] and live == [1, 2, 4]
    arrivals = sorted((e for e in queue._heap if e[3].__name__ == "_arrive"), key=lambda e: e[2])
    assert [e[4][2] for e in arrivals] == live
    # end_tx takes seq0, then one seq per live receiver
    assert [e[2] for e in arrivals] == [seq0 + 1, seq0 + 2, seq0 + 3]
    assert queue._seq == seq0 + 1 + len(live)
    assert len(queue) == 1 + len(live)
    assert len({e[0] for e in arrivals}) == 1
    sim.run()
    assert [r.node for r in sim.trace.filter(TraceKind.RX)] == live


def test_inline_pushes_keep_the_queue_counts(monkeypatch):
    """A CSMA run cut mid-flight: the live count matches the heap, and
    every push, inline or through the queue, took the next seq."""
    pushed = []
    real_push = heapq.heappush

    def counting_push(heap, entry):
        pushed.append(entry[2])
        real_push(heap, entry)

    monkeypatch.setattr(heapq, "heappush", counting_push)
    monkeypatch.setattr(channel_mod, "heappush", counting_push)
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=8, seed=5,
                           mac="csma", hello_phase=True, hello_warmup=1.0)
    prefix = build_prefix(cfg)
    sim, queue = prefix.sim, prefix.sim._queue
    in_flight = 0
    for k in range(1, 41):
        sim.run(until=1.0 + 0.0005 * k)
        heap = queue._heap
        assert len(queue) == sum(1 for e in heap if e[4] is not None or not e[3].cancelled)
        assert pushed == list(range(queue._seq))
        in_flight += sum(1 for e in heap if getattr(e[3], "__name__", "") in ("_arrive", "_finish"))
    assert in_flight > 0
    prefix.net.close()
