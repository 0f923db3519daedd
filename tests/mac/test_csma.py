"""Unit tests for the CSMA/CA MAC: carrier sense, backoff, unicast ARQ."""

import numpy as np

from repro.mac.csma import CsmaMac, CsmaParams
from repro.net.network import Network
from repro.net.packet import BROADCAST, AckFrame, DataPacket
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind


def line_net(sim, n=2, spacing=10.0, perfect=False):
    pos = np.array([[i * spacing, 0.0] for i in range(n)])
    return Network(sim, pos, comm_range=40.0, mac_factory=CsmaMac, perfect_channel=perfect)


def test_difs_before_transmit():
    sim = Simulator(seed=1)
    net = line_net(sim)
    net.node(0).send(DataPacket(src=0))
    sim.run()
    tx = list(sim.trace.filter(kind=TraceKind.TX, packet_type="DataPacket"))
    assert tx[0].time >= CsmaParams().difs


def test_carrier_sense_serialises_neighbors():
    """A node that finds the medium busy defers until the frame ends.

    (Two *perfectly* synchronized senders both see an idle medium at DIFS
    and collide — faithful 802.11 behaviour — so the second send here is
    staggered into the first frame's airtime.)
    """
    sim = Simulator(seed=3)
    net = line_net(sim, n=2)
    net.node(0).send(DataPacket(src=0))
    # enqueue at node 1 in the middle of node 0's frame
    sim.schedule(100e-6, net.node(1).send, DataPacket(src=1))
    sim.run()
    tx = sorted(
        (r.time for r in sim.trace.filter(kind=TraceKind.TX, packet_type="DataPacket"))
    )
    airtime = net.channel.airtime(DataPacket(src=0))
    assert len(tx) == 2
    assert tx[1] - tx[0] >= airtime  # no overlap: second waited
    assert net.node(1).mac.deferrals > 0


def test_broadcast_gets_no_ack():
    sim = Simulator(seed=1)
    net = line_net(sim)
    net.node(0).send(DataPacket(src=0, dst=BROADCAST))
    sim.run()
    assert sim.trace.count(TraceKind.TX, "AckFrame") == 0


def test_unicast_is_acked():
    sim = Simulator(seed=1)
    net = line_net(sim)
    net.node(0).send(DataPacket(src=0, dst=1))
    sim.run()
    assert sim.trace.count(TraceKind.TX, "AckFrame") == 1
    # frame delivered exactly once to the upper layer (ACK consumed by MAC)
    assert net.node(0).mac.dropped_retry == 0


def test_unicast_retries_until_receiver_appears():
    """If the destination is dead, the sender retries then gives up."""
    sim = Simulator(seed=1)
    net = line_net(sim)
    net.node(1).fail()  # never ACKs
    net.node(0).send(DataPacket(src=0, dst=1))
    sim.run()
    mac = net.node(0).mac
    assert mac.retries == CsmaParams().retry_limit
    assert mac.dropped_retry == 1
    # the head was abandoned; queue drained
    assert not mac.queue


def test_retry_recovers_lost_frame():
    """A frame lost to collision is retransmitted and eventually delivered."""
    sim = Simulator(seed=5)
    # hidden-terminal triangle: 0 and 2 are out of each other's range, both
    # in range of 1 -> their frames can collide at 1, ARQ must recover.
    pos = np.array([[0.0, 0.0], [35.0, 0.0], [70.0, 0.0]])
    net = Network(sim, pos, comm_range=40.0, mac_factory=CsmaMac)
    delivered = []
    orig = net.node(1).on_packet_received

    def spy(pkt):
        delivered.append(pkt)
        orig(pkt)

    net.node(1).on_packet_received = spy  # type: ignore[method-assign]
    for _ in range(5):
        net.node(0).send(DataPacket(src=0, dst=1))
        net.node(2).send(DataPacket(src=2, dst=1))
    sim.run(until=5.0)
    data = [p for p in delivered if isinstance(p, DataPacket)]
    assert len(data) >= 9  # ARQ recovered nearly everything (dups possible)


def test_ack_consumed_by_mac_not_agents():
    sim = Simulator(seed=1)
    net = line_net(sim)
    seen = []

    class Probe:
        handled_packets = (AckFrame,)

        def attach(self, node):
            self.node = node

        def start(self):
            pass

        def on_packet(self, p):  # pragma: no cover - must never fire
            seen.append(p)

    net.node(0).add_agent(Probe())
    net.node(1).send(DataPacket(src=1, dst=0))
    sim.run()
    assert sim.trace.count(TraceKind.TX, "AckFrame") == 1
    assert seen == []


def test_deferral_counter_increments_under_contention():
    sim = Simulator(seed=2)
    net = line_net(sim, n=5, spacing=5.0)
    rng = np.random.default_rng(0)
    for i in range(5):
        for k in range(3):
            # staggered arrivals inside each other's airtime
            sim.schedule(float(rng.uniform(0, 2e-3)), net.node(i).send, DataPacket(src=i))
    sim.run()
    assert sum(net.node(i).mac.deferrals for i in range(5)) > 0


def test_fixed_cw_for_broadcast():
    p = CsmaParams()
    assert p.cw_min < p.cw_max
    assert p.retry_limit == 7


def test_backoff_draws_keep_the_pinned_contention_trace(monkeypatch):
    """Backoff draws consume the MAC stream exactly as they always have.

    A contention-heavy run whose unicast retries double the contention
    window (31 -> 63) must reproduce the trace digest pinned when the MAC
    still served backoffs from prefetched 16-draw blocks, a form proven
    draw-for-draw equal to scalar draws before it was removed.
    """
    import repro.mac.csma as csma_mod
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import run_single
    from repro.net.packet import reset_uids
    from repro.sim.trace import TraceRecorder, trace_digest

    cfg = SimulationConfig(
        protocol="mtmrp", topology="grid", grid_nx=5, grid_ny=5, side=100.0,
        group_size=5, mac="csma", seed=17,
    )
    windows = []
    draw = csma_mod.CsmaMac._backoff_slots

    def recording(self):
        windows.append(self._cw)
        return draw(self)

    monkeypatch.setattr(csma_mod.CsmaMac, "_backoff_slots", recording)
    reset_uids()
    tr = TraceRecorder()
    run_single(cfg, trace=tr, cache=False)

    assert sorted(set(windows)) == [31, 63]
    assert trace_digest(tr) == (
        "296d39b2b8b3a4bb39b02bcfbf8e7fec83aa1733c978f6c396d07b3bd254af02"
    )
