"""Isolated HELLO beacons are byte-identical to stepped ones.

A HELLO tick whose frame provably touches nothing else is sent and heard
inside the tick (``Channel.send_isolated``).  The reference is the same
run with the isolation test refusing every frame, which steps each
beacon through the MAC, ``_arrive`` and ``_finish`` events.  Both runs
must leave the same full trace, the same result and the same end state:
radios, MACs, neighbor tables in insertion order, energy, node flags,
rng stream states, the packet-uid counter, the channel's counters and
the pending events in firing order.  Only the executed-event count, heap
``seq`` values and the radios' reception pools may differ.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import CheckHarness
from repro.experiments.config import Schedule, SimulationConfig
from repro.experiments.runner import monte_carlo, run_single
from repro.mac.csma import CsmaMac
from repro.net.agent import Agent
from repro.net.channel import Channel
from repro.net.network import Network
from repro.net.neighbor import HelloAgent
from repro.net.packet import DataPacket, HelloPacket, current_uid, reset_uids
from repro.phy.propagation import SPEED_OF_LIGHT
from repro.sim.hooks import RunHook
from repro.sim.kernel import Simulator
from repro.sim.snapshot import build_prefix
from repro.sim.trace import TraceRecorder


class _EndState(RunHook):
    """Records the deployment's state as the last phase ends."""

    def on_attach(self, sim, cfg) -> None:
        self.sim = sim

    def on_bind(self, net, agents, cfg, receivers, members) -> None:
        self.net = net

    def on_finish(self) -> None:
        self.state = _state(self.sim, self.net)
        del self.sim, self.net


def _event(entry) -> tuple:
    fn = entry[3].fn if entry[4] is None else entry[3]
    owner = getattr(fn, "__self__", None)
    owner_id = getattr(owner, "node_id", getattr(getattr(owner, "node", None), "node_id", None))
    return entry[0], entry[1], getattr(fn, "__qualname__", repr(fn)), owner_id


def _state(sim, net) -> dict:
    ch = net.channel
    pending = sorted(e for e in sim._queue._heap if e[4] is not None or not e[3].cancelled)
    macs = []
    for node in net.nodes:
        mac = node.mac
        fields = {k: v for k, v in vars(mac).items()
                  if k not in ("node", "channel", "sim", "_rng_gen", "_radio", "queue")}
        fields["queue"] = [p.uid for p in mac.queue]
        macs.append(fields)
    return {
        "now": sim.now,
        "pending": [_event(e) for e in pending],
        "radios": [
            (r.state, r.tx_until,
             [(x.start, x.end, x.power, x.intact, x.frame.uid) for x in r.receptions])
            for r in ch.radios
        ],
        "macs": macs,
        "tables": [
            [(nid, e.last_seen, e.groups, e.covered_sessions, e.forwarder_sessions, e.position)
             for nid, e in node.neighbor_table._entries.items()]
            for node in net.nodes
        ],
        "energy": [
            (n.energy.tx_joules, n.energy.rx_joules, n.energy.initial_joules, n.energy.depleted)
            for n in net.nodes
        ],
        "nodes": [(n.alive, n.asleep, n.position) for n in net.nodes],
        "hellos": [[a.hellos_sent for a in n._agents if isinstance(a, HelloAgent)]
                   for n in net.nodes],
        "rng": {k: g.bit_generator.state for k, g in sim.rng._streams.items()},
        "uid": current_uid(),
        "channel": (ch.frames_sent, ch.frames_delivered, ch.frames_collided,
                    ch.frames_lost, ch.frames_suppressed),
    }


def _run(cfg: SimulationConfig, checked: bool):
    reset_uids()
    tr = TraceRecorder()
    end = _EndState()
    hooks = [CheckHarness(mode="collect"), end] if checked else [end]
    result = run_single(cfg, trace=tr, cache=False, hooks=hooks)
    return tr.records, result, end.state


def _assert_isolation_changes_nothing(cfg: SimulationConfig, checked: bool = False):
    fused = _run(cfg, checked)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Channel, "_isolated", lambda self, *args: None)
        stepped = _run(cfg, checked)
    assert fused[0] == stepped[0]  # the full trace, every kind
    assert fused[1] == stepped[1]
    assert fused[2] == stepped[2]


@st.composite
def _hello_configs(draw):
    """Small HELLO-phase runs over both MACs, both fields and the stressors."""
    kw = dict(
        protocol=draw(st.sampled_from(("mtmrp", "odmrp", "gmr"))),
        seed=draw(st.integers(0, 10_000)),
        mac=draw(st.sampled_from(("csma", "ideal"))),
        hello_phase=True,
        hello_period=draw(st.sampled_from((1.0, 0.4))),
        hello_warmup=draw(st.sampled_from((1.5, 2.5, 3.5))),
        shadowing_sigma_db=draw(st.sampled_from((0.0, 0.0, 4.0))),
        group_size=draw(st.integers(2, 5)),
        construction_time=0.5,
        data_time=0.5,
    )
    if draw(st.booleans()):
        k = draw(st.integers(4, 6))
        kw.update(topology="grid", grid_nx=k, grid_ny=k, side=22.2 * (k - 1))
        n = k * k
    else:
        n = draw(st.integers(20, 40))
        kw.update(topology="random", random_nodes=n, side=draw(st.sampled_from((80.0, 110.0))))
    cfg = SimulationConfig(**kw)
    if not draw(st.booleans()):
        return cfg
    horizon = cfg.hello_warmup + 1.0
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.integers(1, n - 1))
        t = draw(st.floats(0.0, horizon))
        if draw(st.booleans()):
            faults.append({"time": t, "node": node, "kind": "crash"})
            if draw(st.booleans()):
                faults.append({"time": t + 0.6, "node": node, "kind": "recover"})
        else:
            faults.append({"time": t, "node": node, "kind": "sleep"})
            faults.append({"time": t + draw(st.floats(0.1, 1.0)), "node": node, "kind": "wake"})
    mobility = None
    if draw(st.booleans()):
        mobility = {"speed_min": 0.5, "speed_max": 3.0, "pause": 0.0, "update_interval": 0.25}
    # HELLO traffic alone drains a few 1e-4 J per node over these runs
    budget = draw(st.sampled_from((None, 1.5e-4, 2.5e-4, 4e-4)))
    return cfg.with_(schedule=Schedule(
        n_packets=draw(st.integers(1, 3)), rate_pps=8.0,
        refresh_interval=draw(st.sampled_from((None, 1.0))),
        faults=tuple(faults), mobility=mobility, energy_budget=budget,
    ))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_hello_configs(), checked=st.booleans())
def test_isolated_beacons_match_stepped_ones(cfg, checked):
    _assert_isolation_changes_nothing(cfg, checked)


#: the fig7_hello benchmark's first unit at input seed 0 (bench/trial.py)
FIG7 = SimulationConfig(protocol="mtmrp", group_size=20, mac="csma", hello_phase=True,
                        hello_warmup=15.0, construction_time=0.5, data_time=0.25)


def test_fig7_shape_matches_stepped_run():
    _assert_isolation_changes_nothing(monte_carlo(FIG7, 1, 700)[0])


def test_fig7_warmup_runs_few_events():
    """Isolated beacons are one event each: the unit-0 warmup executed
    27,416 kernel events when every beacon stepped."""
    prefix = build_prefix(monte_carlo(FIG7, 1, 700)[0])
    assert prefix.sim.events_executed <= 7_000
    prefix.net.close()


def test_beacon_outside_run_is_stepped():
    """``Simulator.step`` runs an event with no horizon: its beacon steps."""
    cfg = SimulationConfig(group_size=5, mac="csma", hello_phase=True, hello_warmup=1.0)
    prefix = build_prefix(cfg)
    sim, ch = prefix.sim, prefix.net.channel
    heap = sim._queue._heap
    while getattr(min(heap)[3], "__func__", None) is not HelloAgent._tick:
        sim.step()
    sent = ch.frames_sent
    sim.step()
    assert ch.frames_sent == sent
    assert any(getattr(e[3], "__func__", None) is CsmaMac._final_check for e in heap)
    prefix.net.close()


# --------------------------------------------------------------------- #
# the isolation test at its boundaries: a line of three CSMA nodes 30 m
# apart, HELLO agents installed but not started; node 0's only neighbor
# is node 1, and a callback at t = 1 asks node 0's MAC for an isolated
# send
# --------------------------------------------------------------------- #
T0 = 1.0


def _line(mac_factory=CsmaMac):
    sim = Simulator(seed=3)
    net = Network(sim, np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]]),
                  mac_factory=mac_factory)
    net.install_hello()
    return sim, net


def _frame_end(net) -> float:
    """The instant node 0's isolated HELLO would end: node 1's finish."""
    duration = HelloPacket(src=0).size_bits() / net.channel.bitrate_bps
    return (T0 + net.nodes[0].mac.params.difs + 30.0 / SPEED_OF_LIGHT) + duration


def _send_at_t0(sim, net, before=float("inf"), until=2.0) -> bool:
    out = []
    mac = net.nodes[0].mac
    sim.schedule_at(T0, lambda: out.append(mac.send_isolated(HelloPacket(src=0), before)))
    sim.run(until=until)
    assert out[0] == (net.channel.frames_sent == 1)
    return out[0]


@pytest.mark.parametrize("slack,isolated", [(0.0, False), (1e-9, True)])
def test_frame_ends_strictly_before_the_callers_bound(slack, isolated):
    sim, net = _line()
    assert _send_at_t0(sim, net, before=_frame_end(net) + slack) is isolated


@pytest.mark.parametrize("slack,isolated", [(0.0, False), (1e-9, True)])
def test_frame_ends_strictly_before_the_next_event(slack, isolated):
    """At an equal instant the stepped finish (priority 1) runs last."""
    sim, net = _line()
    sim.schedule_at(_frame_end(net) + slack, lambda: None)
    assert _send_at_t0(sim, net) is isolated


@pytest.mark.parametrize("slack,isolated", [(0.0, True), (-1e-9, False)])
def test_frame_ends_within_the_horizon(slack, isolated):
    sim, net = _line()
    assert _send_at_t0(sim, net, until=_frame_end(net) + slack) is isolated


def test_isolated_frame_is_written_like_the_stepped_one():
    sim, net = _line()
    assert _send_at_t0(sim, net)
    entry = net.nodes[1].neighbor_table.entry(0)
    assert entry.last_seen == _frame_end(net)
    assert [(r.time, r.kind.value, r.node) for r in sim.trace.records] == [
        (T0 + net.nodes[0].mac.params.difs, "tx", 0), (_frame_end(net), "rx", 1),
    ]
    assert net.channel.radios[0].tx_until == T0 + net.nodes[0].mac.params.difs + (
        HelloPacket(src=0).size_bits() / net.channel.bitrate_bps
    )
    assert sim.now == 2.0 and net.nodes[0].mac.sent == 1 and not net.nodes[0].mac.queue


@pytest.mark.parametrize("who", ["sender-rx", "sender-tx", "receiver-rx"])
def test_busy_radio_refuses(who):
    sim, net = _line()
    radio = net.channel.radios[1 if who == "receiver-rx" else 0]
    if who == "sender-tx":
        radio.begin_tx(0.0, 5.0)
    else:
        radio.begin_reception(HelloPacket(src=2), 0.0, 5.0, 1.0)
    assert not _send_at_t0(sim, net)


@pytest.mark.parametrize("who", [0, 1])
def test_charge_reaching_the_budget_refuses(who):
    sim, net = _line()
    bits = HelloPacket(src=0).size_bits()
    em = net.channel.energy_model
    net.nodes[who].energy.initial_joules = em.tx_energy(bits) if who == 0 else em.rx_energy(bits)
    assert not _send_at_t0(sim, net)


def test_a_mac_that_inspects_broadcasts_hears_every_frame():
    """A MAC overriding ``on_frame`` without declaring it ignores
    broadcast frames is never skipped: its nodes' frames are stepped."""

    class SnoopingMac(CsmaMac):
        def on_frame(self, packet):
            return super().on_frame(packet)

    assert CsmaMac.ignores_broadcast and not SnoopingMac.ignores_broadcast
    sim, net = _line(SnoopingMac)
    assert not _send_at_t0(sim, net)


# --------------------------------------------------------------------- #
# plans: a sender's checks that only an install or a row change can turn
# (Channel._plan) are kept between beacons, and dropped exactly when an
# agent handling their class is installed or the sender's rows change
# --------------------------------------------------------------------- #
class _Listener(Agent):
    handled_packets = (DataPacket,)

    def __init__(self):
        super().__init__()
        self.got = []

    def on_packet(self, packet):
        self.got.append(packet)


class _HelloListener(_Listener):
    handled_packets = (HelloPacket,)


def _beacon_at(sim, net, t, until):
    """Node 0 sends a HELLO at ``t``, isolated if it can be; returns
    whether it was, and the packet."""
    out, pkt, node = [], HelloPacket(src=0), net.nodes[0]

    def beacon():
        out.append(node.mac.send_isolated(pkt, float("inf")))
        if not out[-1]:
            node.send(pkt)

    sim.schedule_at(t, beacon)
    sim.run(until=until)
    return out[0], pkt


def test_an_install_that_does_not_handle_hello_keeps_plans_and_chains():
    sim, net = _line()
    assert _send_at_t0(sim, net)
    plan = net.channel._plans[0]
    chain = net.nodes[1]._dispatch_cache[HelloPacket]
    net.nodes[1].add_agent(_Listener())
    assert net.channel._plans[0] is plan
    assert net.nodes[1]._dispatch_cache[HelloPacket] is chain
    assert _beacon_at(sim, net, 2.5, 3.0)[0]


def test_a_second_hello_handler_steps_the_beacon_and_hears_it():
    sim, net = _line()
    assert _send_at_t0(sim, net)
    listener = net.nodes[1].add_agent(_HelloListener())
    assert net.channel._plans == [None] * 3
    isolated, pkt = _beacon_at(sim, net, 2.5, 3.0)
    assert not isolated
    assert listener.got == [pkt]
    assert net.nodes[1].neighbor_table.entry(0).last_seen > 2.5


def test_update_positions_rebuilds_the_plans_of_replaced_rows():
    sim = Simulator(seed=5)
    pos = np.array([[30.0 * i, 0.0] for i in range(8)])
    net = Network(sim, pos, mac_factory=CsmaMac)
    net.install_hello()
    net.start()
    sim.run(until=3.0)
    ch = net.channel
    plans = ch._plans
    assert all(p is ch._delivery[s] for s, p in enumerate(plans))
    before, rows = list(plans), list(ch._neighbor_ids)
    moved = pos.copy()
    moved[7] = (400.0, 0.0)
    net.update_positions(moved)
    replaced = {s for s in range(8) if ch._neighbor_ids[s] is not rows[s]}
    assert {6, 7} <= replaced and 0 not in replaced
    for s in range(8):
        assert (plans[s] is None) if s in replaced else (plans[s] is before[s])
    sim.run(until=6.0)
    for s in replaced:
        assert plans[s] is ch._delivery[s]
        assert [e[0] for e in plans[s]] == ch._neighbor_ids[s].tolist()
    assert plans[7] == [] and 7 not in [e[0] for e in plans[6]]
