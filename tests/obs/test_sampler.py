"""StreamingSampler: windows, deltas, streaming callback."""

import json

import pytest

from repro.obs import Sample, StreamingSampler
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        StreamingSampler(window=0.0)
    with pytest.raises(ValueError):
        StreamingSampler(window=-1.0)


def test_double_attach_raises():
    s = StreamingSampler()
    s.attach(Simulator(seed=1))
    with pytest.raises(RuntimeError):
        s.attach(Simulator(seed=2))


def test_sample_now_before_attach_raises():
    with pytest.raises(RuntimeError):
        StreamingSampler().sample_now()


def test_one_sample_per_window():
    sim = Simulator(seed=1)
    sampler = StreamingSampler(window=0.5).attach(sim)
    sim.schedule(2.0, lambda: None)
    sim.run(until=2.0)
    # windows close at 0.5, 1.0, 1.5, 2.0
    assert [s.time for s in sampler.samples] == [0.5, 1.0, 1.5, 2.0]


def test_windowed_deltas_not_cumulative():
    sim = Simulator(seed=1)
    sampler = StreamingSampler(window=1.0).attach(sim)
    trace = sim.trace

    def burst(n):
        for _ in range(n):
            trace.emit(sim.now, TraceKind.TX, 0, "DataPacket")

    sim.schedule(0.25, burst, 3)
    sim.schedule(1.25, burst, 5)
    sim.run(until=2.0)
    assert [s.tx_w for s in sampler.samples] == [3, 5]


def test_delivery_ratio_over_bound_receivers():
    sim = Simulator(seed=1)
    sampler = StreamingSampler(window=1.0).attach(sim)
    sampler.bind_receivers([10, 11, 12, 13])
    trace = sim.trace
    sim.schedule(0.5, lambda: trace.emit(sim.now, TraceKind.DELIVER, 10, "DataPacket"))
    sim.schedule(0.6, lambda: trace.emit(sim.now, TraceKind.DELIVER, 11, "DataPacket"))
    # a delivery outside the group must not count
    sim.schedule(0.7, lambda: trace.emit(sim.now, TraceKind.DELIVER, 99, "DataPacket"))
    sim.run(until=1.0)
    assert sampler.samples[-1].delivery_ratio == pytest.approx(0.5)
    assert sampler.samples[-1].delivers_w == 3


def test_route_error_window_counting():
    sim = Simulator(seed=1)
    sampler = StreamingSampler(window=1.0).attach(sim)
    trace = sim.trace
    sim.schedule(0.5, lambda: trace.emit(sim.now, TraceKind.TX, 4, "RouteError"))
    sim.run(until=2.0)
    assert [s.route_errors_w for s in sampler.samples] == [1, 0]


def test_on_sample_streams_live():
    sim = Simulator(seed=1)
    seen = []
    sampler = StreamingSampler(window=0.5, on_sample=seen.append).attach(sim)
    sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    assert seen == sampler.samples
    assert all(isinstance(s, Sample) for s in seen)


def test_series_and_jsonl():
    sim = Simulator(seed=1)
    sampler = StreamingSampler(window=0.5).attach(sim)
    sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    assert sampler.series("time") == [0.5, 1.0]
    rows = [json.loads(line) for line in sampler.to_jsonl().splitlines()]
    assert rows[0]["time"] == 0.5
    # "sessions" is flattened into per-flow columns (none bound here)
    assert set(rows[0]) == set(Sample._fields) - {"sessions"}


def test_sampler_emits_no_trace_records():
    sim = Simulator(seed=1)
    StreamingSampler(window=0.1).attach(sim)
    sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    assert sim.trace.records == []
    assert sum(sim.trace.counts.values()) == 0


def test_heap_depth_gauge_is_readable_mid_run():
    sim = Simulator(seed=1)
    sampler = StreamingSampler(window=0.5).attach(sim)
    for k in range(5):
        sim.schedule(10.0 + k, lambda: None)
    sim.run(until=1.0)
    # 5 far-future events + the sampler's own next tick remain
    assert all(s.pending >= 5 for s in sampler.samples)


def test_sampler_tracks_union_of_session_receivers():
    """Multi-session runs bind every session's receivers, so the final
    window's delivery_ratio covers the whole plan (1.0 on ideal MAC)."""
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import run_single
    from repro.obs import Observer
    from repro.traffic.spec import SessionSpec

    cfg = SimulationConfig(
        protocol="mtmrp", topology="grid", grid_nx=5, grid_ny=5,
        side=100.0, seed=31, mac="ideal",
        sessions=(
            SessionSpec(source=0, group=1, group_size=4, n_packets=2),
            SessionSpec(source=24, group=2, group_size=4, start=0.4, n_packets=2),
        ),
    )
    obs = Observer()
    result = run_single(cfg, cache=False, hooks=[obs])
    assert result.traffic.aggregate_delivery_ratio == 1.0
    final = obs.sampler.samples[-1]
    assert final.delivery_ratio == 1.0
    assert sum(s.delivers_w for s in obs.sampler.samples) == 16
    # per-session columns: keyed by SessionSpec.key(), flattened in JSONL
    assert [k for k, _, _ in final.sessions] == ["s0.g1", "s24.g2"]
    assert all(ratio == 1.0 for _, _, ratio in final.sessions)
    for key in ("s0.g1", "s24.g2"):
        total = sum(dw for s in obs.sampler.samples
                    for kk, dw, _ in s.sessions if kk == key)
        assert total == 8
    row = json.loads(obs.sampler.to_jsonl().splitlines()[-1])
    assert row["delivers_w.s0.g1"] == final.sessions[0][1]
    assert row["delivery_ratio.s24.g2"] == 1.0
    assert "sessions" not in row
