"""Observer: non-perturbation contract, phase spans, exports.

The heart of the observability layer's promise: attaching an Observer
changes *nothing* about a run — same trace digest, same RunResult — and
a run without one executes zero observability code.
"""

import json

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_single
from repro.net.packet import reset_uids
from repro.obs import Observer
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind, TraceRecorder, trace_digest

# the exact golden runs pinned by tests/integration/test_golden_digest.py
from tests.integration.test_golden_digest import GOLDEN


def _digest_with_obs(protocol, topology, seed, **obs_kwargs):
    reset_uids()
    tr = TraceRecorder()
    obs = Observer(**obs_kwargs)
    result = run_single(
        SimulationConfig(protocol, topology, group_size=12, seed=seed),
        trace=tr,
        cache=False,
        hooks=[obs],
    )
    return trace_digest(tr), result, obs


@pytest.mark.parametrize("protocol,topology,seed", sorted(GOLDEN))
def test_observed_run_keeps_golden_digest(protocol, topology, seed):
    """Attaching the observer leaves the golden sha256 bit-identical."""
    digest, _result, obs = _digest_with_obs(protocol, topology, seed)
    assert digest == GOLDEN[(protocol, topology, seed)]
    assert len(obs.samples) > 0  # the observer genuinely ran


def test_observed_run_result_identical():
    cfg = SimulationConfig("mtmrp", "grid", group_size=12, seed=42)
    reset_uids()
    plain = run_single(cfg, cache=False)
    reset_uids()
    observed = run_single(cfg, cache=False, hooks=[Observer()])
    assert plain == observed


def test_detached_run_pays_nothing():
    """No watchers, no extra events: detached means zero observability work."""
    cfg = SimulationConfig("mtmrp", "grid", group_size=12, seed=42)
    reset_uids()
    tr = TraceRecorder()
    run_single(cfg, trace=tr, cache=False)
    assert tr._watchers == []
    assert "emit" not in tr.__dict__  # class-level emit, never shadowed


def test_observed_run_installs_no_trace_watchers():
    """Counters are derived from totals, not from a per-emit callback."""
    reset_uids()
    tr = TraceRecorder()
    run_single(
        SimulationConfig("mtmrp", "grid", group_size=12, seed=42),
        trace=tr, cache=False, hooks=[Observer()],
    )
    assert tr._watchers == []


def test_sampler_off_schedules_no_events():
    cfg = SimulationConfig("mtmrp", "grid", group_size=12, seed=42)
    reset_uids()
    tr1 = TraceRecorder()
    run_single(cfg, trace=tr1, cache=False)
    reset_uids()
    tr2 = TraceRecorder()
    obs = Observer(sample=False)
    run_single(cfg, trace=tr2, cache=False, hooks=[obs])
    assert obs.sampler is None and obs.samples == []
    # counters and spans still work without the sampler
    assert obs.registry.counters["tx"] > 0
    assert [sp.name for sp in obs.spans.spans] == [
        "prefix-build", "route-discovery", "data-delivery",
    ]


def test_phase_spans_cover_the_run():
    _digest, _result, obs = _digest_with_obs("mtmrp", "grid", 42)
    names = [sp.name for sp in obs.spans.spans]
    assert names == ["prefix-build", "route-discovery", "data-delivery"]
    route = obs.spans.spans[1]
    data = obs.spans.spans[2]
    assert route.sim_end == data.sim_start  # phases abut
    assert route.sim_duration > 0 and data.sim_duration > 0
    assert all(sp.wall_duration >= 0 for sp in obs.spans.spans)
    assert route.meta["protocol"] == "mtmrp"


def test_hello_warmup_span_present_when_hello_phase():
    reset_uids()
    cfg = SimulationConfig(
        "mtmrp", "grid", group_size=8, seed=7,
        hello_phase=True, hello_warmup=3.0,
    )
    obs = Observer()
    run_single(cfg, cache=False, hooks=[obs])
    names = [sp.name for sp in obs.spans.spans]
    assert names[:2] == ["prefix-build", "hello-warmup"]
    warmup = obs.spans.spans[1]
    assert warmup.sim_duration == pytest.approx(3.0)


def test_double_attach_raises():
    obs = Observer()
    obs.attach(Simulator(seed=1))
    with pytest.raises(RuntimeError):
        obs.attach(Simulator(seed=2))


def test_finish_before_attach_raises():
    with pytest.raises(RuntimeError):
        Observer().finish()


def test_registry_gauges_populated_after_run():
    _digest, result, obs = _digest_with_obs("mtmrp", "grid", 42)
    g = obs.registry.gauges
    assert g["energy_joules"] == pytest.approx(result.energy_joules)
    assert g["frames_sent"] > 0
    assert g["forwarders"] >= len(result.transmitters)
    assert "pending_events" in g


def test_fault_recovery_span_detection():
    """A RouteError window opens a recovery span; a delivery closes it."""
    sim = Simulator(seed=1)
    obs = Observer(window=1.0).attach(sim)
    trace = sim.trace
    sim.schedule(1.5, lambda: trace.emit(sim.now, TraceKind.TX, 3, "RouteError"))
    sim.schedule(3.5, lambda: trace.emit(sim.now, TraceKind.DELIVER, 7, "DataPacket"))
    sim.schedule(5.0, lambda: None)
    sim.run(until=5.0)
    obs.finish()
    assert obs.recovery_spans == [(1.0, 4.0)]  # window-granular bounds
    rec = [sp for sp in obs.spans.spans if sp.name == "fault-recovery"]
    assert len(rec) == 1
    assert rec[0].sim_start == 1.0 and rec[0].sim_end == 4.0
    assert rec[0].meta["granularity"] == 1.0


def test_unrecovered_fault_closed_by_finish():
    sim = Simulator(seed=1)
    obs = Observer(window=1.0).attach(sim)
    trace = sim.trace
    sim.schedule(0.5, lambda: trace.emit(sim.now, TraceKind.TX, 3, "RouteError"))
    sim.schedule(2.0, lambda: None)
    sim.run(until=2.0)
    obs.finish()
    assert len(obs.recovery_spans) == 1
    start, end = obs.recovery_spans[0]
    assert start == 0.0 and end == 2.0  # closed at end-of-run


def test_on_sample_callback_receives_windows():
    seen = []
    reset_uids()
    obs = Observer(window=0.5, on_sample=seen.append)
    run_single(
        SimulationConfig("mtmrp", "grid", group_size=12, seed=42),
        cache=False, hooks=[obs],
    )
    assert seen == obs.samples and len(seen) > 0


def test_export_writes_every_format(tmp_path):
    _digest, _result, obs = _digest_with_obs("mtmrp", "grid", 42)
    out = obs.export(tmp_path / "obs")
    assert set(out) == {
        "counters.prom", "counters.json", "samples.jsonl",
        "spans.jsonl", "spans_chrome.json",
    }
    from repro.obs import parse_prometheus_text

    prom = parse_prometheus_text(out["counters.prom"].read_text())
    assert prom["repro_tx"] > 0
    counters = json.loads(out["counters.json"].read_text())
    assert counters["counters"]["tx"] == prom["repro_tx"]
    samples = [json.loads(l) for l in out["samples.jsonl"].read_text().splitlines() if l]
    assert len(samples) == len(obs.samples)
    spans = [json.loads(l) for l in out["spans.jsonl"].read_text().splitlines() if l]
    assert {s["name"] for s in spans} == {
        "prefix-build", "route-discovery", "data-delivery",
    }
    chrome = json.loads(out["spans_chrome.json"].read_text())
    assert chrome["traceEvents"]


def test_observed_runs_never_cached(tmp_path):
    """An observed run must execute, not replay a cache hit."""
    cfg = SimulationConfig("mtmrp", "grid", group_size=10, seed=5)
    reset_uids()
    run_single(cfg, cache=tmp_path)  # populate the cache
    reset_uids()
    obs = Observer()
    run_single(cfg, cache=tmp_path, hooks=[obs])
    assert len(obs.samples) > 0  # really ran


def test_observed_runs_skip_warm_start():
    """warm_start is ignored under an observer (state not in snapshots)."""
    cfg = SimulationConfig(
        "mtmrp", "grid", group_size=8, seed=7,
        hello_phase=True, hello_warmup=2.0,
    )
    reset_uids()
    plain = run_single(cfg, cache=False)
    reset_uids()
    obs = Observer()
    observed = run_single(cfg, cache=False, hooks=[obs], warm_start=True)
    assert plain == observed
    # the hello-warmup span proves the prefix was built cold, not forked
    assert "hello-warmup" in [sp.name for sp in obs.spans.spans]
