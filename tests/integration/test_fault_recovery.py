"""Acceptance tests for the fault-injection subsystem (ISSUE 1).

Two properties the campaign must guarantee:

* a seeded fault run is bit-for-bit reproducible (identical trace digest
  and fault log for identical configs);
* after a mid-tree forwarder crash, MTMRP's soft-state refresh restores
  delivery above 90% of the surviving receivers within one refresh
  interval on the perfect-MAC grid.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.faults import fault_sweep, run_fault_single

REFRESH = 2.0
KW = dict(n_packets=20, rate_pps=10.0, refresh_interval=REFRESH, crash_forwarder_at=0.55)


def _cfg(**over):
    base = dict(protocol="mtmrp", topology="grid", group_size=20, mac="ideal", seed=3)
    base.update(over)
    return SimulationConfig(**base)


def test_fault_campaign_is_bit_reproducible():
    r1 = run_fault_single(_cfg(), **KW)
    r2 = run_fault_single(_cfg(), **KW)
    assert r1.trace_sha256 == r2.trace_sha256
    assert r1.fault_log == r2.fault_log
    assert r1 == r2
    # a different seed gives a genuinely different run
    other = run_fault_single(_cfg(seed=4), **KW)
    assert other.trace_sha256 != r1.trace_sha256


def test_lossy_runs_are_bit_reproducible_too():
    cfg = _cfg(loss_model="iid", loss_rate=0.1)
    r1 = run_fault_single(cfg, **KW)
    r2 = run_fault_single(cfg, **KW)
    assert r1.trace_sha256 == r2.trace_sha256
    assert r1.frames_lost == r2.frames_lost > 0


def test_mtmrp_recovers_within_one_refresh_interval():
    for seed in (3, 11, 42):
        r = run_fault_single(_cfg(seed=seed), **KW)
        assert r.crashes == 1, f"seed {seed}: expected exactly one crash"
        assert r.time_to_first_partition is None  # one dead node can't cut the grid
        assert r.pre_fault_delivery > 0.9, f"seed {seed}: tree unhealthy before crash"
        assert r.post_fault_delivery > 0.9, f"seed {seed}: delivery did not recover"
        assert r.recovery_latency is not None, f"seed {seed}: never recovered"
        assert r.recovery_latency <= REFRESH, (
            f"seed {seed}: recovery took {r.recovery_latency:.2f}s > {REFRESH}s"
        )


def test_energy_budget_produces_depletion_deaths():
    r = run_fault_single(
        _cfg(), energy_budget=0.002, n_packets=20, rate_pps=10.0, refresh_interval=REFRESH
    )
    assert r.crashes > 0
    assert all(cause == "energy" for _t, _n, _k, cause in r.fault_log)
    # depletion hits the busiest (forwarding) nodes; delivery degrades
    assert r.delivery_ratio < 1.0


def test_partition_time_walks_the_radios_links():
    """Under shadowing the radio's links are not the unit disk's: the
    meter walks the links the run had (:meth:`Network.graph`).  On this
    seed, crashing the source's two radio neighbours cuts it off at the
    second crash, while the unit disk keeps every receiver reachable."""
    from repro.faults import FaultPlan
    from repro.metrics.faults import first_partition_time
    from repro.net.topology import connectivity_graph
    from repro.sim.snapshot import build_prefix

    cfg = SimulationConfig(group_size=15, seed=0, shadowing_sigma_db=6.0)
    prefix = build_prefix(cfg)
    graph = prefix.net.graph()
    plan = FaultPlan()
    for k, n in enumerate(graph.neighbors(cfg.source)):
        plan.crash(1.0 + k, n)
    r = run_fault_single(cfg, plan=plan)
    crashes = [(t, n) for t, n, kind, _cause in r.fault_log if kind == "crash"]
    assert crashes == [(1.0, 1), (2.0, 12)]
    assert r.time_to_first_partition == 2.0
    assert first_partition_time(graph, cfg.source, prefix.receivers, crashes) == 2.0
    disk = connectivity_graph(prefix.positions, cfg.comm_range)
    assert first_partition_time(disk, cfg.source, prefix.receivers, crashes) is None
    prefix.net.close()


def test_fault_sweep_reports_all_protocols():
    out = fault_sweep(protocols=("mtmrp", "odmrp"), runs=2, n_packets=10)
    assert set(out) == {"mtmrp", "odmrp"}
    for v in out.values():
        assert 0.0 <= v["delivery_ratio"] <= 1.0
        assert v["crashes"] >= 1.0
        assert 0.0 <= v["recovered_runs"] <= 1.0


def test_fault_sweep_percentile_keys_survive_single_replicate():
    """With one replicate the p50/p95 columns stay present — as NaN with
    a warning — instead of silently parroting the lone value."""
    import math
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fault_sweep(protocols=("mtmrp",), runs=1, n_packets=10)
    v = out["mtmrp"]
    # the fixed report schema: every percentile key present
    for key in ("delivery_p50", "delivery_p95", "recovery_p50", "recovery_p95"):
        assert key in v, f"{key} dropped from the single-replicate report"
        assert math.isnan(v[key]), f"{key} should be NaN with n=1, got {v[key]}"
    messages = [str(w.message) for w in caught]
    assert any("percentile" in m for m in messages)  # aggregate() warned
    assert any("recovery_p50" in m or "recovered replicate" in m for m in messages)
    # the means are still real numbers
    assert 0.0 <= v["delivery_ratio"] <= 1.0
    assert not math.isnan(v["recovery_latency"])  # this seed recovers


def test_fault_sweep_percentiles_finite_with_replicates():
    import math

    out = fault_sweep(protocols=("mtmrp",), runs=3, n_packets=10)
    v = out["mtmrp"]
    for key in ("delivery_p50", "delivery_p95"):
        assert not math.isnan(v[key])


def test_gilbert_elliott_config_wires_through():
    cfg = _cfg(loss_model="gilbert", ge_p_good_bad=0.05, ge_p_bad_good=0.3)
    r = run_fault_single(cfg, **KW)
    assert r.frames_lost > 0
    assert r.delivery_ratio < 1.0 or r.frames_lost > 0
    with pytest.raises(ValueError):
        _cfg(loss_model="bogus")
    with pytest.raises(ValueError):
        _cfg(loss_model="iid", loss_rate=1.5)


def test_hello_phase_config_runs_the_hello_warmup():
    """A fault run builds through build_prefix, so hello_phase=True
    beacons before route discovery."""
    from repro.experiments.config import Schedule
    from repro.experiments.runner import run_single
    from repro.sim.trace import TraceKind, TraceRecorder

    tr = TraceRecorder()
    cfg = _cfg(hello_phase=True, hello_warmup=2.5)
    run_single(cfg.with_(schedule=Schedule(**KW)), trace=tr)
    first_query = next(tr.filter(TraceKind.TX, "JoinQuery")).time
    assert tr.count(TraceKind.TX, "HelloPacket") > 0
    assert next(tr.filter(TraceKind.TX, "HelloPacket")).time < first_query
