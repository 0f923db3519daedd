"""Smoke tests for the figure definitions (tiny run counts)."""

import os

import pytest

from repro.experiments import figures, runner
from repro.experiments.runner import pool_worker_pids, resolve_workers


def test_sweep_result_accessors():
    sweep = figures.fig5(runs=2, workers=1, group_sizes=(5, 10), protocols=("odmrp",))
    assert sweep.xs == [5, 10]
    assert ("odmrp", 5) in sweep.runs
    series = sweep.series("odmrp", "data_transmissions")
    assert len(series) == 2
    assert sweep.mean("odmrp", 5, "data_transmissions") == series[0]
    assert sweep.sem("odmrp", 5, "data_transmissions") >= 0


def test_fig5_receiver_draws_paired_across_protocols():
    """Same batch seed per group size -> identical receiver draws for all
    protocols (paired comparison, as the paper's per-round averaging)."""
    sweep = figures.fig5(runs=2, workers=1, group_sizes=(10,), protocols=("odmrp", "mtmrp"))
    odmrp_recv = [r.receivers for r in sweep.runs[("odmrp", 10)]]
    mtmrp_recv = [r.receivers for r in sweep.runs[("mtmrp", 10)]]
    assert odmrp_recv == mtmrp_recv


def test_fig6_uses_random_topology():
    sweep = figures.fig6(runs=1, workers=1, group_sizes=(10,), protocols=("odmrp",))
    res = sweep.runs[("odmrp", 10)][0]
    assert res.topology == "random"


def test_fig7_parameter_grid():
    sweep = figures.fig7(runs=1, workers=1, ns=(3.0, 4.0), ws=(0.001,), protocols=("mtmrp",))
    assert sweep.xs == [(3.0, 0.001), (4.0, 0.001)]
    for (n, w) in sweep.xs:
        res = sweep.runs[("mtmrp", (n, w))][0]
        assert res.backoff_n == n and res.backoff_w == w


def test_fig9_snapshot_shapes():
    snaps = figures.fig9(seed=1, protocols=("odmrp",))
    res = snaps["odmrp"]
    assert res.positions is not None
    assert len(res.receivers) == 20
    assert res.topology == "grid"


def test_fig10_snapshot_shapes():
    snaps = figures.fig10(seed=1, protocols=("mtmrp",))
    res = snaps["mtmrp"]
    assert len(res.receivers) == 15
    assert res.topology == "random"
    assert res.positions.shape == (200, 2)


# --------------------------------------------------------------------- #
# one campaign per sweep, on the host's cores
# --------------------------------------------------------------------- #
def _assert_pool_used():
    assert len(pool_worker_pids()) == 2


def test_fig5_default_workers_match_serial(two_cpus):
    kw = dict(runs=2, group_sizes=(5, 10))
    auto = figures.fig5(**kw)
    _assert_pool_used()
    serial = figures.fig5(workers=1, **kw)
    assert auto.runs == serial.runs


def test_fig6_default_workers_match_serial(two_cpus):
    kw = dict(runs=2, group_sizes=(10,), protocols=("odmrp", "mtmrp"))
    auto = figures.fig6(**kw)
    _assert_pool_used()
    assert auto.runs == figures.fig6(workers=1, **kw).runs
    assert auto.runs[("odmrp", 10)][0].topology == "random"


def test_fig7_default_workers_match_serial_and_dedup_baselines(two_cpus, monkeypatch):
    kw = dict(runs=2, ns=(3.0, 4.0), ws=(0.001, 0.01), protocols=("mtmrp", "odmrp"))
    submitted = []
    run_many = figures.run_many

    def counting(cfgs, **opts):
        submitted.append(len(cfgs))
        return run_many(cfgs, **opts)

    monkeypatch.setattr(figures, "run_many", counting)
    auto = figures.fig7(**kw)
    _assert_pool_used()
    serial = figures.fig7(workers=1, **kw)
    assert auto.runs == serial.runs
    # one campaign per sweep: 4 mtmrp cells + the odmrp baseline once
    assert submitted == [5 * 2, 5 * 2]
    base = auto.runs[("odmrp", auto.xs[0])]
    assert all(auto.runs[("odmrp", x)] is base for x in auto.xs)


@pytest.mark.parametrize("cpus,runs", [(1, 2), (4, 1)])
def test_auto_workers_stay_serial_without_a_pool(monkeypatch, usable_cpus, cpus, runs):
    """One usable CPU, or a one-run sweep, resolves to in-process execution."""
    usable_cpus(cpus)

    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} was requested")

    monkeypatch.setattr(runner, "shared_pool", no_pool)
    sweep = figures.fig5(runs=runs, group_sizes=(10,), protocols=("odmrp",))
    assert len(sweep.runs[("odmrp", 10)]) == runs


def test_resolve_workers(monkeypatch, usable_cpus):
    usable_cpus(3)
    assert resolve_workers(None, 100) == 3
    assert resolve_workers(None, 2) == 2
    assert resolve_workers(None, 0) == 1
    assert resolve_workers(5, 1) == 5  # an explicit count is kept as given
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_workers(None, 100) == 3  # falls back to os.cpu_count()
