"""Tests for the Monte-Carlo runner."""

import copy

import numpy as np
import pytest

from repro.experiments.config import SimulationConfig
import repro.experiments.runner as runner
from repro.experiments.runner import (
    ResultStore,
    RunError,
    RunResult,
    aggregate,
    config_hash,
    monte_carlo,
    pool_worker_pids,
    run_many,
    run_single,
)
from repro.sim.batch import STATS
from repro.traffic.spec import ramp_plan

FAST = dict(topology="grid", group_size=10, mac="ideal")

#: small batch-eligible scenario (ideal MAC, lossless, HELLO warmup)
ELIGIBLE = SimulationConfig(
    protocol="mtmrp", topology="grid", grid_nx=6, grid_ny=6, side=120.0,
    group_size=6, mac="ideal", hello_phase=True, hello_warmup=6.0,
    construction_time=0.5, data_time=0.25,
)


class TestRunSingle:
    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(protocol="mtmrp", seed=5, **FAST)
        a = run_single(cfg)
        b = run_single(cfg)
        assert a == b

    def test_seed_changes_receiver_draw(self):
        a = run_single(SimulationConfig(protocol="mtmrp", seed=1, **FAST))
        b = run_single(SimulationConfig(protocol="mtmrp", seed=2, **FAST))
        assert a.receivers != b.receivers

    def test_result_fields_sane(self):
        r = run_single(SimulationConfig(protocol="mtmrp", seed=3, **FAST))
        assert r.protocol == "mtmrp"
        assert r.group_size == 10 == len(r.receivers)
        assert 0 < r.data_transmissions <= 100
        assert r.delivery_ratio == 1.0  # ideal MAC + perfect channel
        assert r.extra_nodes >= 0
        assert r.join_query_tx == 100
        assert r.energy_joules > 0
        assert r.positions is None

    def test_keep_positions(self):
        r = run_single(SimulationConfig(protocol="mtmrp", seed=3, **FAST), keep_positions=True)
        assert r.positions is not None and r.positions.shape == (100, 2)

    def test_flooding_protocol(self):
        r = run_single(SimulationConfig(protocol="flooding", seed=3, **FAST))
        assert r.data_transmissions == 100
        assert r.delivery_ratio == 1.0

    def test_hello_phase_mode(self):
        cfg = SimulationConfig(protocol="mtmrp", seed=4, hello_phase=True, **FAST)
        r = run_single(cfg)
        assert r.hello_tx > 0
        assert r.delivery_ratio == 1.0

    def test_source_never_a_receiver(self):
        for seed in range(5):
            r = run_single(SimulationConfig(protocol="odmrp", seed=seed, **FAST))
            assert 0 not in r.receivers


class TestMonteCarlo:
    def test_expansion_deterministic(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        a = [c.seed for c in monte_carlo(cfg, 10, batch_seed=7)]
        b = [c.seed for c in monte_carlo(cfg, 10, batch_seed=7)]
        assert a == b
        assert len(set(a)) == 10

    def test_run_many_serial(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 4, batch_seed=1), workers=1)
        assert len(results) == 4
        assert all(isinstance(r, RunResult) for r in results)

    def test_run_many_parallel_matches_serial(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        cfgs = monte_carlo(cfg, 4, batch_seed=1)
        serial = run_many(cfgs, workers=1)
        parallel = run_many(cfgs, workers=2)
        assert serial == parallel


class TestRunManyStreaming:
    def test_parallel_results_keep_config_order(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        cfgs = monte_carlo(cfg, 4, batch_seed=3)
        results = run_many(cfgs, workers=2)
        assert [r.seed for r in results] == [c.seed for c in cfgs]


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cfg = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        cold = run_single(cfg, cache=tmp_path)
        cached_files = list(tmp_path.glob("*.json"))
        assert len(cached_files) == 1
        warm = run_single(cfg, cache=tmp_path)
        assert warm == cold

    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        cfg = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        run_single(cfg, cache=tmp_path)

        def boom(*a, **k):  # a second run must come from disk
            raise AssertionError("cache miss: _execute_run was called")

        monkeypatch.setattr(runner_mod, "_execute_run", boom)
        assert run_single(cfg, cache=tmp_path) is not None

    def test_different_configs_do_not_collide(self, tmp_path):
        a = run_single(SimulationConfig(protocol="mtmrp", seed=6, **FAST), cache=tmp_path)
        b = run_single(SimulationConfig(protocol="mtmrp", seed=7, **FAST), cache=tmp_path)
        assert a != b
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_trace_requests_bypass_the_cache(self, tmp_path):
        from repro.sim.trace import TraceRecorder

        cfg = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        run_single(cfg, cache=tmp_path)
        tr = TraceRecorder()
        run_single(cfg, cache=tmp_path, trace=tr)
        assert len(tr) > 0  # a cache hit could never fill the recorder

    def test_runs_the_store_cannot_replay_never_write_it(self, tmp_path):
        from repro.experiments.config import Schedule
        from repro.experiments.faults import FaultMeter
        from repro.sim.trace import TraceRecorder

        cfg = SimulationConfig(protocol="mtmrp", seed=6, schedule=Schedule(n_packets=2), **FAST)
        run_single(cfg, cache=tmp_path, hooks=[FaultMeter()])
        run_single(cfg, cache=tmp_path, trace=TraceRecorder())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_uses_the_callers_store(self, tmp_path, monkeypatch, workers):
        # the pool exists before the variable is set, and its workers keep
        # the environment and working directory they were forked with
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        run_many(monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 4, batch_seed=3),
                 workers=2)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_RESULT_CACHE", "store")
        run_many(monte_carlo(SimulationConfig(protocol="odmrp", **FAST), 4, batch_seed=4),
                 workers=workers)
        assert len(ResultStore(tmp_path / "store")) == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rerun_campaign_resumes_from_the_store(self, tmp_path, monkeypatch, workers):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 6, batch_seed=5)
        uncached = run_many(cfgs, workers=workers)
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        assert run_many(cfgs[:3], workers=workers) == uncached[:3]
        first = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
        assert run_many(cfgs, workers=workers) == uncached
        after = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
        assert len(first) == 3 and len(after) == 6
        # the first campaign's entries were replayed, not run and rewritten
        assert all(after[name] == ino for name, ino in first.items())


class TestAggregate:
    def test_mean_std_sem(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 5, batch_seed=2))
        agg = aggregate(results, "data_transmissions")
        vals = [r.data_transmissions for r in results]
        assert agg["mean"] == pytest.approx(np.mean(vals))
        assert agg["std"] == pytest.approx(np.std(vals, ddof=1))
        assert agg["n"] == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([], "data_transmissions")

    def test_unknown_metric_names_the_alternatives(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 2, batch_seed=2))
        with pytest.raises(ValueError, match="delivery_ratio"):
            aggregate(results, "no_such_metric")

    def test_single_run_has_zero_spread(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 1, batch_seed=2))
        agg = aggregate(results, "data_transmissions")
        assert agg["std"] == 0.0 == agg["sem"]


def _poison(cfg):
    """A config that passes validation but explodes inside the run.

    The config layer rejects bad values at construction, so runtime
    failures (simulator bugs, corrupted checkpoints) are emulated by
    bypassing ``__post_init__`` — pickle round-trips preserve the field,
    so the failure reproduces identically inside worker processes.
    """
    bad = copy.copy(cfg)
    object.__setattr__(bad, "group_size", 10_000)  # > n_nodes
    return bad


class TestFailureIsolation:
    def test_run_error_names_the_failing_run(self):
        good = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 2, 7)
        bad = _poison(good[1])
        with pytest.raises(RunError) as exc_info:
            run_many([good[0], bad])
        err = exc_info.value
        assert err.index == 1
        assert err.config == bad
        assert err.seed == bad.seed
        assert err.config_hash == config_hash(bad)
        assert "ValueError" in str(err)

    def test_collect_mode_keeps_the_campaign_running(self):
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 3, 7)
        cfgs[1] = _poison(cfgs[1])
        results = run_many(cfgs, on_error="collect")
        assert isinstance(results[0], RunResult)
        assert isinstance(results[1], RunError) and results[1].index == 1
        assert isinstance(results[2], RunResult)

    def test_collect_mode_parallel_keeps_worker_traceback(self):
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 4, 7)
        cfgs[2] = _poison(cfgs[2])
        results = run_many(cfgs, workers=2, on_error="collect")
        err = results[2]
        assert isinstance(err, RunError)
        assert err.worker_traceback and "Traceback" in err.worker_traceback
        # the healthy runs around the failure are untouched
        serial = run_many([c for i, c in enumerate(cfgs) if i != 2], workers=1)
        assert [r for i, r in enumerate(results) if i != 2] == serial

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_many([], on_error="ignore")

    @pytest.mark.parametrize("opts", [dict(batch=4, workers=2)], ids=["workers"])
    def test_batch_with_pool_or_sampling_rejected(self, opts):
        """The batch kernel on the pool is no contradiction: it equals the
        serial batch run."""
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(4)]
        assert run_many(cfgs, **opts) == run_many(cfgs, batch=4, workers=1)


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started on a path that must stay unused")


class TestOnResult:
    def test_reports_config_identity_not_completion_order(self):
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 5, 11)
        seen = {}
        results = run_many(cfgs, workers=2, on_result=lambda i, r: seen.setdefault(i, r))
        assert sorted(seen) == list(range(5))
        assert [seen[i] for i in range(5)] == results


class TestWarmRunMany:
    def test_warm_matches_cold_serial_and_parallel(self):
        base = SimulationConfig(
            protocol="mtmrp", topology="grid", group_size=10, mac="csma",
            hello_phase=True, hello_warmup=1.0, data_time=0.5,
        )
        cfgs = [base.with_(backoff_w=w) for w in (0.001, 0.01)]
        cfgs += [c.with_(protocol="odmrp") for c in cfgs]
        cold = run_many(cfgs, workers=1)
        assert run_many(cfgs, workers=1, warm=True) == cold
        assert [run_single(c, warm_start=True) for c in cfgs] == cold
        assert run_many(cfgs, workers=2, warm=True) == cold


class TestAggregatePercentiles:
    def test_p50_p95(self):
        results = [
            RunResult(
                protocol="mtmrp", topology="grid", group_size=10, seed=i,
                backoff_n=4.0, backoff_w=0.001,
                data_transmissions=i, tree_transmissions=0, extra_nodes=0,
                average_relay_profit=0.0, delivered=0, delivery_ratio=1.0,
                covered_receivers=0, join_query_tx=0, join_reply_tx=0,
                hello_tx=0, collisions=0, energy_joules=0.0,
            )
            for i in range(1, 101)
        ]
        agg = aggregate(results, "data_transmissions")
        assert agg["p50"] == pytest.approx(50.5)
        assert agg["p95"] == pytest.approx(95.05)
        assert agg["n"] == 100
        assert set(agg) == {"mean", "std", "sem", "p50", "p95", "n"}

    def test_single_replicate_percentiles_are_nan_with_warning(self):
        """A percentile of one sample is not an estimate; the key set is
        kept intact so downstream tables never lose their columns."""
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 1, batch_seed=2))
        with pytest.warns(UserWarning, match="percentile"):
            agg = aggregate(results, "data_transmissions")
        assert set(agg) == {"mean", "std", "sem", "p50", "p95", "n"}
        assert np.isnan(agg["p50"]) and np.isnan(agg["p95"])
        assert agg["n"] == 1
        assert agg["mean"] == results[0].data_transmissions

    def test_two_replicates_give_finite_percentiles(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 2, batch_seed=2))
        agg = aggregate(results, "data_transmissions")
        assert np.isfinite(agg["p50"]) and np.isfinite(agg["p95"])


class TestCollectOrderingContract:
    """Pin run_many's index-keyed ordering contract (see its docstring).

    The campaign service's checkpoint/re-queue recovery is only sound if
    every execution path returns exactly ``len(configs)`` slots in input
    order, leaves collect-mode RunErrors in-place with ``.index`` equal
    to their position, and reports run identity (not completion order)
    through ``on_result``.  Exercised with failures scattered through the
    campaign on every path: in-process, the worker pool with
    single-config chunks, and the vectorized batch kernel in-process and
    on the pool.
    """

    def _mixed(self):
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 6, 7)
        bad_at = (1, 4)
        for i in bad_at:
            cfgs[i] = _poison(cfgs[i])
        return cfgs, bad_at

    def _check(self, cfgs, bad_at, results, seen):
        assert len(results) == len(cfgs)
        for i, res in enumerate(results):
            if i in bad_at:
                assert isinstance(res, RunError) and res.index == i
                assert res.config_hash == config_hash(cfgs[i])
            else:
                assert isinstance(res, RunResult)
                assert res.seed == cfgs[i].seed
        # on_result reported every slot exactly once, keyed by identity
        assert sorted(seen) == list(range(len(cfgs)))
        assert all(seen[i] is results[i] for i in seen)

    def test_serial_path(self):
        cfgs, bad_at = self._mixed()
        seen = {}
        results = run_many(
            cfgs, workers=1, on_error="collect",
            on_result=lambda i, r: seen.setdefault(i, r),
        )
        self._check(cfgs, bad_at, results, seen)

    def test_pool_path_single_config_chunks(self):
        cfgs, bad_at = self._mixed()
        seen = {}
        results = run_many(
            cfgs, workers=2, chunk_size=1, on_error="collect",
            on_result=lambda i, r: seen.setdefault(i, r),
        )
        self._check(cfgs, bad_at, results, seen)

    def test_batch_kernel_path(self):
        cfgs, bad_at = self._mixed()
        seen = {}
        results = run_many(
            cfgs, workers=1, batch=8, on_error="collect",
            on_result=lambda i, r: seen.setdefault(i, r),
        )
        self._check(cfgs, bad_at, results, seen)

    def test_batch_kernel_on_the_pool(self, two_cpus):
        """Poisoned seeds inside pooled batch groups land at their index.

        The poison (a negative backoff ``w``) only bites in the protocol
        suffix, so the poisoned configs share the healthy seeds' batch
        group; each sub-batch's kernel call fails and its configs rerun
        one by one in the worker.
        """
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(6)]
        bad_at = (1, 4)
        for i in bad_at:
            cfgs[i] = cfgs[i].with_(backoff_w=-1.0)
        seen = {}
        results = run_many(
            cfgs, batch=8, on_error="collect",
            on_result=lambda i, r: seen.setdefault(i, r),
        )
        assert len(pool_worker_pids()) == 2
        self._check(cfgs, bad_at, results, seen)

    def test_paths_agree_on_successes(self):
        cfgs, bad_at = self._mixed()
        serial = run_many(cfgs, workers=1, on_error="collect")
        pool = run_many(cfgs, workers=2, chunk_size=1, on_error="collect")
        batch = run_many(cfgs, workers=1, batch=8, on_error="collect")
        for i in range(len(cfgs)):
            if i not in bad_at:
                assert serial[i] == pool[i] == batch[i]


def _batch_stats():
    return (STATS.batched_runs, STATS.batched_sessions, STATS.fallback_runs,
            dict(STATS.fallback_reasons))


def _campaign(name):
    """``(configs, run_many options)`` of the planner parity campaigns."""
    if name == "batch_group":
        return [ELIGIBLE.with_(seed=s) for s in range(25)], dict(batch=25)
    if name == "mixed":
        # batch-eligible seeds, CSMA HELLO configs forking one prefix,
        # and static-bootstrap singles
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(6)]
        cfgs += [ELIGIBLE.with_(seed=3, mac="csma", backoff_w=w) for w in (0.001, 0.01, 0.02)]
        cfgs += [ELIGIBLE.with_(seed=s, hello_phase=False) for s in range(3)]
        return cfgs, dict(batch=8, warm=True)
    plan = ramp_plan(ELIGIBLE, 3)
    return [ELIGIBLE.with_(seed=s, sessions=plan) for s in range(6)], dict(batch=6)


class TestPlanner:
    """One planner behind every path: the host's worker count (two CPUs
    here) gives exactly the in-process results and batch counters."""

    @pytest.fixture(autouse=True)
    def _fresh_stats(self):
        STATS.reset()
        yield
        STATS.reset()

    @pytest.mark.parametrize("name", ["batch_group", "mixed", "multi_session"])
    def test_default_workers_match_serial(self, two_cpus, name):
        cfgs, opts = _campaign(name)
        serial = run_many(cfgs, workers=1, **opts)
        serial_stats = _batch_stats()
        STATS.reset()
        auto = run_many(cfgs, **opts)
        assert len(pool_worker_pids()) == 2
        assert auto == serial
        # worker counts are folded into this process's, so the batch_*
        # obs counters read the same at any worker count
        assert _batch_stats() == serial_stats
        assert serial_stats[0] > 0

    @pytest.mark.parametrize("n, workers", [(48, 2), (20, 2), (1000, 4), (7, 4), (1, 2)])
    def test_auto_chunks_shrink_to_single_runs(self, n, workers):
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(n)]
        tasks = runner._plan(cfgs, workers, [False] * n, 0, None)
        assert not any(batched for batched, _ in tasks)
        # every index once, in input order
        assert [it[0] for _, items in tasks for it in items] == list(range(n))
        sizes = [len(items) for _, items in tasks]
        assert all(a >= b for a, b in zip(sizes, sizes[1:])) and sizes[0] <= 32
        tail = min(n, workers)
        assert sizes[-tail:] == [1] * tail
        # an explicit chunk_size still overrides
        fixed = runner._plan(cfgs, workers, [False] * n, 0, 5)
        assert [len(items) for _, items in fixed] == [5] * (n // 5) + [n % 5] * (n % 5 > 0)

    @pytest.mark.parametrize("batch", [0, 4], ids=["one_run", "one_seed_batch_group"])
    def test_one_task_plan_runs_in_process(self, two_cpus, monkeypatch, batch):
        expected = run_many([ELIGIBLE], workers=1, batch=batch)
        monkeypatch.setattr(runner, "shared_pool", _must_not_run)
        assert run_many([ELIGIBLE], workers=2, batch=batch) == expected
        assert run_many([ELIGIBLE], batch=batch) == expected
