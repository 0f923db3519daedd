"""The run schedule: a config field, and hooks that ride ``run_many``.

A :class:`Schedule` on the config says what a run does after route
discovery; ``run_many(hooks=factory)`` builds each run's hooks where the
run executes and returns their reports.  These tests pin the contracts
the rest of the stack relies on: configs stay hashable, JSON
round-trippable and hash-stable; scheduled runs never warm-start or
batch; and hooked campaigns give the same answer in this process and on
the pool.
"""

import json
import pickle
from dataclasses import asdict, replace

import pytest

from repro.experiments.config import Schedule, SimulationConfig
from repro.experiments.faults import FaultRunResult, fault_hooks
from repro.experiments.runner import (
    _cache_load,
    _cache_store,
    config_hash,
    run_many,
    run_single,
)
from repro.faults.plan import FaultPlan
from repro.protocols.repair import RepairPolicy
from repro.service.store import ResultStore
from repro.sim.batch import batch_eligible
from repro.sim.snapshot import SnapshotCache, prefix_key

HELLO_IDEAL = SimulationConfig(
    topology="grid", grid_nx=5, grid_ny=5, side=100.0, group_size=4,
    mac="ideal", hello_phase=True, hello_warmup=3.0,
)

FULL = Schedule(
    n_packets=5, rate_pps=8.0, refresh_interval=1.5, repair=RepairPolicy(repair_ttl=1),
    faults=tuple(FaultPlan().crash(2.0, 7).recover(3.0, 7).events),
    crash_forwarder_at=0.3, churn=(2, 1.0), energy_budget=0.01,
    mobility={"speed_min": 0.5, "speed_max": 1.0, "pause": 0.0, "update_interval": 0.25},
)


class TestConfigField:
    def test_json_round_trip_and_hashable(self):
        cfg = HELLO_IDEAL.with_(schedule=FULL)
        wire = json.loads(json.dumps(asdict(cfg)))
        again = SimulationConfig(**wire)
        assert again == cfg
        assert hash(again) == hash(cfg)
        assert config_hash(again) == config_hash(cfg)

    def test_unscheduled_hash_ignores_the_field(self):
        """Configs without a schedule keep the hash they had before the
        field existed (``tests/sim/test_batch.py`` pins two such hashes)."""
        cfg = SimulationConfig(seed=3)
        assert config_hash(cfg) != config_hash(cfg.with_(schedule=Schedule()))
        assert config_hash(cfg) == config_hash(SimulationConfig(**asdict(cfg)))

    def test_prefix_key_ignores_the_schedule(self):
        assert prefix_key(HELLO_IDEAL) == prefix_key(HELLO_IDEAL.with_(schedule=FULL))


class TestNeverWarmNorBatched:
    def test_scheduled_configs_are_batch_ineligible(self):
        assert batch_eligible(HELLO_IDEAL) is None
        assert batch_eligible(HELLO_IDEAL.with_(schedule=Schedule())) == "schedule"

    def test_scheduled_runs_never_warm_start(self):
        cfg = HELLO_IDEAL.with_(schedule=Schedule(n_packets=3, refresh_interval=1.0))
        snapshots = SnapshotCache()
        warm = run_single(cfg, cache=False, warm_start=snapshots)
        assert len(snapshots) == 0 and snapshots.misses == 0
        assert warm == run_single(cfg, cache=False)

    def test_scheduled_runs_start_their_uids_at_zero(self):
        """Whatever ran before in this process cannot reach the trace."""
        cfg = SimulationConfig(seed=4, group_size=8, schedule=Schedule(n_packets=4, refresh_interval=2.0))
        a = run_many([cfg], workers=1, hooks=fault_hooks)[0].reports[0]
        run_single(SimulationConfig(seed=9, group_size=8), cache=False)  # advances uids
        b = run_many([cfg], workers=1, hooks=fault_hooks)[0].reports[0]
        assert a.trace_sha256 == b.trace_sha256


class TestRunManyHooks:
    def test_hooks_with_warm_or_batch_raise(self):
        with pytest.raises(ValueError, match="hooks"):
            run_many([HELLO_IDEAL], hooks=fault_hooks, warm=True)
        with pytest.raises(ValueError, match="hooks"):
            run_many([HELLO_IDEAL], hooks=fault_hooks, batch=4)

    def test_reports_match_in_process_and_on_the_pool(self, two_cpus):
        cfgs = [
            SimulationConfig(seed=s, group_size=8, mac="ideal",
                             schedule=Schedule(n_packets=6, refresh_interval=2.0,
                                               crash_forwarder_at=0.2))
            for s in range(4)
        ]
        pooled = run_many(cfgs, hooks=fault_hooks)
        serial = run_many(cfgs, workers=1, hooks=fault_hooks)
        assert pooled == serial
        assert all(isinstance(r.reports[0], FaultRunResult) for r in pooled)
        # the hooks only read the run: without them the results are the
        # same, less the reports
        assert [replace(r, reports=()) for r in pooled] == run_many(cfgs, workers=1)
        assert pickle.loads(pickle.dumps(pooled)) == pooled

    def test_unhooked_results_survive_the_json_stores(self, tmp_path):
        cfg = SimulationConfig(seed=5, group_size=8, mac="ideal")
        res = run_single(cfg, cache=False)
        _cache_store(tmp_path / "r.json", res)
        assert _cache_load(tmp_path / "r.json") == res
        store = ResultStore(tmp_path / "store")
        assert store.put(cfg, res) and store.get(cfg) == res
        hooked = run_many([cfg.with_(schedule=Schedule(n_packets=2))], workers=1,
                          hooks=fault_hooks)[0]
        assert not store.put(cfg, hooked)  # hooked runs stay out of the stores
