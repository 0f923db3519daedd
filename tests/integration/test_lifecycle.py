"""Finished runs free themselves by reference counting.

Every execution path closes its deployment once it has measured
(``Network.close``), so a finished run leaves nothing for the cyclic
collector: the node/network/MAC/agent back-references and the agents'
pending events are cut, and the whole graph dies with its last
reference.  This is what lets the run paths pause the collector without
ever calling ``gc.collect()``.

Each case runs its path once to warm up (first-use imports, caches and
snapshot captures), then again with the collector paused, and counts
what a full collection finds.  The drivers with periodic refresh and
route monitors are here on purpose: their timers form agent ↔ event
cycles that only the close's event cancellation breaks.  So is an
observed run: a finished observer drops its references to the run.
"""

import gc

import pytest

from repro.experiments import SimulationConfig
from repro.experiments.runner import monte_carlo, run_many, run_single
from repro.sim.snapshot import SnapshotCache, WarmSnapshot

HELLO = dict(hello_phase=True, hello_warmup=3.0)


def _cold_csma():
    return lambda: run_single(SimulationConfig(seed=3, mac="csma", group_size=10), cache=False)


def _warm_fork():
    cfg = SimulationConfig(seed=5, mac="csma", construction_time=0.5, data_time=0.25, **HELLO)
    snapshots = SnapshotCache()  # the warm-up captures; the measured run only forks
    return lambda: run_single(cfg, warm_start=snapshots, cache=False)


def _capture():
    cfg = SimulationConfig(seed=6, mac="csma", **HELLO)
    return lambda: WarmSnapshot.capture(cfg)


def _batch_seeds():
    from repro.sim.batch import run_batch

    cfgs = monte_carlo(SimulationConfig(group_size=10, mac="ideal", **HELLO), 3, 900)
    return lambda: run_batch(cfgs)


def _multi_session():
    from repro.traffic.spec import SessionSpec

    cfg = SimulationConfig(
        protocol="mtmrp", topology="grid", grid_nx=5, grid_ny=5,
        side=100.0, seed=13, mac="ideal",
        sessions=(
            SessionSpec(source=0, group=1, group_size=4, n_packets=2),
            SessionSpec(source=24, group=2, group_size=4, start=0.4, n_packets=2),
        ),
    )
    return lambda: run_single(cfg, cache=False)


def _flooding():
    return lambda: run_single(SimulationConfig(seed=3, protocol="flooding"), cache=False)


def _gmr():
    return lambda: run_single(SimulationConfig(seed=3, protocol="gmr"), cache=False)


def _run_many_in_process():
    cfgs = monte_carlo(SimulationConfig(group_size=10), 3, 77)
    return lambda: run_many(cfgs, workers=1)


def _observed():
    from repro.obs import Observer

    cfg = SimulationConfig(seed=3, group_size=10)
    return lambda: run_single(cfg, cache=False, hooks=[Observer()])


def _fault_driver():
    from repro.experiments.faults import run_fault_single

    cfg = SimulationConfig(seed=11, group_size=10)
    return lambda: run_fault_single(cfg, crash_forwarder_at=0.55)


def _chaos_driver():
    from repro.experiments.chaos import DEFAULT_POLICY, run_chaos_single

    cfg = SimulationConfig(
        seed=12, group_size=6, topology="grid", grid_nx=6, grid_ny=6, side=111.0, **HELLO
    )
    return lambda: run_chaos_single(cfg, policy=DEFAULT_POLICY, n_packets=20, check=True)


def _cbr_driver():
    from repro.experiments.load import run_cbr

    return lambda: run_cbr(SimulationConfig(seed=13, group_size=10), 10.0)


def _fuzz_driver():
    from repro.check.fuzz import Scenario, run_scenario

    scenario = Scenario(
        config=SimulationConfig(seed=14, group_size=6, mac="csma"),
        refresh_interval=1.5, n_packets=3,
    )
    return lambda: run_scenario(scenario)


PATHS = {
    "cold-csma": _cold_csma,
    "warm-fork": _warm_fork,
    "capture": _capture,
    "batch-seeds": _batch_seeds,
    "multi-session": _multi_session,
    "flooding": _flooding,
    "gmr": _gmr,
    "run-many-in-process": _run_many_in_process,
    "observed": _observed,
    "faults-driver": _fault_driver,
    "chaos-driver": _chaos_driver,
    "cbr-driver": _cbr_driver,
    "fuzz-driver": _fuzz_driver,
}


@pytest.mark.parametrize("path", list(PATHS))
def test_finished_run_leaves_no_cyclic_garbage(path):
    run = PATHS[path]()
    run()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        garbage = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert result is not None
    assert garbage == 0, f"{path}: {garbage} objects left for the cyclic collector"
