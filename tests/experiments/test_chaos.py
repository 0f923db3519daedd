"""Chaos-soak campaign tests, including the headline acceptance claim:

under an *identical* churn schedule, MTMRP with local repair achieves a
strictly higher windowed delivery ratio AND strictly fewer source
JoinQuery rebuild rounds than the rebuild-only baseline — and both arms
replay bit-for-bit.
"""

import numpy as np
import pytest

from repro.experiments.chaos import (
    build_churn_plan,
    chaos_sweep,
    run_chaos_single,
)
from repro.experiments.config import SimulationConfig, make_positions
from repro.protocols.repair import RepairPolicy
from repro.sim.kernel import Simulator

#: the acceptance workload: data fast enough (20 pps) that the healing
#: gap between a 2-hop graft and a RouteError-flood rebuild is measurable
ACCEPTANCE_KWARGS = dict(
    n_packets=240, rate_pps=20.0, refresh_interval=8.0,
    n_cycles=2, down_time=5.0, window=2.0,
)

#: fast knobs for the structural tests
FAST_KWARGS = dict(
    n_packets=40, rate_pps=10.0, refresh_interval=5.0,
    n_cycles=1, down_time=4.0, window=2.0,
)


def grid_cfg(protocol="mtmrp", seed=90215):
    return SimulationConfig(
        protocol=protocol, topology="grid", grid_nx=5, grid_ny=5, side=120.0,
        group_size=6, mac="ideal", hello_phase=True, seed=seed,
    )


def test_chaos_run_requires_the_hello_phase():
    # the route watchdog detects dead forwarders through neighbor expiry
    with pytest.raises(ValueError, match="hello_phase"):
        run_chaos_single(grid_cfg().with_(hello_phase=False), **FAST_KWARGS)


class TestChurnPlan:
    def _plan(self, seed=90215):
        cfg = grid_cfg(seed=seed)
        sim = Simulator(seed=cfg.seed)
        positions = make_positions(cfg, sim.rng.stream("topology"))
        receivers = [6, 12, 18, 23]
        return cfg, receivers, build_churn_plan(
            cfg, positions, receivers, window=(5.0, 15.0),
            n_cycles=3, down_time=2.0,
        )

    def test_plan_is_deterministic(self):
        _, _, a = self._plan()
        _, _, b = self._plan()
        assert a.to_dicts() == b.to_dicts()

    def test_victims_spare_source_and_receivers(self):
        cfg, receivers, plan = self._plan()
        victims = {e.node for e in plan.crashes()}
        assert cfg.source not in victims
        assert not victims & set(receivers)

    def test_every_crash_gets_a_recovery(self):
        _, _, plan = self._plan()
        crashes = [(e.time, e.node) for e in plan.crashes()]
        recovers = [(e.time, e.node) for e in plan.events if e.kind.value == "recover"]
        assert len(crashes) == len(recovers) == 3
        for (tc, nc), (tr, nr) in zip(sorted(crashes), sorted(recovers)):
            assert nr == nc and tr == pytest.approx(tc + 2.0)


class TestAcceptance:
    """The PR's headline claim, pinned to a representative seed."""

    def test_repair_beats_rebuild_only_under_identical_schedule(self):
        cfg = grid_cfg()
        off = run_chaos_single(cfg, policy=None, **ACCEPTANCE_KWARGS)
        on = run_chaos_single(cfg, policy=RepairPolicy(), **ACCEPTANCE_KWARGS)

        # identical fault schedules — the comparison's precondition
        assert off.fault_log == on.fault_log
        assert off.crashes == on.crashes > 0

        # strictly fewer source-side JoinQuery rebuild rounds: the graft
        # absorbed at least one failure the baseline paid a flood for
        assert on.grafts_ok >= 1
        assert on.rebuild_rounds < off.rebuild_rounds
        assert on.route_error_tx < off.route_error_tx

        # strictly higher windowed delivery ratio
        mean_off = float(np.mean([r for _t, r in off.windowed]))
        mean_on = float(np.mean([r for _t, r in on.windowed]))
        assert mean_on > mean_off
        assert on.delivery_ratio > off.delivery_ratio

    def test_both_arms_are_bit_reproducible(self):
        cfg = grid_cfg()
        for policy in (None, RepairPolicy()):
            a = run_chaos_single(cfg, policy=policy, **ACCEPTANCE_KWARGS)
            b = run_chaos_single(cfg, policy=policy, **ACCEPTANCE_KWARGS)
            assert a.trace_sha256 == b.trace_sha256
            assert a.windowed == b.windowed
            assert a.fault_log == b.fault_log


class TestSoak:
    def test_checked_soak_is_violation_free(self):
        r = run_chaos_single(
            grid_cfg(seed=90210), policy=RepairPolicy(), check=True, **FAST_KWARGS
        )
        assert r.violations == ()
        assert r.crashes == 1 and r.recovers == 1

    def test_flag_off_arm_emits_no_repair_traffic(self):
        r = run_chaos_single(grid_cfg(seed=90210), policy=None, **FAST_KWARGS)
        assert r.repair is False
        assert r.grafts_ok == r.grafts_failed == 0
        assert r.repair_query_tx == r.degraded_data_tx == 0
        assert r.time_repairing == r.time_degraded == 0.0

    def test_gmr_runs_through_geographic_branch(self):
        r = run_chaos_single(grid_cfg(protocol="gmr", seed=90210), policy=RepairPolicy(),
                             **FAST_KWARGS)
        assert r.rebuild_rounds == 0  # no JoinQuery machinery at all
        assert r.repair_query_tx == 0
        assert r.delivery_ratio > 0.5


class TestSweep:
    def test_sweep_shape_and_pairing(self):
        out = chaos_sweep(protocols=("mtmrp",), runs=1, batch_seed=90215,
                          **FAST_KWARGS)
        assert set(out) == {"mtmrp"}
        assert set(out["mtmrp"]) == {"off", "on"}
        for arm in ("off", "on"):
            v = out["mtmrp"][arm]
            assert 0.0 <= v["delivery_ratio"] <= 1.0
            assert v["violations"] == 0.0
        assert out["mtmrp"]["off"]["repair_effective"] == 0.0
