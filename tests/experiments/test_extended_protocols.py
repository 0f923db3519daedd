"""Harness support for the extension protocols (MAODV, GMR)."""

import numpy as np
import pytest

from repro.experiments import SimulationConfig, monte_carlo, run_many, run_single
from repro.experiments.figures import fig5


def test_maodv_run_single():
    r = run_single(SimulationConfig(protocol="maodv", topology="grid",
                                    group_size=10, mac="ideal", seed=2))
    assert r.delivery_ratio == 1.0
    assert r.join_query_tx == 100  # GroupHello flood
    assert r.data_transmissions > 1


def test_gmr_run_single():
    r = run_single(SimulationConfig(protocol="gmr", topology="grid",
                                    group_size=10, mac="ideal", seed=2))
    assert r.delivery_ratio == 1.0
    assert r.join_query_tx == 0  # stateless: zero route discovery
    assert r.join_reply_tx == 0
    assert r.data_transmissions > 1


def test_gmr_deterministic():
    cfg = SimulationConfig(protocol="gmr", topology="random", group_size=10,
                           mac="ideal", seed=5)
    assert run_single(cfg) == run_single(cfg)


def test_six_protocol_sweep_point():
    """All protocol families run through the same sweep machinery."""
    sweep = fig5(runs=2, workers=1, group_sizes=(10,),
                 protocols=("mtmrp", "odmrp", "maodv", "gmr"))
    for proto in ("mtmrp", "odmrp", "maodv", "gmr"):
        vals = sweep.series(proto, "data_transmissions")
        assert vals[0] > 0


def test_gmr_control_free_but_costlier_trees():
    """The family trade-off: GMR spends nothing on discovery but its
    per-destination geographic paths converge less than MTMRP's tree."""
    base = dict(topology="grid", group_size=20, mac="ideal")
    mt = run_many(monte_carlo(SimulationConfig(protocol="mtmrp", **base), 6, 55))
    geo = run_many(monte_carlo(SimulationConfig(protocol="gmr", **base), 6, 55))
    mt_tx = float(np.mean([r.data_transmissions for r in mt]))
    geo_tx = float(np.mean([r.data_transmissions for r in geo]))
    mt_ctl = float(np.mean([r.join_query_tx + r.join_reply_tx for r in mt]))
    assert geo_tx > mt_tx
    assert mt_ctl > 0
    assert all(r.join_query_tx == 0 for r in geo)
