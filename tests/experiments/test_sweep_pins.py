"""Output pins for the extension sweeps, at one CPU and on a two-worker pool.

The fault, load and chaos sweeps, the multi-session traffic campaign and
the session ramp each run many runs and fold them into a summary.  These
constants pin the full summaries for fixed seeds, so a change to how the
runs are scheduled or executed (serially in this process, or on the
process pool) must leave every number byte-identical.  NaN entries
(percentiles of fewer than two recovered replicates) compare as NaN.
"""

import math
import warnings

import pytest

from repro.experiments.chaos import _SOAK_KWARGS, chaos_sweep
from repro.experiments.faults import fault_sweep
from repro.experiments.load import load_sweep
from repro.experiments.traffic import session_ramp, traffic_campaign

NAN = float("nan")

FAULT_PIN = {
    "mtmrp": {
        "delivery_ratio": 0.975, "delivery_p50": 0.975, "delivery_p95": 0.9974999999999999,
        "pre_fault_delivery": 0.9916666666666667, "post_fault_delivery": 0.9500000000000001,
        "recovery_latency": 0.23444366984910806, "recovery_p50": 0.21939097406707564,
        "recovery_p95": 0.31048239912385106, "recovered_runs": 1.0, "crashes": 1.0,
        "frames_lost": 0.0, "mac_retries": 0.0, "mac_dropped_retry": 0.0,
    },
    "odmrp": {
        "delivery_ratio": 0.9366666666666666, "delivery_p50": 0.91, "delivery_p95": 0.991,
        "pre_fault_delivery": 0.9722222222222222, "post_fault_delivery": 0.8833333333333334,
        "recovery_latency": 0.3053166350469363, "recovery_p50": NAN, "recovery_p95": NAN,
        "recovered_runs": 0.3333333333333333, "crashes": 1.0, "frames_lost": 0.0,
        "mac_retries": 0.0, "mac_dropped_retry": 0.0,
    },
}

LOAD_PIN = {
    5.0: {"delivery_ratio": 1.0, "goodput_rps": 100.0, "tx_per_packet": 25.5,
          "collisions": 314.0},
    50.0: {"delivery_ratio": 0.86625, "goodput_rps": 866.25, "tx_per_packet": 22.15,
           "collisions": 388.0},
}

_GMR_ARM = {
    "delivery_ratio": 0.778125, "min_window": 0.6666666666666666, "mttr": 5.917430021460738,
    "rebuild_rounds": 0.0, "grafts_ok": 0.0, "grafts_failed": 0.0, "route_error_tx": 0.0,
    "time_degraded": 0.0, "violations": 0.0, "repair_effective": 0.0,
}

CHAOS_PIN = {
    "mtmrp": {
        "off": {
            "delivery_ratio": 0.8885416666666666, "min_window": 0.75,
            "mttr": 2.553404685395824, "rebuild_rounds": 4.5, "grafts_ok": 0.0,
            "grafts_failed": 0.0, "route_error_tx": 35.0, "time_degraded": 0.0,
            "violations": 0.0, "repair_effective": 0.0,
        },
        "on": {
            "delivery_ratio": 0.8864583333333333, "min_window": 0.75,
            "mttr": 2.671606182964796, "rebuild_rounds": 3.5, "grafts_ok": 1.0,
            "grafts_failed": 0.5, "route_error_tx": 11.0, "time_degraded": 0.0,
            "violations": 0.0, "repair_effective": 1.0,
        },
    },
    "gmr": {"off": _GMR_ARM, "on": _GMR_ARM},
}

#: (violations, delivered receiver-sessions)
TRAFFIC_PIN = (0, 96)

RAMP_PIN = {
    1: {
        "mtmrp": {"delivery_ratio": 1.0, "fairness": 1.0, "shared_forwarder_ratio": 0.0,
                  "data_tx": 31.0, "goodput_rps": 5.161290322580645, "saturated_frac": 0.0},
        "odmrp": {"delivery_ratio": 1.0, "fairness": 1.0, "shared_forwarder_ratio": 0.0,
                  "data_tx": 29.0, "goodput_rps": 5.161290322580645, "saturated_frac": 0.0},
    },
    2: {
        "mtmrp": {"delivery_ratio": 1.0, "fairness": 1.0,
                  "shared_forwarder_ratio": 0.04816017316017316, "data_tx": 68.0,
                  "goodput_rps": 9.937409725565718, "saturated_frac": 0.0},
        "odmrp": {"delivery_ratio": 1.0, "fairness": 1.0,
                  "shared_forwarder_ratio": 0.08084239130434782, "data_tx": 63.0,
                  "goodput_rps": 9.937409725565718, "saturated_frac": 0.0},
    },
}


def _same(got, want) -> bool:
    """Structural equality where NaN equals NaN."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return got == want and type(got) is type(want)


SWEEPS = {
    "fault": (lambda: fault_sweep(protocols=("mtmrp", "odmrp"), runs=3, n_packets=10),
              FAULT_PIN),
    "load": (lambda: load_sweep(rates_pps=(5.0, 50.0), runs=2), LOAD_PIN),
    "chaos": (lambda: chaos_sweep(protocols=("mtmrp", "gmr"), runs=2, **_SOAK_KWARGS),
              CHAOS_PIN),
    "traffic": (lambda: traffic_campaign(runs=3), TRAFFIC_PIN),
    "ramp": (lambda: session_ramp(max_sessions=2, runs=2), RAMP_PIN),
}


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, usable_cpus):
    """Every sweep runs once in this process and once on a two-worker pool."""
    if request.param == 1:
        usable_cpus(1)
        yield
    else:
        request.getfixturevalue("two_cpus")
        yield


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_output_is_pinned(name, cpus):
    run, want = SWEEPS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-replicate percentile warnings
        got = run()
    assert _same(got, want), f"{name} sweep drifted:\n{got!r}"
