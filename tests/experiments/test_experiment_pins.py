"""Output pins for the experiments built on ``build_prefix``.

The fault, chaos and CBR experiments each run their own schedule
(refresh, fault arming, churn, CBR stream) on top of the shared
deployment build.  These constants pin their outputs for fixed seeds, so
a change to how a run is built must leave every experiment
byte-identical.  Regenerate a value only for a change that intentionally
alters what an experiment computes, and say so in the commit.
"""

import pytest

from repro.experiments.chaos import DEFAULT_POLICY, run_chaos_single
from repro.experiments.config import SimulationConfig
from repro.experiments.faults import run_fault_single
from repro.experiments.load import CbrResult, run_cbr

FAULT_KW = dict(n_packets=20, rate_pps=10.0, refresh_interval=2.0, crash_forwarder_at=0.55)

#: mac -> (trace_sha256, fault_log) of a mid-stream forwarder crash
FAULT_PINS = {
    "ideal": (
        "04f9a07add88f64adc4ce2b3c844786c98429386eee9733bde8d0d960a5bc2ba",
        ((2.55, 77, "crash", "forwarder"),),
    ),
    "csma": (
        "1761a823bacb8953316d1738bd5af898e04476123c320abb8c78369db1f01632",
        ((2.55, 77, "crash", "forwarder"),),
    ),
}


@pytest.mark.parametrize("mac", sorted(FAULT_PINS))
def test_fault_run_is_pinned(mac):
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=20, mac=mac, seed=3)
    r = run_fault_single(cfg, **FAULT_KW)
    assert (r.trace_sha256, r.fault_log) == FAULT_PINS[mac]


CHAOS_KW = dict(
    n_packets=80, rate_pps=10.0, refresh_interval=5.0,
    n_cycles=2, down_time=5.0, window=2.0,
)
_CHURN = ((4.7, 4, "crash", "plan"), (6.1, 13, "crash", "plan"),
          (9.7, 4, "recover", "plan"), (11.1, 13, "recover", "plan"))

#: (protocol, repair) -> (trace_sha256, fault_log, violation count)
CHAOS_PINS = {
    ("mtmrp", False): (
        "d66f4075c1b78efcafa7abf0e6be888fa0c0c4e99a81cfa5e019dee2094153fc", _CHURN, 0,
    ),
    ("mtmrp", True): (
        "2c8a1927347f97ada6a6f0fdb1bd69981705e8fe1ebd4e0fe16ec880fef21e22", _CHURN, 0,
    ),
    ("gmr", False): (
        "2e65b6f2e6b7d1e89dba84860d46c4851f21ae4d1bfbd878c121eb5e27dd0038",
        ((2.7, 4, "crash", "plan"), (4.1, 13, "crash", "plan"),
         (7.7, 4, "recover", "plan"), (9.1, 13, "recover", "plan")),
        0,
    ),
}


def _chaos_cfg(protocol="mtmrp", **over):
    base = dict(
        protocol=protocol, topology="grid", grid_nx=5, grid_ny=5, side=120.0,
        group_size=6, mac="ideal", hello_phase=True, seed=90211,
    )
    base.update(over)
    return SimulationConfig(**base)


@pytest.mark.parametrize("protocol,repair", sorted(CHAOS_PINS))
def test_chaos_run_is_pinned(protocol, repair):
    policy = DEFAULT_POLICY if repair else None
    r = run_chaos_single(_chaos_cfg(protocol), policy=policy, check=True, **CHAOS_KW)
    assert (r.trace_sha256, r.fault_log, len(r.violations)) == CHAOS_PINS[(protocol, repair)]


CBR_PINS = {
    5.0: CbrResult(protocol="mtmrp", rate_pps=5.0, packets_sent=10, delivery_ratio=1.0,
                   goodput_rps=50.0, tx_per_packet=16.0, collisions=208),
    50.0: CbrResult(protocol="mtmrp", rate_pps=50.0, packets_sent=10, delivery_ratio=0.97,
                    goodput_rps=485.0, tx_per_packet=15.7, collisions=212),
}


@pytest.mark.parametrize("rate", sorted(CBR_PINS))
def test_cbr_run_is_pinned(rate):
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=3)
    assert run_cbr(cfg, rate, n_packets=10) == CBR_PINS[rate]
