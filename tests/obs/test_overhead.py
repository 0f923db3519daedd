"""The observability tax: <=10% on one paper-default grid round.

Two guards on the same run (MTMRP, grid, 20 receivers, seed 5, on the
paper-default scalar path that the ``fig5_static`` benchmark workload
times):

* **identity** — the observed run's trace sha256 is byte-identical to
  the detached run's (deterministic; the real contract);
* **overhead** — min-of-N wall time with the observer attached stays
  within 10% of detached.  Timing on a shared machine is noisy, so the
  bound is checked over a few attempts and the *best* ratio counts —
  a genuine regression fails every attempt, a scheduler hiccup doesn't.
"""

import time

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_single
from repro.net.packet import reset_uids
from repro.obs import Observer
from repro.sim.trace import TraceRecorder, trace_digest

#: one paper-default grid round
ROUND_CFG = SimulationConfig(protocol="mtmrp", topology="grid", group_size=20, seed=5)

#: allowed observed/detached wall-time ratio
MAX_OVERHEAD = 1.10


def _run(obs=None, trace=None):
    reset_uids()
    return run_single(ROUND_CFG, cache=False, hooks=[obs] if obs else (), trace=trace)


def test_observed_trace_sha256_byte_identical():
    t_plain = TraceRecorder()
    _run(trace=t_plain)
    t_obs = TraceRecorder()
    _run(obs=Observer(window=0.25), trace=t_obs)
    assert trace_digest(t_obs) == trace_digest(t_plain)


def _best_of(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.slow
def test_attached_overhead_within_ten_percent():
    _run()  # warm every import/cache outside the timed region
    _run(obs=Observer(window=0.25))
    best_ratio = float("inf")
    for _attempt in range(3):
        detached = _best_of(lambda: _run(), 5)
        attached = _best_of(lambda: _run(obs=Observer(window=0.25)), 5)
        best_ratio = min(best_ratio, attached / detached)
        if best_ratio <= MAX_OVERHEAD:
            break
    assert best_ratio <= MAX_OVERHEAD, (
        f"observer overhead {(best_ratio - 1) * 100:.1f}% exceeds "
        f"{(MAX_OVERHEAD - 1) * 100:.0f}% on a paper-default grid round"
    )
