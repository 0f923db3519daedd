"""The harness must observe, never perturb.

Two guarantees pinned here:

1. **Digest invariance** — running the default golden benchmark config
   with a fully-enabled harness produces the *identical* trace sha256 as
   the unchecked run (the harness draws no rng, emits no records,
   schedules no events).
2. **Bounded overhead** — the checked run costs only a modest constant
   factor over the unchecked run; when no harness is passed the code
   path is untouched (zero overhead by construction: an empty hook list
   runs no hook code).

Wall-clock ratios are noisy on shared machines, so the plain and checked
runs alternate (a burst of host load hits both sides alike), each side
is timed as the best of five runs (as ``tests/obs/test_overhead.py``
does) and the hard assert stays loose (+50%); the measured overhead is
printed under ``pytest -s``.
"""

from __future__ import annotations

import time

# warm the harness's lazy imports outside the timed runs: networkx, for
# its feasibility checks and its first Network.graph() (scipy's MILP stays
# unloaded: repro.trees imports the exact solver on first use)
import repro.trees.validate  # noqa: F401
from repro.check import CheckHarness
from repro.experiments import SimulationConfig, run_single
from repro.net.packet import reset_uids
from repro.sim.trace import TraceRecorder, trace_digest

from tests.integration.test_golden_digest import GOLDEN

GOLDEN_KEY = ("mtmrp", "grid", 42)

#: timed runs per side; the minimum is the estimate
REPEAT = 5


def _run(check=None):
    reset_uids()
    tr = TraceRecorder()
    cfg = SimulationConfig(*GOLDEN_KEY[:2], group_size=12, seed=GOLDEN_KEY[2])
    t0 = time.perf_counter()
    run_single(cfg, trace=tr, cache=False, hooks=[check] if check else ())
    return trace_digest(tr), time.perf_counter() - t0


def test_harness_does_not_change_golden_digest():
    _run()  # untimed warm-up: caches, allocator pools, first-touch numpy
    harnesses = [CheckHarness(mode="raise") for _ in range(REPEAT)]
    plain, checked = [], []
    for h in harnesses:
        plain.append(_run())
        checked.append(_run(check=h))
    # every run, checked or not, reproduces the golden trace
    assert {digest for digest, _s in plain + checked} == {GOLDEN[GOLDEN_KEY]}
    # the harness actually ran: both scheduled checkpoints fired clean
    assert harnesses[0].report.checkpoints == ["route-discovery", "end-of-run"]
    assert harnesses[0].report.ok
    plain_s = min(s for _d, s in plain)
    checked_s = min(s for _d, s in checked)
    overhead = checked_s / plain_s - 1.0
    print(f"\nharness overhead on golden config (best of {REPEAT}): {overhead:+.1%} "
          f"({plain_s * 1e3:.1f} ms -> {checked_s * 1e3:.1f} ms)")
    assert overhead < 0.50, f"harness overhead {overhead:.1%} exceeds budget"


def test_collect_mode_also_digest_invariant():
    harness = CheckHarness(mode="collect")
    checked_digest, _ = _run(check=harness)
    assert checked_digest == GOLDEN[GOLDEN_KEY]
    assert harness.report.ok
