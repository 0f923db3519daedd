"""Runtime invariant checking and property-based protocol fuzzing.

MTMRP's claim is a *correctness-constrained* optimisation: whatever the
distributed backoff machinery does, the forwarder set it elects must stay
a feasible multicast solution (Sec. III) while the profit bookkeeping and
soft state obey the protocol's own definitions.  This package turns those
statements into executable checks:

* :class:`CheckHarness` — attaches to a live :class:`~repro.sim.kernel.
  Simulator` and asserts protocol invariants at checkpoints (end of
  route discovery, end of run, on every RouteError transmission).  Each
  violation is a structured :class:`InvariantViolation` carrying the
  seed, simulated time, and offending node for one-command reproduction.
* :mod:`repro.check.oracle` — differential oracles: exact
  ``brute_force_min_transmitters`` comparison on small instances
  (approximation ratio), cross-protocol delivery comparison under
  identical seeds on large ones.
* :mod:`repro.check.fuzz` — one seeded generator of scheduled configs
  (drawn with numpy for CLI campaigns, with Hypothesis in the test
  suite) driving short fault/loss/mobility runs under the harness, plus
  a JSON corpus of configs for regression replay (``tests/corpus/``).

The harness costs nothing when not installed: without it the trace
recorder's ``emit`` stays the plain class method and ``run_single`` takes
no extra branch.  With it, checks only *read* simulator state — no trace
records, rng draws, or scheduled events — so enabling it cannot change a
run's trace digest.
"""

from repro.check.harness import CheckHarness, CheckReport
from repro.check.violations import InvariantViolation

__all__ = ["CheckHarness", "CheckReport", "InvariantViolation"]
