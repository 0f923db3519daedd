"""Regression tests for kernel edge cases.

Each class pins one fixed hazard:

* NaN delays/timestamps used to slip past the ``delay < 0`` guards
  (NaN fails every comparison) and only exploded later, deep inside the
  heap, after partially mutating it.
* ``Simulator.reset()`` called from inside a handler corrupted the run
  loop's batched live-count reconciliation.
* Identical-timestamp events must fire in scheduling order across all
  three scheduling APIs (the tie-break is the determinism contract).
"""

from __future__ import annotations

import math

import pytest

from repro.sim.kernel import SimulationError, Simulator

NAN = float("nan")


class TestNanRejection:
    """NaN is rejected loudly at the API boundary, not deep in the heap."""

    def test_schedule_rejects_nan_delay(self):
        sim = Simulator(seed=0)
        with pytest.raises(SimulationError, match="invalid delay"):
            sim.schedule(NAN, lambda: None)

    def test_schedule_fire_rejects_nan_delay(self):
        sim = Simulator(seed=0)
        with pytest.raises(SimulationError, match="invalid delay"):
            sim.schedule_fire(NAN, lambda: None)

    def test_schedule_at_rejects_nan_time(self):
        sim = Simulator(seed=0)
        with pytest.raises(SimulationError, match="cannot schedule at"):
            sim.schedule_at(NAN, lambda: None)

    def test_negative_delay_still_rejected(self):
        sim = Simulator(seed=0)
        with pytest.raises(SimulationError, match="invalid delay"):
            sim.schedule(-0.5, lambda: None)

    def test_infinite_delay_is_allowed(self):
        # +inf is a valid "never" sentinel: it sits at the heap's bottom
        sim = Simulator(seed=0)
        sim.schedule(math.inf, lambda: None)
        sim.schedule(0.1, sim.stop)
        sim.run(until=1.0)
        assert sim.now == pytest.approx(0.1)


class TestResetDuringRun:
    def test_reset_inside_handler_raises(self):
        sim = Simulator(seed=0)
        failures = []

        def handler():
            try:
                sim.reset()
            except SimulationError as exc:
                failures.append(str(exc))
                sim.stop()

        sim.schedule(0.1, handler)
        sim.run(until=1.0)
        assert len(failures) == 1
        assert "stop()" in failures[0]

    def test_reset_after_run_returns_is_fine(self):
        sim = Simulator(seed=0)
        sim.schedule(0.1, lambda: None)
        sim.schedule(5.0, lambda: None)  # left pending at until=1.0
        sim.run(until=1.0)
        sim.reset()
        assert sim.now == 0.0
        assert len(sim._queue) == 0
        # the simulator is fully usable again
        fired = []
        sim.schedule(0.2, fired.append, 1)
        sim.run(until=1.0)
        assert fired == [1]


class TestSameInstantOrdering:
    """FIFO tie-break holds across every scheduling API at one instant."""

    def test_mixed_api_fifo_at_identical_timestamp(self):
        sim = Simulator(seed=0)
        order = []
        sim.schedule(1.0, order.append, "schedule")
        sim.schedule_fire(1.0, order.append, "schedule_fire")
        sim.schedule_at(1.0, order.append, "schedule_at")
        sim.run(until=2.0)
        assert order == ["schedule", "schedule_fire", "schedule_at"]

    def test_priority_beats_fifo(self):
        sim = Simulator(seed=0)
        order = []
        sim.schedule(1.0, order.append, "late-prio0")
        sim.schedule(1.0, order.append, "prio-minus1", priority=-1)
        sim.run(until=2.0)
        assert order == ["prio-minus1", "late-prio0"]

    def test_fifo_is_stable_over_many_events(self):
        sim = Simulator(seed=0)
        order = []
        for i in range(100):
            if i % 2:
                sim.schedule_fire(1.0, order.append, i)
            else:
                sim.schedule(1.0, order.append, i)
        sim.run(until=2.0)
        assert order == list(range(100))
