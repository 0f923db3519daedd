"""Unit tests for the Simulator run loop."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.pending == 0


def test_schedule_and_run(sim):
    hits = []
    sim.schedule(1.5, hits.append, "x")
    end = sim.run()
    assert hits == ["x"]
    assert end == 1.5
    assert sim.now == 1.5


def test_schedule_at_absolute_time(sim):
    sim.schedule_at(2.0, lambda: None)
    sim.run()
    assert sim.now == 2.0


def test_schedule_at_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_run_until_advances_clock_without_events(sim):
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_run_until_leaves_future_events(sim):
    sim.schedule(10.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.pending == 1
    sim.run()
    assert sim.now == 10.0


def test_events_execute_in_time_order(sim):
    order = []
    sim.schedule(3.0, order.append, 3)
    sim.schedule(1.0, order.append, 1)
    sim.schedule(2.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_event_can_schedule_more_events(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_cancel_pending_event(sim):
    hits = []
    ev = sim.schedule(1.0, hits.append, "no")
    sim.cancel(ev)
    sim.run()
    assert hits == []


def test_stop_halts_run(sim):
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, hits.append, 3)
    sim.run()
    assert hits == [1]
    assert sim.now == 2.0
    sim.run()  # resumes with remaining events
    assert hits == [1, 3]


def test_step_executes_one_event(sim):
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(2.0, hits.append, 2)
    assert sim.step() is True
    assert hits == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_max_events_guard(sim):
    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_max_events_limit_is_exact(sim):
    """A queue that drains at exactly max_events succeeds (no off-by-one:
    the guard fires on the max_events+1-th event, not the last allowed)."""
    hits = []
    for i in range(10):
        sim.schedule(float(i), hits.append, i)
    sim.run(max_events=10)
    assert hits == list(range(10))
    assert sim.events_executed == 10


def test_max_events_raises_on_next_event_beyond_limit(sim):
    hits = []
    for i in range(11):
        sim.schedule(float(i), hits.append, i)
    with pytest.raises(SimulationError):
        sim.run(max_events=10)
    assert hits == list(range(10))  # the allowed 10 did execute


def test_schedule_fire_runs_in_order(sim):
    hits = []
    sim.schedule_fire(2.0, hits.append, "late")
    sim.schedule_fire(1.0, hits.append, "early")
    sim.schedule(1.0, hits.append, "early-cancellable")  # same time: FIFO by seq
    with pytest.raises(SimulationError):
        sim.schedule_fire(-0.1, lambda: None)
    sim.run()
    assert hits == ["early", "early-cancellable", "late"]
    assert sim.events_executed == 3


def test_reentrant_run_rejected(sim):
    def nested():
        sim.run()

    sim.schedule(0.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_reset_clears_events_and_clock(sim):
    sim.schedule(5.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending == 0


def test_events_executed_counter(sim):
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_cancelling_a_fired_event_is_a_noop(sim):
    """A handle cancelled after its event fired leaves the queue alone.

    The run loop marks the events it fires, so the late cancel cannot
    discount the live count while the 2.0 event is still queued.
    """
    hits = []
    first = sim.schedule(1.0, hits.append, "first")
    sim.schedule(2.0, hits.append, "second")
    sim.run(until=1.5)
    sim.cancel(first)
    assert sim.pending == 1
    assert sim.step()
    assert hits == ["first", "second"] and sim.now == 2.0
    assert sim.pending == 0 and not sim.step()


def test_horizon_is_the_running_calls_until(sim):
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.horizon))
    sim.schedule(3.0, lambda: seen.append(sim.horizon))
    assert sim.horizon is None
    sim.run(until=2.0)
    sim.run(max_events=5)
    assert seen == [2.0, None]
    assert sim.horizon is None
