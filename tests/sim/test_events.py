"""Unit tests for the event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import Event, EventQueue


def test_push_pop_ordering_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, fired.append, ("c",))
    q.push(1.0, fired.append, ("a",))
    q.push(2.0, fired.append, ("b",))
    times = []
    while q:
        ev = q.pop()
        times.append(ev.time)
    assert times == [1.0, 2.0, 3.0]


def test_fifo_among_equal_times():
    q = EventQueue()
    evs = [q.push(1.0, lambda: None) for _ in range(10)]
    popped = [q.pop() for _ in range(10)]
    assert [e.seq for e in popped] == [e.seq for e in evs]


def test_priority_breaks_time_ties():
    q = EventQueue()
    late = q.push(1.0, lambda: None, priority=5)
    early = q.push(1.0, lambda: None, priority=-5)
    assert q.pop() is early
    assert q.pop() is late


def test_cancel_skips_event():
    q = EventQueue()
    a = q.push(1.0, lambda: None)
    b = q.push(2.0, lambda: None)
    q.cancel(a)
    assert len(q) == 1
    assert q.pop() is b
    assert not q


def test_cancel_is_idempotent():
    q = EventQueue()
    a = q.push(1.0, lambda: None)
    q.cancel(a)
    q.cancel(a)
    assert len(q) == 0


def test_cancelled_event_drops_references():
    called = []
    ev = Event(time=1.0, priority=0, seq=0, fn=called.append, args=(1,))
    ev.cancel()
    assert ev.fn is None and ev.args == ()
    assert not ev.active


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()


def test_peek_time_skips_cancelled():
    q = EventQueue()
    a = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(a)
    assert q.peek_time() == 2.0


def test_peek_time_empty_is_none():
    assert EventQueue().peek_time() is None


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(float("nan"), lambda: None)


def test_clear():
    q = EventQueue()
    held = [q.push(float(i), lambda: None) for i in range(5)]
    q.push_fire(6.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.peek_time() is None
    # dropped handles are cancelled: their callbacks are released, and
    # cancelling one later must not skew the live count
    assert not any(ev.active or ev.fn for ev in held)
    q.cancel(held[0])
    assert len(q) == 0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=200))
def test_pop_order_is_sorted_for_any_push_order(times):
    """Property: pops come out in non-decreasing time order."""
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    out = []
    while q:
        out.append(q.pop().time)
    assert out == sorted(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False), st.booleans()),
        max_size=100,
    )
)
def test_live_count_matches_after_cancellations(items):
    """Property: len(queue) counts exactly the non-cancelled events."""
    q = EventQueue()
    expected = 0
    for t, do_cancel in items:
        ev = q.push(t, lambda: None)
        if do_cancel:
            q.cancel(ev)
        else:
            expected += 1
    assert len(q) == expected
    seen = 0
    while q:
        q.pop()
        seen += 1
    assert seen == expected


def test_push_fire_interleaves_with_push_by_seq():
    """Fire-and-forget entries share the seq counter with cancellable
    ones, so FIFO among equal times holds across both entry shapes."""
    q = EventQueue()
    order = []
    q.push(1.0, order.append, ("cancellable-1",))
    q.push_fire(1.0, order.append, ("fire-1",))
    q.push(1.0, order.append, ("cancellable-2",))
    q.push_fire(1.0, order.append, ("fire-2",))
    assert len(q) == 4
    while q:
        ev = q.pop()
        ev.fn(*ev.args)
    assert order == ["cancellable-1", "fire-1", "cancellable-2", "fire-2"]


def test_push_fire_counts_as_live_and_rejects_nan():
    q = EventQueue()
    q.push_fire(0.5, lambda: None)
    assert len(q) == 1 and bool(q)
    q.pop()
    assert len(q) == 0
    with pytest.raises(ValueError):
        q.push_fire(float("nan"), lambda: None)


def test_push_many_matches_per_item_push():
    def drain(q):
        out = []
        while q:
            ev = q.pop()
            out.append((ev.time, ev.priority, ev.seq, ev.args))
        return out

    items = [(2.0, lambda: None, ("a",)), (1.0, lambda: None, ("b",)),
             (2.0, lambda: None, ("c",))]
    batched = EventQueue()
    batched.push_many(items, priority=3)
    single = EventQueue()
    for t, fn, args in items:
        single.push(t, fn, args, priority=3)
    assert drain(batched) == drain(single)


def test_push_many_rejects_nan_time():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push_many([(1.0, lambda: None, ()), (float("nan"), lambda: None, ())])
