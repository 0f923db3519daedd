"""Event objects and the pending-event queue.

The queue is a binary heap of plain ``(time, priority, seq, event)``
tuples.  ``seq`` is a monotonically increasing counter assigned at
scheduling time, which makes ordering *stable*: two events scheduled for
the same instant fire in the order they were scheduled.  Stability is what
makes whole-simulation replays bit-reproducible (see the determinism
contract in :mod:`repro.sim`).

Storing tuples (rather than comparing :class:`Event` objects directly) is
the kernel's hottest micro-optimisation: ``heapq`` sift operations compare
entries with C-level tuple comparison, and because ``seq`` is unique the
comparison never reaches the event object itself.  The previous design
routed every comparison through ``Event.__lt__``, which built two key
tuples per comparison — at ~8 comparisons per push/pop that dominated the
run loop.

Cancellation is *lazy*: cancelled events stay in the heap, flagged, and are
skipped on pop.  This is the standard trick to keep both ``schedule`` and
``cancel`` at ``O(log n)`` / ``O(1)`` without a secondary index.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional, Tuple

__all__ = ["Event", "EventQueue"]


class Event:
    """A pending callback at a simulated instant.

    Attributes
    ----------
    time:
        Absolute simulated time (seconds) at which the event fires.
    priority:
        Secondary ordering key; lower fires first among same-time events.
        Protocol code rarely needs this — the default of 0 keeps FIFO
        ordering via ``seq``.
    seq:
        Scheduling sequence number, assigned by the queue.  Ties in
        ``(time, priority)`` are broken by ``seq`` (FIFO).
    fn:
        The callback. Called as ``fn(*args)``.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int = 0,
        seq: int = 0,
        fn: Optional[Callable[..., Any]] = None,
        args: tuple = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the queue skips it.  Idempotent."""
        self.cancelled = True
        # Drop references promptly: cancelled events may linger in the heap
        # until their timestamp is reached.
        self.fn = None
        self.args = ()

    @property
    def active(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled

    def _key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time!r}, prio={self.priority}, seq={self.seq}, {state})"


#: Heap entry: ``(time, priority, seq, event, None)`` for cancellable
#: events, or ``(time, priority, seq, fn, args)`` for fire-and-forget
#: ones (no :class:`Event` object is allocated at all — the run loop
#: calls ``fn(*args)`` straight off the tuple).  The two shapes are
#: distinguished by slot 4: ``None`` means slot 3 is an Event.  ``seq``
#: uniqueness guarantees tuple comparison never reaches slot 3.
Entry = Tuple[float, int, int, Any, Any]


class EventQueue:
    """Stable priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` and return the event."""
        if time != time:  # NaN guard: a NaN timestamp silently corrupts the heap
            raise ValueError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        heapq.heappush(self._heap, (time, priority, seq, ev, None))
        self._live += 1
        return ev

    def push_fire(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> None:
        """Schedule a fire-and-forget callback: no handle, not cancellable.

        Same ordering semantics as :meth:`push` (one ``seq`` consumed),
        but no :class:`Event` is allocated — the heap entry carries the
        callable directly.  This is the cheapest way to schedule the
        bulk radio events (frame arrivals/completions) that are never
        cancelled.
        """
        if time != time:
            raise ValueError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, fn, args))
        self._live += 1

    def push_many(
        self,
        items: Iterable[Tuple[float, Callable[..., Any], tuple]],
        priority: int = 0,
    ) -> None:
        """Batch-schedule ``(time, fn, args)`` items sharing one priority.

        Equivalent to calling :meth:`push` per item (same ``seq``
        assignment order, hence identical tie-breaking) with less per-call
        overhead.  The events are fire-and-forget: no handles are returned
        (and no :class:`Event` objects allocated), so use :meth:`push` for
        anything that may need cancelling.

        The batch is *atomic with respect to validation*: every timestamp
        is checked before the first entry touches the heap, so a NaN
        mid-batch leaves the queue exactly as it was.  (Pushing first and
        raising mid-loop would strand entries in the heap without
        advancing ``_seq``/``_live`` — later pushes would then reuse
        sequence numbers, breaking the stable FIFO tie-break and, worse,
        letting heap comparisons reach slot 3 where an :class:`Event` and
        a bare callable don't compare.)
        """
        staged = []
        append = staged.append
        seq = self._seq
        for time, fn, args in items:
            if time != time:
                raise ValueError("event time is NaN")
            append((time, priority, seq, fn, args))
            seq += 1
        heap = self._heap
        heappush = heapq.heappush
        for entry in staged:
            heappush(heap, entry)
        self._seq = seq
        self._live += len(staged)

    def cancel(self, ev: Event) -> None:
        """Cancel a previously pushed event.  Safe to call twice."""
        if not ev.cancelled:
            ev.cancel()
            self._live -= 1

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue has no live events.
        """
        heap = self._heap
        while heap:
            time, priority, seq, x, args = heapq.heappop(heap)
            if args is not None:  # fire-and-forget entry: wrap on demand
                self._live -= 1
                return Event(time, priority, seq, x, args)
            if not x.cancelled:
                self._live -= 1
                return x
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or None if empty."""
        heap = self._heap
        while heap and heap[0][4] is None and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def clear(self) -> None:
        """Drop every pending event, cancelling the handles callers hold.

        Cancelling releases each event's callback and arguments, so an
        object holding the handle of its own pending callback (an agent's
        periodic timer) no longer forms a reference cycle through it, and
        cancelling a dropped handle later leaves the live count alone.
        """
        for entry in self._heap:
            if entry[4] is None:
                entry[3].cancel()
        self._heap.clear()
        self._live = 0
