"""The simulator facade: clock + event queue + run loop.

Usage::

    sim = Simulator(seed=7)
    sim.schedule(1.5, print, "fires at t=1.5")
    sim.run()            # drain the queue
    assert sim.now == 1.5

The kernel knows nothing about radios or protocols; higher layers schedule
plain callbacks.  ``Simulator`` also owns the per-run
:class:`~repro.sim.rng.RngRegistry` and :class:`~repro.sim.trace.TraceRecorder`
so that a single object carries everything one Monte-Carlo run needs.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, …)."""


class Simulator:
    """Discrete-event simulator with a monotone clock.

    Parameters
    ----------
    seed:
        Master seed for every random stream of this run (see
        :class:`~repro.sim.rng.RngRegistry`).
    trace:
        Optional externally supplied recorder; by default a fresh one is
        created so each run's trace is isolated.
    """

    def __init__(self, seed: int = 0, trace: Optional[TraceRecorder] = None) -> None:
        self._queue = EventQueue()
        #: current simulated time in seconds (read-only for callers; a
        #: plain attribute because the hot paths read it once per event)
        self.now = 0.0
        self._running = False
        self._stopped = False
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceRecorder()
        #: number of events executed so far (for profiling / sanity checks)
        self.events_executed = 0
        #: the ``until`` of the running :meth:`run` call: every event up to
        #: this instant will execute before it returns.  None outside a
        #: call, and for a call without ``until`` or with ``max_events``.
        self.horizon: Optional[float] = None

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of live events still in the queue."""
        return len(self._queue)

    @property
    def heap_depth(self) -> int:
        """Raw heap size, valid even from inside a running handler.

        :attr:`pending` relies on the live count, which the run loop
        reconciles only after it exits — mid-run it still includes every
        entry popped since loop entry.  Observability hooks that fire as
        events (e.g. the streaming sampler) read this instead: the raw
        heap length, which counts live *and* cancelled-but-unpopped
        entries but is always current.
        """
        return len(self._queue._heap)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # rejects negatives AND NaN (NaN fails every compare)
            raise SimulationError(f"invalid delay {delay!r}")
        return self._queue.push(self.now + delay, fn, args, priority)

    def schedule_fire(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        Identical ordering semantics to :meth:`schedule`, but nothing is
        returned and no :class:`Event` is allocated — use it for the
        high-volume events (MAC timers, protocol jitter) that are never
        cancelled.
        """
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay!r}")
        self._queue.push_fire(self.now + delay, fn, args, priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` (must not be in the past)."""
        if not time >= self.now:  # rejects the past AND NaN
            raise SimulationError(f"cannot schedule at {time!r} < now {self.now}")
        return self._queue.push(time, fn, args, priority)

    def cancel(self, ev: Event) -> None:
        """Cancel a pending event (no-op if already cancelled or fired)."""
        self._queue.cancel(ev)

    # ------------------------------------------------------------------ #
    # run loop
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events in timestamp order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire after ``until``
            and advance the clock exactly to ``until``.
        max_events:
            Safety valve for runaway simulations.  At most ``max_events``
            events execute in this call; attempting to execute one more
            raises :class:`SimulationError` (the limit is exact — a run
            whose queue drains at exactly ``max_events`` events succeeds).

        Returns
        -------
        float
            The clock value when the run loop returned.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        self.horizon = until if max_events is None else None
        executed = 0
        # Hot loop: operate on the queue's heap directly so each event
        # costs one heappop and no intermediate method calls.  Cancelled
        # entries were already discounted from the live count at
        # cancellation time, so they are dropped without bookkeeping.
        # Entries are either (t, prio, seq, Event, None) — cancellable —
        # or (t, prio, seq, fn, args) fire-and-forget tuples.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        unbounded = until is None and max_events is None
        popped = 0
        # Pause cyclic GC for the duration of the loop: the steady state
        # allocates thousands of short-lived acyclic objects (heap entries,
        # trace records, receptions) that refcounting frees on its own,
        # while gen-0 collections triggered by that churn cost ~10% of the
        # run.  Nothing cyclic is left behind either: the run paths close
        # their deployment (``Network.close``) once it has been measured.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and not self._stopped:
                entry = heap[0]
                args = entry[4]
                if args is None:
                    ev = entry[3]
                    if ev.cancelled:
                        heappop(heap)
                        continue
                    fn = ev.fn
                    args = ev.args
                else:
                    ev = None
                    fn = entry[3]
                t = entry[0]
                if not unbounded:
                    if until is not None and t > until:
                        break
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; runaway simulation?"
                        )
                heappop(heap)
                if ev is not None:
                    ev.cancelled = True  # fired: a later cancel is a no-op
                popped += 1
                if t < self.now:  # pragma: no cover - queue invariant
                    raise SimulationError("event queue produced a past event")
                self.now = t
                fn(*args)
                executed += 1
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            # bookkeeping is batched out of the hot loop; reconcile even
            # when a handler raised
            queue._live -= popped
            self.events_executed += executed
            self._running = False
            self.horizon = None
            if gc_was_enabled:
                gc.enable()
        return self.now

    def step(self) -> bool:
        """Execute exactly one event.  Returns False if the queue was empty."""
        if not self._queue:
            return False
        ev = self._queue.pop()
        self.now = ev.time
        fn, args = ev.fn, ev.args
        assert fn is not None
        fn(*args)
        self.events_executed += 1
        return True

    def stop(self) -> None:
        """Request the run loop to return after the current event."""
        self._stopped = True

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Random streams and the trace are *not* reset; construct a fresh
        :class:`Simulator` for an independent run.

        Must not be called from inside an executing event handler: the run
        loop batches its live-count bookkeeping and reconciles it after
        the loop exits, so clearing the queue mid-run would drive the
        count negative (every event popped since loop entry would be
        subtracted from a count that was just zeroed).  Call
        :meth:`stop` from the handler instead, then reset once
        :meth:`run` has returned.
        """
        if self._running:
            raise SimulationError(
                "reset() called from inside a running handler; "
                "call stop() and reset after run() returns"
            )
        self._queue.clear()
        self.now = 0.0
        self._stopped = False
