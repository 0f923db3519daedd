"""Radio transceiver state machine.

A :class:`Radio` tracks, for one node, whether the transceiver is idle,
transmitting, or receiving, plus the bookkeeping the channel needs to
detect collisions: the set of signals currently arriving at this node.

Half-duplex rule: a node that is transmitting cannot receive; any signal
arriving while we transmit is lost *at this node* (it may still be received
elsewhere).

Collision semantics follow ns-2's 802.11 PHY (substitution S3): the radio
*locks onto* the first arriving frame.  A later-arriving overlap

* weaker by at least ``capture_threshold_db``  → the locked frame
  survives, the newcomer is lost (receiver capture);
* stronger by at least ``capture_threshold_db`` → the newcomer captures
  the receiver and the previously locked frame is lost;
* otherwise → both frames are lost (collision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, List

__all__ = ["RadioState", "Reception", "Radio"]


class RadioState(Enum):
    IDLE = "idle"
    TX = "tx"
    RX = "rx"


# The states as module globals: an enum member lookup costs ~5x a global
# read on Python 3.11, and Radio tests its state on every reception.
_IDLE = RadioState.IDLE
_TX = RadioState.TX
_RX = RadioState.RX


@dataclass(slots=True, eq=False)
class Reception:
    """One in-flight signal arriving at a node.

    Slotted: one is allocated per frame arrival per in-range receiver —
    the single most-instantiated object in a run.  Identity equality
    (``eq=False``): the radio tracks these as live objects, so
    ``receptions.remove(rec)`` must drop *that* reception, not a
    field-equal twin — and identity compares keep the removal cheap.
    """

    frame: Any
    start: float
    end: float
    power: float
    #: set False as soon as any overlap/interruption dooms this reception
    intact: bool = True


@dataclass(slots=True)
class Radio:
    """Transceiver state for one node."""

    node_id: int
    capture_threshold_db: float = 10.0
    state: RadioState = _IDLE
    tx_until: float = 0.0
    receptions: List[Reception] = field(default_factory=list)
    #: retired Reception objects recycled by begin_reception — the channel
    #: returns each one after its finish event, so the steady state
    #: allocates no Reception at all
    free_pool: List[Reception] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # transmit side
    # ------------------------------------------------------------------ #
    def begin_tx(self, now: float, duration: float) -> None:
        """Enter TX state; doom any reception in progress (half duplex)."""
        self.state = _TX
        self.tx_until = now + duration
        for rec in self.receptions:
            rec.intact = False

    def end_tx(self, now: float) -> None:
        """Leave TX state."""
        if self.state is _TX:
            self.state = _RX if self._live(now) else _IDLE

    def is_transmitting(self, now: float) -> bool:
        return self.state is _TX and now < self.tx_until

    # ------------------------------------------------------------------ #
    # receive side
    # ------------------------------------------------------------------ #
    def begin_reception(self, frame: Any, now: float, duration: float, power: float) -> Reception:
        """Register a signal arriving at this node.

        Applies the first-frame-lock capture model (module docstring).  A
        node currently transmitting dooms the arrival immediately.
        """
        pool = self.free_pool
        if pool:
            rec = pool.pop()
            rec.frame = frame
            rec.start = now
            rec.end = now + duration
            rec.power = power
            rec.intact = True
        else:
            rec = Reception(frame=frame, start=now, end=now + duration, power=power)
        if self.state is _TX and now < self.tx_until:
            rec.intact = False
        else:
            # the reception the radio is locked on: the first intact in-flight one
            locked = None
            for r in self.receptions:
                if r.end > now and r.intact:
                    locked = r
                    break
            if locked is not None:
                ratio_db = 10.0 * _log10(power / locked.power)
                if ratio_db <= -self.capture_threshold_db:
                    rec.intact = False  # we stay locked on the earlier frame
                elif ratio_db >= self.capture_threshold_db:
                    locked.intact = False  # the newcomer captures the receiver
                else:
                    locked.intact = False  # comparable powers: both garbled
                    rec.intact = False
        self.receptions.append(rec)
        if self.state is _IDLE:
            self.state = _RX
        return rec

    def finish_reception(self, rec: Reception, now: float) -> bool:
        """Remove ``rec`` from the in-flight set; True iff it survived."""
        receptions = self.receptions
        try:
            receptions.remove(rec)
        except ValueError:  # pragma: no cover - defensive
            return False
        if self.state is _RX:
            for r in receptions:
                if r.end > now:
                    break
            else:
                self.state = _IDLE
        return rec.intact and not (self.state is _TX and now < self.tx_until)

    # ------------------------------------------------------------------ #
    # carrier sense
    # ------------------------------------------------------------------ #
    def medium_busy(self, now: float) -> bool:
        """True if this node senses the medium busy (own TX or any arrival)."""
        if self.state is _TX and now < self.tx_until:
            return True
        for r in self.receptions:
            if r.end > now:
                return True
        return False

    def busy_until(self, now: float) -> float:
        """Earliest time the medium could become free as sensed here."""
        t = self.tx_until if self.is_transmitting(now) else now
        for rec in self.receptions:
            if rec.end > t:
                t = rec.end
        return t

    def _live(self, now: float) -> bool:
        return any(r.end > now for r in self.receptions)


def _log10(x: float) -> float:
    return math.log10(x) if x > 0 else float("-inf")
