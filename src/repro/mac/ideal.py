"""Collision-free MAC with a fixed small access delay.

Serialises this node's own frames (a radio is half-duplex) but performs no
carrier sensing, no random backoff and no acknowledgements.  Pair with
``Channel(perfect=True)`` for a fully deterministic, lossless medium —
with a *lossy* channel, unicast frames get no retransmission protection
here; use :class:`repro.mac.csma.CsmaMac` for that.
"""

from __future__ import annotations

from repro.mac.base import Mac

__all__ = ["IdealMac"]


class IdealMac(Mac):
    """Transmit the head-of-line frame ``access_delay`` seconds after enqueue."""

    def __init__(self, access_delay: float = 10e-6, max_queue: int = 256) -> None:
        super().__init__(max_queue=max_queue)
        self.access_delay = access_delay

    # Neither timer is ever cancelled, so both go on the heap without an
    # Event handle (same seq, same order as ``schedule``).
    def _access(self) -> None:
        assert self.sim is not None
        self.sim.schedule_fire(self.access_delay, self._fire)

    def _idle_access_delay(self) -> float:
        return self.access_delay

    def _fire(self) -> None:
        airtime = self._transmit_current()
        assert self.sim is not None
        self.sim.schedule_fire(airtime, self._finish_head)
