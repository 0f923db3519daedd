"""CSMA/CA MAC in the style of IEEE 802.11 DCF.

Access procedure (DCF basic access):

1. If the medium has been idle, wait DIFS and transmit.
2. If the medium is (or becomes) busy, wait until it goes idle, wait DIFS,
   then count down a random backoff of ``U{0..CW}`` slots, freezing the
   countdown whenever the medium turns busy again.
3. Transmit when the counter reaches zero.

**Broadcast frames** (``dst == BROADCAST``) are never acknowledged or
retried and use the fixed minimum contention window — exactly 802.11's
broadcast rules.

**Unicast frames** (``dst`` set — JoinReplies travel this way) follow the
802.11 reliable-unicast exchange: the addressed receiver returns an ACK
after SIFS; a missing ACK triggers a retransmission with a doubled
contention window, up to ``retry_limit`` attempts.  Every frame is still
*physically* broadcast, so neighbors overhear unicast JoinReplies
promiscuously — the overhearing assumption MTMRP's path handover scheme
is built on (Sec. IV-C-4).

Slot-level fidelity is approximated: instead of simulating every slot
boundary, the MAC samples the whole backoff duration once and re-checks
the medium at expiry, re-drawing a fresh residual backoff if the medium
was seized meanwhile.  The observable effects the routing protocols depend
on — randomised access order among contenders, serialisation within
carrier-sense range, reliable JoinReply chains — are preserved
(substitution S3 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mac.base import Mac
from repro.net.packet import BROADCAST, AckFrame, Packet

__all__ = ["CsmaParams", "CsmaMac"]


@dataclass(frozen=True)
class CsmaParams:
    """802.11-flavoured timing constants (DSSS PHY defaults)."""

    slot_time: float = 20e-6
    sifs: float = 10e-6
    difs: float = 50e-6
    cw_min: int = 31
    cw_max: int = 1023
    retry_limit: int = 7
    #: extra slack allowed for the ACK to arrive after the frame ends
    ack_timeout_slack: float = 60e-6
    #: safety bound on busy-wait loops per frame
    max_attempts: int = 400


#: the parameters every ``CsmaMac()`` shares (frozen, so sharing is
#: safe): a warm fork restores one copy, not one per MAC
DEFAULT_PARAMS = CsmaParams()


class CsmaMac(Mac):
    """Carrier-sense multiple access with collision avoidance + unicast ARQ."""

    # on_frame acts on ACKs and on frames addressed to this node only
    ignores_broadcast = True

    def __init__(self, params: CsmaParams | None = None, max_queue: int = 256) -> None:
        super().__init__(max_queue=max_queue)
        self.params = params if params is not None else DEFAULT_PARAMS
        self.deferrals = 0
        self.retries = 0
        self.dropped_retry = 0
        self.acks_sent = 0
        self._retry_count = 0
        self._cw = self.params.cw_min
        self._awaiting_ack_uid: Optional[int] = None
        self._rng_gen = None
        self._radio = None  # this node's Radio, resolved on first access

    # ------------------------------------------------------------------ #
    def _rng(self):
        gen = self._rng_gen
        if gen is None:
            assert self.sim is not None and self.node is not None
            gen = self._rng_gen = self.sim.rng.stream("mac", self.node.node_id)
        return gen

    def _my_radio(self):
        radio = self._radio
        if radio is None:
            assert self.channel is not None and self.node is not None
            radio = self._radio = self.channel.radios[self.node.node_id]
        return radio

    # ------------------------------------------------------------------ #
    # access procedure
    # ------------------------------------------------------------------ #
    def _access(self) -> None:
        self._retry_count = 0
        self._cw = self.params.cw_min
        self._attempt(attempts_left=self.params.max_attempts, with_backoff=False)

    def _idle_access_delay(self) -> Optional[float]:
        # an idle medium at the send and at DIFS: no deferral, no backoff
        return self.params.difs if self.params.max_attempts > 0 else None

    def _sent_isolated(self) -> None:
        # the resets of the _access an idle send would have run
        self._retry_count = 0
        self._cw = self.params.cw_min
        self.sent += 1

    def _attempt(self, attempts_left: int, with_backoff: bool) -> None:
        """One access attempt: wait for idle medium, DIFS, optional backoff."""
        p = self.params
        if attempts_left <= 0:
            # Pathological congestion: drop the head frame rather than loop.
            self.dropped_overflow += 1
            self._finish_head()
            return
        sim = self.sim
        radio = self._radio
        if radio is None:
            radio = self._my_radio()
        if radio.medium_busy(sim.now):
            self.deferrals += 1
            wait = max(radio.busy_until(sim.now) - sim.now, p.slot_time)
            # After a busy medium we must back off (802.11 rule 2).
            sim.schedule_fire(wait, self._attempt, attempts_left - 1, True)
            return
        backoff = 0.0
        if with_backoff:
            backoff = self._backoff_slots() * p.slot_time
        sim.schedule_fire(p.difs + backoff, self._final_check, attempts_left - 1)

    def _backoff_slots(self) -> int:
        """One ``U{0..cw}`` backoff draw from this node's MAC stream.

        Scalar on purpose: a node draws about one backoff per run, so a
        prefetched block of draws (plus the saved generator state needed
        to rewind it when the contention window changes) would be paid
        for in full nearly every time.
        """
        return int(self._rng().integers(0, self._cw + 1))

    def _final_check(self, attempts_left: int) -> None:
        """Re-sense at the end of DIFS+backoff; transmit if still idle."""
        sim = self.sim
        radio = self._radio
        if radio is None:
            radio = self._my_radio()
        if radio.medium_busy(sim.now):
            self.deferrals += 1
            self._attempt(attempts_left, with_backoff=True)
            return
        head = self.queue[0]
        airtime = self._transmit_current()
        if head.dst == BROADCAST:
            sim.schedule_fire(airtime, self._finish_head)
        else:
            self._awaiting_ack_uid = head.uid
            p = self.params
            # NOTE: allocated per attempt on purpose — the throwaway frame
            # consumes a packet uid, and the uid sequence is part of the
            # deterministic trace fingerprint
            ack_airtime = AckFrame(src=self.node.node_id).size_bits() / self.channel.bitrate_bps
            timeout = airtime + p.sifs + ack_airtime + p.ack_timeout_slack
            sim.schedule_fire(timeout, self._ack_timeout, head.uid)

    # ------------------------------------------------------------------ #
    # unicast ARQ
    # ------------------------------------------------------------------ #
    def _ack_timeout(self, uid: int) -> None:
        if self._awaiting_ack_uid != uid:
            return  # already acknowledged
        self._awaiting_ack_uid = None
        p = self.params
        self._retry_count += 1
        if self._retry_count > p.retry_limit:
            self.dropped_retry += 1
            self._finish_head()
            return
        self.retries += 1
        self._cw = min(2 * self._cw + 1, p.cw_max)
        self._attempt(attempts_left=p.max_attempts, with_backoff=True)

    def on_frame(self, packet: Packet) -> bool:
        me = self.node.node_id
        if isinstance(packet, AckFrame):
            if packet.dst == me and self._awaiting_ack_uid == packet.acked_uid:
                self._awaiting_ack_uid = None
                self._finish_head()
            return True  # ACKs never reach agents
        if packet.dst == me:
            # Reliable unicast addressed to us: return an ACK after SIFS.
            ack = AckFrame(src=me, dst=packet.src, acked_uid=packet.uid)
            self.acks_sent += 1
            # ACKs bypass the queue and carrier sensing (SIFS priority).
            self.sim.schedule_fire(self.params.sifs, self.channel.transmit, me, ack)
        return False
