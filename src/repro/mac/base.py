"""Abstract MAC interface.

A MAC owns a FIFO transmit queue; ``send`` enqueues and the subclass
decides *when* the head-of-line frame actually hits the channel.  The head
frame is popped only when its transmission *completes* (for reliable
unicast: when it is acknowledged or abandoned), so subclasses can
implement retransmission by re-attempting the same head.

The channel hands every received frame to :meth:`on_frame` before agent
dispatch, letting MACs consume control frames (ACKs) and auto-acknowledge
unicast frames addressed to this node.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.channel import Channel
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.sim.kernel import Simulator

__all__ = ["Mac"]


class Mac:
    """Base MAC: queueing and wiring; access policy left to subclasses."""

    #: does this class override :meth:`on_frame`?  Resolved once per
    #: class, so a node skips the base no-op call on every received frame
    inspects_frames = False
    #: does :meth:`on_frame` return False and do nothing for a broadcast
    #: frame that is not an ACK?  A class that overrides ``on_frame``
    #: must say so itself, or its nodes never hear an isolated frame
    #: (:meth:`send_isolated`)
    ignores_broadcast = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.inspects_frames = cls.on_frame is not Mac.on_frame
        if "on_frame" in vars(cls) and "ignores_broadcast" not in vars(cls):
            cls.ignores_broadcast = False

    def __init__(self, max_queue: int = 256) -> None:
        self.node: Optional["Node"] = None
        self.channel: Optional["Channel"] = None
        self.sim: Optional["Simulator"] = None
        self.queue: Deque["Packet"] = deque()
        self.max_queue = max_queue
        self.sent = 0
        self.dropped_overflow = 0
        self._busy = False  # an access attempt is in flight

    def attach(self, node: "Node", channel: "Channel", sim: "Simulator") -> None:
        self.node = node
        self.channel = channel
        self.sim = sim

    # ------------------------------------------------------------------ #
    # upper-layer API
    # ------------------------------------------------------------------ #
    def send(self, packet: "Packet") -> None:
        """Enqueue ``packet`` for transmission."""
        if len(self.queue) >= self.max_queue:
            self.dropped_overflow += 1
            return
        self.queue.append(packet)
        if not self._busy:
            self._busy = True
            self._access()

    def send_isolated(self, packet: "Packet", before: float) -> bool:
        """Send ``packet`` from an idle MAC, delivered before this returns.

        The channel writes the whole frame now if it can prove that
        nothing else touches it and that it ends before ``before`` (the
        caller's next timer): see :meth:`Channel.send_isolated`.  The
        MAC is left as the stepped send would leave it once the frame is
        done.  Returns False, having changed nothing, when the MAC is
        busy, its idle access delay is not fixed or the channel refuses;
        the caller then sends the stepped way.
        """
        delay = self._idle_access_delay()
        if self._busy or delay is None or self.max_queue <= 0:
            return False
        assert self.channel is not None and self.node is not None
        if not self.channel.send_isolated(self.node, packet, delay, before):
            return False
        self._sent_isolated()
        return True

    def _idle_access_delay(self) -> Optional[float]:
        """Seconds from a send on an idle MAC and medium to its transmission.

        None (the base MAC's answer) means not fixed: such a MAC never
        sends an isolated frame.
        """
        return None

    def _sent_isolated(self) -> None:
        """The state an idle send leaves once its frame is done."""
        self.sent += 1

    # ------------------------------------------------------------------ #
    # receive-side hook
    # ------------------------------------------------------------------ #
    def on_frame(self, packet: "Packet") -> bool:
        """Inspect a received frame before agent dispatch.

        Return True to consume it (it will not reach any agent).  The base
        MAC consumes nothing.
        """
        return False

    # ------------------------------------------------------------------ #
    # subclass contract
    # ------------------------------------------------------------------ #
    def _access(self) -> None:  # pragma: no cover - abstract
        """Start the medium-access procedure for the head-of-line frame."""
        raise NotImplementedError

    def _transmit_current(self) -> float:
        """Put the head frame on the air *without popping it*; returns airtime."""
        assert self.sim is not None and self.channel is not None and self.node is not None
        packet = self.queue[0]
        self.channel.transmit(self.node.node_id, packet)
        self.sent += 1
        return self.channel.airtime(packet)

    def _finish_head(self) -> None:
        """Pop the completed head frame and keep draining the queue."""
        if self.queue:
            self.queue.popleft()
        if self.queue:
            self._access()
        else:
            self._busy = False
