"""Packet definitions.

Packets are plain dataclasses; the MAC wraps them in a frame implicitly by
adding per-frame MAC fields at transmission time (we track the last-hop
sender on the packet itself, as the paper's message formats do with their
``NodeID`` field).

Size accounting: every packet reports its on-air size in bits so that MAC
airtime and energy costs are realistic.  Header sizes follow the field
lists in Sec. IV-C (MessageType, NodeID, SourceID, GroupID,
SequenceNumber, HopCount, PathProfit for JoinQuery; etc.), at 2 bytes per
id/counter field plus a standard PHY/MAC preamble.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

__all__ = [
    "BROADCAST",
    "Packet",
    "AckFrame",
    "HelloPacket",
    "DataPacket",
    "ScopedFloodData",
    "reset_uids",
    "current_uid",
]

#: Link-layer broadcast address.
BROADCAST = -1

#: PHY preamble + MAC header overhead, bits (ns-2's 802.11 broadcast
#: framing is larger; we keep a round small constant — only *relative*
#: airtime matters to the protocols).
FRAME_OVERHEAD_BITS = 192

#: Bits per header field (ids, counters).
FIELD_BITS = 16

class _UidCounter:
    """``itertools.count`` with a readable position.

    The snapshot/fork engine (:mod:`repro.sim.snapshot`) records the
    counter value at capture time and restores it per fork, so a warm
    continuation assigns the exact uids a cold run would; ``itertools``
    counters cannot be peeked without consuming a value.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0) -> None:
        self.value = start

    def __next__(self) -> int:
        v = self.value
        self.value = v + 1
        return v

    def __iter__(self) -> "_UidCounter":
        return self


_uid_counter = _UidCounter()


def reset_uids(start: int = 0) -> None:
    """Restart the packet uid sequence (at ``start``).

    Uids are process-global, so two otherwise-identical simulations run
    back-to-back in one process would disagree on every uid and therefore
    on every trace record.  Experiment entry points call this before
    building a Simulator so "same seed => identical trace" holds within a
    process too (do not call it mid-simulation).  The snapshot engine
    passes ``start`` to resume the sequence from a capture point.
    """
    _uid_counter.value = int(start)


def current_uid() -> int:
    """The uid the next packet will receive (snapshot capture reads this)."""
    return _uid_counter.value


@dataclass
class Packet:
    """Base class for everything that goes over the air.

    Attributes
    ----------
    src:
        Originator of this particular transmission (last hop), i.e. the
        paper's ``NodeID`` field.  Updated at every hop by forwarding code.
    dst:
        Link-layer destination; :data:`BROADCAST` for all of this work's
        traffic (the protocols rely on overhearing).
    uid:
        Unique id of this packet *instance*; cloned copies get fresh uids
        so traces can distinguish per-hop transmissions.
    """

    src: int
    dst: int = BROADCAST
    uid: int = field(default_factory=lambda: next(_uid_counter))

    #: number of 16-bit header fields beyond src/dst (subclasses override)
    n_fields: ClassVar[int] = 0
    #: application payload bits (subclasses override)
    payload_bits: ClassVar[int] = 0

    #: packet type name used in traces (``MessageType`` in the paper);
    #: precomputed per class — the trace path reads it on every record
    ptype: ClassVar[str] = "Packet"
    #: on-air size precomputed per class (HelloPacket adds a dynamic part)
    _class_size_bits: ClassVar[int] = FRAME_OVERHEAD_BITS + 2 * FIELD_BITS

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.ptype = cls.__name__
        cls._class_size_bits = (
            FRAME_OVERHEAD_BITS + (2 + cls.n_fields) * FIELD_BITS + cls.payload_bits
        )

    def size_bits(self) -> int:
        """Total on-air size in bits."""
        return self._class_size_bits

    def clone_for_forwarding(self, new_src: int) -> "Packet":
        """Copy this packet for rebroadcast by ``new_src`` (fresh uid)."""
        return replace(self, src=new_src, uid=next(_uid_counter))


@dataclass
class AckFrame(Packet):
    """802.11-style MAC acknowledgement for a unicast frame.

    Generated by the MAC layer, never seen by agents.  ``acked_uid``
    identifies the acknowledged frame instance.
    """

    acked_uid: int = -1

    n_fields: ClassVar[int] = 1


@dataclass
class HelloPacket(Packet):
    """Periodic HELLO advertising multicast group membership (Sec. IV-B).

    Optionally carries the sender's position — the extra state geographic
    multicast (the related work's stateless family) requires.
    """

    #: multicast GroupIDs the sender belongs to
    groups: frozenset = frozenset()
    #: sender coordinates (None unless position sharing is enabled)
    position: "tuple[float, float] | None" = None

    n_fields: ClassVar[int] = 4

    def size_bits(self) -> int:
        bits = self._class_size_bits + FIELD_BITS * len(self.groups)
        return bits if self.position is None else bits + 2 * FIELD_BITS


@dataclass
class DataPacket(Packet):
    """Multicast data payload.

    ``source``/``group``/``seq`` identify the multicast session; ``src``
    is the last-hop transmitter (changes at every forwarding hop).
    """

    source: int = 0
    group: int = 0
    seq: int = 0

    n_fields: ClassVar[int] = 3
    payload_bits: ClassVar[int] = 512  # 64-byte application payload

    @property
    def flow_key(self) -> tuple:
        """Identity of the end-to-end packet (stable across hops)."""
        return (self.source, self.group, self.seq)


@dataclass
class ScopedFloodData(DataPacket):
    """TTL-bounded flooded data used while a session is DEGRADED.

    A DataPacket subclass so it flows through the normal agent dispatch,
    duplicate filter and DELIVER accounting; the extra ``ttl`` field bounds
    how far the flood spreads once the forwarding tree is gone.
    """

    #: remaining hops this copy may still be forwarded (0 = do not forward)
    ttl: int = 0

    n_fields: ClassVar[int] = 4

    def hop(self, new_src: int) -> "ScopedFloodData":
        """Copy for rebroadcast by ``new_src``: fresh uid, TTL decremented."""
        return replace(self, src=new_src, uid=next(_uid_counter), ttl=self.ttl - 1)
