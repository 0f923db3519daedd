"""Structured event tracing.

The metrics layer (:mod:`repro.metrics`) never inspects protocol internals;
it consumes the trace, exactly as one would post-process an ns-2 trace
file.  Records are cheap tuples; high-volume kinds can be disabled with
``TraceRecorder(enabled_kinds=...)`` when only counters are needed, and
``enabled_kinds=()`` stores no records at all for sweeps that only read
totals.

Query performance: the recorder maintains *lazy incremental indexes* —
per-``(kind, packet_type)`` record-position lists and node-set caches —
built the first time a query runs and extended in place as new records
arrive.  ``emit`` (the hot path: one call per radio event) stays a plain
counter bump (``dict.get`` and a C-level store) + list append;
``count``/``nodes_with``/``filter`` no longer scan the full record list on
every call.  A writer appending a block of one ``(kind, packet_type)`` —
the batch kernel's warmup HELLO transmissions, ~9,000 per seed — hands it
to ``extend_indexed``, which extends the indexes once per block instead
of once per record.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from enum import Enum
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

__all__ = ["TraceKind", "TraceRecord", "TraceRecorder", "trace_digest"]


class TraceKind(str, Enum):
    """Kinds of trace records emitted by the stack."""

    #: MAC handed a frame to the channel (one radio transmission).
    TX = "tx"
    #: A frame was successfully received by a node.
    RX = "rx"
    #: A frame was lost at a receiver due to overlapping transmissions.
    COLLISION = "collision"
    #: A frame/packet was dropped (duplicate, TTL, queue overflow, …).
    DROP = "drop"
    #: Protocol state change (forwarder marked, receiver covered, …).
    MARK = "mark"
    #: Application-level delivery of a data payload to a multicast receiver.
    DELIVER = "deliver"
    #: Free-form protocol annotation.
    NOTE = "note"


class TraceRecord(NamedTuple):
    """One trace line.

    Attributes
    ----------
    time: simulated time of the event.
    kind: the :class:`TraceKind`.
    node: node id the record concerns.
    packet_type: e.g. ``"JoinQuery"``, ``"Data"``, ``"Hello"``; None for
        non-packet records such as MARK.
    detail: record-specific payload (packet id, reason string, …).
    """

    time: float
    kind: TraceKind
    node: int
    packet_type: Optional[str] = None
    detail: Any = None


#: Index key: ``(kind, packet_type)``; ``packet_type=None`` is the
#: "any packet type" bucket (mirroring the query API's wildcard).
_IxKey = Tuple[TraceKind, Optional[str]]

#: ``tuple.__new__`` called directly skips the generated NamedTuple
#: ``__new__`` wrapper — one python frame less per ``emit``, which runs
#: once per radio event.
_tuple_new = tuple.__new__


class _Counts(Counter):
    """A :class:`~collections.Counter` whose item store runs at dict speed.

    ``Counter`` defines ``__delitem__`` in Python, which makes CPython
    route every ``counts[key] = n`` through a generic slot that looks up
    ``__setitem__`` by name (~165 ns against ~45 ns for a dict).  Binding
    ``__delitem__`` back to dict's own restores the C-level store that
    :meth:`TraceRecorder.emit` bumps once per record; every other Counter
    behaviour (missing keys read 0, ``update`` adds) is unchanged, except
    that deleting a missing key raises ``KeyError`` as it does on a dict.
    """

    __slots__ = ()
    __delitem__ = dict.__delitem__


class TraceRecorder:
    """Accumulates :class:`TraceRecord` objects and running counters.

    Counters (``counts``) are always maintained even for disabled kinds, so
    cheap experiments can turn off record storage without losing totals.

    Parameters
    ----------
    enabled_kinds:
        Only these kinds get stored records (all, when None).  Counters
        cover every kind regardless; ``()`` stores no records at all, for
        scaling sweeps where the records of a 5000-node run would
        dominate memory.
    """

    def __init__(self, enabled_kinds: Optional[Iterable[TraceKind]] = None) -> None:
        self.records: List[TraceRecord] = []
        self.counts: Counter = _Counts()
        self._enabled = set(enabled_kinds) if enabled_kinds is not None else None
        # lazy incremental indexes: positions into ``records`` and node
        # sets per (kind, packet_type), extended on demand by _reindex
        self._ix: Dict[_IxKey, List[int]] = {}
        self._ix_nodes: Dict[_IxKey, Set[int]] = {}
        self._ix_upto = 0
        #: live observers (see :meth:`add_watcher`); the hot path pays
        #: nothing while this list is empty — installing a watcher swaps
        #: ``emit`` for a wrapping closure on *this instance only*
        self._watchers: List[Any] = []

    def emit(
        self,
        time: float,
        kind: TraceKind,
        node: int,
        packet_type: Optional[str] = None,
        detail: Any = None,
    ) -> None:
        """Record one event."""
        counts = self.counts
        key = (kind, packet_type)
        counts[key] = counts.get(key, 0) + 1
        if self._enabled is None or kind in self._enabled:
            self.records.append(
                _tuple_new(TraceRecord, (time, kind, node, packet_type, detail))
            )

    def tally(self, kind: TraceKind, packet_type: Optional[str], n: int) -> bool:
        """Count ``n`` records of ``(kind, packet_type)`` without storing
        them, if that is all ``n`` emits would do: no record of ``kind``
        is stored and no watcher is attached.  Returns False, having
        counted nothing, otherwise; the caller then emits each record.

        One call per frame for its receptions, where a per-record
        :meth:`emit` would bump the same counter ``n`` times.
        """
        if self._watchers or self._enabled is None or kind in self._enabled:
            return False
        if n:
            counts = self.counts
            key = (kind, packet_type)
            counts[key] = counts.get(key, 0) + n
        return True

    # ------------------------------------------------------------------ #
    # watchers
    # ------------------------------------------------------------------ #
    def add_watcher(self, fn) -> None:
        """Invoke ``fn(time, kind, node, packet_type, detail)`` after each emit.

        Used by :mod:`repro.check` to react to records (e.g. a RouteError
        transmission) as they happen.  The plain class-level ``emit``
        stays untouched — installing the first watcher shadows it with a
        wrapping closure *on this instance only*, so a recorder without
        watchers pays nothing.  Watchers must not emit records themselves
        (that would recurse) and must not schedule events or draw rng —
        they observe, they don't perturb.

        Components that cache a bound ``trace.emit`` (e.g. the channel)
        must be rebound after installation; :class:`repro.check.CheckHarness`
        handles this when attached before network construction.
        """
        self._watchers.append(fn)
        if len(self._watchers) == 1:
            base = TraceRecorder.emit.__get__(self, TraceRecorder)
            watchers = self._watchers

            def emit(time, kind, node, packet_type=None, detail=None):
                base(time, kind, node, packet_type, detail)
                for w in watchers:
                    w(time, kind, node, packet_type, detail)

            self.emit = emit  # type: ignore[method-assign]

    def remove_watcher(self, fn) -> None:
        """Detach a watcher installed by :meth:`add_watcher`."""
        self._watchers.remove(fn)
        if not self._watchers:
            del self.emit  # back to the zero-overhead class method

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #
    def _reindex(self) -> None:
        """Fold records appended since the last query into the indexes."""
        records = self.records
        upto = self._ix_upto
        if upto == len(records):
            return
        ix, ix_nodes = self._ix, self._ix_nodes
        for pos in range(upto, len(records)):
            rec = records[pos]
            # A None packet_type collapses both keys into one — index it
            # once, or filter() would yield the record twice.
            if rec.packet_type is None:
                keys = ((rec.kind, None),)
            else:
                keys = ((rec.kind, rec.packet_type), (rec.kind, None))
            for key in keys:
                lst = ix.get(key)
                if lst is None:
                    ix[key] = [pos]
                    ix_nodes[key] = {rec.node}
                else:
                    lst.append(pos)
                    ix_nodes[key].add(rec.node)
        self._ix_upto = len(records)

    def extend_indexed(
        self, kind: TraceKind, packet_type: Optional[str], records: List[TraceRecord]
    ) -> None:
        """Append ``records``, all of ``(kind, packet_type)``, indexed in one step.

        The bulk form of appending and then querying: the block's
        positions and node set extend that key's index and the kind-wide
        one at once, instead of record by record in :meth:`_reindex`.
        Like ``records.extend`` it stores what it is given and leaves the
        counters to the caller.
        """
        if not records:
            return
        self._reindex()  # positions must stay in record order
        start = len(self.records)
        self.records.extend(records)
        positions = range(start, len(self.records))
        nodes = set(map(itemgetter(2), records))
        if packet_type is None:
            keys = ((kind, None),)
        else:
            keys = ((kind, packet_type), (kind, None))
        for key in keys:
            lst = self._ix.get(key)
            if lst is None:
                self._ix[key] = list(positions)
                self._ix_nodes[key] = set(nodes)
            else:
                lst.extend(positions)
                self._ix_nodes[key].update(nodes)
        self._ix_upto = len(self.records)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def count(self, kind: TraceKind, packet_type: Optional[str] = None) -> int:
        """Total records of ``kind`` (optionally restricted to a packet type)."""
        if packet_type is not None:
            return self.counts[(kind, packet_type)]
        return sum(v for (k, _pt), v in self.counts.items() if k == kind)

    def filter(
        self,
        kind: Optional[TraceKind] = None,
        packet_type: Optional[str] = None,
        node: Optional[int] = None,
    ) -> Iterator[TraceRecord]:
        """Iterate stored records matching all given criteria (in emit order)."""
        if kind is None:
            # rare shape (no kind restriction): plain scan
            for rec in self.records:
                if packet_type is not None and rec.packet_type != packet_type:
                    continue
                if node is not None and rec.node != node:
                    continue
                yield rec
            return
        self._reindex()
        records = self.records
        positions = self._ix.get((kind, packet_type), ())
        for pos in positions:
            rec = records[pos]
            if node is not None and rec.node != node:
                continue
            yield rec

    def nodes_with(self, kind: TraceKind, packet_type: Optional[str] = None) -> Set[int]:
        """Set of node ids having at least one matching record."""
        self._reindex()
        cached = self._ix_nodes.get((kind, packet_type))
        # copy: callers mutate the result (set intersections in metrics)
        return set(cached) if cached is not None else set()

    def clear(self) -> None:
        """Drop all records, counters and indexes."""
        self.records.clear()
        self.counts.clear()
        self._ix.clear()
        self._ix_nodes.clear()
        self._ix_upto = 0

    def __len__(self) -> int:
        return len(self.records)


def trace_digest(trace: TraceRecorder) -> str:
    """Deterministic sha256 fingerprint of a finished run's trace.

    Equal digests mean bit-identical runs — this is the check behind the
    determinism contract (same seed, same trace) that every performance
    change must preserve.  Timestamps are hashed as IEEE-754 doubles via
    ``float()`` so the fingerprint pins the *value*, not the scalar type
    (a ``numpy.float64`` and a python ``float`` carrying the same bits
    are the same instant).
    """
    h = hashlib.sha256()
    for rec in trace.records:
        h.update(
            repr(
                (float(rec.time), rec.kind.value, rec.node, rec.packet_type, rec.detail)
            ).encode()
        )
    return h.hexdigest()
