"""Unit tests for the trace recorder."""

from repro.sim.trace import TraceKind, TraceRecorder


def test_emit_and_count():
    t = TraceRecorder()
    t.emit(0.0, TraceKind.TX, 1, "DataPacket", 100)
    t.emit(0.5, TraceKind.TX, 2, "JoinQuery", 101)
    t.emit(1.0, TraceKind.RX, 3, "DataPacket", 100)
    assert t.count(TraceKind.TX) == 2
    assert t.count(TraceKind.TX, "DataPacket") == 1
    assert t.count(TraceKind.RX) == 1
    assert len(t) == 3


def test_filter_by_kind_type_node():
    t = TraceRecorder()
    t.emit(0.0, TraceKind.TX, 1, "A")
    t.emit(0.0, TraceKind.TX, 2, "B")
    t.emit(0.0, TraceKind.RX, 1, "A")
    assert len(list(t.filter(kind=TraceKind.TX))) == 2
    assert len(list(t.filter(packet_type="A"))) == 2
    assert len(list(t.filter(node=1))) == 2
    assert len(list(t.filter(kind=TraceKind.TX, packet_type="A", node=1))) == 1


def test_nodes_with():
    t = TraceRecorder()
    t.emit(0.0, TraceKind.TX, 1, "Data")
    t.emit(0.0, TraceKind.TX, 1, "Data")
    t.emit(0.0, TraceKind.TX, 5, "Data")
    assert t.nodes_with(TraceKind.TX, "Data") == {1, 5}


def test_disabled_kinds_keep_counters_only():
    t = TraceRecorder(enabled_kinds={TraceKind.TX})
    t.emit(0.0, TraceKind.RX, 1, "Data")
    t.emit(0.0, TraceKind.TX, 1, "Data")
    assert t.count(TraceKind.RX, "Data") == 1  # counter survives
    assert len(t) == 1  # but only the TX record is stored
    assert list(t.filter(kind=TraceKind.RX)) == []


def test_clear():
    t = TraceRecorder()
    t.emit(0.0, TraceKind.TX, 1, "Data")
    t.clear()
    assert len(t) == 0
    assert t.count(TraceKind.TX) == 0


def test_records_are_immutable():
    t = TraceRecorder()
    t.emit(0.0, TraceKind.MARK, 4, "Forwarder", (0, 1, 0))
    rec = t.records[0]
    try:
        rec.node = 9
        mutated = True
    except AttributeError:
        mutated = False
    assert not mutated


def test_none_packet_type_not_yielded_twice():
    """A MARK-style record (packet_type=None) collapses both index keys
    into (kind, None) — it must still be indexed exactly once."""
    t = TraceRecorder()
    t.emit(0.0, TraceKind.MARK, 4, None, "note")
    assert len(list(t.filter(kind=TraceKind.MARK))) == 1
    assert t.nodes_with(TraceKind.MARK) == {4}


def test_index_extends_after_later_emits():
    """Queries build the index lazily; records emitted afterwards must
    fold in on the next query, in emit order."""
    t = TraceRecorder()
    t.emit(0.0, TraceKind.TX, 1, "Data", "a")
    assert t.nodes_with(TraceKind.TX, "Data") == {1}  # index built here
    t.emit(1.0, TraceKind.TX, 2, "Data", "b")
    t.emit(2.0, TraceKind.TX, 1, "Query", "c")
    assert t.nodes_with(TraceKind.TX, "Data") == {1, 2}
    assert [r.detail for r in t.filter(TraceKind.TX, "Data")] == ["a", "b"]
    assert [r.detail for r in t.filter(TraceKind.TX)] == ["a", "b", "c"]


def test_nodes_with_returns_a_copy():
    t = TraceRecorder()
    t.emit(0.0, TraceKind.TX, 1, "Data")
    s = t.nodes_with(TraceKind.TX, "Data")
    s.clear()  # metrics code mutates these sets freely
    assert t.nodes_with(TraceKind.TX, "Data") == {1}


def test_indexed_block_answers_like_reindexed_records():
    """Records appended by ``extend_indexed`` answer every query exactly as
    the same records folded in one by one by ``_reindex`` do — including
    when the block lands between half-indexed emits."""
    from repro.sim.trace import TraceRecord

    def block(t0, nodes):
        return [
            TraceRecord(t0 + 0.1 * k, TraceKind.TX, n, "HelloPacket", 100 + k)
            for k, n in enumerate(nodes)
        ]

    first = block(0.0, [3, 1, 3, 7])
    second = block(5.0, [2, 7])
    blocked, reindexed = TraceRecorder(), TraceRecorder()
    for t in (blocked, reindexed):
        t.emit(0.0, TraceKind.TX, 9, "JoinQuery", 1)
        t.emit(0.0, TraceKind.MARK, 4, None, "note")
    assert blocked.nodes_with(TraceKind.TX) == {9}  # index built up to here
    blocked.emit(0.5, TraceKind.TX, 5, "HelloPacket", 2)  # not yet indexed
    blocked.extend_indexed(TraceKind.TX, "HelloPacket", first)
    blocked.emit(1.0, TraceKind.RX, 6, "HelloPacket", 3)
    blocked.extend_indexed(TraceKind.TX, "HelloPacket", second)
    blocked.extend_indexed(TraceKind.TX, "HelloPacket", [])
    reindexed.emit(0.5, TraceKind.TX, 5, "HelloPacket", 2)
    reindexed.records.extend(first)
    reindexed.emit(1.0, TraceKind.RX, 6, "HelloPacket", 3)
    reindexed.records.extend(second)
    for t in (blocked, reindexed):
        t.counts[(TraceKind.TX, "HelloPacket")] += len(first) + len(second)
    assert blocked.records == reindexed.records

    keys = {(r.kind, r.packet_type) for r in reindexed.records}
    keys |= {(kind, None) for kind, _pt in keys}
    for kind, pt in sorted(keys, key=repr):
        assert blocked.count(kind, pt) == reindexed.count(kind, pt)
        assert list(blocked.filter(kind, pt)) == list(reindexed.filter(kind, pt))
        assert blocked.nodes_with(kind, pt) == reindexed.nodes_with(kind, pt)
        for node in (1, 3, 7, 9):
            assert list(blocked.filter(kind, pt, node)) == list(
                reindexed.filter(kind, pt, node)
            )
    assert blocked.nodes_with(TraceKind.TX, "HelloPacket") == {1, 2, 3, 5, 7}


def test_tally_counts_unstored_records_in_one_update():
    t = TraceRecorder(enabled_kinds={TraceKind.TX})
    assert t.tally(TraceKind.RX, "HelloPacket", 2)
    assert t.tally(TraceKind.RX, "HelloPacket", 0)
    assert t.records == [] and dict(t.counts) == {(TraceKind.RX, "HelloPacket"): 2}


def test_tally_leaves_stored_or_watched_records_to_emit():
    stored = TraceRecorder()
    assert not stored.tally(TraceKind.RX, "HelloPacket", 2)
    watched = TraceRecorder(enabled_kinds={TraceKind.TX})
    watched.add_watcher(lambda *rec: None)
    assert not watched.tally(TraceKind.RX, "HelloPacket", 2)
    assert not stored.counts and not watched.counts
