"""``NeighborTable.purge`` skips its scan only when nothing is stale.

The table keeps ``_oldest``, a lower bound on every entry's
``last_seen``, and a purge with ``now - _oldest <= expiry`` returns at
once.  The skip is exact because IEEE subtraction is monotone: for
``a >= b``, ``now - a <= now - b``.  Random operation sequences run on
the table and on a reference that always scans: HELLO refreshes, marks
on unknown neighbors (``_ensure``'s ``0.0`` stamp), removals, purges at
non-decreasing times, and direct ``_entries`` writes followed by the
documented bound reset.  Every purge must remove the same entries and
the two tables must end equal, entry by entry, in insertion order.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.neighbor import NeighborEntry, NeighborTable

SESSION = (0, 1, 0)


class _AlwaysScans(NeighborTable):
    """The purge without the bound: every call scans every entry."""

    def purge(self, now: float, expiry: float) -> int:
        stale = [nid for nid, e in self._entries.items() if now - e.last_seen > expiry]
        for nid in stale:
            del self._entries[nid]
        return len(stale)


def _rows(table: NeighborTable) -> list:
    return [
        (nid, e.last_seen, e.groups, set(e.covered_sessions), set(e.forwarder_sessions))
        for nid, e in table._entries.items()
    ]


_nbr = st.integers(0, 7)
#: clock steps at and around the expiries below, where a rounding slip
#: in ``now - last_seen`` would show
_step = st.sampled_from((0.0, 1e-9, 0.25, 0.999, 1.0, 1.1, 2.5, 3.5, 3.5000000001, 4.0))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), _step),
        st.tuples(st.just("hello"), _nbr, st.frozensets(st.integers(1, 3), max_size=2)),
        st.tuples(st.just("mark"), _nbr, st.booleans()),
        st.tuples(st.just("remove"), _nbr),
        st.tuples(st.just("purge"), st.sampled_from((0.0, 1.0, 3.5))),
        # a direct write of stamp ``now - back`` (the batch kernel's kind)
        st.tuples(st.just("direct"), _nbr, st.sampled_from((0.0, 0.5, 3.5, 10.0))),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(start=st.sampled_from((0.0, 15.0, 1e6)), ops=_ops)
def test_purge_with_the_bound_matches_a_full_scan(start, ops):
    table, ref = NeighborTable(), _AlwaysScans()
    now = start
    for op in ops:
        kind = op[0]
        if kind == "advance":
            now += op[1]
        elif kind == "hello":
            for t in (table, ref):
                t.update_hello(op[1], op[2], now)
        elif kind == "mark":
            for t in (table, ref):
                (t.mark_covered if op[2] else t.mark_forwarder)(op[1], SESSION)
        elif kind == "remove":
            for t in (table, ref):
                t.remove(op[1])
        elif kind == "purge":
            assert table.purge(now, op[1]) == ref.purge(now, op[1])
        else:
            nbr, stamp = op[1], now - op[2]
            for t in (table, ref):
                entry = t._entries.get(nbr)
                if entry is None:
                    t._entries[nbr] = NeighborEntry(nbr, stamp)
                else:
                    entry.last_seen = stamp
                t._oldest = -math.inf  # the reset NeighborTable documents
        assert all(e.last_seen >= table._oldest for e in table._entries.values())
        assert _rows(table) == _rows(ref)
    assert table.purge(now, 3.5) == ref.purge(now, 3.5)
    assert _rows(table) == _rows(ref)


def test_purge_skips_the_scan_while_the_bound_holds():
    """Refreshes lower the bound only; a scan raises it to the oldest
    surviving stamp, so the next purges return without a scan."""
    table = NeighborTable()
    table.update_hello(1, (), 1.0)
    table.update_hello(2, (), 2.0)
    assert table._oldest == 1.0
    table.update_hello(1, (), 3.0)
    assert table._oldest == 1.0  # still a bound, no longer tight
    assert table.purge(4.6, 3.5) == 0  # 4.6 - 1.0 > 3.5: scanned
    assert table._oldest == 2.0
    table._entries.clear()  # past the table: a scan would find nothing
    table._entries[9] = NeighborEntry(9, 0.0)
    assert table.purge(5.0, 3.5) == 0  # 5.0 - 2.0 <= 3.5: no scan
    assert 9 in table


def test_a_mark_on_an_unknown_neighbor_lowers_the_bound_to_its_stamp():
    table = NeighborTable()
    table.update_hello(1, (), 10.0)
    table.mark_forwarder(2, SESSION)
    assert table.entry(2).last_seen == 0.0 and table._oldest == 0.0
    assert table.purge(10.5, 3.5) == 1 and 2 not in table
    assert table._oldest == 10.0
