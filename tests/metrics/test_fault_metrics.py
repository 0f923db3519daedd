"""Fault metrics on hand-built traces and tiny topologies."""

import numpy as np
import pytest

from repro.metrics.faults import (
    collect_fault_metrics,
    deliveries_by_seq,
    delivery_ratio,
    fault_timeline,
    first_partition_time,
    recovery_latency,
)
from repro.net.topology import connectivity_graph
from repro.sim.trace import TraceKind, TraceRecorder


def _trace(deliveries=(), faults=()):
    """deliveries: (time, node, seq); faults: (time, node, kind)."""
    t = TraceRecorder()
    for time, node, seq in deliveries:
        t.emit(time, TraceKind.DELIVER, node, "DataPacket", (0, 1, seq))
    for time, node, kind in faults:
        t.emit(time, TraceKind.NOTE, node, "Fault", (kind, "plan"))
    t.records.sort(key=lambda r: r.time)
    return t


def test_fault_timeline_reads_note_records():
    t = _trace(faults=[(1.0, 3, "crash"), (2.0, 3, "recover")])
    assert fault_timeline(t) == [(1.0, 3, "crash"), (2.0, 3, "recover")]
    assert fault_timeline(_trace()) == []


def test_deliveries_by_seq_filters_and_sorts():
    t = _trace(deliveries=[(2.0, 5, 1), (1.0, 4, 1), (0.5, 4, 0), (3.0, 9, 0)])
    out = deliveries_by_seq(t, receivers=[4, 5])
    assert out == {0: [(0.5, 4)], 1: [(1.0, 4), (2.0, 5)]}
    # wrong (source, group) is ignored
    t2 = TraceRecorder()
    t2.emit(1.0, TraceKind.DELIVER, 4, "DataPacket", (7, 1, 0))
    assert deliveries_by_seq(t2, receivers=[4]) == {}


def test_delivery_ratio():
    t = _trace(deliveries=[(1.0, 4, 0), (1.0, 5, 0), (2.0, 4, 1)])
    assert delivery_ratio(t, [4, 5], [0, 1]) == pytest.approx(0.75)
    assert delivery_ratio(t, [4, 5], [0]) == 1.0
    assert delivery_ratio(t, [], [0]) == 1.0
    # duplicate deliveries of one packet at one node count once
    t2 = _trace(deliveries=[(1.0, 4, 0), (1.5, 4, 0)])
    assert delivery_ratio(t2, [4, 5], [0]) == pytest.approx(0.5)


def test_recovery_latency_threshold_semantics():
    # crash at t=1; seq 1 sent at 1.2 reaches both survivors by t=1.8
    t = _trace(deliveries=[(0.5, 4, 0), (0.5, 5, 0), (1.5, 4, 1), (1.8, 5, 1)])
    send_times = {0: 0.0, 1: 1.2}
    lat = recovery_latency(t, [4, 5], crash_time=1.0, send_times=send_times)
    assert lat == pytest.approx(0.8)  # both needed at threshold 0.9
    # at threshold 0.5 the first survivor suffices
    lat_half = recovery_latency(
        t, [4, 5], crash_time=1.0, send_times=send_times, threshold=0.5
    )
    assert lat_half == pytest.approx(0.5)
    # pre-crash packets never count
    assert recovery_latency(t, [4, 5], 2.0, send_times) is None
    # surviving set restricts the demand
    lat_s = recovery_latency(
        t, [4, 5], 1.0, send_times, surviving={4}
    )
    assert lat_s == pytest.approx(0.5)
    assert recovery_latency(t, [4, 5], 1.0, send_times, surviving=set()) is None


def test_first_partition_time_on_a_line():
    # 0 - 1 - 2 - 3, range covers adjacent pairs only
    g = connectivity_graph(np.array([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0], [60.0, 0.0]]), 25.0)
    # killing the bridge (1) cuts receivers 2 and 3 off
    assert first_partition_time(g, 0, [2, 3], [(5.0, 1)]) == 5.0
    # killing a receiver only shrinks the demand: no partition
    assert first_partition_time(g, 0, [2, 3], [(5.0, 3)]) is None
    # until the last receiver dies, then the bridge kill at t=7 cuts node 2
    assert first_partition_time(g, 0, [2, 3], [(5.0, 3), (7.0, 1)]) == 7.0
    # a crashed source partitions immediately
    assert first_partition_time(g, 0, [2], [(3.0, 0)]) == 3.0
    # all receivers dead: nothing left to demand
    assert first_partition_time(g, 0, [2], [(3.0, 2), (4.0, 1)]) is None


def test_collect_fault_metrics_end_to_end():
    g = connectivity_graph(np.array([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0], [60.0, 0.0]]), 25.0)
    t = _trace(
        deliveries=[
            (0.1, 2, 0), (0.1, 3, 0),           # seq 0: everyone
            (1.4, 2, 1),                         # seq 1 (post-crash): node 2
        ],
        faults=[(1.0, 3, "crash")],
    )
    fm = collect_fault_metrics(
        t, g, receivers=[2, 3], send_times={0: 0.0, 1: 1.2}, threshold=0.9
    )
    assert fm.crashes == 1 and fm.packets_sent == 2
    assert fm.pre_fault_delivery == 1.0
    assert fm.post_fault_delivery == 1.0  # node 3 died; survivor 2 got seq 1
    assert fm.delivery_ratio == pytest.approx(0.75)
    assert fm.recovery_latency == pytest.approx(0.4)
    assert fm.time_to_first_partition is None


def test_collect_fault_metrics_without_faults():
    t = _trace(deliveries=[(0.1, 2, 0)])
    fm = collect_fault_metrics(
        t, connectivity_graph(np.zeros((3, 2)), 25.0), receivers=[2], send_times={0: 0.0}
    )
    assert fm.crashes == 0
    assert fm.delivery_ratio == 1.0
    assert fm.recovery_latency is None and fm.time_to_first_partition is None
