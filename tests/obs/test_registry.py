"""CounterRegistry: trace-derived counters, gauges, exports."""

import json

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_single
from repro.net.packet import reset_uids
from repro.obs import (
    CounterRegistry,
    counters_from_trace,
    counters_json,
    parse_prometheus_text,
    prometheus_text,
)
from repro.sim.trace import TraceKind, TraceRecorder


def _emit_fixture(trace):
    trace.emit(0.0, TraceKind.TX, 1, "JoinQuery")
    trace.emit(0.1, TraceKind.TX, 2, "JoinQuery")
    trace.emit(0.2, TraceKind.TX, 2, "DataPacket")
    trace.emit(0.3, TraceKind.RX, 3, "DataPacket")
    trace.emit(0.4, TraceKind.DELIVER, 3, "DataPacket")
    trace.emit(0.5, TraceKind.NOTE, 2, "PathHandover")
    trace.emit(0.6, TraceKind.MARK, 2, "Forwarder")
    trace.emit(0.7, TraceKind.TX, 4, "RouteError")


def test_counters_from_trace_names_and_values():
    trace = TraceRecorder()
    _emit_fixture(trace)
    c = counters_from_trace(trace)
    assert c["tx"] == 4  # 2 JoinQuery + 1 Data + 1 RouteError
    assert c["join_query_tx"] == 2
    assert c["data_tx"] == 1
    assert c["route_error_tx"] == 1
    assert c["rx"] == 1
    assert c["delivers"] == 1
    assert c["phs_prunes"] == 1
    assert c["forwarder_marks"] == 1
    assert c["collisions"] == 0


def test_counters_work_in_counters_only_mode():
    trace = TraceRecorder(enabled_kinds=())
    _emit_fixture(trace)
    assert trace.records == []
    c = counters_from_trace(trace)
    assert c["tx"] == 4 and c["delivers"] == 1


def test_registry_refresh_from_live_run():
    reset_uids()
    reg = CounterRegistry()
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=3)
    trace = TraceRecorder()
    result = run_single(cfg, trace=trace, cache=False)
    reg.bind()  # no-op binding is allowed
    reg._trace = trace
    reg.refresh()
    assert reg.counters["join_query_tx"] == result.join_query_tx
    assert reg.counters["join_reply_tx"] == result.join_reply_tx
    assert reg.counters["delivers"] >= result.delivered


def test_inc_and_set_gauge():
    reg = CounterRegistry()
    reg.inc("tx", 3)
    reg.inc("custom_metric")
    reg.set_gauge("depth", 7)
    assert reg.counters["tx"] == 3
    assert reg.counters["custom_metric"] == 1
    assert reg.gauges["depth"] == 7.0
    flat = reg.as_dict()
    assert flat["custom_metric"] == 1 and flat["depth"] == 7.0


def test_table_lists_counters_and_gauges():
    reg = CounterRegistry()
    reg.inc("tx", 5)
    reg.set_gauge("energy_joules", 0.25)
    text = reg.table()
    assert "tx" in text and "5" in text
    assert "energy_joules" in text and "(gauge)" in text


def test_prometheus_text_format_and_roundtrip():
    reg = CounterRegistry()
    reg.inc("tx", 42)
    reg.set_gauge("energy_joules", 1.5)
    text = prometheus_text(reg, labels={"protocol": "mtmrp", "seed": 7})
    assert '# TYPE repro_tx counter' in text
    assert '# TYPE repro_energy_joules gauge' in text
    assert 'protocol="mtmrp"' in text and 'seed="7"' in text
    parsed = parse_prometheus_text(text)
    assert parsed["repro_tx"] == 42.0
    assert parsed["repro_energy_joules"] == 1.5


def test_prometheus_label_escaping():
    reg = CounterRegistry()
    reg.inc("tx")
    text = prometheus_text(reg, labels={"note": 'say "hi" \\ there'})
    assert r'\"hi\"' in text
    parse_prometheus_text(text)  # still parseable


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus_text("not-a-metric-line-without-value\n ")


def test_counters_json_carries_metadata():
    reg = CounterRegistry()
    reg.inc("tx", 9)
    payload = json.loads(counters_json(reg, seed=5, protocol="odmrp"))
    assert payload["seed"] == 5 and payload["protocol"] == "odmrp"
    assert payload["counters"]["tx"] == 9
    assert "gauges" in payload


# --------------------------------------------------------------------- #
# per-session delivery attribution
# --------------------------------------------------------------------- #
def _emit_session_fixture(trace):
    # DELIVER details carry the flow key (source, group, seq)
    trace.emit(0.1, TraceKind.DELIVER, 3, "DataPacket", (0, 1, 0))
    trace.emit(0.2, TraceKind.DELIVER, 4, "DataPacket", (0, 1, 1))
    trace.emit(0.3, TraceKind.DELIVER, 5, "DataPacket", (7, 2, 0))
    trace.emit(0.4, TraceKind.DELIVER, 5, "DataPacket", None)  # no flow info
    trace.emit(0.5, TraceKind.TX, 0, "DataPacket", (0, 1, 0))  # not a DELIVER


def test_session_counters_attribute_delivers_per_flow():
    from repro.obs import session_counters

    trace = TraceRecorder()
    _emit_session_fixture(trace)
    assert session_counters(trace) == {
        "session_delivers.0.1": 2,
        "session_delivers.7.2": 1,
    }


def test_session_counters_empty_without_stored_records():
    from repro.obs import session_counters

    trace = TraceRecorder(enabled_kinds=())
    _emit_session_fixture(trace)
    assert session_counters(trace) == {}


def test_refresh_merges_session_counters():
    reg = CounterRegistry()
    trace = TraceRecorder()
    _emit_session_fixture(trace)
    reg._trace = trace
    reg.refresh()
    assert reg.counters["session_delivers.0.1"] == 2
    assert reg.counters["session_delivers.7.2"] == 1
    # the flat aggregate still counts every delivery, attributed or not
    assert reg.counters["delivers"] == 4


def test_session_counters_from_live_multisession_run():
    from repro.obs import session_counters
    from repro.traffic.spec import SessionSpec

    reset_uids()
    cfg = SimulationConfig(
        protocol="mtmrp", topology="grid", grid_nx=5, grid_ny=5,
        side=100.0, seed=13, mac="ideal",
        sessions=(
            SessionSpec(source=0, group=1, group_size=4, n_packets=2),
            SessionSpec(source=24, group=2, group_size=4, start=0.4, n_packets=2),
        ),
    )
    trace = TraceRecorder()
    result = run_single(cfg, trace=trace, cache=False)
    c = session_counters(trace)
    assert set(c) == {"session_delivers.0.1", "session_delivers.24.2"}
    # every reached receiver delivers each of its session's packets
    per_flow = {s.flow: s.delivered for s in result.traffic.sessions}
    assert c["session_delivers.0.1"] == 2 * per_flow[(0, 1)]
    assert c["session_delivers.24.2"] == 2 * per_flow[(24, 2)]
