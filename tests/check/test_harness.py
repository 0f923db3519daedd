"""CheckHarness wiring, modes, and the RouteError checkpoint."""

from __future__ import annotations

import pytest

from repro.check import CheckHarness, InvariantViolation
from repro.check.harness import INVARIANTS
from repro.experiments.config import SimulationConfig, make_agent_factory
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind, TraceRecorder

from tests.conftest import make_grid_network


def attached(mode="collect", **kwargs):
    sim = Simulator(seed=11)
    harness = CheckHarness(mode=mode, **kwargs)
    harness.attach(sim, context="unit-test run")
    return sim, harness


class TestWiring:
    def test_attach_twice_rejected(self):
        sim, harness = attached()
        with pytest.raises(RuntimeError, match="twice"):
            harness.attach(sim)

    def test_missing_trace_kinds_rejected(self):
        sim = Simulator(seed=1, trace=TraceRecorder(enabled_kinds={TraceKind.TX}))
        with pytest.raises(ValueError, match="trace kinds"):
            CheckHarness().attach(sim)

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError, match="unknown invariants"):
            CheckHarness(invariants=["no-such-invariant"])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            CheckHarness(mode="explode")

    def test_checkpoint_before_attach_rejected(self):
        with pytest.raises(RuntimeError, match="attach"):
            CheckHarness().checkpoint("early")

    def test_seed_recorded_from_simulator(self):
        sim, harness = attached()
        assert harness.seed == 11

    def test_detach_restores_plain_emit(self):
        sim, harness = attached()
        assert "emit" in sim.trace.__dict__  # watcher shadow installed
        harness.detach()
        assert "emit" not in sim.trace.__dict__  # back to the class method


def emit_backwards_trace(sim):
    """Two records with decreasing timestamps: a guaranteed violation."""
    sim.trace.emit(1.0, TraceKind.TX, 0, "DataPacket", None)
    sim.trace.emit(0.5, TraceKind.TX, 1, "DataPacket", None)


class TestModes:
    def test_raise_mode_raises_first_violation(self):
        sim, harness = attached(mode="raise")
        emit_backwards_trace(sim)
        with pytest.raises(InvariantViolation) as exc_info:
            harness.checkpoint("end-of-run")
        exc = exc_info.value
        assert exc.invariant == "trace-time-monotone"
        assert exc.seed == 11
        assert exc.checkpoint == "end-of-run"

    def test_violation_message_carries_repro_recipe(self):
        sim, harness = attached(mode="raise")
        emit_backwards_trace(sim)
        with pytest.raises(InvariantViolation) as exc_info:
            harness.checkpoint("end-of-run")
        msg = str(exc_info.value)
        assert "seed=11" in msg
        assert "checkpoint='end-of-run'" in msg
        assert "unit-test run" in msg

    def test_collect_mode_accumulates(self):
        sim, harness = attached(mode="collect")
        emit_backwards_trace(sim)
        violations = harness.checkpoint("end-of-run")
        assert len(violations) == 1
        assert not harness.report.ok
        assert harness.report.checkpoints == ["end-of-run"]
        assert "trace-time-monotone=1" in harness.report.summary()

    def test_clean_report_summary(self):
        sim, harness = attached()
        harness.checkpoint("end-of-run")
        assert harness.report.ok
        assert harness.report.summary().startswith("ok")

    def test_invariant_subset_disables_others(self):
        sim, harness = attached(invariants=["silent-when-down"])
        emit_backwards_trace(sim)  # monotonicity breach, but not selected
        assert harness.checkpoint("end-of-run") == []

    def test_all_invariant_names_selectable(self):
        for name in INVARIANTS:
            CheckHarness(invariants=[name])


class TestRouteErrorCheckpoint:
    def _run(self, harness):
        """3x3 grid multicast round, then a hand-reported route failure."""
        sim = harness._sim
        net = make_grid_network(sim, nx=3, ny=3, side=60)
        receivers = [8]
        net.set_group_members(1, receivers)
        net.bootstrap_neighbor_tables()
        cfg = SimulationConfig(
            protocol="mtmrp", topology="grid", grid_nx=3, grid_ny=3,
            side=60.0, group_size=1,
        )
        agents = net.install(make_agent_factory(cfg))
        net.start()
        harness.bind_network(net, agents, 0, 1, receivers)
        agents[0].request_route(1)
        sim.run(until=3.0)
        agents[0].send_data(1, 0)
        sim.run(until=4.0)
        sim.schedule(0.5, agents[8].report_route_failure, 0, 1, 4)
        sim.run(until=8.0)
        return agents

    def test_route_error_triggers_checkpoint(self):
        _, harness = attached(mode="collect")
        self._run(harness)
        assert "route-error" in harness.report.checkpoints
        assert harness.report.ok  # a legitimate RouteError is not a violation

    def test_route_error_checkpoint_can_be_disabled(self):
        _, harness = attached(mode="collect", on_route_error=False)
        self._run(harness)
        assert "route-error" not in harness.report.checkpoints

    def test_route_error_debounced_per_instant(self):
        _, harness = attached(mode="collect")
        self._run(harness)
        # the flood rebroadcasts fan out over distinct instants, but far
        # fewer checkpoints than RouteError transmissions must result
        n_err_tx = sum(
            1
            for r in harness._sim.trace.records
            if r.kind is TraceKind.TX and r.packet_type == "RouteError"
        )
        n_checkpoints = harness.report.checkpoints.count("route-error")
        assert 1 <= n_checkpoints <= n_err_tx


class TestViolationPickling:
    """Checked runs' reports cross the process-pool boundary."""

    def test_round_trip_keeps_every_field(self):
        import pickle

        from repro.check.violations import Finding

        cfg = SimulationConfig(seed=5)
        v = InvariantViolation(
            Finding("seq-monotone", "seq went backwards", time=1.25, node=7),
            seed=5, checkpoint="end-of-run", context=cfg,
        )
        w = pickle.loads(pickle.dumps(v))
        assert (w.invariant, w.time, w.node, w.seed, w.checkpoint, w.context) == (
            "seq-monotone", 1.25, 7, 5, "end-of-run", cfg,
        )
        assert str(w) == str(v)
