"""Tests for metric computation."""

import numpy as np
import pytest

from repro.core.mtmrp import MtmrpAgent
from repro.metrics.collect import (
    average_relay_profit,
    collect_metrics,
    data_transmitters,
    extra_nodes,
)
from repro.sim.trace import TraceKind, TraceRecorder
from tests.core.helpers import build, line_positions, run_round


def test_extra_nodes_definition():
    assert extra_nodes({0, 1, 2, 3}, source=0, receivers={3}) == 2
    assert extra_nodes({0}, source=0, receivers={1}) == 0
    assert extra_nodes(set(), source=0, receivers=set()) == 0


def test_data_transmitters_from_trace():
    t = TraceRecorder()
    t.emit(0.0, TraceKind.TX, 0, "DataPacket", 1)
    t.emit(0.0, TraceKind.TX, 4, "DataPacket", 2)
    t.emit(0.0, TraceKind.TX, 4, "JoinQuery", 3)
    assert data_transmitters(t) == {0, 4}


class TestAverageRelayProfit:
    def test_counts_receiver_neighbors(self):
        # line 0-1-2, receiver 2; transmitters {0, 1}: node 1 has one
        # receiver neighbor, node 0 has none -> mean 0.5
        sim, net, agents = build(line_positions(3), 25.0, receivers=[2],
                                 agent_factory=lambda: MtmrpAgent())
        run_round(sim, agents)
        arp = average_relay_profit(net, {0, 1}, {2})
        assert arp == pytest.approx(0.5)

    def test_empty_transmitters(self):
        sim, net, _agents = build(line_positions(3), 25.0, receivers=[2],
                                  agent_factory=lambda: MtmrpAgent())
        assert average_relay_profit(net, set(), {2}) == 0.0

    def test_scales_with_receiver_density(self):
        from repro.net.topology import grid_topology

        sim, net, agents = build(grid_topology(), 40.0, receivers=list(range(1, 61)),
                                 agent_factory=lambda: MtmrpAgent())
        # a central transmitter with 8 neighbors, ~60% receivers
        arp = average_relay_profit(net, {55}, set(range(1, 61)))
        assert 3.0 <= arp <= 8.0


class TestCollect:
    def test_full_collection_on_line(self):
        sim, net, agents = build(line_positions(3), 25.0, receivers=[2],
                                 agent_factory=lambda: MtmrpAgent())
        run_round(sim, agents)
        m = collect_metrics(net, agents, 0, 1, [2])
        assert m.data_transmissions == 2
        assert m.tree_transmissions == 2
        assert m.extra_nodes == 1  # node 1
        assert m.delivered == 1
        assert m.delivery_ratio == 1.0
        assert m.covered_receivers == 1
        assert m.join_query_tx == 3  # every node floods once
        assert m.join_reply_tx >= 1
        assert m.hello_tx == 0  # bootstrap mode
        assert m.energy_joules > 0
        assert m.transmitters == {0, 1}

    def test_tree_equals_data_count_on_perfect_channel(self):
        from repro.net.topology import grid_topology

        rng = np.random.default_rng(3)
        receivers = rng.choice(np.arange(1, 100), size=12, replace=False).tolist()
        sim, net, agents = build(grid_topology(), 40.0, receivers=receivers,
                                 agent_factory=lambda: MtmrpAgent())
        run_round(sim, agents)
        m = collect_metrics(net, agents, 0, 1, receivers)
        assert m.data_transmissions == m.tree_transmissions
        assert m.delivery_ratio == 1.0


class TestColumnarMetrics:
    """``aggregate_columnar`` must mirror ``aggregate`` exactly."""

    def _results(self, n):
        from repro.experiments.config import SimulationConfig
        from repro.experiments.runner import run_many

        cfgs = [
            SimulationConfig(protocol="mtmrp", topology="grid", group_size=10,
                             mac="ideal", seed=s)
            for s in range(n)
        ]
        return run_many(cfgs)

    def test_summary_matches_aggregate_exactly(self):
        from repro.experiments.runner import aggregate, aggregate_columnar
        from repro.metrics.collect import NUMERIC_METRICS

        results = self._results(5)
        summary = aggregate_columnar(results)
        assert list(summary) == list(NUMERIC_METRICS)
        for name, stats in summary.items():
            ref = aggregate(results, name)
            for field in ("mean", "std", "sem", "p50", "p95", "n"):
                assert stats[field] == ref[field], (name, field)

    def test_single_replicate_convention(self):
        """n=1 keeps aggregate's convention: zero spread, NaN percentiles."""
        from repro.experiments.runner import aggregate_columnar

        (stats,) = [aggregate_columnar(self._results(1))["delivery_ratio"]]
        assert stats["std"] == 0.0 == stats["sem"]
        assert np.isnan(stats["p50"]) and np.isnan(stats["p95"])

    def test_unknown_metric_and_empty_rejected(self):
        from repro.experiments.runner import aggregate_columnar

        with pytest.raises(ValueError, match="no results"):
            aggregate_columnar([])
        with pytest.raises(ValueError, match="delivery_ratio"):
            aggregate_columnar(self._results(2), metrics=["no_such_metric"])
