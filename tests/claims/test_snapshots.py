"""Figs. 1, 9 and 10: the tree styles and the single-round routing snapshots."""

import numpy as np

from repro.analysis.stats import mean_ci
from repro.experiments import figures
from repro.net.topology import connectivity_graph, grid_topology
from repro.trees import (
    greedy_cover_transmitters,
    is_valid_transmitter_set,
    kmb_steiner_tree,
    node_join_tree,
    shortest_path_tree,
    transmitters_of_tree,
)

from tests.claims.helpers import RUNS


def test_fig1_transmission_aware_below_steiner_below_spt():
    """Broadcast advantage: on the paper's grid a transmission-aware tree
    needs fewer transmitters than the Steiner tree, which needs fewer than
    the shortest-path tree (paired over receiver draws)."""
    g = connectivity_graph(grid_topology(), 40.0)
    costs = []
    for seed in range(RUNS):
        receivers = np.random.default_rng(seed).choice(np.arange(1, 100), size=20, replace=False).tolist()
        greedy = greedy_cover_transmitters(g, 0, receivers)
        for chosen in (greedy, node_join_tree(g, 0, receivers)):
            assert is_valid_transmitter_set(g, chosen, 0, receivers)
        costs.append((
            len(greedy),
            len(transmitters_of_tree(kmb_steiner_tree(g, 0, receivers), 0)),
            len(transmitters_of_tree(shortest_path_tree(g, 0, receivers), 0)),
        ))
    greedy, steiner, spt = np.array(costs, dtype=float).T
    assert mean_ci(steiner - greedy)["lo"] > 0
    assert mean_ci(spt - steiner)["lo"] > 0


def test_fig9_grid_snapshot_ordering():
    snaps = figures.fig9()
    assert set(snaps) == {"mtmrp", "dodmrp", "odmrp"}
    assert snaps["mtmrp"].receivers == snaps["odmrp"].receivers
    tx = {p: r.data_transmissions for p, r in snaps.items()}
    assert tx["mtmrp"] < tx["dodmrp"] < tx["odmrp"]
    assert all(r.delivery_ratio >= 0.9 for r in snaps.values())


def test_fig10_random_snapshot_matches_caption():
    snaps = figures.fig10()
    assert set(snaps) == {"mtmrp", "dodmrp", "odmrp"}
    assert snaps["mtmrp"].receivers == snaps["odmrp"].receivers
    assert {p: r.data_transmissions for p, r in snaps.items()} == {
        "mtmrp": 16, "dodmrp": 21, "odmrp": 24,
    }
    assert all(r.delivery_ratio >= 0.9 for r in snaps.values())
