"""Tests for the exact ILP solver (cut generation)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.topology import connectivity_graph, grid_topology
from repro.trees.exact import exact_min_transmitters
from repro.trees.mintx import greedy_cover_transmitters, node_join_tree
from repro.trees.validate import brute_force_min_transmitters, is_valid_transmitter_set


def test_line_graph():
    g = nx.path_graph(5)
    assert exact_min_transmitters(g, 0, [4]) == {0, 1, 2, 3}


def test_star_graph():
    g = nx.star_graph(5)
    assert exact_min_transmitters(g, 0, [1, 2, 3, 4, 5]) == {0}


def test_connectivity_cut_needed():
    """Coverage alone would pick a disconnected set; cuts must repair it.

    Two hubs: source-side hub 1 and a far hub 4 covering both receivers;
    without connectivity constraints {0, 4} would be chosen but 4 is not
    adjacent to 0.
    """
    g = nx.Graph()
    g.add_edges_from([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
    t = exact_min_transmitters(g, 0, [5, 6])
    assert is_valid_transmitter_set(g, t, 0, [5, 6])
    assert t == {0, 1, 2, 3, 4}


def test_unreachable_receiver_raises():
    g = nx.Graph()
    g.add_edge(0, 1)
    g.add_node(9)
    with pytest.raises(nx.NetworkXNoPath):
        exact_min_transmitters(g, 0, [9])


def test_unknown_receiver_rejected():
    g = nx.path_graph(3)
    with pytest.raises(ValueError):
        exact_min_transmitters(g, 0, [42])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=3000))
def test_matches_brute_force_property(seed):
    """Property: the ILP optimum equals the exhaustive optimum."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 60, size=(9, 2))
    g = connectivity_graph(pos, 30.0)
    reachable = list(nx.node_connected_component(g, 0) - {0})
    if len(reachable) < 3:
        return
    recvs = rng.choice(reachable, size=3, replace=False).tolist()
    bf = brute_force_min_transmitters(g, 0, recvs)
    ilp = exact_min_transmitters(g, 0, recvs)
    assert bf is not None
    assert len(ilp) == len(bf)
    assert is_valid_transmitter_set(g, ilp, 0, recvs)


def test_heuristics_lower_bounded_by_optimum():
    """On a 6x6 grid the heuristics can never beat the ILP optimum."""
    g = connectivity_graph(grid_topology(6, 6, 120.0), 40.0)
    rng = np.random.default_rng(7)
    recvs = rng.choice(np.arange(1, 36), size=8, replace=False).tolist()
    opt = exact_min_transmitters(g, 0, recvs, time_limit=30)
    assert is_valid_transmitter_set(g, opt, 0, recvs)
    assert len(greedy_cover_transmitters(g, 0, recvs)) >= len(opt)
    assert len(node_join_tree(g, 0, recvs)) >= len(opt)
