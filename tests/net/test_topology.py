"""Unit + property tests for deployments and connectivity."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.topology import (
    connectivity_graph,
    grid_topology,
    is_connected_to_source,
    neighbors_within_range,
    pairwise_distances,
    random_topology,
)


class TestGrid:
    def test_paper_grid_dimensions(self):
        pos = grid_topology(10, 10, 200.0)
        assert pos.shape == (100, 2)
        assert pos.min() == 0.0 and pos.max() == 200.0

    def test_node0_at_origin(self):
        pos = grid_topology()
        assert tuple(pos[0]) == (0.0, 0.0)

    def test_spacing_uniform(self):
        pos = grid_topology(10, 10, 200.0)
        xs = np.unique(pos[:, 0])
        diffs = np.diff(xs)
        assert np.allclose(diffs, 200.0 / 9)

    def test_single_node_grid(self):
        pos = grid_topology(1, 1, 200.0)
        assert pos.shape == (1, 2)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            grid_topology(0, 5)

    def test_corner_neighborhood_with_paper_range(self):
        """Range 40 m on the 22.2 m grid: corner node reaches its row/col
        neighbors and the diagonal, i.e. exactly 3 nodes."""
        pos = grid_topology()
        nbrs = neighbors_within_range(pos, 40.0)
        assert set(nbrs[0].tolist()) == {1, 10, 11}

    def test_interior_neighborhood_is_eight(self):
        pos = grid_topology()
        nbrs = neighbors_within_range(pos, 40.0)
        interior = 5 * 10 + 5  # node (5, 5)
        assert len(nbrs[interior]) == 8


class TestRandom:
    def test_paper_size_and_field(self):
        pos = random_topology(200, 200.0, rng=np.random.default_rng(1))
        assert pos.shape == (200, 2)
        assert pos.min() >= 0.0 and pos.max() <= 200.0

    def test_source_pinned_at_origin(self):
        pos = random_topology(50, rng=np.random.default_rng(2))
        assert tuple(pos[0]) == (0.0, 0.0)

    def test_no_pin(self):
        rng = np.random.default_rng(3)
        pos = random_topology(50, rng=rng, pin_origin=False)
        assert tuple(pos[0]) != (0.0, 0.0)

    def test_connected_resampling(self):
        pos = random_topology(200, rng=np.random.default_rng(4), comm_range=40.0)
        assert is_connected_to_source(pos, 40.0)

    def test_reproducible(self):
        a = random_topology(30, rng=np.random.default_rng(9))
        b = random_topology(30, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_impossible_connectivity_raises(self):
        with pytest.raises(RuntimeError):
            random_topology(3, 1000.0, rng=np.random.default_rng(0), comm_range=1.0, max_resample=5)


class TestGeometry:
    def test_pairwise_distances_symmetric_zero_diag(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        d = pairwise_distances(pos)
        assert d[0, 1] == pytest.approx(5.0)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_neighbors_exclude_self(self):
        pos = grid_topology(3, 3, 40.0)
        nbrs = neighbors_within_range(pos, 25.0)
        for i, ns in enumerate(nbrs):
            assert i not in ns

    def test_connectivity_graph_matches_neighbor_lists(self):
        pos = grid_topology(5, 5, 100.0)
        g = connectivity_graph(pos, 30.0)
        nbrs = neighbors_within_range(pos, 30.0)
        for i in range(len(pos)):
            assert set(g.neighbors(i)) == set(nbrs[i].tolist())

    def test_graph_has_positions_and_weights(self):
        pos = grid_topology(3, 3, 40.0)
        g = connectivity_graph(pos, 25.0)
        assert g.nodes[4]["pos"] == (20.0, 20.0)
        for _u, _v, d in g.edges(data=True):
            assert d["weight"] > 0

    def test_is_connected_matches_networkx(self):
        pos = random_topology(60, rng=np.random.default_rng(7), pin_origin=True)
        ours = is_connected_to_source(pos, 35.0, source=0)
        g = connectivity_graph(pos, 35.0)
        theirs = nx.node_connected_component(g, 0) == set(g.nodes)
        assert ours == theirs


@settings(max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=25),
    rng_seed=st.integers(min_value=0, max_value=10_000),
    rng_range=st.floats(min_value=5.0, max_value=300.0),
)
def test_disk_graph_edge_iff_distance_property(n, rng_seed, rng_range):
    """Property: (u, v) is an edge iff their distance <= range."""
    rng = np.random.default_rng(rng_seed)
    pos = rng.uniform(0, 100, size=(n, 2))
    g = connectivity_graph(pos, rng_range)
    d = pairwise_distances(pos)
    for u in range(n):
        for v in range(u + 1, n):
            assert g.has_edge(u, v) == (d[u, v] <= rng_range)


def test_cell_list_matches_dense_reference_at_paper_density():
    """800 nodes on a 400 m field, the paper's 5e-3 nodes/m²: every
    connectivity helper agrees with an all-pairs reference."""
    rng = np.random.default_rng(8)
    pos = rng.uniform(0.0, 400.0, size=(800, 2))
    pos[0] = (0.0, 0.0)
    d = pairwise_distances(pos)
    np.fill_diagonal(d, np.inf)
    for r in (40.0, 20.0):
        adj = d <= r
        ref_rows = [np.flatnonzero(row) for row in adj]
        assert all(
            np.array_equal(a, b) for a, b in zip(neighbors_within_range(pos, r), ref_rows)
        )
        g = connectivity_graph(pos, r)
        iu, ju = np.triu_indices(len(pos), k=1)
        within = adj[iu, ju]
        assert list(g.edges(data="weight")) == [
            (i, j, d[i, j]) for i, j in zip(iu[within].tolist(), ju[within].tolist())
        ]
        assert [list(g.adj[k]) for k in g] == [row.tolist() for row in ref_rows]
        reached = np.zeros(len(pos), dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~reached
            reached |= frontier
        assert is_connected_to_source(pos, r) == bool(reached.all()) == (r == 40.0)
