"""Node deployments and unit-disk connectivity.

Reproduces the two deployments of Sec. V-A:

* **grid**: ``nx x ny`` nodes uniformly placed over the square field
  (10x10 over 200x200 m in the paper), node 0 at the origin — which is
  also where the paper positions the multicast source;
* **random**: ``n`` nodes uniformly distributed (ns-2's ``setdest`` output
  for a static scene — substitution S4), with node 0 pinned to the origin
  so the source sits at (0, 0) as in the paper.

All geometry is vectorised NumPy.  The connectivity helpers find their
pairs on the spatial-hash cell list of :mod:`repro.net.geometry` at every
size (random deployments check connectivity once per draw), and
:func:`link_graph` is the one edge builder: :func:`connectivity_graph`
feeds it unit-disk rows, :meth:`repro.net.network.Network.graph` the
channel's links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.geometry import SpatialHash, pair_distances

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "grid_topology",
    "random_topology",
    "pairwise_distances",
    "neighbors_within_range",
    "connectivity_graph",
    "link_graph",
    "is_connected_to_source",
]


def grid_topology(nx_nodes: int = 10, ny_nodes: int = 10, side: float = 200.0) -> np.ndarray:
    """Uniform grid of ``nx_nodes * ny_nodes`` positions over a ``side``-m square.

    Node ids are row-major starting at the origin corner: node 0 is at
    (0, 0) — the paper's source position.  Returns an ``(n, 2)`` float
    array of coordinates in meters.
    """
    if nx_nodes < 1 or ny_nodes < 1:
        raise ValueError("grid dimensions must be >= 1")
    xs = np.linspace(0.0, side, nx_nodes) if nx_nodes > 1 else np.array([0.0])
    ys = np.linspace(0.0, side, ny_nodes) if ny_nodes > 1 else np.array([0.0])
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    return np.column_stack([gx.ravel(), gy.ravel()]).astype(float)


def random_topology(
    n: int = 200,
    side: float = 200.0,
    rng: Optional[np.random.Generator] = None,
    pin_origin: bool = True,
    comm_range: Optional[float] = None,
    max_resample: int = 200,
) -> np.ndarray:
    """Uniform random deployment of ``n`` nodes over a ``side``-m square.

    Parameters
    ----------
    pin_origin:
        Place node 0 exactly at (0, 0) so the source matches the paper.
    comm_range:
        If given, resample until node 0 can reach every node (the paper's
        density — 200 nodes, 40 m range — makes the network connected with
        overwhelming probability; resampling only trims the rare
        pathological draw so every Monte-Carlo round measures a feasible
        multicast request).
    """
    if rng is None:
        rng = np.random.default_rng()
    if n < 1:
        raise ValueError("need at least one node")
    for _ in range(max_resample):
        pos = rng.uniform(0.0, side, size=(n, 2))
        if pin_origin:
            pos[0] = (0.0, 0.0)
        if comm_range is None or is_connected_to_source(pos, comm_range, source=0):
            return pos
    raise RuntimeError(
        f"could not draw a connected topology in {max_resample} attempts "
        f"(n={n}, side={side}, range={comm_range})"
    )


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Dense ``(n, n)`` Euclidean distance matrix."""
    pos = np.asarray(positions, dtype=float)
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _pairs(pos: np.ndarray, comm_range: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every directed pair ``(i, j)`` with ``distance <= comm_range``,
    ``i != j``, sorted by ``(i, j)``, found on a spatial-hash cell list.

    The cells are padded by a relative epsilon so a pair at exactly the
    range lands in adjacent cells; the predicate alone decides the edge.
    """
    grid = SpatialHash(pos, comm_range * (1.0 + 1e-9))
    i, j, d = pair_distances(grid, np.arange(len(pos), dtype=np.intp), pos)
    keep = d <= comm_range
    return i[keep], j[keep]


def neighbors_within_range(positions: np.ndarray, comm_range: float) -> List[np.ndarray]:
    """Per-node ascending arrays of neighbor ids (distance <= range, excluding self)."""
    pos = np.asarray(positions, dtype=float)
    i, j = _pairs(pos, comm_range)
    bounds = np.searchsorted(i, np.arange(len(pos) + 1)).tolist()
    return [j[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def link_graph(positions: np.ndarray, rows: Sequence[np.ndarray]) -> "nx.Graph":
    """The undirected graph G=(V, E) of per-node ascending neighbor rows.

    Nodes carry a ``pos`` attribute and edges the Euclidean ``weight``
    (``sqrt(dx² + dy²)``, bit-equal to :func:`pairwise_distances`).
    Edges are added in ``(i, j)`` order, ``i < j``, so every adjacency
    lists its neighbors in ascending id order.
    """
    # imported here, as in every module a simulated run loads: no run
    # builds a graph, and the library costs a process ~0.13 s and ~17 MB
    # (tests/integration/test_import_footprint.py)
    import networkx as nx

    pos = np.asarray(positions, dtype=float)
    g = nx.Graph()
    g.add_nodes_from((k, {"pos": (x, y)}) for k, (x, y) in enumerate(pos.tolist()))
    i = np.repeat(np.arange(len(pos)), [len(r) for r in rows])
    j = np.concatenate(rows)
    up = i < j
    i, j = i[up], j[up]
    diff = pos[i] - pos[j]
    d = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
    g.add_weighted_edges_from(zip(i.tolist(), j.tolist(), d.tolist()))
    return g


def connectivity_graph(positions: np.ndarray, comm_range: float) -> "nx.Graph":
    """Undirected unit-disk graph G=(V, E) of Sec. III (see :func:`link_graph`)."""
    return link_graph(positions, neighbors_within_range(positions, comm_range))


def is_connected_to_source(positions: np.ndarray, comm_range: float, source: int = 0) -> bool:
    """True iff every node is reachable from ``source`` in the disk graph.

    A vectorised BFS over the cell list's pair arrays — avoids building
    a networkx graph in the resampling loop.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    i, j = _pairs(pos, comm_range)
    reached = np.zeros(n, dtype=bool)
    reached[source] = True
    frontier = reached.copy()
    while True:
        nxt = np.zeros(n, dtype=bool)
        nxt[j[frontier[i]]] = True
        nxt &= ~reached
        if not nxt.any():
            return bool(reached.all())
        reached |= nxt
        frontier = nxt
