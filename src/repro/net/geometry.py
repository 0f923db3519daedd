"""Deployment geometry: a spatial-hash (cell-list) neighbor index.

All-pairs ``(n, n)`` distance/power matrices cost O(n²) time *and*
memory — at 2000 nodes that is ~230 MB and a third of a second per
construction, which caps the Monte-Carlo sweeps at a few hundred nodes.
This module provides the O(n·k) replacement: nodes are hashed into square
cells of side ``cell_size`` (chosen = the candidate radius), and each
node's neighbor candidates are exactly the members of its 3×3 cell block.
For a disk-reachability model with radius ≤ ``cell_size`` the block
provably contains every neighbor.

Everything is vectorised NumPy — candidate pairs for *all* nodes are
generated in a single array pass over all nine cell offsets at once
(one ``searchsorted`` against the broadcast ``src x offsets`` key grid),
not per-node or per-offset Python loops, so construction at 200 nodes is
several times faster than the all-pairs matrix despite being
asymptotically better, not just smaller.

Determinism contract: candidate distances are computed as
``sqrt(dx·dx + dy·dy)`` and pairs come sorted by ``(i, j)``, so any pure
function of them — received powers, propagation delays, trace digests —
is bit-identical to the same function of
:func:`repro.net.topology.pairwise_distances`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["SpatialHash", "pair_distances"]


def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Vectorised ``concatenate([arange(s, s+l) for s, l in zip(starts, lens)])``.

    Standard cumsum trick: build an array of ones, patch the element at
    every range boundary so the running sum restarts at ``starts[k]``.
    All ``lens`` must be >= 1.
    """
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    out = np.ones(total, dtype=np.intp)
    boundaries = np.cumsum(lens)[:-1]
    out[0] = starts[0]
    if boundaries.size:
        out[boundaries] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


class SpatialHash:
    """Cell-list over an ``(n, 2)`` position array.

    Cells are addressed by a collision-free flat key: cell coordinates are
    shifted to start at 1 and flattened with a row stride of ``ncy + 2``,
    so every ±1 neighbor offset stays inside the padded coordinate box and
    two distinct cells can never alias.
    """

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        self.positions = positions
        self.cell_size = float(cell_size)
        n = len(positions)
        cells = np.floor(positions / self.cell_size).astype(np.int64)
        if n:
            mins = cells.min(axis=0)
        else:  # pragma: no cover - degenerate empty deployment
            mins = np.zeros(2, dtype=np.int64)
        cells -= mins - 1  # shift into [1, nc*]
        stride = int(cells[:, 1].max()) + 2 if n else 2
        self._stride = stride
        #: flat cell key per node
        self.keys = cells[:, 0] * stride + cells[:, 1]
        #: node ids sorted by cell key (stable, so ids ascend within a cell)
        self.order = np.argsort(self.keys, kind="stable")
        sorted_keys = self.keys[self.order]
        self.uniq_keys, starts = np.unique(sorted_keys, return_index=True)
        self.starts = starts
        self.counts = np.diff(np.append(starts, n))
        #: the nine flat key offsets of a 3×3 cell block
        self._offsets = np.array(
            [dx * stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
            dtype=self.keys.dtype if n else np.int64,
        )

    # ------------------------------------------------------------------ #
    def candidate_pairs(self, src: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All directed candidate pairs ``(i, j)`` with ``i`` in ``src`` and
        ``j`` in the 3×3 cell block of ``i`` (``j != i``), sorted by
        ``(i, j)`` ascending.

        One pass: the ``len(src) x 9`` grid of wanted cell keys is
        flattened and resolved with a single ``searchsorted``; members of
        every hit cell are gathered with one vectorised range-concat.
        (Pairs are unique — each ``j`` lives in exactly one cell — so the
        final ``(i, j)`` sort is deterministic regardless of gather order.)
        """
        if src.size == 0 or self.uniq_keys.size == 0:
            e = np.empty(0, dtype=np.intp)
            return e, e
        targets = (self.keys[src][:, None] + self._offsets[None, :]).ravel()
        pos = np.minimum(
            np.searchsorted(self.uniq_keys, targets), self.uniq_keys.size - 1
        )
        found = self.uniq_keys[pos] == targets
        p = pos[found]
        if p.size == 0:
            e = np.empty(0, dtype=np.intp)
            return e, e
        lens = self.counts[p]
        i = np.repeat(np.repeat(src, 9)[found], lens)
        j = self.order[_concat_ranges(self.starts[p], lens)]
        keep = i != j
        i, j = i[keep], j[keep]
        # (i, j) ascending via one combined-key argsort — pairs are unique
        # and ids fit comfortably in 31 bits, so (i << 32) | j is a
        # collision-free total order and ~10x cheaper than np.lexsort.
        by_pair = np.argsort((i.astype(np.int64) << 32) | j)
        return i[by_pair], j[by_pair]

    def block_members(self, node_ids: np.ndarray) -> np.ndarray:
        """Ids of every node inside the 3×3 cell blocks of ``node_ids``."""
        if node_ids.size == 0 or self.uniq_keys.size == 0:
            return np.empty(0, dtype=np.intp)
        want = np.unique(self.keys[node_ids][:, None] + self._offsets[None, :])
        pos = np.searchsorted(self.uniq_keys, want)
        pos_c = np.minimum(pos, self.uniq_keys.size - 1)
        found = self.uniq_keys[pos_c] == want
        if not found.any():
            return np.empty(0, dtype=np.intp)
        p = pos_c[found]
        return self.order[_concat_ranges(self.starts[p], self.counts[p])]


def pair_distances(
    grid: SpatialHash, src: np.ndarray, positions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs of ``src`` with their Euclidean distances.

    The distance is evaluated exactly as
    :func:`repro.net.topology.pairwise_distances` does (``sqrt(dx² + dy²)``
    with the x-term first), keeping every derived quantity bit-identical
    to an all-pairs computation.
    """
    i, j = grid.candidate_pairs(src)
    if i.size == 0:
        return i, j, np.empty(0, dtype=float)
    diff = positions[i] - positions[j]
    d = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
    return i, j, d
