"""Centralized multicast-tree reference algorithms.

These are the yardsticks of Fig. 1 and the centralized heuristics the
related work (ref. [3], Jia/Li/Hung) proposes; MTMRP is the *distributed*
answer to the same minimum-transmission objective.  Everything here
operates on the unit-disk connectivity graph of Sec. III
(:func:`repro.net.topology.connectivity_graph`).

The MTMR cost model (Sec. III): a solution is a **transmitter set**
``T ∋ source`` such that ``G[T]`` is connected and every receiver is in
``T`` or adjacent to it; its cost is ``|T|`` transmissions — the broadcast
advantage makes leaves free.

* :mod:`repro.trees.validate` — the formal feasibility predicate, cost
  accounting, and a brute-force optimum for small instances (test oracle);
* :mod:`repro.trees.spt` — shortest-path multicast tree (Fig. 1a);
* :mod:`repro.trees.steiner` — KMB 2-approximate Steiner tree, minimising
  *edge* cost (Fig. 1b);
* :mod:`repro.trees.mintx` — minimum-*transmission* heuristics
  (Fig. 1c): Node-Join-Tree, Tree-Join-Tree and a coverage-greedy
  variant, in the spirit of ref. [3];
* :mod:`repro.trees.exact` — a cut-generation ILP giving *provably
  optimal* transmitter sets on small/medium instances (extension).
"""

from repro.trees.validate import (
    brute_force_min_transmitters,
    is_valid_transmitter_set,
    transmitters_of_tree,
    tree_transmission_count,
)
from repro.trees.spt import shortest_path_tree
from repro.trees.steiner import kmb_steiner_tree
from repro.trees.mintx import (
    greedy_cover_transmitters,
    node_join_tree,
    tree_join_tree,
)

__all__ = [
    "is_valid_transmitter_set",
    "brute_force_min_transmitters",
    "exact_min_transmitters",
    "ExactSolverError",
    "transmitters_of_tree",
    "tree_transmission_count",
    "shortest_path_tree",
    "kmb_steiner_tree",
    "node_join_tree",
    "tree_join_tree",
    "greedy_cover_transmitters",
]


def __getattr__(name: str):
    # the exact solver pulls in scipy's MILP (~0.5 s); import it on first
    # use, so the feasibility checks every checked run makes stay cheap
    if name in ("exact_min_transmitters", "ExactSolverError"):
        from repro.trees import exact

        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
