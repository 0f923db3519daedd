"""Exact minimum-transmission multicast via integer programming.

The MTMR problem (Sec. III) as an ILP over binary transmitter indicators
``x_v``:

    minimize    sum_v x_v
    subject to  x_source = 1
                sum_{u in N[r]} x_u >= 1          for every receiver r
                <connectivity of the chosen set>

Connectivity cannot be written compactly, so we use *lazy cut generation*
(the standard approach for connected-subgraph ILPs): solve the relaxed
problem, and if the chosen transmitter set is disconnected, add a cut
requiring every off-source component ``C`` to open at least one node in
its graph neighborhood ``N(C) \\ C``:

    sum_{u in N(C) \\ C} x_u  >=  x_v     for every v in C

(we add the aggregated form ``sum_{u in N(C)\\C} x_u >= 1`` which is valid
because the incumbent forces some ``x_v = 1`` in C, and re-separation
handles any new disconnected incumbent).  The loop terminates because
each cut eliminates at least the current incumbent and the solution space
is finite.

Because ``scipy.optimize.milp`` cannot accept lazy constraints, every cut
round re-solves the MILP from scratch; this keeps the method practical for
small-to-medium instances (tens of nodes: on a 6x6 grid with 8 receivers,
seed 7 solves in ~9-13 s and seed 3 in ~28-32 s on a 2-vCPU host), which
is enough to gauge how far the heuristics and the distributed protocol
are from a true optimum — an extension the paper itself doesn't have.
For larger instances use the polynomial heuristics in
:mod:`repro.trees.mintx`.
Requires ``scipy >= 1.9``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.trees.validate import is_valid_transmitter_set

__all__ = ["exact_min_transmitters", "ExactSolverError"]


class ExactSolverError(RuntimeError):
    """Raised when the MILP solver fails or iterates past its budget."""


def _components_off_source(g: nx.Graph, chosen: Set[int], source: int) -> list[Set[int]]:
    """Connected components of g[chosen] that do not contain the source."""
    sub = g.subgraph(chosen)
    return [set(c) for c in nx.connected_components(sub) if source not in c]


def exact_min_transmitters(
    g: nx.Graph,
    source: int,
    receivers: Iterable[int],
    max_cut_rounds: int = 200,
    time_limit: Optional[float] = None,
) -> Set[int]:
    """Optimal transmitter set for ``(g, source, receivers)``.

    Parameters
    ----------
    max_cut_rounds:
        Upper bound on connectivity-cut iterations.
    time_limit:
        Per-MILP time limit in seconds (scipy option), if any.

    Raises
    ------
    nx.NetworkXNoPath
        If some receiver is unreachable from the source.
    ExactSolverError
        On solver failure or cut-budget exhaustion.
    """
    r = set(receivers)
    nodes = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    if source not in idx:
        raise ValueError(f"source {source} not in graph")
    missing = r - set(idx)
    if missing:
        raise ValueError(f"receivers not in graph: {sorted(missing)}")
    comp = nx.node_connected_component(g, source)
    unreachable = r - comp
    if unreachable:
        raise nx.NetworkXNoPath(f"receivers unreachable: {sorted(unreachable)}")

    c = np.ones(n)
    integrality = np.ones(n)
    lb = np.zeros(n)
    ub = np.ones(n)
    lb[idx[source]] = 1.0  # the source always transmits

    # coverage rows: every receiver has a transmitter in its closed
    # neighborhood
    rows = []
    for recv in sorted(r):
        row = np.zeros(n)
        row[idx[recv]] = 1.0
        for u in g.neighbors(recv):
            row[idx[u]] = 1.0
        rows.append(row)
    constraints = [LinearConstraint(np.array(rows), lb=1.0)] if rows else []

    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit

    for _round in range(max_cut_rounds):
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options=options,
        )
        if res.status != 0 or res.x is None:
            raise ExactSolverError(f"MILP failed: status={res.status} ({res.message})")
        chosen = {nodes[i] for i in range(n) if res.x[i] > 0.5}
        bad = _components_off_source(g, chosen, source)
        if not bad:
            assert is_valid_transmitter_set(g, chosen, source, r)
            return chosen
        # add one neighborhood cut per disconnected component
        cut_rows = []
        for compo in bad:
            boundary = {u for v in compo for u in g.neighbors(v)} - compo
            # Per-node neighborhood cuts:
            #   sum_{u in N(C)\C} x_u  >=  x_v     for every v in C.
            # Valid: in any connected solution containing v, the path from
            # v to the source must exit C through a boundary node.  The
            # incumbent (whole C on, boundary off) violates every one of
            # them, so each round makes progress.
            base = np.zeros(n)
            for u in boundary:
                base[idx[u]] = 1.0
            for v in compo:
                lhs = base.copy()
                lhs[idx[v]] -= 1.0
                cut_rows.append(lhs)
        constraints = constraints + [LinearConstraint(np.array(cut_rows), lb=0.0)]
    raise ExactSolverError(f"cut generation did not converge in {max_cut_rounds} rounds")
