"""Per-figure experiment definitions (DESIGN.md §5 experiment index).

Every public function regenerates one figure of the paper's evaluation:

========  ==========================================================
fig5      grid topology, metrics vs multicast group size 5..60
fig6      random topology, metrics vs multicast group size 5..60
fig7      tuning surface: overhead vs (N, w), grid, 20 receivers
fig8      tuning surface: overhead vs (N, w), random, 15 receivers
fig9      single-run routing snapshot, grid, 20 receivers
fig10     single-run routing snapshot, random, 15 receivers
========  ==========================================================

The paper averages over 100 Monte-Carlo rounds; pass ``runs=100`` to
match (defaults are smaller so a regeneration takes minutes — see
EXPERIMENTS.md for full-scale results).  ``tests/claims/`` checks the
paper's claims through these functions at 20 runs per point, and the
``fig5_static`` workload of the end-to-end benchmark (``bench/``) times
``fig5``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.experiments.config import PROTOCOLS, SimulationConfig
from repro.experiments.runner import (
    RunResult,
    aggregate,
    monte_carlo,
    run_many,
    run_single,
)

__all__ = [
    "SweepResult",
    "GROUP_SIZES",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
]

#: x-axis of Figs. 5-6 (multicast group size)
GROUP_SIZES: Tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60)

#: parameter grids of Figs. 7-8
TUNING_N: Tuple[float, ...] = (3.0, 4.0, 5.0, 6.0)
TUNING_W: Tuple[float, ...] = (0.001, 0.005, 0.01, 0.02, 0.03)


@dataclass
class SweepResult:
    """Results of a (protocol x X) sweep, keyed for easy tabulation."""

    xlabel: str
    xs: List[Hashable]
    protocols: List[str]
    runs: Dict[Tuple[str, Hashable], List[RunResult]] = field(default_factory=dict)

    def add(self, protocol: str, x: Hashable, results: List[RunResult]) -> None:
        self.runs[(protocol, x)] = results

    def mean(self, protocol: str, x: Hashable, metric: str) -> float:
        return aggregate(self.runs[(protocol, x)], metric)["mean"]

    def sem(self, protocol: str, x: Hashable, metric: str) -> float:
        return aggregate(self.runs[(protocol, x)], metric)["sem"]

    def series(self, protocol: str, metric: str) -> List[float]:
        return [self.mean(protocol, x, metric) for x in self.xs]


# --------------------------------------------------------------------- #
# one campaign per sweep
# --------------------------------------------------------------------- #
def _run_cells(
    cells: Sequence[Tuple[SimulationConfig, int]], runs: int, workers: Optional[int]
) -> List[List[RunResult]]:
    """``runs`` Monte-Carlo rounds of every ``(config, batch seed)`` cell.

    The whole sweep is one ``run_many`` call, so the pool (when
    ``workers`` resolves above 1; ``None`` takes the host's CPUs) stays
    busy across cells instead of draining at every cell boundary.  Returns
    one result list per cell, in cell order.  ``warm=True`` forks shared
    prefixes where that beats a cold build (auto-gated per config).
    """
    cfgs = [c for cfg, seed in cells for c in monte_carlo(cfg, runs, seed)]
    results = run_many(cfgs, workers=workers, warm=True)
    return [results[i * runs:(i + 1) * runs] for i in range(len(cells))]


# --------------------------------------------------------------------- #
# Figs. 5 and 6 — metrics vs multicast group size
# --------------------------------------------------------------------- #
def _group_size_sweep(
    topology: str,
    group_sizes: Sequence[int],
    runs: int,
    workers: Optional[int],
    batch_seed: int,
    protocols: Sequence[str],
) -> SweepResult:
    sweep = SweepResult(xlabel="group size", xs=list(group_sizes), protocols=list(protocols))
    points = [(proto, gs) for proto in protocols for gs in group_sizes]
    # Same batch seed across protocols -> paired receiver draws, which is
    # how the paper compares protocols round by round.
    cells = [
        (SimulationConfig(protocol=proto, topology=topology, group_size=gs), batch_seed + gs)
        for proto, gs in points
    ]
    for (proto, gs), results in zip(points, _run_cells(cells, runs, workers)):
        sweep.add(proto, gs, results)
    return sweep


def fig5(
    runs: int = 30,
    workers: Optional[int] = None,
    group_sizes: Sequence[int] = GROUP_SIZES,
    batch_seed: int = 500,
    protocols: Sequence[str] = PROTOCOLS,
) -> SweepResult:
    """Fig. 5(a-c): grid topology, 20 -> the three metrics vs group size.

    ``workers=None`` runs the sweep on every usable CPU; ``workers=1``
    keeps it in this process.  Results are identical either way.
    """
    return _group_size_sweep("grid", group_sizes, runs, workers, batch_seed, protocols)


def fig6(
    runs: int = 30,
    workers: Optional[int] = None,
    group_sizes: Sequence[int] = GROUP_SIZES,
    batch_seed: int = 600,
    protocols: Sequence[str] = PROTOCOLS,
) -> SweepResult:
    """Fig. 6(a-c): random topology, the three metrics vs group size."""
    return _group_size_sweep("random", group_sizes, runs, workers, batch_seed, protocols)


# --------------------------------------------------------------------- #
# Figs. 7 and 8 — tuning the system parameters N and w
# --------------------------------------------------------------------- #
def _tuning_sweep(
    topology: str,
    group_size: int,
    runs: int,
    workers: Optional[int],
    batch_seed: int,
    ns: Sequence[float],
    ws: Sequence[float],
    protocols: Sequence[str],
) -> SweepResult:
    """Surface over (N, w).

    Every cell reuses the same batch seed, so cells are *paired*: the same
    topologies and receiver draws everywhere, and only the protocol
    parameters differ.  Baselines don't read N/w, so their configurations
    are normalised to the defaults and each baseline is simulated exactly
    once — its surface is perfectly flat, which is the paper's point.
    """
    xs = [(n, w) for n in ns for w in ws]
    sweep = SweepResult(xlabel="(N, w)", xs=xs, protocols=list(protocols))
    point_cfgs: Dict[Tuple[str, Hashable], SimulationConfig] = {}
    for proto in protocols:
        uses_backoff = proto in ("mtmrp", "mtmrp_nophs")
        for n, w in xs:
            point_cfgs[(proto, (n, w))] = SimulationConfig(
                protocol=proto,
                topology=topology,
                group_size=group_size,
                backoff_n=n if uses_backoff else 4.0,
                backoff_w=w if uses_backoff else 0.001,
            )
    unique = list(dict.fromkeys(point_cfgs.values()))
    results = dict(zip(unique, _run_cells([(c, batch_seed) for c in unique], runs, workers)))
    for (proto, x), cfg in point_cfgs.items():
        sweep.add(proto, x, results[cfg])
    return sweep


def fig7(
    runs: int = 20,
    workers: Optional[int] = None,
    batch_seed: int = 700,
    ns: Sequence[float] = TUNING_N,
    ws: Sequence[float] = TUNING_W,
    protocols: Sequence[str] = PROTOCOLS,
) -> SweepResult:
    """Fig. 7: normalized transmission overhead vs (N, w), grid, 20 receivers."""
    return _tuning_sweep("grid", 20, runs, workers, batch_seed, ns, ws, protocols)


def fig8(
    runs: int = 20,
    workers: Optional[int] = None,
    batch_seed: int = 800,
    ns: Sequence[float] = TUNING_N,
    ws: Sequence[float] = TUNING_W,
    protocols: Sequence[str] = PROTOCOLS,
) -> SweepResult:
    """Fig. 8: normalized transmission overhead vs (N, w), random, 15 receivers."""
    return _tuning_sweep("random", 15, runs, workers, batch_seed, ns, ws, protocols)


# --------------------------------------------------------------------- #
# Figs. 9 and 10 — routing-path snapshots
# --------------------------------------------------------------------- #
def _snapshot(topology: str, group_size: int, seed: int, protocols: Sequence[str]) -> Dict[str, RunResult]:
    out: Dict[str, RunResult] = {}
    for proto in protocols:
        cfg = SimulationConfig(
            protocol=proto, topology=topology, group_size=group_size, seed=seed
        )
        out[proto] = run_single(cfg, keep_positions=True)
    return out


def fig9(seed: int = 908, protocols: Sequence[str] = ("mtmrp", "dodmrp", "odmrp")) -> Dict[str, RunResult]:
    """Fig. 9: one grid round, 20 receivers, same receiver draw per protocol.

    The default seed is a representative round (the paper's snapshot is
    likewise a single round): it yields 26/31/32 transmissions for
    MTMRP/DODMRP/ODMRP against the paper's 26/32/33.
    """
    return _snapshot("grid", 20, seed, protocols)


def fig10(seed: int = 1011, protocols: Sequence[str] = ("mtmrp", "dodmrp", "odmrp")) -> Dict[str, RunResult]:
    """Fig. 10: one random-topology round, 15 receivers.

    The default seed reproduces the paper's caption exactly:
    16/21/24 transmissions for MTMRP/DODMRP/ODMRP.
    """
    return _snapshot("random", 15, seed, protocols)
