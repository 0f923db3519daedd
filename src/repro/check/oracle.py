"""Differential oracles for the simulated protocols.

Two complementary cross-checks:

* :func:`small_instance_oracle` — on deployments small enough for the
  exhaustive :func:`~repro.trees.validate.brute_force_min_transmitters`
  search (n ≤ 12), run the full distributed protocol and compare its
  data-plane transmitter count against the true optimum.  The resulting
  *approximation ratio* quantifies how far the backoff heuristic lands
  from the Sec. III minimum on instances where the minimum is knowable.
* :func:`cross_protocol_check` — on paper-scale instances, run several
  protocols under the *identical* seed (same topology, same receiver
  draw) and compare delivery and cost: a correct MTMRP should not
  silently deliver less than the mesh/tree baselines it claims to beat.

Both are reported by ``python -m repro.experiments check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_single

__all__ = [
    "OracleResult",
    "small_instance_oracle",
    "cross_protocol_check",
    "ORACLE_MAX_NODES",
]

#: Largest instance the exhaustive oracle accepts (2^(n-1) subsets).
ORACLE_MAX_NODES = 12


@dataclass(frozen=True)
class OracleResult:
    """One small-instance comparison: protocol vs. exhaustive optimum."""

    seed: int
    n_nodes: int
    group_size: int
    #: nodes that transmitted data in the simulated run
    protocol_transmitters: int
    #: size of the exhaustive-search optimum (None: receivers unreachable)
    optimal_transmitters: Optional[int]
    #: fraction of receivers served by the simulated run
    delivery_ratio: float

    @property
    def ratio(self) -> Optional[float]:
        """Approximation ratio; None when not comparable (partial
        delivery, or no feasible set exists)."""
        if (
            self.optimal_transmitters is None
            or self.optimal_transmitters == 0
            or self.delivery_ratio < 1.0
        ):
            return None
        return self.protocol_transmitters / self.optimal_transmitters


def small_instance_oracle(
    seed: int,
    protocol: str = "mtmrp",
    n_nodes: int = ORACLE_MAX_NODES,
    group_size: int = 3,
    side: float = 70.0,
    mac: str = "ideal",
) -> OracleResult:
    """Run ``protocol`` on a tiny random deployment and grade it exactly.

    The deployment and receiver set are re-derived from the seed with
    the same named rng streams the runner uses, so the graph handed to
    the brute-force search is exactly the one the packets traversed.
    """
    if n_nodes > ORACLE_MAX_NODES:
        raise ValueError(
            f"n_nodes={n_nodes} too large for the exhaustive oracle "
            f"(max {ORACLE_MAX_NODES})"
        )
    from repro.net.topology import connectivity_graph
    from repro.trees.validate import brute_force_min_transmitters

    cfg = SimulationConfig(
        protocol=protocol,
        topology="random",
        group_size=group_size,
        seed=seed,
        random_nodes=n_nodes,
        side=side,
        mac=mac,
    )
    res = run_single(cfg, cache=False, keep_positions=True)
    g = connectivity_graph(res.positions, cfg.comm_range)
    optimum = brute_force_min_transmitters(g, cfg.source, res.receivers)
    return OracleResult(
        seed=seed,
        n_nodes=n_nodes,
        group_size=group_size,
        protocol_transmitters=len(res.transmitters),
        optimal_transmitters=len(optimum) if optimum is not None else None,
        delivery_ratio=res.delivery_ratio,
    )


def cross_protocol_check(
    seed: int,
    protocols: Sequence[str] = ("mtmrp", "odmrp", "gmr", "maodv"),
    topology: str = "grid",
    group_size: int = 15,
) -> Dict[str, Tuple[float, int]]:
    """Delivery ratio and data-plane cost per protocol, identical seed.

    Every protocol sees the same deployment and the same receiver draw
    (both come from named streams of the same master seed), so the
    numbers are directly comparable.  Returns
    ``{protocol: (delivery_ratio, data_transmissions)}``.

    All variants share one warm prefix snapshot: the deployment, channel
    and neighbor bootstrap are built once and forked per protocol
    (bit-identical to rebuilding — GMR keeps its own snapshot because its
    bootstrap shares positions).
    """
    from repro.sim.snapshot import SnapshotCache

    snapshots = SnapshotCache()
    out: Dict[str, Tuple[float, int]] = {}
    for proto in protocols:
        cfg = SimulationConfig(
            protocol=proto, topology=topology, group_size=group_size, seed=seed
        )
        res = run_single(cfg, cache=False, warm_start=snapshots)
        out[proto] = (res.delivery_ratio, res.data_transmissions)
    return out
