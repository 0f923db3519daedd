"""Experiment configuration.

Defaults reproduce Sec. V-A exactly: a 200 x 200 m field; grid topology =
10 x 10 uniformly placed nodes, random topology = 200 uniformly placed
nodes (``setdest`` equivalent, S4); source at (0, 0); transmission range
40 m; TwoRayGround propagation; IEEE 802.11-style MAC; ``w = 0.001`` and
``N = 4``; receivers re-drawn uniformly at random every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultEvent
    from repro.net.node import Node
    from repro.protocols.repair import RepairPolicy
    from repro.traffic.spec import SessionSpec

__all__ = [
    "SimulationConfig",
    "Schedule",
    "PROTOCOLS",
    "make_agent_factory",
    "make_positions",
    "make_loss_model",
]

#: Canonical protocol keys, in the paper's legend order.
PROTOCOLS: Tuple[str, ...] = ("mtmrp", "mtmrp_nophs", "dodmrp", "odmrp")

#: Display names used in reports (matches the paper's legends).
PROTOCOL_LABELS: Dict[str, str] = {
    "mtmrp": "MTMRP",
    "mtmrp_nophs": "MTMRP w/o PHS",
    "dodmrp": "DODMRP",
    "odmrp": "ODMRP",
    "flooding": "Flooding",
    "maodv": "MAODV",
    "gmr": "GMR",
}


@dataclass(frozen=True)
class Schedule:
    """What a run does after route discovery, beyond the paper's one packet.

    The source streams ``n_packets`` at ``rate_pps`` from the end of
    discovery; the run drains ``(refresh_interval or 0) + 1`` s past it.
    ``refresh_interval`` adds periodic JoinQuery refresh (forwarder soft
    state expires after 2.5 periods; with a HELLO phase receivers
    watchdog their forwarder); ``repair`` installs the self-healing layer.
    ``faults``, ``energy_budget`` (joules per node) and ``mobility`` arm
    before simulated time passes; ``crash_forwarder_at`` (a seeded
    mid-tree forwarder crash) and ``churn`` (``(n_cycles, down_time)`` on
    the routing tree) are timed from the stream's start.  Scheduled runs
    start their packet uids at 0 and never warm-start or batch.  Fields
    accept their JSON forms, so configs round-trip through JSON.
    """

    n_packets: int = 20
    rate_pps: float = 10.0
    refresh_interval: Optional[float] = None
    repair: Optional["RepairPolicy"] = None
    faults: Tuple["FaultEvent", ...] = ()
    crash_forwarder_at: Optional[float] = None
    churn: Optional[Tuple[int, float]] = None
    energy_budget: Optional[float] = None
    #: random-waypoint keyword arguments as sorted ``(name, value)`` pairs
    mobility: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        from repro.faults.plan import FaultEvent
        from repro.protocols.repair import RepairPolicy

        if isinstance(self.repair, dict):
            object.__setattr__(self, "repair", RepairPolicy.from_dict(self.repair))
        faults = tuple(e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e) for e in self.faults)
        object.__setattr__(self, "faults", faults)
        if self.churn is not None:
            object.__setattr__(self, "churn", (int(self.churn[0]), float(self.churn[1])))
        if self.mobility is not None:
            pairs = self.mobility.items() if isinstance(self.mobility, dict) else self.mobility
            object.__setattr__(self, "mobility", tuple(sorted((str(k), float(v)) for k, v in pairs)))


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one Monte-Carlo run needs; picklable for worker pools."""

    protocol: str = "mtmrp"
    topology: str = "grid"  # "grid" | "random"
    group_size: int = 20
    seed: int = 0

    # field / radio (Sec. V-A)
    side: float = 200.0
    grid_nx: int = 10
    grid_ny: int = 10
    random_nodes: int = 200
    comm_range: float = 40.0
    source: int = 0
    group: int = 1

    # MTMRP system parameters (Eq. 2-4)
    backoff_n: float = 4.0
    backoff_w: float = 0.001

    # substrate
    mac: str = "csma"  # "csma" | "ideal"
    #: log-normal shadow-fading sigma in dB (0 = the paper's no-fading
    #: assumption; > 0 enables the quasi-static LogDistance+shadowing
    #: ablation, median-matched to TwoRayGround)
    shadowing_sigma_db: float = 0.0
    #: per-frame link-loss model: "none" | "iid" | "gilbert"
    #: (see :mod:`repro.net.loss`; applies even on the perfect channel)
    loss_model: str = "none"
    #: i.i.d. per-frame loss probability (loss_model == "iid")
    loss_rate: float = 0.0
    #: Gilbert–Elliott transition probabilities (loss_model == "gilbert");
    #: Bad-state frames are always lost, Good-state frames never
    ge_p_good_bad: float = 0.02
    ge_p_bad_good: float = 0.25
    perfect_channel: bool = False  # forced True when mac == "ideal"
    hello_phase: bool = False  # run the real HELLO protocol instead of bootstrap
    hello_period: float = 1.0
    hello_warmup: float = 2.5

    # phases; construction_time=None -> auto-scale with the backoff bound
    # (at N=6, w=0.03 a single hop can defer ~0.33 s, so a fixed window
    # would truncate the JoinQuery flood mid-network)
    construction_time: float | None = None
    data_time: float = 1.0  # extra time for the data packet to spread

    # tracing: keep RX records (needed for data-plane tree extraction)
    keep_rx_records: bool = False

    #: concurrent multicast sessions (see :mod:`repro.traffic`).  None
    #: (default) — and a trivially default single-session plan — run the
    #: legacy single-session path byte-identically; anything else drives
    #: the generic scheduled traffic engine.  Accepts SessionSpec tuples,
    #: a TrafficPlan, or dict payloads (JSON round-trips).
    sessions: Optional[Tuple["SessionSpec", ...]] = None

    #: what happens after route discovery (see :class:`Schedule`); None
    #: (default) is the paper's one-packet round.  Accepts a dict payload.
    schedule: Optional[Schedule] = None

    def __post_init__(self) -> None:
        if self.schedule is not None and not isinstance(self.schedule, Schedule):
            object.__setattr__(self, "schedule", Schedule(**self.schedule))
        if self.protocol not in PROTOCOL_LABELS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.topology not in ("grid", "random"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.loss_model not in ("none", "iid", "gilbert"):
            raise ValueError(f"unknown loss_model {self.loss_model!r}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate {self.loss_rate} not in [0, 1]")
        n = self.n_nodes
        if not (0 < self.group_size < n):
            raise ValueError(f"group_size {self.group_size} not in (0, {n})")
        if self.sessions is not None:
            from repro.traffic.spec import SessionSpec, TrafficPlan

            raw = self.sessions
            if isinstance(raw, TrafficPlan):
                raw = raw.sessions
            specs = tuple(
                s if isinstance(s, SessionSpec) else SessionSpec.from_dict(dict(s))
                for s in raw
            )
            if not specs:
                raise ValueError("sessions must hold at least one SessionSpec")
            # TrafficPlan's constructor owns the flow/group-uniqueness rules
            TrafficPlan(sessions=specs)
            for spec in specs:
                if not 0 <= spec.source < n:
                    raise ValueError(f"session source {spec.source} not in [0, {n})")
                if spec.receivers is not None:
                    bad = [r for r in spec.receivers if not 0 <= r < n or r == spec.source]
                    if bad:
                        raise ValueError(
                            f"session {spec.flow} receivers {bad} invalid for "
                            f"{n} nodes (source excluded)"
                        )
                elif not 0 < spec.group_size < n:
                    raise ValueError(
                        f"session {spec.flow} group_size {spec.group_size} "
                        f"not in (0, {n})"
                    )
            object.__setattr__(self, "sessions", specs)

    @property
    def n_nodes(self) -> int:
        return self.grid_nx * self.grid_ny if self.topology == "grid" else self.random_nodes

    @property
    def effective_construction_time(self) -> float:
        """Settle time for the route-discovery phase.

        Auto mode allows ~25 worst-case backoff hops (the network diameter
        is at most ~13 hops; the margin absorbs MAC delays), floored at
        the 2 s that suits the default parameters.
        """
        if self.construction_time is not None:
            return self.construction_time
        if self.protocol in ("mtmrp", "mtmrp_nophs"):
            from repro.core.backoff import BackoffParams, BiasedBackoff

            bound = BiasedBackoff(BackoffParams(n=self.backoff_n, w=self.backoff_w)).max_delay()
            return max(2.0, 1.0 + 25.0 * bound)
        return 2.0

    @property
    def label(self) -> str:
        return PROTOCOL_LABELS[self.protocol]

    def with_(self, **changes) -> "SimulationConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)

    @classmethod
    def scaled(cls, n_nodes: int, **overrides) -> "SimulationConfig":
        """Random deployment of ``n_nodes`` at the paper's node density.

        Sec. V-A uses 200 nodes on a 200 x 200 m field (5e-3 nodes/m²,
        ~25 expected neighbors at 40 m range); the field side grows as
        ``sqrt(n)`` so larger deployments keep that local structure.
        1000–5000 nodes are supported workloads on the sparse channel
        backend (see ``docs/PERFORMANCE.md``).
        """
        if n_nodes < 2:
            raise ValueError("scaled deployments need at least 2 nodes")
        defaults: Dict[str, object] = dict(
            topology="random",
            random_nodes=n_nodes,
            side=200.0 * float(np.sqrt(n_nodes / 200.0)),
        )
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]


def make_positions(cfg: SimulationConfig, rng: np.random.Generator) -> np.ndarray:
    """Node coordinates for this run (grid is deterministic; random drawn)."""
    from repro.net.topology import grid_topology, random_topology

    if cfg.topology == "grid":
        return grid_topology(cfg.grid_nx, cfg.grid_ny, cfg.side)
    return random_topology(
        cfg.random_nodes, cfg.side, rng=rng, comm_range=cfg.comm_range
    )


def make_loss_model(cfg: SimulationConfig, rng: np.random.Generator):
    """The run's channel loss model, or None (drawing from ``rng``)."""
    if cfg.loss_model == "none":
        return None
    from repro.net.loss import GilbertElliott, IidLoss

    if cfg.loss_model == "iid":
        return IidLoss(cfg.loss_rate, rng)
    return GilbertElliott(
        p_good_bad=cfg.ge_p_good_bad, p_bad_good=cfg.ge_p_bad_good, rng=rng
    )


def make_agent_factory(cfg: SimulationConfig) -> Callable[["Node"], object]:
    """Factory building one routing agent per node for ``cfg.protocol``."""
    if cfg.protocol in ("mtmrp", "mtmrp_nophs"):
        from repro.core.backoff import BackoffParams, BiasedBackoff
        from repro.core.mtmrp import MtmrpAgent

        params = BackoffParams(n=cfg.backoff_n, w=cfg.backoff_w)

        def factory(node: "Node") -> object:
            return MtmrpAgent(
                backoff=BiasedBackoff(params), phs=(cfg.protocol == "mtmrp")
            )

        return factory
    if cfg.protocol == "dodmrp":
        from repro.protocols.dodmrp import DodmrpAgent

        return lambda node: DodmrpAgent()
    if cfg.protocol == "odmrp":
        from repro.protocols.odmrp import OdmrpAgent

        return lambda node: OdmrpAgent()
    if cfg.protocol == "flooding":
        from repro.net.flooding import FloodingAgent

        return lambda node: FloodingAgent()
    if cfg.protocol == "maodv":
        from repro.protocols.maodv import MaodvAgent

        return lambda node: MaodvAgent()
    if cfg.protocol == "gmr":
        from repro.protocols.gmr import GmrAgent

        return lambda node: GmrAgent()
    raise ValueError(f"unknown protocol {cfg.protocol!r}")  # pragma: no cover
