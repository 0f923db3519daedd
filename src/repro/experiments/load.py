"""Traffic-load experiments (extension).

The paper's metrics are per-tree (one data packet per constructed tree).
Real deployments stream data, and under a contention MAC the forwarding
group's broadcasts start colliding as the rate grows.  This module drives
a CBR (constant-bit-rate) flow down an established multicast tree and
measures delivery ratio and goodput against the offered rate — the
saturation knee complements the paper's energy story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import Schedule, SimulationConfig
from repro.sim.hooks import Meter
from repro.sim.trace import TraceKind

__all__ = ["CbrResult", "CbrMeter", "cbr_hooks", "run_cbr", "load_sweep"]


@dataclass(frozen=True)
class CbrResult:
    """Outcome of one CBR run."""

    protocol: str
    rate_pps: float
    packets_sent: int
    #: mean fraction of receivers reached per packet
    delivery_ratio: float
    #: delivered receiver-packets per second of the data phase
    goodput_rps: float
    #: mean data transmissions per packet
    tx_per_packet: float
    collisions: int


class CbrMeter(Meter):
    """Measures a finished CBR stream as a :class:`CbrResult`."""

    def measure(self) -> CbrResult:
        trace = self.net.sim.trace
        schedule = self.cfg.schedule
        n_packets = schedule.n_packets
        receivers = self.receivers
        delivered = sum(1 for rec in trace.filter(kind=TraceKind.DELIVER) if rec.node in receivers)
        return CbrResult(
            protocol=self.cfg.protocol,
            rate_pps=schedule.rate_pps,
            packets_sent=n_packets,
            delivery_ratio=delivered / (n_packets * len(receivers)),
            goodput_rps=delivered / (n_packets * (1.0 / schedule.rate_pps)),
            tx_per_packet=trace.count(TraceKind.TX, "DataPacket") / n_packets,
            collisions=self.net.channel.frames_collided,
        )


def cbr_hooks(cfg: SimulationConfig) -> list:
    """``run_many`` hook factory: one :class:`CbrMeter` per run."""
    return [CbrMeter()]


def run_cbr(
    cfg: SimulationConfig,
    rate_pps: float,
    n_packets: int = 20,
) -> CbrResult:
    """Stream ``n_packets`` at ``rate_pps`` down one constructed tree.

    The run is ``cfg`` under a refresh-free :class:`Schedule`, so the
    config's loss model, HELLO phase and shadowing all apply.
    """
    from repro.experiments.runner import run_single

    meter = CbrMeter()
    run_single(cfg.with_(schedule=Schedule(n_packets=n_packets, rate_pps=rate_pps)), hooks=[meter])
    return meter.result


def load_sweep(
    rates_pps: Sequence[float] = (1.0, 5.0, 10.0, 20.0, 50.0),
    protocol: str = "mtmrp",
    topology: str = "grid",
    group_size: int = 20,
    runs: int = 5,
    n_packets: int = 20,
    batch_seed: int = 777,
    workers: Optional[int] = None,
) -> Dict[float, Dict[str, float]]:
    """Mean delivery/goodput/overhead per offered rate (one ``run_many`` campaign)."""
    from repro.experiments.runner import field_means, monte_carlo, run_many

    base = SimulationConfig(protocol=protocol, topology=topology, group_size=group_size)
    seeds = monte_carlo(base, runs, batch_seed)
    cfgs = [
        c.with_(schedule=Schedule(n_packets=n_packets, rate_pps=rate))
        for rate in rates_pps
        for c in seeds
    ]
    runs_done = iter(run_many(cfgs, workers=workers, hooks=cbr_hooks))
    out: Dict[float, Dict[str, float]] = {}
    for rate in rates_pps:
        results: List[CbrResult] = [next(runs_done).reports[0] for _ in range(runs)]
        out[rate] = field_means(
            results, "delivery_ratio", "goodput_rps", "tx_per_packet", "collisions"
        )
    return out
