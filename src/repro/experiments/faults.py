"""Route-recovery campaign under fault injection (extension).

The paper's evaluation assumes a static, fault-free deployment; Sec. IV-D
only sketches the recovery machinery (RouteError + rebuild).  This module
exercises it: stream CBR data down an established tree, kill a mid-tree
forwarder (and/or run a :class:`~repro.faults.FaultPlan`, an energy
budget, or a lossy channel), and measure how delivery degrades and when
the soft-state refresh cycle heals the tree.  The run itself is the
config's :class:`~repro.experiments.config.Schedule`; this module keeps
only what it measures (:class:`FaultMeter`).

Every run is a pure function of its :class:`SimulationConfig` — the same
seed replays bit-for-bit, which :func:`run_fault_single` makes checkable
by digesting the full trace into ``trace_sha256``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.config import Schedule, SimulationConfig
from repro.sim.hooks import Meter
from repro.sim.trace import trace_digest

__all__ = [
    "FaultRunResult",
    "FaultMeter",
    "fault_hooks",
    "run_fault_single",
    "fault_sweep",
    "trace_digest",
]

#: fraction of the surviving receivers a post-crash packet must reach for
#: the tree to count as recovered
RECOVERY_THRESHOLD = 0.9


@dataclass(frozen=True)
class FaultRunResult:
    """Outcome of one fault-injected CBR run."""

    protocol: str
    seed: int
    packets_sent: int
    crashes: int
    #: time of the first applied crash; None if nothing died
    first_crash_time: Optional[float]
    #: receiver-packets delivered / expected, whole run
    delivery_ratio: float
    #: same, packets sent before the first crash
    pre_fault_delivery: float
    #: same, packets sent after the first crash (surviving receivers)
    post_fault_delivery: float
    #: seconds from the crash until a post-crash packet reaches the
    #: threshold fraction of surviving receivers; None = never recovered
    recovery_latency: Optional[float]
    #: when the crash schedule first partitions the residual graph
    time_to_first_partition: Optional[float]
    frames_lost: int
    collisions: int
    energy_joules: float
    #: sha256 over every trace record — equal digests mean identical runs
    trace_sha256: str
    #: the injector's applied-fault log: (time, node, kind, cause)
    fault_log: Tuple[Tuple[float, int, str, str], ...]
    #: MAC-level unicast retransmissions across all nodes (CSMA only)
    mac_retries: int = 0
    #: unicast frames dropped after exhausting the MAC retry limit
    mac_dropped_retry: int = 0


class FaultMeter(Meter):
    """Measures a finished fault-injected stream as a :class:`FaultRunResult`."""

    def measure(self) -> FaultRunResult:
        from repro.metrics.faults import collect_fault_metrics, fault_log

        cfg, net = self.cfg, self.net
        trace = net.sim.trace
        fm = collect_fault_metrics(
            trace,
            net.positions,
            cfg.comm_range,
            self.receivers,
            self.send_times(),
            source=cfg.source,
            group=cfg.group,
            threshold=RECOVERY_THRESHOLD,
        )
        log = tuple(fault_log(trace))
        crashes = [t for t, _n, kind, _c in log if kind == "crash"]
        return FaultRunResult(
            protocol=cfg.protocol,
            seed=cfg.seed,
            packets_sent=fm.packets_sent,
            crashes=fm.crashes,
            first_crash_time=crashes[0] if crashes else None,
            delivery_ratio=fm.delivery_ratio,
            pre_fault_delivery=fm.pre_fault_delivery,
            post_fault_delivery=fm.post_fault_delivery,
            recovery_latency=fm.recovery_latency,
            time_to_first_partition=fm.time_to_first_partition,
            frames_lost=net.channel.frames_lost,
            collisions=net.channel.frames_collided,
            energy_joules=net.energy_summary()["total_joules"],
            trace_sha256=trace_digest(trace),
            fault_log=log,
            mac_retries=sum(getattr(n.mac, "retries", 0) for n in net.nodes),
            mac_dropped_retry=sum(getattr(n.mac, "dropped_retry", 0) for n in net.nodes),
        )


def fault_hooks(cfg: SimulationConfig) -> list:
    """``run_many`` hook factory: one :class:`FaultMeter` per run."""
    return [FaultMeter()]


def run_fault_single(
    cfg: SimulationConfig,
    n_packets: int = 20,
    rate_pps: float = 10.0,
    refresh_interval: float = 2.0,
    crash_forwarder_at: Optional[float] = None,
    plan=None,
    energy_budget: Optional[float] = None,
) -> FaultRunResult:
    """Stream CBR data through ``cfg``'s deployment while faults fire.

    The source floods one JoinQuery, then refreshes every
    ``refresh_interval`` seconds (forwarder soft state expires after 2.5
    refresh periods).  Faults come from any mix of:

    * ``crash_forwarder_at`` — kill one seeded mid-tree forwarder at that
      time (measured from the start of the data phase);
    * ``plan`` — a static :class:`~repro.faults.FaultPlan` (its times are
      absolute simulation time);
    * ``energy_budget`` — per-node battery in joules; depletion kills;
    * ``cfg.loss_model`` — channel-level frame erasures.

    ``plan`` and ``energy_budget`` arm before simulated time passes, as
    every schedule's absolute-time stressors do.  The run is
    :func:`~repro.experiments.runner.run_single` under that
    :class:`Schedule`, measured by a :class:`FaultMeter`.
    """
    from repro.experiments.runner import run_single

    meter = FaultMeter()
    schedule = Schedule(
        n_packets=n_packets,
        rate_pps=rate_pps,
        refresh_interval=refresh_interval,
        crash_forwarder_at=crash_forwarder_at,
        faults=tuple(plan.events) if plan is not None else (),
        energy_budget=energy_budget,
    )
    run_single(cfg.with_(schedule=schedule), hooks=[meter])
    return meter.result


def fault_sweep(
    protocols: Sequence[str] = ("mtmrp", "odmrp"),
    topology: str = "grid",
    group_size: int = 20,
    runs: int = 5,
    n_packets: int = 20,
    rate_pps: float = 10.0,
    refresh_interval: float = 2.0,
    crash_forwarder_at: float = 0.55,
    loss_model: str = "none",
    loss_rate: float = 0.0,
    mac: str = "ideal",
    batch_seed: int = 4242,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Fault metrics per protocol under a mid-stream forwarder crash.

    Every run goes through one :func:`~repro.experiments.runner.run_many`
    campaign (``workers`` as there), measured by :class:`FaultMeter`.

    Means are paired with p50/p95 percentiles where the distribution has
    a tail the mean would hide: recovery latency is dominated by the
    refresh-cycle alignment of the crash, so the honest summary of "how
    slow can healing get" is the 95th percentile, not the average.
    """
    from repro.experiments.runner import aggregate, field_means, monte_carlo, run_many

    schedule = Schedule(
        n_packets=n_packets,
        rate_pps=rate_pps,
        refresh_interval=refresh_interval,
        crash_forwarder_at=crash_forwarder_at,
    )
    cfgs = [
        c.with_(schedule=schedule)
        for proto in protocols
        for c in monte_carlo(
            SimulationConfig(
                protocol=proto,
                topology=topology,
                group_size=group_size,
                mac=mac,
                loss_model=loss_model,
                loss_rate=loss_rate,
            ),
            runs,
            batch_seed,
        )
    ]
    runs_done = iter(run_many(cfgs, workers=workers, hooks=fault_hooks))
    out: Dict[str, Dict[str, float]] = {}
    for proto in protocols:
        results: List[FaultRunResult] = [next(runs_done).reports[0] for _ in range(runs)]
        recov = [r.recovery_latency for r in results if r.recovery_latency is not None]
        # ``aggregate`` duck-types on attribute access, so it summarises
        # FaultRunResult batches too (recovery latency is summarised by
        # hand: None means "never recovered" and must not enter the stats).
        # Percentile keys are always present; with fewer than two
        # recovered replicates they are NaN — a percentile of one sample
        # is not an estimate, and dropping the keys broke downstream
        # tables that expect a fixed schema.
        delivery = aggregate(results, "delivery_ratio")
        if len(recov) >= 2:
            recovery_p50 = float(np.percentile(recov, 50.0))
            recovery_p95 = float(np.percentile(recov, 95.0))
        else:
            if len(recov) == 1:
                warnings.warn(
                    f"fault_sweep({proto!r}): only one recovered replicate; "
                    "recovery_p50/p95 set to NaN (run more replicates)",
                    stacklevel=2,
                )
            recovery_p50 = recovery_p95 = float("nan")
        out[proto] = {
            "delivery_ratio": delivery["mean"],
            "delivery_p50": delivery["p50"],
            "delivery_p95": delivery["p95"],
            **field_means(results, "pre_fault_delivery", "post_fault_delivery"),
            "recovery_latency": float(np.mean(recov)) if recov else float("nan"),
            "recovery_p50": recovery_p50,
            "recovery_p95": recovery_p95,
            "recovered_runs": float(len(recov)) / len(results),
            # link-layer retry failures sit next to the route-level
            # metrics: a delivery dip with high dropped_retry is a MAC
            # story, not a routing story
            **field_means(results, "crashes", "frames_lost", "mac_retries", "mac_dropped_retry"),
        }
    return out
