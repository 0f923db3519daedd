"""Route-recovery campaign under fault injection (extension).

The paper's evaluation assumes a static, fault-free deployment; Sec. IV-D
only sketches the recovery machinery (RouteError + rebuild).  This module
exercises it: stream CBR data down an established tree, kill a mid-tree
forwarder (and/or run a :class:`~repro.faults.FaultPlan`, an energy
budget, or a lossy channel), and measure how delivery degrades and when
the soft-state refresh cycle heals the tree.

Every run is a pure function of its :class:`SimulationConfig` — the same
seed replays bit-for-bit, which :func:`run_fault_single` makes checkable
by digesting the full trace into ``trace_sha256``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.config import SimulationConfig
from repro.sim.trace import TraceKind, TraceRecorder, trace_digest

__all__ = ["FaultRunResult", "run_fault_single", "fault_sweep", "trace_digest"]


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


def run_fault_single(
    cfg: SimulationConfig,
    n_packets: int = 20,
    rate_pps: float = 10.0,
    refresh_interval: float = 2.0,
    crash_forwarder_at: Optional[float] = None,
    plan=None,
    energy_budget: Optional[float] = None,
    recovery_threshold: float = 0.9,
    fg_timeout_factor: float = 2.5,
) -> FaultRunResult:
    """Stream CBR data through ``cfg``'s deployment while faults fire.

    The source floods one JoinQuery, then refreshes every
    ``refresh_interval`` seconds (forwarder soft state expires after
    ``fg_timeout_factor`` refresh periods).  Faults come from any mix of:

    * ``crash_forwarder_at`` — kill one seeded mid-tree forwarder at that
      time (measured from the start of the data phase);
    * ``plan`` — a static :class:`~repro.faults.FaultPlan` (its times are
      absolute simulation time);
    * ``energy_budget`` — per-node battery in joules; depletion kills;
    * ``cfg.loss_model`` — channel-level frame erasures.

    The deployment (HELLO warmup or static bootstrap included) comes from
    :func:`~repro.sim.snapshot.build_prefix`, like every other run.
    """
    from repro.experiments.runner import install_agents
    from repro.faults import FaultInjector
    from repro.metrics.faults import collect_fault_metrics
    from repro.net.packet import reset_uids
    from repro.sim.snapshot import build_prefix

    reset_uids()  # uids are process-global; fresh sequence per run
    sim, net, receivers, positions, _members = build_prefix(
        cfg,
        trace=TraceRecorder(
            enabled_kinds={TraceKind.TX, TraceKind.DELIVER, TraceKind.MARK, TraceKind.NOTE}
        ),
    )
    agents, _plan, _members = install_agents(cfg, net, receivers)
    for a in agents:
        # forwarder soft state must outlive one refresh period but expire
        # soon after, so a dead relay's tree entry ages out by itself
        a.fg_timeout = fg_timeout_factor * refresh_interval

    src = agents[cfg.source]
    src.request_route(cfg.group)
    sim.run(until=sim.now + cfg.effective_construction_time)
    src.start_periodic_refresh(cfg.group, refresh_interval)

    injector = FaultInjector(net, plan=plan, energy_budget=energy_budget).arm()
    t0 = sim.now
    if crash_forwarder_at is not None:
        injector.schedule_forwarder_crash(
            t0 + crash_forwarder_at, agents, source=cfg.source, group=cfg.group
        )

    interval = 1.0 / rate_pps
    send_times: Dict[int, float] = {}
    for k in range(n_packets):
        t = t0 + k * interval
        send_times[k] = t
        sim.schedule_at(t, src.send_data, cfg.group, k)
    # drain: the tail packet plus one full refresh/rebuild cycle
    sim.run(until=t0 + n_packets * interval + refresh_interval + 1.0)
    src.stop_periodic_refresh(cfg.group)

    fm = collect_fault_metrics(
        sim.trace,
        positions,
        cfg.comm_range,
        receivers,
        send_times,
        source=cfg.source,
        group=cfg.group,
        threshold=recovery_threshold,
    )
    result = FaultRunResult(
        protocol=cfg.protocol,
        seed=cfg.seed,
        packets_sent=fm.packets_sent,
        crashes=fm.crashes,
        first_crash_time=injector.first_crash_time(),
        delivery_ratio=fm.delivery_ratio,
        pre_fault_delivery=fm.pre_fault_delivery,
        post_fault_delivery=fm.post_fault_delivery,
        recovery_latency=fm.recovery_latency,
        time_to_first_partition=fm.time_to_first_partition,
        frames_lost=net.channel.frames_lost,
        collisions=net.channel.frames_collided,
        energy_joules=net.energy_summary()["total_joules"],
        trace_sha256=trace_digest(sim.trace),
        fault_log=tuple(injector.log),
        mac_retries=sum(getattr(n.mac, "retries", 0) for n in net.nodes),
        mac_dropped_retry=sum(
            getattr(n.mac, "dropped_retry", 0) for n in net.nodes
        ),
    )
    net.close()
    return result


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
) -> Dict[str, Dict[str, float]]:
    """Fault metrics per protocol under a mid-stream forwarder crash.

    Means are paired with p50/p95 percentiles where the distribution has
    a tail the mean would hide: recovery latency is dominated by the
    refresh-cycle alignment of the crash, so the honest summary of "how
    slow can healing get" is the 95th percentile, not the average.
    """
    from repro.experiments.runner import aggregate, monte_carlo

    out: Dict[str, Dict[str, float]] = {}
    for proto in protocols:
        base = SimulationConfig(
            protocol=proto,
            topology=topology,
            group_size=group_size,
            mac=mac,
            loss_model=loss_model,
            loss_rate=loss_rate,
        )
        results: List[FaultRunResult] = [
            run_fault_single(
                c,
                n_packets=n_packets,
                rate_pps=rate_pps,
                refresh_interval=refresh_interval,
                crash_forwarder_at=crash_forwarder_at,
            )
            for c in monte_carlo(base, runs, batch_seed)
        ]
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
            "pre_fault_delivery": float(np.mean([r.pre_fault_delivery for r in results])),
            "post_fault_delivery": float(np.mean([r.post_fault_delivery for r in results])),
            "recovery_latency": float(np.mean(recov)) if recov else float("nan"),
            "recovery_p50": recovery_p50,
            "recovery_p95": recovery_p95,
            "recovered_runs": float(len(recov)) / len(results),
            "crashes": float(np.mean([r.crashes for r in results])),
            "frames_lost": float(np.mean([r.frames_lost for r in results])),
            # link-layer retry failures sit next to the route-level
            # metrics: a delivery dip with high dropped_retry is a MAC
            # story, not a routing story
            "mac_retries": float(np.mean([r.mac_retries for r in results])),
            "mac_dropped_retry": float(
                np.mean([r.mac_dropped_retry for r in results])
            ),
        }
    return out
