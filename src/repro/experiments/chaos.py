"""Chaos-soak campaign: sustained node churn against the self-healing layer.

:mod:`repro.experiments.faults` measures one mid-stream crash; this module
soaks a deployment in *churn* — several crash/recover cycles hitting tree
nodes while CBR data streams — and scores availability the way an operator
would: windowed delivery ratio, mean time to recovery, seconds spent in
DEGRADED, and how often the source had to pay for a full JoinQuery rebuild
versus a local graft.

The campaign's central comparison is **repair on vs repair off under
identical fault schedules**.  Two disciplines make that comparison honest:

* the churn plan is built *before* the run from a generator derived only
  from the config seed (never from live simulator streams or protocol
  state), so both arms replay byte-identical :class:`~repro.faults.FaultPlan`s;
* victims are drawn from the interior of the shortest-path tree between
  the source and the receivers over the static connectivity graph — an
  arm-independent stand-in for "nodes likely to be serving forwarders" —
  so the schedule actually stresses the route instead of killing leaves.

Every run is a pure function of its config: ``trace_sha256`` makes the
bit-reproducibility claim checkable, and the optional
:class:`~repro.check.CheckHarness` attaches in ``collect`` mode so the
three repair invariants are enforced over every soak.  The soak itself
is the config's :class:`~repro.experiments.config.Schedule` (``churn``
draws the plan at the start of the stream); this module keeps only what
it measures (:class:`ChaosMeter`), and every campaign runs on
:func:`~repro.experiments.runner.run_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.config import Schedule, SimulationConfig
from repro.faults.plan import FaultPlan
from repro.protocols.repair import RepairPolicy
from repro.sim.hooks import Meter
from repro.sim.trace import TraceKind, trace_digest

__all__ = [
    "ChaosRunResult",
    "ChaosMeter",
    "build_churn_plan",
    "chaos_config",
    "chaos_hooks",
    "run_chaos_single",
    "chaos_sweep",
    "run_chaos",
    "DEFAULT_POLICY",
]

#: the policy the campaign runs its repair arm under — deliberately the
#: class defaults, so CLI results describe out-of-the-box behaviour
DEFAULT_POLICY = RepairPolicy()


@dataclass(frozen=True)
class ChaosRunResult:
    """Outcome of one churn-soaked CBR run (one arm of the comparison)."""

    protocol: str
    seed: int
    #: True when a RepairPolicy was installed (the self-healing arm)
    repair: bool
    packets_sent: int
    crashes: int
    recovers: int
    #: receiver-packets delivered / expected, whole run
    delivery_ratio: float
    #: sorted (window_start, ratio) availability series
    windowed: Tuple[Tuple[float, float], ...]
    #: worst window of the run — the availability headline
    min_window: float
    #: mean time to recovery over crashes that recovered; None = none did
    mttr: Optional[float]
    recovered_crashes: int
    #: JoinQuery floods originated by the source (discovery + refresh +
    #: RouteError-triggered rebuilds) — the rebuild cost the graft avoids
    rebuild_rounds: int
    grafts_ok: int
    grafts_failed: int
    repair_query_tx: int
    route_error_tx: int
    degraded_data_tx: int
    #: trace-derived seconds in REPAIRING / DEGRADED, summed over sessions
    time_repairing: float
    time_degraded: float
    #: invariant violations (empty when run without a harness)
    violations: Tuple[str, ...]
    #: sha256 over every trace record — equal digests mean identical runs
    trace_sha256: str
    #: the injector's applied-fault log: (time, node, kind, cause)
    fault_log: Tuple[Tuple[float, int, str, str], ...] = field(default=())


def build_churn_plan(
    cfg: SimulationConfig,
    positions: np.ndarray,
    receivers: Sequence[int],
    window: Tuple[float, float],
    n_cycles: int = 3,
    down_time: float = 2.0,
) -> FaultPlan:
    """Deterministic crash/recover churn biased onto the routing tree.

    Victims are interior nodes of shortest paths from the source to each
    receiver over the unit-disk connectivity graph — computed from static
    deployment facts only, so the plan is identical whether or not a
    RepairPolicy is installed (the repair-on/off arms must see the same
    schedule).  Each cycle crashes one victim at a staggered time inside
    ``window`` and recovers it ``down_time`` seconds later.  The draw uses
    ``np.random.default_rng`` re-seeded from ``cfg.seed`` — never a live
    simulator stream, which the arms would advance differently.
    """
    import networkx as nx

    from repro.net.topology import connectivity_graph

    g = connectivity_graph(np.asarray(positions, dtype=float), cfg.comm_range)
    interior: List[int] = []
    seen = set()
    for r in sorted(set(int(x) for x in receivers)):
        try:
            path = nx.shortest_path(g, cfg.source, r)
        except nx.NetworkXNoPath:  # pragma: no cover - disconnected deployment
            continue
        for n in path[1:-1]:
            if n not in seen and n != cfg.source and n not in set(receivers):
                seen.add(n)
                interior.append(int(n))
    if not interior:
        # degenerate one-hop deployment: fall back to any non-source,
        # non-receiver node so the soak still exercises *something*
        interior = [
            n for n in range(cfg.n_nodes)
            if n != cfg.source and n not in set(receivers)
        ]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC4A05]))
    t0, t1 = float(window[0]), float(window[1])
    t1 = max(t1, t0)  # a too-short data phase degenerates to back-to-back cycles
    n_cycles = max(1, int(n_cycles))
    span = (t1 - t0) / n_cycles
    plan = FaultPlan()
    for k in range(n_cycles):
        victim = int(interior[int(rng.integers(len(interior)))])
        t = t0 + k * span + float(rng.uniform(0.0, max(span - down_time, 0.0) or 0.0))
        plan.crash(t, victim)
        plan.recover(t + down_time, victim)
    return plan


class ChaosMeter(Meter):
    """Measures a finished churn soak; a checked run's ``harness`` supplies
    the violations."""

    def __init__(self, window: float = 2.5, harness=None) -> None:
        self.window = window
        self.harness = harness

    def measure(self) -> ChaosRunResult:
        from repro.metrics.faults import (
            delivery_ratio,
            fault_log,
            mean_time_to_recovery,
            time_in_state,
            windowed_delivery,
        )

        cfg, receivers = self.cfg, self.receivers
        trace = self.net.sim.trace
        counts = trace.counts
        send_times = self.send_times()
        rebuilds = sum(
            1
            for rec in trace.filter(kind=TraceKind.TX, packet_type="JoinQuery")
            if rec.node == cfg.source
        )
        windows = windowed_delivery(
            trace, receivers, send_times, self.window, source=cfg.source, group=cfg.group
        )
        mttr, recovered, _n_crash = mean_time_to_recovery(
            trace, receivers, send_times, source=cfg.source, group=cfg.group
        )
        states = time_in_state(trace, float(self.net.sim.now))
        log = tuple(fault_log(trace))
        violations = self.harness.report.violations if self.harness is not None else ()
        return ChaosRunResult(
            protocol=cfg.protocol,
            seed=cfg.seed,
            repair=cfg.schedule.repair is not None,
            packets_sent=cfg.schedule.n_packets,
            crashes=len([1 for _t, _n, k, _c in log if k == "crash"]),
            recovers=len([1 for _t, _n, k, _c in log if k == "recover"]),
            delivery_ratio=delivery_ratio(
                trace, receivers, sorted(send_times), source=cfg.source, group=cfg.group
            ),
            windowed=tuple(windows),
            min_window=min((r for _t, r in windows), default=1.0),
            mttr=mttr,
            recovered_crashes=recovered,
            rebuild_rounds=rebuilds,
            grafts_ok=counts[(TraceKind.NOTE, "GraftOk")],
            grafts_failed=counts[(TraceKind.NOTE, "GraftFail")],
            repair_query_tx=counts[(TraceKind.TX, "RepairQuery")],
            route_error_tx=counts[(TraceKind.TX, "RouteError")],
            degraded_data_tx=counts[(TraceKind.TX, "ScopedFloodData")],
            time_repairing=states.get("repairing", 0.0),
            time_degraded=states.get("degraded", 0.0),
            violations=tuple(str(v).splitlines()[0] for v in violations),
            trace_sha256=trace_digest(trace),
            fault_log=log,
        )


def chaos_hooks(cfg: SimulationConfig, window: float = 2.5, check: bool = False) -> list:
    """``run_many`` hook factory: a :class:`ChaosMeter`, after a harness
    when ``check`` (GMR keeps no sessions to check)."""
    from repro.check.harness import CheckHarness

    harness = CheckHarness(mode="collect") if check and cfg.protocol != "gmr" else None
    return [h for h in (harness, ChaosMeter(window, harness)) if h is not None]


def chaos_config(
    cfg: SimulationConfig,
    policy: Optional[RepairPolicy] = None,
    n_packets: int = 80,
    rate_pps: float = 4.0,
    refresh_interval: float = 8.0,
    n_cycles: int = 3,
    down_time: float = 5.0,
) -> SimulationConfig:
    """``cfg`` under the churn soak's :class:`Schedule` (one arm); raises
    :class:`ValueError` without ``cfg.hello_phase``."""
    if not cfg.hello_phase:
        raise ValueError(
            "a chaos run needs cfg.hello_phase=True: its route watchdog "
            "detects dead forwarders through HELLO neighbor expiry"
        )
    return cfg.with_(
        schedule=Schedule(
            n_packets=n_packets,
            rate_pps=rate_pps,
            refresh_interval=refresh_interval,
            repair=policy,
            churn=(n_cycles, down_time),
        )
    )


def run_chaos_single(
    cfg: SimulationConfig,
    policy: Optional[RepairPolicy] = None,
    window: float = 2.5,
    check: bool = False,
    **schedule_kwargs,
) -> ChaosRunResult:
    """Soak ``cfg``'s deployment in churn; one arm of the on/off comparison.

    Runs the full HELLO phase, establishes the tree, then streams
    ``n_packets`` CBR packets at ``rate_pps`` while
    :func:`build_churn_plan`'s schedule crashes and recovers tree nodes
    (``schedule_kwargs`` go to :func:`chaos_config`).  ``window`` is the
    availability window of the windowed delivery ratio.
    ``policy=None`` is the rebuild-only baseline arm — behaviour is then
    byte-identical to the pre-repair protocol stack.

    With ``check=True`` a :class:`~repro.check.CheckHarness` rides along
    in ``collect`` mode (checkpoints after discovery and at end of run),
    so every soak doubles as an invariant-checking campaign.

    GMR runs through its geographic API (one stateless ``multicast``
    per packet, position-sharing HELLOs, no refresh/monitor/harness): it
    keeps no sessions to repair, so both arms measure the same per-packet
    greedy forwarding — the campaign's churn-oblivious baseline.
    """
    from repro.experiments.runner import run_single

    run_cfg = chaos_config(cfg, policy, **schedule_kwargs)
    hooks = chaos_hooks(run_cfg, window, check)
    run_single(run_cfg, hooks=hooks)
    return hooks[-1].result


def chaos_sweep(
    protocols: Sequence[str] = ("mtmrp", "odmrp", "dodmrp", "maodv", "gmr"),
    runs: int = 5,
    batch_seed: int = 90210,
    policy: Optional[RepairPolicy] = None,
    check: bool = False,
    window: float = 2.5,
    workers: Optional[int] = None,
    **schedule_kwargs,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Repair-on vs repair-off under identical churn, per protocol.

    For each protocol and each of ``runs`` seeds, executes the *same
    config* twice — once with ``policy`` (default: :data:`DEFAULT_POLICY`)
    and once without — and aggregates both arms.  Because the churn plan
    is a pure function of the config, each pair sees an identical fault
    schedule; protocols without session state (GMR) keep a flag-off
    repair arm, which the ``repair_effective`` flag records.  Every run
    goes through one :func:`~repro.experiments.runner.run_many` campaign
    (``workers`` as there); ``schedule_kwargs`` go to :func:`chaos_config`.

    Returns ``{protocol: {"off": {...}, "on": {...}}}`` summaries.
    """
    from repro.experiments.runner import field_means, run_many

    pol = policy if policy is not None else DEFAULT_POLICY
    cfgs = [
        chaos_config(_soak_config(proto, batch_seed + k), arm, **schedule_kwargs)
        for proto in protocols
        for k in range(runs)
        for arm in (None, pol)
    ]
    hooks = partial(chaos_hooks, window=window, check=check)
    runs_done = iter(run_many(cfgs, workers=workers, hooks=hooks))
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for proto in protocols:
        arms: Dict[str, List[ChaosRunResult]] = {"off": [], "on": []}
        for _k in range(runs):
            arms["off"].append(next(runs_done).reports[-1])
            arms["on"].append(next(runs_done).reports[-1])
        out[proto] = {}
        for arm, results in arms.items():
            mttrs = [r.mttr for r in results if r.mttr is not None]
            out[proto][arm] = {
                **field_means(results, "delivery_ratio", "min_window"),
                "mttr": float(np.mean(mttrs)) if mttrs else float("nan"),
                **field_means(
                    results, "rebuild_rounds", "grafts_ok", "grafts_failed",
                    "route_error_tx", "time_degraded",
                ),
                "violations": float(sum(len(r.violations) for r in results)),
                # GMR has no per-session state to repair; its "on" arm is
                # the layer declining to engage, which this flag records
                "repair_effective": float(
                    np.mean([r.grafts_ok + r.grafts_failed + r.repair_query_tx > 0
                             for r in results])
                ) if arm == "on" else 0.0,
            }
    return out


def _soak_config(protocol: str, seed: int) -> SimulationConfig:
    """The campaign's deployment: a 5x5 HELLO-phase grid, 6 receivers."""
    return SimulationConfig(
        protocol=protocol, topology="grid", grid_nx=5, grid_ny=5, side=120.0,
        group_size=6, mac="ideal", hello_phase=True, seed=seed,
    )


# ---------------------------------------------------------------------- #
# CLI campaign (``python -m repro.experiments chaos``)
# ---------------------------------------------------------------------- #

#: fast soak knobs for the CI smoke job — short data phase, two
#: crash/recover cycles, victims down past the 3.5 s neighbor expiry
_SOAK_KWARGS = dict(
    n_packets=80, rate_pps=10.0, refresh_interval=5.0,
    n_cycles=2, down_time=5.0, window=2.0,
)

_SOAK_PROTOCOLS = ("mtmrp", "odmrp", "dodmrp", "maodv", "gmr")


def _soak_campaign(runs: int, seed: int, workers: Optional[int] = None) -> int:
    """Checked chaos runs cycling the protocols; returns the failing-run count."""
    from repro.experiments.runner import run_many

    print(f"\n-- soak: {runs} checked churn runs (seed {seed}) --")
    kwargs = dict(_SOAK_KWARGS)
    window = kwargs.pop("window")
    cfgs = [
        chaos_config(
            _soak_config(_SOAK_PROTOCOLS[i % len(_SOAK_PROTOCOLS)], seed + i),
            DEFAULT_POLICY, **kwargs,
        )
        for i in range(runs)
    ]
    results = run_many(cfgs, workers=workers, hooks=partial(chaos_hooks, window=window, check=True))
    failures = 0
    for i, res in enumerate(results):
        r = res.reports[-1]
        status = "ok  " if not r.violations else "FAIL"
        print(
            f"  [{i:3d}] {status} {r.protocol:>7} seed={r.seed} "
            f"dr={r.delivery_ratio:.3f} minw={r.min_window:.2f} "
            f"rebuilds={r.rebuild_rounds} grafts={r.grafts_ok}/{r.grafts_failed} "
            f"degraded={r.time_degraded:.1f}s"
        )
        failures += bool(r.violations)
        for v in r.violations[:3]:
            print(f"        {v}")
    print(f"  {runs - failures}/{runs} runs violation-free")
    return failures


def _comparison_campaign(seed: int, runs: int = 3, workers: Optional[int] = None) -> None:
    """Repair-on vs rebuild-only headline table (identical schedules)."""
    print(f"\n-- repair on/off under identical churn ({runs} seeds/protocol) --")
    out = chaos_sweep(
        protocols=("mtmrp", "odmrp", "dodmrp", "maodv"),
        runs=runs, batch_seed=seed, workers=workers, **_SOAK_KWARGS,
    )
    print(f"  {'protocol':>8} {'arm':>4} {'delivery':>9} {'min win':>8} "
          f"{'rebuilds':>9} {'grafts':>7} {'rerr tx':>8} {'degraded':>9}")
    for proto, arms in out.items():
        for arm in ("off", "on"):
            v = arms[arm]
            print(f"  {proto:>8} {arm:>4} {v['delivery_ratio']:>9.3f} "
                  f"{v['min_window']:>8.2f} {v['rebuild_rounds']:>9.1f} "
                  f"{v['grafts_ok']:>7.1f} {v['route_error_tx']:>8.1f} "
                  f"{v['time_degraded']:>8.1f}s")


def _digest_gate(seed: int) -> int:
    """Flag-off reproducibility + committed-corpus digest drift; 0 = clean."""
    from pathlib import Path

    from repro.check.fuzz import replay_corpus_entry

    failures = 0
    print("\n-- flag-off digest gate --")
    cfg = _soak_config("mtmrp", seed)
    a = run_chaos_single(cfg, policy=None, **_SOAK_KWARGS)
    b = run_chaos_single(cfg, policy=None, **_SOAK_KWARGS)
    if a.trace_sha256 != b.trace_sha256:
        failures += 1
        print(f"  FAIL flag-off run is not reproducible (seed {seed})")
    else:
        print(f"  ok   flag-off replay bit-identical ({a.trace_sha256[:12]}...)")
    # the committed corpus lives in the repo checkout, not the package —
    # fall back from the cwd to the source tree so the gate also works
    # when the CLI is launched from elsewhere
    corpus = Path("tests/corpus")
    if not corpus.is_dir():
        corpus = Path(__file__).resolve().parents[3] / "tests" / "corpus"
    entries = sorted(corpus.glob("*.json"))
    if not entries:
        print("  note: no corpus entries found — digest gate ran "
              "flag-off replay only")
    for path in entries:
        try:
            replay_corpus_entry(path, mode="raise")
        except AssertionError as exc:
            failures += 1
            print(f"  FAIL {path.name}: {str(exc).splitlines()[0]}")
        else:
            print(f"  ok   {path.name}")
    return failures


def run_chaos(args) -> None:
    """Entry point for ``python -m repro.experiments chaos``.

    Exits non-zero on any invariant violation or digest drift, so CI can
    gate on the chaos soak the same way it gates on ``check``.
    """
    import sys

    seed = args.seed if args.seed is not None else 90210
    print("\n== Chaos-soak campaign ==")
    failures = _soak_campaign(args.runs, seed, workers=args.workers)
    _comparison_campaign(seed, runs=max(2, min(args.runs // 8, 5)), workers=args.workers)
    failures += _digest_gate(seed)
    if failures:
        print(f"\n{failures} failure(s) in chaos campaign", file=sys.stderr)
        raise SystemExit(1)
    print("\nchaos campaign clean")
