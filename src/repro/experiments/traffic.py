"""Session-ramp experiment and multi-session CI campaign (``traffic`` CLI).

Ramp mode (default) grows one deployment's concurrent session count from
1 to ``--traffic-sessions`` and compares MTMRP against ODMRP on the
quantities the multi-session regime is about:

* **shared-forwarder ratio** — nodes forwarding for >= 2 sessions over
  nodes forwarding for >= 1 (MTMRP's cross-session reuse);
* **aggregate data transmissions** — the paper's minimum-transmission
  claim, summed over every session;
* **Jain fairness** over per-session delivery ratios;
* **saturation knee** — the first session count whose mean aggregate
  delivery ratio drops below
  :data:`~repro.traffic.metrics.SATURATION_THRESHOLD` under the
  contention MAC.

Campaign mode (``--traffic-campaign``) is the CI soak: ``--runs``
seed-varied 4-session runs under a :class:`~repro.check.CheckHarness`
in ``collect`` mode, plus the flag-off digest guard (a trivially default
single-session :class:`~repro.traffic.spec.TrafficPlan` must be
byte-identical to ``sessions=None``).  Any violation or digest drift
exits non-zero — see ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_many, run_single
from repro.traffic.metrics import SATURATION_THRESHOLD
from repro.traffic.spec import TrafficPlan, ramp_plan

__all__ = [
    "session_ramp",
    "traffic_campaign",
    "campaign_batch_parity",
    "flag_off_digest_guard",
    "run_traffic",
]

#: the two protocols the ramp compares (the paper's central pairing)
RAMP_PROTOCOLS: Tuple[str, ...] = ("mtmrp", "odmrp")


def _mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def session_ramp(
    max_sessions: int = 8,
    runs: int = 5,
    protocols: Sequence[str] = RAMP_PROTOCOLS,
    mac: str = "csma",
    base_seed: int = 0,
    workers: Optional[int] = None,
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """``{n_sessions: {protocol: averaged traffic measures}}`` for 1..max.

    Each cell averages ``runs`` seed-varied rounds of the canonical
    :func:`~repro.traffic.spec.ramp_plan` on the default grid; the whole
    ramp is one :func:`~repro.experiments.runner.run_many` campaign
    (``workers`` as there).  The contention MAC is the default because
    saturation is a contention phenomenon; pass ``mac="ideal"`` for the
    lossless parity view.
    """
    base = SimulationConfig(mac=mac)
    counts = range(1, max_sessions + 1)
    plans = {n: ramp_plan(base, n) for n in counts}
    cfgs = [
        base.with_(protocol=proto, seed=base_seed + r, sessions=plans[n])
        for n in counts for proto in protocols for r in range(runs)
    ]
    results = iter(run_many(cfgs, workers=workers))
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for n in counts:
        out[n] = {}
        for proto in protocols:
            cell = [next(results).traffic for _ in range(runs)]
            out[n][proto] = {
                "delivery_ratio": _mean(tm.aggregate_delivery_ratio for tm in cell),
                "fairness": _mean(tm.fairness for tm in cell),
                "shared_forwarder_ratio": _mean(tm.shared_forwarder_ratio for tm in cell),
                "data_tx": _mean(tm.aggregate_data_tx for tm in cell),
                "goodput_rps": _mean(sum(s.goodput for s in tm.sessions) for tm in cell),
                "saturated_frac": _mean(int(tm.saturated) for tm in cell),
            }
    return out


def saturation_knee(
    ramp: Dict[int, Dict[str, Dict[str, float]]], protocol: str
) -> int | None:
    """First session count whose mean delivery dips below the threshold."""
    for n in sorted(ramp):
        cell = ramp[n].get(protocol)
        if cell and cell["delivery_ratio"] < SATURATION_THRESHOLD:
            return n
    return None


def flag_off_digest_guard(seed: int = 42) -> Tuple[str, str]:
    """(digest without sessions, digest with the default single plan).

    Byte-equality of the pair is the flag-off contract: configuring the
    trivially default :meth:`TrafficPlan.single` must not perturb a
    single event of the legacy run.
    """
    from repro.net.packet import reset_uids
    from repro.sim.trace import TraceKind, TraceRecorder, trace_digest

    digests = []
    base = SimulationConfig(seed=seed)
    for sessions in (None, TrafficPlan.single(base)):
        reset_uids()  # digests embed packet uids, a process-global counter
        trace = TraceRecorder(
            enabled_kinds={
                TraceKind.TX, TraceKind.DELIVER, TraceKind.MARK, TraceKind.NOTE
            }
        )
        run_single(base.with_(sessions=sessions), trace=trace, cache=False)
        digests.append(trace_digest(trace))
    return digests[0], digests[1]


def _collect_harness(cfg: SimulationConfig) -> list:
    """``run_many`` hook factory: one ``collect``-mode harness per run."""
    from repro.check import CheckHarness

    return [CheckHarness(mode="collect")]


def traffic_campaign(
    runs: int = 25, n_sessions: int = 4, base_seed: int = 0, workers: Optional[int] = None
) -> Tuple[int, int]:
    """(violations, delivered receiver-sessions) over a checked soak.

    Every run carries ``n_sessions`` concurrent MTMRP flows under a
    harness in ``collect`` mode enforcing the session-scoped invariants
    (deliver-membership, path-profit-sum, feasible forwarding sets).
    The runs form one :func:`~repro.experiments.runner.run_many` campaign
    (``workers`` as there).
    """
    base = SimulationConfig()
    plan = ramp_plan(base, n_sessions)
    cfgs = [base.with_(seed=base_seed + r, sessions=plan) for r in range(runs)]
    results = run_many(cfgs, workers=workers, hooks=_collect_harness)
    violations = sum(len(res.reports[0].violations) for res in results)
    delivered = sum(s.delivered for res in results for s in res.traffic.sessions)
    return violations, delivered


def campaign_batch_parity(
    runs: int = 25, n_sessions: int = 4, base_seed: int = 0
) -> Tuple[int, int]:
    """(digest drifts, batch-kernel runs) for the campaign's batch pass.

    Replays the campaign's multi-session workload on its batch-eligible
    twin (ideal MAC + HELLO phase — the vectorized kernel's domain),
    once through the scalar per-seed path and once through
    :func:`repro.sim.batch.run_batch`, sharing one trace recorder per
    pass so the digests cover every seed.  Zero drift plus a nonzero
    batch count is the CI guard that the session-aware kernel actually
    served the multi-session campaign (see ``.github/workflows/ci.yml``).
    """
    from repro.net.packet import reset_uids
    from repro.sim.batch import STATS, run_batch
    from repro.sim.trace import TraceRecorder, trace_digest

    base = SimulationConfig(
        mac="ideal", hello_phase=True, hello_warmup=6.0,
        construction_time=0.5, data_time=0.25,
    )
    plan = ramp_plan(base, n_sessions)
    cfgs = [base.with_(seed=base_seed + r, sessions=plan) for r in range(runs)]
    reset_uids()  # digests embed packet uids, a process-global counter
    tr_scalar = TraceRecorder()
    for cfg in cfgs:
        run_single(cfg, trace=tr_scalar, cache=False, warm_start=False)
    d_scalar = trace_digest(tr_scalar)
    reset_uids()
    batched_before = STATS.batched_runs
    tr_batch = TraceRecorder()
    run_batch(cfgs, trace=tr_batch)
    drift = int(trace_digest(tr_batch) != d_scalar)
    return drift, STATS.batched_runs - batched_before


def _print_batch_stats() -> None:
    """One-line batch-kernel tally with the fallback-reason histogram."""
    from repro.sim.batch import STATS

    reasons = dict(sorted(STATS.fallback_reasons.items()))
    print(f"  [batch] runs={STATS.batched_runs}"
          f" sessions={STATS.batched_sessions}"
          f" fallback={STATS.fallback_runs}"
          + (f"  reasons={reasons}" if reasons else ""))


def run_traffic(args) -> None:
    """CLI entry point (see ``python -m repro.experiments traffic``)."""
    if args.traffic_campaign:
        runs = args.runs
        print(f"\n== Multi-session CI campaign ({runs} checked 4-session runs) ==")
        d0, d1 = flag_off_digest_guard()
        if d0 != d1:
            print(
                f"FLAG-OFF DIGEST DRIFT: sessions=None {d0[:16]} != "
                f"default plan {d1[:16]}",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(f"  flag-off digest guard: ok ({d0[:16]}...)")
        violations, delivered = traffic_campaign(runs=runs, workers=args.workers)
        print(f"  delivered receiver-sessions: {delivered}")
        if violations:
            print(f"  INVARIANT VIOLATIONS: {violations}", file=sys.stderr)
            raise SystemExit(1)
        print("  invariant violations: 0")
        drift, batch_runs = campaign_batch_parity(runs=runs)
        if drift or batch_runs == 0:
            print(
                f"BATCH PARITY FAILURE: digest drift={drift}, "
                f"batch runs={batch_runs} (expected 0 drift, >0 runs)",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(f"  batch parity: ok ({batch_runs} batched runs, zero drift)")
        _print_batch_stats()
        return

    max_sessions = args.traffic_sessions
    runs = max(args.runs // 5, 3)
    print(
        f"\n== Session ramp 1..{max_sessions} "
        f"(grid, csma, {runs} runs/point, MTMRP vs ODMRP) =="
    )
    ramp = session_ramp(max_sessions=max_sessions, runs=runs, workers=args.workers)
    hdr = (
        f"{'n':>3}"
        + "".join(
            f" {p + '.deliv':>11} {p + '.fair':>10} {p + '.shared':>11} "
            f"{p + '.tx':>8}"
            for p in RAMP_PROTOCOLS
        )
    )
    print(hdr)
    for n in sorted(ramp):
        row = f"{n:>3}"
        for p in RAMP_PROTOCOLS:
            c = ramp[n][p]
            row += (
                f" {c['delivery_ratio']:>11.3f} {c['fairness']:>10.3f}"
                f" {c['shared_forwarder_ratio']:>11.3f} {c['data_tx']:>8.1f}"
            )
        print(row)
    for p in RAMP_PROTOCOLS:
        knee = saturation_knee(ramp, p)
        shown = f"{knee} sessions" if knee is not None else "not reached"
        print(f"saturation knee ({p}, delivery < {SATURATION_THRESHOLD}): {shown}")
    _print_batch_stats()
