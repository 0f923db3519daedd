"""The ``check`` CLI: offline invariant-checking campaigns.

Composes the three :mod:`repro.check` pillars into one command::

    python -m repro.experiments check --runs 50 --seed 7

1. **fuzz** — ``--runs`` random scenarios (faults, loss, mobility,
   energy budgets) executed under the :class:`~repro.check.CheckHarness`
   as one ``run_many`` campaign (``--workers`` as there); any violating
   scenario is serialised to ``results/check_failures/`` so it can be
   promoted into ``tests/corpus/``.
2. **oracle** — small-instance differential comparison against the
   exhaustive :func:`~repro.trees.validate.brute_force_min_transmitters`
   optimum: reports the per-run and mean MTMRP approximation ratio.
3. **cross-protocol** — identical-seed delivery/cost comparison of
   MTMRP against ODMRP / GMR / MAODV at paper scale.
4. **corpus replay** — every committed ``tests/corpus/*.json`` entry is
   re-run and must stay violation-free (and digest-stable when pinned).

Exits non-zero when any violation or corpus regression is found, so CI
can gate on it directly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["run_check"]

#: where violating fuzz scenarios are written for later triage
FAILURE_DIR = Path("results/check_failures")

#: committed regression corpus replayed on every campaign
CORPUS_DIR = Path("tests/corpus")


def _fuzz_campaign(runs: int, seed: int, workers=None) -> int:
    from repro.check.fuzz import random_scenario, save_corpus_entry, scenario_hooks
    from repro.experiments.runner import RunError, run_many

    print(f"\n-- fuzz: {runs} random scenarios (seed {seed}) --")
    rng = np.random.default_rng(seed)
    scenarios = [random_scenario(rng) for _ in range(runs)]
    # One poisoned scenario must not kill the campaign: a crash in the
    # simulator is itself a finding — record it (with the seed that
    # reproduces it) exactly like an invariant violation.
    results = run_many(
        [sc.run_config() for sc in scenarios], workers=workers,
        hooks=scenario_hooks, on_error="collect",
    )
    failures = 0
    for i, (scenario, res) in enumerate(zip(scenarios, results)):
        report = None if isinstance(res, RunError) else res.reports[-1]
        if report is not None and report.ok:
            continue
        failures += 1
        FAILURE_DIR.mkdir(parents=True, exist_ok=True)
        out = FAILURE_DIR / f"seed{scenario.config.seed}.json"
        if report is None:
            save_corpus_entry(scenario, out, note=f"crash: {res}")
            found = [f"CRASH {res}"]
        else:
            save_corpus_entry(
                scenario, out,
                note="; ".join(sorted({v.invariant for v in report.violations})),
                trace_sha256=report.trace_sha256,
            )
            found = [str(v).splitlines()[0] for v in report.violations[:5]]
        print(f"  [{i:3d}] {scenario.describe()}")
        for line in found:
            print(f"        {line}")
        print(f"        -> scenario saved to {out}")
    print(f"  {runs - failures}/{runs} scenarios violation-free")
    return failures


def _oracle_campaign(instances: int, seed: int) -> None:
    from repro.check.oracle import ORACLE_MAX_NODES, small_instance_oracle

    print(f"\n-- oracle: MTMRP vs exhaustive optimum (n={ORACLE_MAX_NODES}) --")
    print(f"  {'seed':>6} {'tx':>4} {'opt':>4} {'ratio':>6} {'delivery':>9}")
    ratios = []
    for k in range(instances):
        r = small_instance_oracle(seed=seed + k)
        ratio = r.ratio
        shown = f"{ratio:.3f}" if ratio is not None else "--"
        print(
            f"  {r.seed:>6} {r.protocol_transmitters:>4} "
            f"{r.optimal_transmitters if r.optimal_transmitters is not None else '--':>4} "
            f"{shown:>6} {r.delivery_ratio:>9.2f}"
        )
        if ratio is not None:
            ratios.append(ratio)
    if ratios:
        print(
            f"  approximation ratio over {len(ratios)} comparable instances: "
            f"mean {float(np.mean(ratios)):.3f}, max {float(np.max(ratios)):.3f}"
        )
    else:
        print("  no comparable instances (partial delivery everywhere)")


def _cross_protocol_campaign(seed: int) -> None:
    from repro.check.oracle import cross_protocol_check

    print("\n-- cross-protocol delivery under identical seeds (grid, 15 rx) --")
    out = cross_protocol_check(seed=seed)
    print(f"  {'protocol':>8} {'delivery':>9} {'data tx':>8}")
    for proto, (delivery, tx) in out.items():
        print(f"  {proto:>8} {delivery:>9.2f} {tx:>8}")
    mtmrp = out.get("mtmrp")
    others = [d for p, (d, _) in out.items() if p != "mtmrp"]
    if mtmrp is not None and others and mtmrp[0] < min(others) - 0.2:
        print("  WARNING: MTMRP delivery trails every baseline on this seed")


def _replay_corpus() -> int:
    from repro.check.fuzz import replay_corpus_entry

    entries = sorted(CORPUS_DIR.glob("*.json"))
    print(f"\n-- corpus replay: {len(entries)} committed entries --")
    failures = 0
    for path in entries:
        note = json.loads(path.read_text()).get("note", "")
        try:
            report = replay_corpus_entry(path, mode="raise")
        except AssertionError as exc:
            failures += 1
            print(f"  FAIL {path.name}: {str(exc).splitlines()[0]}")
            continue
        print(f"  ok   {path.name:36s} {len(report.checkpoints)} checkpoints  {note}")
    return failures


def run_check(args) -> None:
    """Entry point for ``python -m repro.experiments check``."""
    runs = args.runs
    seed = args.seed if args.seed is not None else 20260805
    print("\n== Invariant-check campaign ==")
    failures = _fuzz_campaign(runs, seed, workers=args.workers)
    _oracle_campaign(instances=max(runs // 5, 4), seed=seed)
    _cross_protocol_campaign(seed=seed)
    failures += _replay_corpus()
    if failures:
        print(f"\n{failures} failure(s); violating scenarios under {FAILURE_DIR}/",
              file=sys.stderr)
        raise SystemExit(1)
    print("\nall checks passed")
