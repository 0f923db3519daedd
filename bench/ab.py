"""A/B comparison of git refs on the benchmark, and calibration of the tree.

    python3 bench/ab.py REF_A REF_B [REF ...] [--pairs 10] [--workload W ...] [--trace]
    python3 bench/ab.py --calibrate [--workload W ...]

A/B: every ref is exported with ``git archive`` into a temporary directory
(``$TMPDIR`` decides where) and this checkout's ``bench/`` and
``BENCHMARK.json`` are copied over it, so every side runs identical
benchmark code for the ``run_seconds`` of this ``BENCHMARK.json``.  Each
round runs every ref once per workload at the round's seed; rounds
alternate the order, so each adjacent pair of refs
runs first half the time.  For each adjacent pair (REF_A -> REF_B, ...)
one row per (end-to-end metric, workload) reads:

* ``improved``      -- B wins >= 9/10 of the pairs and the medians differ
                       by more than A's IQR;
* ``unresolved``    -- A's IQR exceeds the metric's bound and B's runs do
                       not all read better than all of A's;
* ``regressed``     -- B's median is worse than A's by more than the bound;
* ``no regression`` -- otherwise.

``--trace`` adds one ``--trace 1`` run per ref and workload and prints the
``self_frac`` split of each ref beside the previous one.

``--calibrate`` runs this checkout 2 x 5 times per workload (seeds 1-10,
set A = seeds 1-5, set B = 6-10), writes each metric's median, IQR,
spread (IQR / median over all ten) and bound to ``bench/calibration.json``, checks
the two sets' medians agree within each bound and that one traced run per
set gives identical per-layer counts, and widens a bound in
``BENCHMARK.json`` only where the measured spread demands it: a bound
must be at least SPREAD_MARGIN times the largest spread over the
workloads (capped at MAX_BOUND; ``setup_s`` keeps its bound).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from run import ROOT, WORKLOADS, metric_defs

CALIBRATION = ROOT / "bench" / "calibration.json"
MAX_BOUND = 0.25
#: a bound this many times the run-to-run spread keeps the gap between
#: two sets of runs on the same code well inside it
SPREAD_MARGIN = 3


def export(ref: str, dest: Path) -> Path:
    """``git archive`` of ``ref`` plus this checkout's benchmark files."""
    blob = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                          check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, **safe)
    shutil.rmtree(dest / "bench", ignore_errors=True)
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((tree / "bench" / "out" / "last.json").read_text())
    return {
        "values": {k: v["value"] for k, v in line["metrics"].items()},
        "failed": line["failed"],
        "digest": full["report"][workload]["output"]["digest"],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """The rule of the module docstring for one (metric, workload)."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    gain = sign * (mb - ma) / ma
    if wins >= 0.9 * len(a) and gain > 0 and abs(mb - ma) > q3 - q1:
        return "improved"
    if (q3 - q1) / ma > bound and not all(sign * y > sign * x for x in a for y in b):
        return "unresolved"
    if gain < -bound:
        return "regressed"
    return "no regression"


def ab(refs, workloads, pairs: int, trace: bool) -> int:
    e2e = metric_defs("end_to_end")
    work = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    try:
        trees = {ref: export(ref, work / f"t{i}") for i, ref in enumerate(refs)}
        runs = {(ref, w): [] for ref in refs for w in workloads}
        for i in range(pairs):
            order = refs if i % 2 == 0 else refs[::-1]
            for ref in order:
                for w in workloads:
                    r = run_once(trees[ref], w, seed=1 + i)
                    runs[ref, w].append(r)
                    print(f"round {i + 1}/{pairs} {ref} {w}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in r["values"].items()),
                          flush=True)
        print()
        for w in workloads:
            print(f"== {w}: median [q1, q3] over {pairs} runs ==")
            for ref in refs:
                rs = runs[ref, w]
                cells = []
                for d in e2e:
                    vals = [r["values"][d["name"]] for r in rs]
                    q1, q3 = quartiles(vals)
                    cells.append(f"{d['name']} {statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}]")
                failed = sum(r["failed"] for r in rs)
                print(f"  {ref:<12} " + "  ".join(cells) + f"  failed {failed}")
            digests = {tuple(r["digest"] for r in runs[ref, w]) for ref in refs}
            print(f"  outputs: {'identical' if len(digests) == 1 else 'DIFFER'} across refs")
        print()
        for a, b in zip(refs, refs[1:]):
            print(f"== {a} -> {b} ==")
            for w in workloads:
                for d in e2e:
                    va = [r["values"][d["name"]] for r in runs[a, w]]
                    vb = [r["values"][d["name"]] for r in runs[b, w]]
                    wins = sum((y > x) if d["better"] == "higher" else (y < x)
                               for x, y in zip(va, vb))
                    change = statistics.median(vb) / statistics.median(va) - 1.0
                    print(f"  {w:<15} {d['name']:<12} {change:+8.1%}  B wins {wins}/{pairs}"
                          f"  {verdict(va, vb, d['better'], d['bound'])}")
        if trace:
            _trace_table(refs, trees, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _trace_table(refs, trees, workloads) -> None:
    names = [d["name"] for d in metric_defs("per_layer") if d["name"].endswith(".self_frac")]
    for w in workloads:
        split = {ref: run_once(trees[ref], w, seed=1, trace=1)["values"] for ref in refs}
        print(f"\n== {w}: traced self_frac (seed 1) ==")
        print(f"  {'layer':<30}" + "".join(f"{ref:>13}" for ref in refs))
        for n in names:
            row = [split[ref][n] for ref in refs]
            deltas = [""] + [f"({100 * (y - x):+.1f})" for x, y in zip(row, row[1:])]
            print(f"  {n:<30}" + "".join(f"{100 * v:6.1f}%{d:>7}" for v, d in zip(row, deltas)))


def calibrate(workloads) -> int:
    defs = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, 11))
    runs = {w: [] for w in workloads}
    for s in seeds:
        for w in workloads:
            runs[w].append(run_once(ROOT, w, seed=s))
            print(f"seed {s} {w}: {runs[w][-1]['values']}", flush=True)
    counts = {w: [] for w in workloads}
    count_names = [d["name"] for d in defs["per_layer"] if d["unit"] == "count"]
    for _ in range(2):
        for w in workloads:
            v = run_once(ROOT, w, seed=0, trace=1)["values"]
            counts[w].append({n: v[n] for n in count_names})

    report, ok = {}, True
    for w in workloads:
        report[w] = {"counts_identical": counts[w][0] == counts[w][1],
                     "failed": sum(r["failed"] for r in runs[w])}
        ok &= report[w]["counts_identical"] and report[w]["failed"] == 0
        for d in defs["end_to_end"]:
            vals = [r["values"][d["name"]] for r in runs[w]]
            q1, q3 = quartiles(vals)
            med = statistics.median(vals)
            set_a, set_b = statistics.median(vals[:5]), statistics.median(vals[5:])
            worse = (set_b - set_a) / set_a * (-1 if d["better"] == "higher" else 1)
            report[w][d["name"]] = {"median": med, "iqr": q3 - q1, "spread": (q3 - q1) / med,
                                    "set_a": set_a, "set_b": set_b, "set_b_worse": worse,
                                    "values": vals}
    changed, bounds = False, {}
    print(f"\n{'workload':<15} {'metric':<12} {'median':>10} {'spread':>8} "
          f"{'B vs A':>8} {'bound':>6}")
    for d in defs["end_to_end"]:
        spread = max(report[w][d["name"]]["spread"] for w in workloads)
        need = SPREAD_MARGIN * spread
        if d["name"] != "setup_s" and need > d["bound"]:
            new = min(MAX_BOUND, math.ceil(need * 100) / 100)
            print(f"  widening {d['name']} bound {d['bound']} -> {new} "
                  f"(spread {spread:.3f} x {SPREAD_MARGIN}{', capped' if new < need else ''})")
            d["bound"] = new
            changed = True
        bounds[d["name"]] = {"bound": d["bound"], "max_spread": spread}
        for w in workloads:
            c = report[w][d["name"]]
            print(f"{w:<15} {d['name']:<12} {c['median']:>10.4g} {c['spread']:>8.1%} "
                  f"{c['set_b_worse']:>+8.1%} {d['bound']:>6.0%}")
            ok &= abs(c["set_b_worse"]) < d["bound"]
    for w in workloads:
        print(f"{w:<15} per-layer counts identical across sets: {report[w]['counts_identical']}"
              f"; failed ops {report[w]['failed']}")
    CALIBRATION.write_text(json.dumps(
        {"run_seconds": defs["run_seconds"], "seeds": seeds, "spread_margin": SPREAD_MARGIN,
         "bounds": bounds, "workloads": report}, indent=1) + "\n")
    if changed:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(defs, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("refs", nargs="*", help="git refs, parent first")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    if args.calibrate:
        return calibrate(workloads)
    if len(args.refs) < 2:
        ap.error("give at least two refs (or --calibrate)")
    return ab(args.refs, workloads, args.pairs, args.trace)


if __name__ == "__main__":
    sys.exit(main())
