"""End-to-end benchmark of the MTMRP reproduction: four workloads, repeated trials.

    python3 bench/run.py [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--markdown]

Without ``--workload`` every workload runs, trials interleaved round-robin.
Each trial is a fresh interpreter (``bench/trial.py``) so process-wide
caches start empty.  ``--trace 0`` (default) runs TRIALS trials, each a
fixed amount of closed-loop work on inputs of its own, sized to take
``--seconds``/TRIALS on the reference machine, and prints every
end-to-end metric (throughput pooled over the trials, the others their
median) with the trials' IQR and n.  ``--trace 1`` instead runs a fixed
amount of work twice, untraced and under cProfile, and prints the
per-layer metrics (``--markdown``: as tables).  Either way the outputs are
checked (pinned digest at the default seed, determinism across trials,
oracle spot checks), the full result is written to ``bench/out/last.json``
and the last stdout line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  Metric names, units
and bounds live in ``BENCHMARK.json``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "bench" / "digests.json"
OUT = ROOT / "bench" / "out" / "last.json"

WORKLOADS = ("fig5_static", "fig7_hello", "mc_hello_batch", "service_mix")
#: five trials: five set-up samples, and four input blocks for throughput
TRIALS = 5
#: trial t runs input block t % BLOCKS, so the last trial repeats the
#: first one's inputs and their outputs must agree.  Throughput differs
#: more between inputs (one fig5 unit is one topology; units spread by
#: ~11% IQR/median) than between repeats of one input (~4%), so each
#: trial measures inputs of its own
BLOCKS = TRIALS - 1
DEFAULT_SEED = 0
#: a trial that has not finished by then is killed and the run fails
TRIAL_TIMEOUT_S = 150
#: host seconds one unit took on the 2-core reference machine; sizes the
#: fixed work of a trial to about --seconds / TRIALS there
UNIT_SECONDS = {"fig5_static": 1.2, "fig7_hello": 0.8, "mc_hello_batch": 1.3,
                "service_mix": 0.0135}
#: units the pinned digest covers; every trial runs at least these
PIN_UNITS = {"fig5_static": 1, "fig7_hello": 2, "mc_hello_batch": 1, "service_mix": 50}
#: work done by each --trace 1 trial, in units of its workload
TRACE_UNITS = {"fig5_static": 1, "fig7_hello": 2, "mc_hello_batch": 1, "service_mix": 300}


class TrialError(RuntimeError):
    """A trial process crashed or timed out (no result can be reported)."""


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """The q-th percentile, refused unless >= 10 samples lie beyond it."""
    n = len(values)
    if n * min(q, 100.0 - q) / 100.0 < 10:
        raise ValueError(f"p{q:g} of {n} samples has fewer than 10 samples beyond it")
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def summary(values, value=None) -> dict:
    """One metric over a run's trials: its reported value (the median
    unless given), and the trials' median, IQR (statistics.quantiles,
    n=4) and n."""
    vals = list(values)
    iqr = 0.0
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = q3 - q1
    median = statistics.median(vals)
    return {"value": median if value is None else value, "median": median, "iqr": iqr,
            "n": len(vals), "values": vals}


# --------------------------------------------------------------------- #
# trials
# --------------------------------------------------------------------- #
def units_for(workload: str, seconds: float) -> int:
    """Fixed units per trial: about seconds / TRIALS on the reference machine."""
    return max(PIN_UNITS[workload], round(seconds / TRIALS / UNIT_SECONDS[workload]))


def spawn_trial(workload: str, seed: int, units: int, block: int = 0,
                profile: bool = False, oracle: bool = False) -> dict:
    """Run one trial process; set-up is timed from spawn to its READY line."""
    cmd = [sys.executable, str(ROOT / "bench" / "trial.py"), "--workload", workload,
           "--seed", str(seed), "--block", str(block), "--units", str(units)]
    cmd += ["--profile"] * profile + ["--oracle"] * oracle
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_RESULT_CACHE", None)
    t0 = time.perf_counter()
    # own process group: a hung trial is killed with everything it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(TRIAL_TIMEOUT_S, kill_group)
    timer.start()
    setup_s, lines = None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - t0
            lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or not lines:
        raise TrialError(f"{workload} trial (seed {seed}) exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out.setdefault("setup_s", setup_s)
    out["block"] = block
    return out


class Checks:
    """Operations and output checks attempted, and how many failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def ops(self, result: dict) -> None:
        self.attempted += result["ops"]
        self.failed += result["failed"]
        self.notes += result["errors"]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")


def pin_of(result: dict, workload: str) -> str:
    """Digest of the units the pinned digest covers."""
    head = result["unit_digests"][: PIN_UNITS[workload]]
    return hashlib.sha256("".join(head).encode()).hexdigest()


def check_outputs(workload: str, seed: int, results: list, checks: Checks) -> dict:
    """Pinned digest (default seed; ``results[0]`` runs block 0), equal
    digests across trials of one input block, oracle."""
    for r in results:
        checks.ops(r)
    first = {}
    for r in results:
        ref = first.setdefault(r["block"], r)
        if ref is not r:
            checks.check(r["unit_digests"] == ref["unit_digests"],
                         f"{workload}: trials of block {r['block']} disagree")
    pin = pin_of(results[0], workload)
    pinned = None
    if seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text()).get(workload)
        checks.check(pin == pinned, f"{workload}: digest {pin[:12]} != pinned {str(pinned)[:12]}")
    for i, ok in enumerate(results[0].get("oracle", [])):
        checks.check(ok, f"{workload}: oracle spot check {i} mismatch")
    return {"digest": pin, "pinned": pinned}


# --------------------------------------------------------------------- #
# end-to-end pass
# --------------------------------------------------------------------- #
def end_to_end(workloads, seed: int, seconds: float, checks: Checks) -> dict:
    runs = {w: [] for w in workloads}
    for t in range(TRIALS):
        for w in workloads:
            runs[w].append(spawn_trial(w, seed, units_for(w, seconds), block=t % BLOCKS,
                                       oracle=(t == 0)))
    report = {}
    for w in workloads:
        rs = runs[w]
        pooled = sum(r["ops"] for r in rs) / sum(r["wall_s"] for r in rs)
        report[w] = {
            "metrics": {
                # pooled over the trials' different inputs, not their median
                "ops_per_s": summary((r["ops"] / r["wall_s"] for r in rs), value=pooled),
                "setup_s": summary(r["setup_s"] for r in rs),
                "peak_rss_mb": summary(r["peak_rss_mb"] for r in rs),
            },
            "output": check_outputs(w, seed, rs, checks),
            "trials": [{k: v for k, v in r.items() if k != "service"} for r in rs],
        }
    return report


# --------------------------------------------------------------------- #
# per-layer pass
# --------------------------------------------------------------------- #
def _p(values, q):
    return percentile(values, q) if values else 0.0


def service_metrics(result: dict) -> dict:
    """Latencies from the client's per-request event times, plus counters
    (all 0 on a workload that sends no requests)."""
    svc = result.get("service", {"requests": [], "stats": {}})
    reqs, stats = svc["requests"], svc["stats"]
    ms = lambda a, b: 1e3 * (b - a)  # noqa: E731
    cold = [r for r in reqs if r["cold"]]
    hits = [r for r in reqs if r["cached"]]
    gaps = []
    for r in cold:
        ts = [r["accepted"]] + r["progress"]
        gaps += [ms(a, b) for a, b in zip(ts, ts[1:])]
    return {
        "service.core.accept_ms_p50": _p([ms(r["send"], r["accepted"]) for r in reqs], 50),
        "service.core.req_ms_p95": _p([ms(r["send"], r["done"]) for r in reqs], 95),
        "service.core.cold_ms_p50": _p([ms(r["send"], r["done"]) for r in cold], 50),
        "service.scheduler.exec_ms_p50": _p([ms(r["accepted"], r["done"]) for r in cold], 50),
        "service.scheduler.replicate_ms_p50": _p(gaps, 50),
        "service.store.hit_ms_p50": _p([ms(r["send"], r["done"]) for r in hits], 50),
        "service.store.hit_frac": len(hits) / len(reqs) if reqs else 0.0,
        "service.core.executions": stats.get("executions", 0),
        "service.core.cache_hits": stats.get("cache_hits", 0),
        "service.core.coalesced": stats.get("coalesced", 0),
        "service.scheduler.replicates_run": stats.get("replicates_run", 0),
        "service.scheduler.requeued": stats.get("replicates_requeued", 0),
    }


def layer_metrics(base: dict, traced: dict) -> dict:
    """Per-layer metrics: counts and shares from the traced trial, times
    per event from the untraced one; zero where a layer does not run."""
    p = traced["profile"]
    counts = base["counts"]
    runs = counts["runs"]
    per = lambda total, n: total / n if n else 0.0  # noqa: E731
    m = {f"{layer}.self_frac": p["self_frac"][layer] for layer in layers.LAYERS}
    m.update({
        "sim.kernel.events": p["events"],
        "sim.kernel.us_per_event": per(1e6 * base["wall_s"], p["events"]),
        "net.channel.tx": p["tx"],
        "net.channel.rx": p["rx"],
        "net.channel.rx_per_tx": per(p["rx"], p["tx"]),
        "phy.collision_frac": per(counts["collisions"], p["rx"]),
        "net.node.delivered_up": p["delivered_up"],
        "mac.backoff_draws": p["backoff_draws"],
        "protocols.ctrl_tx": counts["ctrl_tx"],
    })
    for phase, total in p["phase_ms"].items():
        m[f"phase.{phase}_ms"] = per(total, runs)
    m.update({
        "sim.snapshot.captures": p["captures"],
        "sim.snapshot.forks": p["forks"],
        "sim.snapshot.reuse_frac": 1.0 - p["captures"] / p["forks"] if p["forks"] else 0.0,
        "sim.snapshot.capture_ms": per(p["capture_ms"], p["captures"]),
        "sim.snapshot.fork_ms": per(p["fork_ms"], p["forks"]),
    })
    batch = base.get("batch", {"batched_runs": 0, "fallback_runs": 0})
    m.update({
        "sim.batch.batched_frac": per(batch["batched_runs"], runs),
        "sim.batch.fallbacks": batch["fallback_runs"],
        "sim.batch.ms_per_seed": per(p["batch_ms"], batch["batched_runs"]),
    })
    m.update(service_metrics(base))
    m["trace_overhead"] = traced["wall_s"] / base["wall_s"]
    return m


def per_layer(workloads, seed: int, checks: Checks) -> dict:
    report = {}
    for w in workloads:
        base = spawn_trial(w, seed, TRACE_UNITS[w])
        traced = spawn_trial(w, seed, TRACE_UNITS[w], profile=True)
        output = check_outputs(w, seed, [base, traced], checks)
        checks.check(base["counts"] == traced["counts"], f"{w}: traced counts differ")
        report[w] = {"metrics": layer_metrics(base, traced), "output": output}
    return report


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def metric_defs(kind: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_end_to_end(report: dict, seed: int) -> None:
    for w, rep in report.items():
        print(f"== {w}  seed {seed}  {TRIALS} trials ==")
        for d in metric_defs("end_to_end"):
            s = rep["metrics"][d["name"]]
            print(f"  {d['name']:<14} {_fmt(s['value']):>12} {d['unit']:<6} "
                  f"trials: median {_fmt(s['median'])} IQR {_fmt(s['iqr'])} n={s['n']}")
        _print_output(rep["output"], seed)


def _print_output(out: dict, seed: int) -> None:
    if out["pinned"] is not None:
        state = "matches the pin" if out["digest"] == out["pinned"] else "DIFFERS from the pin"
    else:
        state = f"seed {seed} is not pinned; checked equal across trials"
    print(f"  digest {out['digest']}  {state}")


def print_per_layer(report: dict, seed: int, markdown: bool) -> None:
    defs = metric_defs("per_layer")
    for w, rep in report.items():
        m = rep["metrics"]
        if markdown:
            print(f"\n### Where a run spends its time: `{w}` (seed {seed}, traced)\n")
            print("| layer | share of self time |\n|---|---|")
            for layer in sorted(layers.LAYERS, key=lambda x: -m[f"{x}.self_frac"]):
                print(f"| `{layer}` | {100 * m[f'{layer}.self_frac']:.1f}% |")
            print("\n| phase | traced ms per run |\n|---|---|")
            for phase in ("build", "warmup", "suffix", "metrics"):
                print(f"| {phase} | {m[f'phase.{phase}_ms']:.2f} |")
            print(f"\ntrace_overhead {m['trace_overhead']:.2f}x; events "
                  f"{m['sim.kernel.events']}, rx/tx {m['net.channel.rx_per_tx']:.2f}")
            continue
        print(f"== {w}  seed {seed}  per layer (untraced + traced trial) ==")
        for d in defs:
            print(f"  {d['name']:<36} {_fmt(m[d['name']]):>14} {d['unit']}")
        _print_output(rep["output"], seed)


def result_line(report: dict, checks: Checks, trace: int, single: bool) -> dict:
    metrics = {}
    for w, rep in report.items():
        for d in metric_defs("per_layer" if trace else "end_to_end"):
            v = rep["metrics"][d["name"]]
            name = d["name"] if single else f"{w}.{d['name']}"
            metrics[name] = {"value": v["value"] if isinstance(v, dict) else v, "unit": d["unit"]}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all, interleaved)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed; the pinned digests are for the default")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: per-layer metrics from an untraced + a cProfile trial")
    ap.add_argument("--markdown", action="store_true",
                    help="with --trace: print the per-layer split as markdown tables")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no program to measure under {ROOT} (src/repro, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    checks = Checks()
    try:
        if args.trace:
            report = per_layer(workloads, args.seed, checks)
            print_per_layer(report, args.seed, args.markdown)
        else:
            report = end_to_end(workloads, args.seed, seconds, checks)
            print_end_to_end(report, args.seed)
    except TrialError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    fail_frac = checks.failed / checks.attempted
    print(f"fail_frac {fail_frac:.6g} ({checks.failed} of {checks.attempted} "
          f"operations and checks failed)")
    for note in checks.notes[:20]:
        print(f"  {note}")
    line = result_line(report, checks, args.trace, single=args.workload is not None)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"seed": args.seed, "trace": args.trace, "seconds": seconds,
                               "fail_frac": fail_frac, "notes": checks.notes,
                               "report": report, "result": line}, indent=1))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
