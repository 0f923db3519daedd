"""Checks of the benchmark itself: ``pytest bench/`` (outside the default testpaths).

Every workload runs at its smallest size (``--seconds 0.1`` still runs
the units the pinned digest covers), so the whole file takes a minute
or two.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args: str) -> tuple:
    proc = subprocess.run([sys.executable, str(run.ROOT / "bench" / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_shape():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [d["name"] for d in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for d in spec["end_to_end"]:
        assert set(d) == {"name", "unit", "better", "bound"} and 0 < d["bound"] <= 0.25
        assert UNIT.match(d["unit"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        d for d in spec["end_to_end"] if d["name"] == "setup_s").items()
    for d in spec["per_layer"]:
        assert set(d) == {"name", "unit", "better"} and UNIT.match(d["unit"])


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        run.percentile(list(range(199)), 95)
    assert run.percentile(list(range(200)), 95) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 50)
    assert run.percentile(list(range(21)), 50) == 10


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_runs_and_prints_its_metrics(workload):
    proc, line = _bench("--workload", workload, "--seed", "1", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    e2e = run.metric_defs("end_to_end")
    assert list(line["metrics"]) == [d["name"] for d in e2e]
    for d in e2e:
        got = line["metrics"][d["name"]]
        assert got["unit"] == d["unit"] and got["value"] > 0
        assert re.search(rf"^  {re.escape(d['name'])} .* {re.escape(d['unit'])} ",
                         proc.stdout, re.M)


@pytest.fixture(scope="module")
def traced():
    proc, line = _bench("--seed", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert line["correct"]
    return line["metrics"]


def _layer(metrics: dict, workload: str) -> dict:
    prefix = workload + "."
    return {k[len(prefix):]: v["value"] for k, v in metrics.items() if k.startswith(prefix)}


def test_trace_reports_every_per_layer_metric(traced):
    names = [d["name"] for d in run.metric_defs("per_layer")]
    for w in run.WORKLOADS:
        assert list(_layer(traced, w)) == names


def test_self_frac_sums_to_one(traced):
    for w in run.WORKLOADS:
        m = _layer(traced, w)
        total = sum(v for k, v in m.items() if k.endswith(".self_frac"))
        assert total == pytest.approx(1.0, abs=0.01), w


def test_snapshot_and_batch_engage_only_where_predicted(traced):
    snapshot = ("captures", "forks", "reuse_frac", "capture_ms", "fork_ms")
    for w in ("fig5_static", "mc_hello_batch"):
        m = _layer(traced, w)
        assert all(m[f"sim.snapshot.{k}"] == 0 for k in snapshot), w
    assert _layer(traced, "fig7_hello")["sim.snapshot.forks"] > 0
    batch = ("self_frac", "batched_frac", "fallbacks", "ms_per_seed")
    for w in ("fig5_static", "fig7_hello", "service_mix"):
        m = _layer(traced, w)
        assert all(m[f"sim.batch.{k}"] == 0 for k in batch), w
    assert _layer(traced, "mc_hello_batch")["sim.batch.batched_frac"] == 1.0


def test_per_layer_counts_repeat_exactly(traced):
    proc, line = _bench("--workload", "fig7_hello", "--seed", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    counts = [d["name"] for d in run.metric_defs("per_layer") if d["unit"] == "count"]
    first = _layer(traced, "fig7_hello")
    assert {n: line["metrics"][n]["value"] for n in counts} == {n: first[n] for n in counts}


def test_corrupted_pin_fails_the_run(monkeypatch, capsys):
    pins = json.loads(run.DIGESTS.read_text())
    pins["fig5_static"] = "0" * 64
    bad = run.OUT.parent / "corrupted-digests.json"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "DIGESTS", bad)
    try:
        assert run.main(["--workload", "fig5_static", "--seconds", "0.1"]) == 1
    finally:
        bad.unlink()
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not line["correct"] and line["failed"] >= 1
