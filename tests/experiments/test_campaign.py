"""Tests for checkpointed campaigns."""

import json

import pytest

from repro.experiments import SimulationConfig, monte_carlo
from repro.experiments.campaign import config_key, load_campaign, run_campaign

FAST = dict(topology="grid", group_size=10, mac="ideal")


def _configs(n=3):
    return monte_carlo(SimulationConfig(protocol="odmrp", **FAST), n, batch_seed=1)


def test_run_and_load_roundtrip(tmp_path):
    path = tmp_path / "campaign.jsonl"
    records = run_campaign(_configs(), path)
    assert len(records) == 3
    index, loaded = load_campaign(path)
    assert len(loaded) == 3
    assert all("_config" in r and "data_transmissions" in r for r in loaded)
    assert len(index) == 3


def test_resume_skips_done_configs(tmp_path):
    path = tmp_path / "campaign.jsonl"
    run_campaign(_configs(2), path)
    calls = []
    run_campaign(_configs(4), path, progress=lambda i, n: calls.append((i, n)))
    # only the 2 new configs were executed
    assert calls == [(1, 2), (2, 2)]
    _index, records = load_campaign(path)
    assert len(records) == 4


def test_config_key_stable_and_distinct():
    a, b = _configs(2)
    assert config_key(a) == config_key(a.with_())
    assert config_key(a) != config_key(b)


def test_records_rebuild_configs(tmp_path):
    path = tmp_path / "c.jsonl"
    run_campaign(_configs(1), path)
    _idx, records = load_campaign(path)
    cfg = SimulationConfig(**records[0]["_config"])
    assert cfg.protocol == "odmrp"
    assert cfg.group_size == 10


def test_missing_file_loads_empty(tmp_path):
    index, records = load_campaign(tmp_path / "nope.jsonl")
    assert index == {} and records == []


def test_file_is_json_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    run_campaign(_configs(2), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        json.loads(line)  # every line is standalone JSON


def test_parallel_warm_campaign_matches_serial(tmp_path):
    cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", topology="grid", group_size=10), 5, 321)
    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    run_campaign(cfgs, serial, workers=1, warm=False)
    run_campaign(cfgs, parallel, workers=2, warm=True)
    idx_s, recs_s = load_campaign(serial)
    idx_p, recs_p = load_campaign(parallel)
    assert idx_s == idx_p and len(recs_p) == 5
    # checkpoints are complete: a rerun finds nothing to do
    before = parallel.read_text()
    run_campaign(cfgs, parallel, workers=2, warm=True)
    assert parallel.read_text() == before


def test_resume_reruns_records_from_another_cache_version(tmp_path):
    """A checkpoint written under other run semantics is not reused: its
    records are skipped on load and re-run on resume."""
    from repro.experiments.runner import CACHE_VERSION

    path = tmp_path / "c.jsonl"
    run_campaign(_configs(3), path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(rec["_version"] == CACHE_VERSION for rec in lines)
    lines[0]["_version"] = CACHE_VERSION - 1  # computed under older semantics
    del lines[1]["_version"]  # written before records carried a version
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))

    index, records = load_campaign(path)
    assert list(index) == [config_key(_configs(3)[2])]
    assert records == [lines[2]]

    calls = []
    records = run_campaign(_configs(3), path, progress=lambda i, n: calls.append((i, n)))
    assert calls == [(1, 2), (2, 2)]  # the two stale records re-ran
    assert len(records) == 3
    assert {config_key(SimulationConfig(**r["_config"])) for r in records} == {
        config_key(c) for c in _configs(3)
    }
    # the re-run reproduces the stale rows' metrics under the current version
    rerun = {r["seed"]: r for r in records}
    for stale in lines[:2]:
        assert rerun[stale["seed"]]["data_transmissions"] == stale["data_transmissions"]
