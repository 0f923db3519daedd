"""Tier-1 regression gate: every committed corpus entry replays clean.

``tests/corpus/`` holds shrunk fuzzer finds and hand-crafted edge
scenarios (crash during discovery, Gilbert-Elliott loss with sleeping
relays, mobility under refresh, energy depletion, RouteError-driven
recovery).  Each replay must finish with zero invariant violations and,
where a digest is pinned, reproduce the exact trace.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.fuzz import load_corpus_entry, replay_corpus_entry

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
ENTRIES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_populated():
    assert len(ENTRIES) >= 5, "the committed regression corpus went missing"


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_replays_clean(path):
    report = replay_corpus_entry(path, mode="raise")
    assert report.ok
    assert report.checkpoints[0] == "route-discovery"
    assert report.checkpoints[-1] == "end-of-run"


def test_route_error_entry_exercises_recovery_checkpoint():
    path = CORPUS_DIR / "006-routeerror-recovery.json"
    report = replay_corpus_entry(path, mode="raise")
    assert "route-error" in report.checkpoints
    # the crash was recovered from: every receiver still got data
    assert report.delivered_receivers == report.n_receivers


def test_graft_entry_heals_without_flood():
    # 007 pins the self-healing happy path: the crash is absorbed by a
    # local graft, so the run replays clean AND every receiver got data
    path = CORPUS_DIR / "007-graft-success.json"
    report = replay_corpus_entry(path, mode="raise")
    assert load_corpus_entry(path)[0].schedule.repair is not None
    assert report.delivered_receivers == report.n_receivers


def test_degraded_entry_replays_clean():
    # 008 pins the escalation path: graft fails, the RouteError budget
    # exhausts, and the partitioned receiver's session earns DEGRADED —
    # which check_repair validates at the end-of-run checkpoint
    path = CORPUS_DIR / "008-degraded-fallback.json"
    report = replay_corpus_entry(path, mode="raise")
    repair = load_corpus_entry(path)[0].schedule.repair
    assert repair is not None
    assert repair.route_error_budget == 1
    assert report.ok


def test_corpus_entries_are_well_formed():
    for path in ENTRIES:
        doc = json.loads(path.read_text())
        assert set(doc) == {"note", "config", "trace_sha256"}, path.name
        assert doc["config"]["schedule"] is not None, path.name


def test_corpus_replays_from_any_directory(tmp_path, monkeypatch, capsys):
    """``replay_corpus`` falls back to the source tree's corpus, so the
    ``check`` CLI's corpus stage gates on every entry from any working
    directory."""
    from repro.experiments.check import _replay_corpus

    monkeypatch.chdir(tmp_path)
    assert _replay_corpus() == 0
    out = capsys.readouterr().out
    assert f"-- corpus replay: {len(ENTRIES)} committed entries --" in out
    for path in ENTRIES:
        assert f"  ok   {path.name}" in out
