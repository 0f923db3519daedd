"""Property-based protocol fuzzing under the invariant harness.

The central property: *no reachable fuzz case violates any invariant*.
Hypothesis explores the scenario space (topology, receivers, loss,
faults, mobility, energy budgets); every generated config executes a
full simulation under a ``CheckHarness`` and must come back clean.
The suite-wide ``derandomized`` profile (tests/conftest.py) keeps the
explored examples identical across machines; falsifying examples get
shrunk and should be committed to ``tests/corpus/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings

from repro.check.fuzz import (
    BOUNDS,
    describe,
    load_corpus_entry,
    random_scenario,
    replay_corpus_entry,
    run_scenario,
    save_corpus_entry,
    scenario_strategy,
)
from repro.experiments.config import Schedule, SimulationConfig
from repro.experiments.runner import config_hash

#: sha256 over the ``config_hash`` of the first 200 configs the ``check``
#: CLI draws at a seed: the CLI default, and 7.  A change to the draw
#: order changes which configs every ``check --seed S`` campaign runs.
DRAW_STREAM = {
    20260805: "536146b886613830b2262efd1ec2c4a960aba3d02f83357af7ca2ae4b1b32398",
    7: "ab951bd268c92eba8e8ebe4d393e0fa4c1103fcbbe04e9d16439b6272285587d",
}


def _roundtrip(cfg: SimulationConfig) -> SimulationConfig:
    return SimulationConfig(**json.loads(json.dumps(asdict(cfg))))


@settings(max_examples=25)
@given(scenario_strategy())
def test_no_scenario_violates_invariants(cfg):
    report = run_scenario(cfg, mode="collect")
    assert report.ok, (
        f"invariant violations in fuzzed config {describe(cfg)}:\n"
        + "\n".join(str(v).splitlines()[0] for v in report.violations)
        + f"\nrepro: SimulationConfig(**{asdict(cfg)!r})"
    )
    # both scheduled checkpoints ran (route-error ones may add more)
    assert report.checkpoints[0] == "route-discovery"
    assert report.checkpoints[-1] == "end-of-run"


@settings(max_examples=10)
@given(scenario_strategy())
def test_scenario_roundtrips_through_json(cfg):
    assert cfg.schedule is not None
    assert _roundtrip(cfg) == cfg


@pytest.mark.parametrize("seed", sorted(DRAW_STREAM))
def test_cli_draw_stream_is_pinned(seed):
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for _ in range(200):
        digest.update(config_hash(random_scenario(rng)).encode())
    assert digest.hexdigest() == DRAW_STREAM[seed]


def test_random_scenario_generator_stays_in_bounds():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cfg = random_scenario(rng)
        assert isinstance(cfg, SimulationConfig)
        assert cfg.protocol in BOUNDS["protocols"]
        assert 1 <= cfg.group_size <= BOUNDS["group_max"]
        assert BOUNDS["n_packets"][0] <= cfg.schedule.n_packets <= BOUNDS["n_packets"][1]
        for ev in cfg.schedule.faults:
            assert 0 <= ev.node < cfg.n_nodes


def test_run_scenario_is_deterministic():
    rng = np.random.default_rng(3)
    cfg = random_scenario(rng)
    a = run_scenario(cfg, mode="collect")
    b = run_scenario(cfg, mode="collect")
    assert a.trace_sha256 == b.trace_sha256
    assert a.checkpoints == b.checkpoints
    assert a.delivered_receivers == b.delivered_receivers


def _multi_session(seed: int, k: int = 1) -> list:
    rng = np.random.default_rng(seed)
    draws = (random_scenario(rng) for _ in range(60))
    return [cfg for cfg in draws if cfg.sessions is not None][:k]


class TestSessionAxis:
    """The multi-session dimension of the scenario space."""

    def test_generators_draw_multi_session_scenarios(self):
        multi = _multi_session(7, k=60)
        assert multi, "the session axis never fires at p=0.3 over 60 draws"
        for cfg in multi:
            specs = cfg.sessions
            assert 2 <= len(specs) <= BOUNDS["max_sessions"]
            # first session is always the config's own flow
            assert specs[0].flow == (cfg.source, cfg.group)
            assert specs[0].group_size == cfg.group_size
            for spec in specs:
                assert 0 <= spec.source < cfg.n_nodes
                assert (
                    BOUNDS["session_packets"][0]
                    <= spec.n_packets
                    <= BOUNDS["session_packets"][1]
                )

    def test_multi_session_scenario_roundtrips(self):
        (cfg,) = _multi_session(7)
        again = _roundtrip(cfg)
        assert again == cfg
        assert again.sessions == cfg.sessions

    def test_multi_session_scenarios_hold_invariants(self):
        """Three derandomized multi-session runs under the harness."""
        multi = _multi_session(7, k=3)
        assert len(multi) == 3
        for cfg in multi:
            report = run_scenario(cfg, mode="collect")
            assert report.ok, (
                f"violations in {describe(cfg)}:\n"
                + "\n".join(str(v).splitlines()[0] for v in report.violations)
            )
            assert report.checkpoints[0] == "route-discovery"
            assert report.checkpoints[-1] == "end-of-run"
            assert report.n_receivers == sum(
                spec.n_receivers() for spec in cfg.sessions
            )

    def test_multi_session_replay_is_deterministic(self):
        (cfg,) = _multi_session(11)
        a = run_scenario(cfg, mode="collect")
        b = run_scenario(cfg, mode="collect")
        assert a.trace_sha256 == b.trace_sha256
        assert a.delivered_receivers == b.delivered_receivers


class TestCorpusIO:
    CFG = SimulationConfig(
        protocol="mtmrp", topology="grid", grid_nx=3, grid_ny=3,
        side=60.0, group_size=2, seed=77, mac="ideal",
        schedule=Schedule(
            faults=({"time": 0.5, "node": 4, "kind": "crash"},), n_packets=1
        ),
    )

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "entry.json"
        save_corpus_entry(self.CFG, path, note="unit")
        loaded, payload = load_corpus_entry(path)
        assert loaded == self.CFG
        assert payload["note"] == "unit"
        assert set(payload) == {"note", "config"}

    def test_replay_checks_pinned_digest(self, tmp_path):
        path = tmp_path / "entry.json"
        report = run_scenario(self.CFG, mode="collect")
        assert report.ok
        save_corpus_entry(self.CFG, path, trace_sha256=report.trace_sha256)
        replayed = replay_corpus_entry(path, mode="raise")  # must not raise
        assert replayed.trace_sha256 == report.trace_sha256

    def test_replay_names_file_on_digest_mismatch(self, tmp_path):
        path = tmp_path / "entry.json"
        save_corpus_entry(self.CFG, path, trace_sha256="0" * 64)
        with pytest.raises(AssertionError, match="entry.json"):
            replay_corpus_entry(path, mode="raise")
