"""Golden trace-digest regression tests.

The fast-path overhaul (cell-list geometry, fire-and-forget events, bulk
rng stream seeding, reception recycling, GC pausing) is allowed to change
*how fast* a run executes, never *what* it computes.  These digests pin
two full end-to-end runs — one per protocol family and topology — to the
exact traces the pre-optimisation tree produced, plus one shadowed run
and four runs with the simulated HELLO phase.  If any "optimisation"
perturbs event ordering, rng consumption, or packet-uid assignment, the
sha256 changes and this test names the contract that was broken.

Regenerate a constant only for a change that *intentionally* alters run
semantics (and say so in the commit):

    PYTHONPATH=src python - <<'EOF'
    from repro.net.packet import reset_uids
    from repro.experiments import SimulationConfig, run_single
    from repro.sim.trace import TraceRecorder, trace_digest
    reset_uids()
    tr = TraceRecorder()
    run_single(SimulationConfig("mtmrp", "grid", group_size=12, seed=42),
               trace=tr, cache=False)
    print(trace_digest(tr))
    EOF
"""

import pytest

from repro.experiments import SimulationConfig, run_single
from repro.net.packet import reset_uids
from repro.sim.trace import TraceRecorder, trace_digest

#: (protocol, topology, seed) -> expected sha256 of the full trace
GOLDEN = {
    ("mtmrp", "grid", 42): (
        "c7771219e674bdf74bec5a0e1de78208f85de6aa3fdd7501d5e642cb510211b3"
    ),
    ("odmrp", "random", 99): (
        "7c3740d9d89e63ff675dcfc419fe42dfe7904b249088204aa0c0f043f50e1d0a"
    ),
}


def _digest(protocol: str, topology: str, seed: int) -> str:
    reset_uids()  # packet uids appear in trace details; start from 0
    tr = TraceRecorder()
    run_single(
        SimulationConfig(protocol, topology, group_size=12, seed=seed),
        trace=tr,
        cache=False,
    )
    return trace_digest(tr)


@pytest.mark.parametrize("protocol,topology,seed", sorted(GOLDEN))
def test_golden_digest(protocol, topology, seed):
    assert _digest(protocol, topology, seed) == GOLDEN[(protocol, topology, seed)]


#: the shadowing ablation (sigma 6 dB): the fading draw, its mirroring
#: and the channel rows it fills, pinned end to end
GOLDEN_SHADOWED = "8a167600d3c891cec207b9c2c1c04c4f166520130d7cf982f21194cf26b2d179"


def test_golden_digest_shadowed():
    reset_uids()
    tr = TraceRecorder()
    run_single(
        SimulationConfig("mtmrp", "grid", group_size=12, seed=42, shadowing_sigma_db=6.0),
        trace=tr,
        cache=False,
    )
    assert trace_digest(tr) == GOLDEN_SHADOWED


#: HELLO-phase runs, cold, full trace: the simulated beaconing of the
#: warmup and the suffix on both MACs, on both fields, and with the
#: position-carrying HELLOs of geographic multicast
_FIG7 = dict(group_size=20, mac="csma", hello_phase=True, hello_warmup=15.0,
             construction_time=0.5, data_time=0.25)
GOLDEN_HELLO = {
    "fig7-grid-csma": (
        SimulationConfig("mtmrp", "grid", seed=7, **_FIG7),
        "c537b714270bd734faf39630930e1f614228a81a4ea0ba01dfccc8eecdb009b2",
    ),
    "random-csma": (
        SimulationConfig("odmrp", "random", group_size=12, seed=99, mac="csma",
                         hello_phase=True, hello_warmup=5.0),
        "5c4b1417e05e9204b3dc3ac9953bf965d79bf951aa900ef9d04df09c0b106d54",
    ),
    "grid-ideal": (
        SimulationConfig("mtmrp", "grid", group_size=12, seed=42, mac="ideal",
                         hello_phase=True, hello_warmup=10.0),
        "7f6300d0d95abff7991c2c13bac82e0e85a46d6f2073dae759fdb6d5da60d938",
    ),
    "gmr-grid-csma": (
        SimulationConfig("gmr", "grid", group_size=12, seed=42, mac="csma",
                         hello_phase=True, hello_warmup=5.0),
        "baab49d86dfbed88e7c51528c3d694f97425b8b6b5fe719e9e215362267ddfe1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HELLO))
def test_golden_digest_hello_phase(name):
    cfg, expected = GOLDEN_HELLO[name]
    reset_uids()
    tr = TraceRecorder()
    run_single(cfg, trace=tr, cache=False, warm_start=False)
    assert trace_digest(tr) == expected


def test_digest_is_reproducible_within_process():
    """Two back-to-back runs hash identically (no hidden global state)."""
    key = ("mtmrp", "grid", 42)
    assert _digest(*key) == _digest(*key) == GOLDEN[key]


# --------------------------------------------------------------------- #
# flag-off guards: the default single-session TrafficPlan is free
# --------------------------------------------------------------------- #
def _digest_with_sessions(protocol: str, topology: str, seed: int) -> str:
    """Same run as :func:`_digest` but with the trivially-default plan
    configured explicitly — must be byte-identical (``active_sessions``
    routes it through the exact legacy code path)."""
    from repro.traffic.spec import TrafficPlan

    reset_uids()
    tr = TraceRecorder()
    cfg = SimulationConfig(protocol, topology, group_size=12, seed=seed)
    run_single(cfg.with_(sessions=TrafficPlan.single(cfg)), trace=tr, cache=False)
    return trace_digest(tr)


@pytest.mark.parametrize("protocol,topology,seed", sorted(GOLDEN))
def test_default_traffic_plan_is_byte_identical(protocol, topology, seed):
    assert (
        _digest_with_sessions(protocol, topology, seed)
        == GOLDEN[(protocol, topology, seed)]
    )


def _corpus_scenarios():
    from pathlib import Path

    from repro.check.fuzz import load_corpus_entry

    corpus = Path(__file__).resolve().parents[1] / "corpus"
    out = []
    for path in sorted(corpus.glob("*.json")):
        cfg, _ = load_corpus_entry(path)
        if cfg.sessions is None:  # multi-session entries pin
            out.append((path.name, cfg))  # their own digests already
    return out


@pytest.mark.parametrize(
    "name,cfg", _corpus_scenarios(), ids=lambda x: x if isinstance(x, str) else ""
)
def test_corpus_scenarios_unchanged_by_default_plan(name, cfg):
    """Every legacy corpus entry replays byte-identically when the
    trivially-default TrafficPlan is configured — the flag-off contract
    over the whole stressor space (faults, mobility, energy, repair)."""
    from repro.check.fuzz import run_scenario
    from repro.traffic.spec import TrafficPlan

    base = run_scenario(cfg, mode="collect")
    flagged = cfg.with_(sessions=TrafficPlan.single(cfg))
    again = run_scenario(flagged, mode="collect")
    assert again.trace_sha256 == base.trace_sha256, name
