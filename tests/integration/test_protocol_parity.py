"""Cross-protocol parity matrix over the regression corpus.

Every committed ``tests/corpus/*.json`` scenario config is re-run under
all five multicast protocols at the scenario's pinned seed, and the
relationships the paper's argument rests on are asserted as invariants:

* MTMRP's whole point is a *smaller forwarder set* — on identical seeds
  it must never use more forwarders (or data transmissions, or energy)
  than ODMRP, whose forwarding group it prunes;
* DODMRP sits between the two by construction: deflected joins can only
  shrink the ODMRP forwarding group, never grow it;
* the tree-building protocols deliver the full group on every corpus
  scenario (small, connected deployments — anything less is a routing
  regression, not statistical noise: each cell is a deterministic
  function of the seed);
* the stateless/mesh baselines hold their recorded per-scenario floors.

The matrix is 5 protocols x 6 scenarios = 30 deterministic runs, built
once per test session.
"""

import json
from pathlib import Path

import pytest

from repro.check.fuzz import load_corpus_entry
from repro.experiments.runner import run_single
from repro.net.packet import reset_uids

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

PROTOCOLS = ("mtmrp", "odmrp", "dodmrp", "maodv", "gmr")

#: deterministic per-protocol delivery floors over the corpus (each cell
#: is a pure function of the pinned seed, so these are regression pins,
#: not statistical expectations)
DELIVERY_FLOORS = {
    "mtmrp": 1.0,
    "odmrp": 1.0,
    "dodmrp": 1.0,
    "maodv": 0.8,
    "gmr": 0.6,
}


def _corpus_paths():
    """Single-session corpus entries (the matrix's per-run assertions —
    ``delivered == group_size`` etc. — are about one flow; multi-session
    entries get their own parity matrix in
    ``tests/protocols/test_multisession_differential.py``)."""
    from repro.traffic.spec import active_sessions

    paths = [
        p
        for p in sorted(CORPUS_DIR.glob("*.json"))
        if active_sessions(load_corpus_entry(p)[0]) is None
    ]
    assert len(paths) >= 6, f"expected the 6-entry corpus, found {len(paths)}"
    return paths


@pytest.fixture(scope="module")
def matrix():
    """{entry name: {protocol: RunResult}} over the whole corpus, each
    entry run as the paper's round (its stressor schedule dropped)."""
    out = {}
    for path in _corpus_paths():
        cfg, _payload = load_corpus_entry(path)
        cfg = cfg.with_(schedule=None)
        row = {}
        for proto in PROTOCOLS:
            reset_uids()
            row[proto] = run_single(cfg.with_(protocol=proto), cache=False)
        out[path.name] = row
    return out


def test_corpus_is_intact():
    """Every corpus entry still parses and names a scheduled config."""
    for path in _corpus_paths():
        payload = json.loads(path.read_text())
        assert payload["config"]["schedule"] is not None, path.name


def test_every_cell_ran(matrix):
    assert len(matrix) >= 6
    for name, row in matrix.items():
        assert set(row) == set(PROTOCOLS), name
        for proto, r in row.items():
            assert r.protocol == proto, (name, proto)
            assert 0.0 <= r.delivery_ratio <= 1.0, (name, proto)
            assert r.delivered <= r.group_size, (name, proto)
            assert r.energy_joules > 0.0, (name, proto)


def test_mtmrp_forwarders_never_exceed_odmrp(matrix):
    """The headline claim: MTMRP prunes ODMRP's forwarding group."""
    for name, row in matrix.items():
        mt, od = row["mtmrp"], row["odmrp"]
        assert len(mt.transmitters) <= len(od.transmitters), (
            f"{name}: mtmrp used {len(mt.transmitters)} forwarders, "
            f"odmrp only {len(od.transmitters)}"
        )


def test_mtmrp_data_cost_never_exceeds_odmrp(matrix):
    for name, row in matrix.items():
        assert row["mtmrp"].data_transmissions <= row["odmrp"].data_transmissions, name
        assert row["mtmrp"].energy_joules <= row["odmrp"].energy_joules, name


def test_dodmrp_forwarders_never_exceed_odmrp(matrix):
    """Deflected joins only ever shrink the forwarding group."""
    for name, row in matrix.items():
        assert len(row["dodmrp"].transmitters) <= len(row["odmrp"].transmitters), name


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_delivery_floor(matrix, proto):
    floor = DELIVERY_FLOORS[proto]
    for name, row in matrix.items():
        assert row[proto].delivery_ratio >= floor, (
            f"{name}: {proto} delivered {row[proto].delivery_ratio:.2f} "
            f"< pinned floor {floor}"
        )


def test_tree_protocols_reach_whole_group(matrix):
    """On the corpus deployments the mesh/tree builders cover everyone."""
    for name, row in matrix.items():
        for proto in ("mtmrp", "odmrp", "dodmrp"):
            r = row[proto]
            assert r.delivered == r.group_size, (name, proto)


def test_matrix_is_deterministic(matrix):
    """Replaying one cell reproduces the cached result exactly."""
    name = sorted(matrix)[0]
    cfg, _ = load_corpus_entry(CORPUS_DIR / name)
    reset_uids()
    again = run_single(cfg.with_(schedule=None, protocol="mtmrp"), cache=False)
    assert again == matrix[name]["mtmrp"]
