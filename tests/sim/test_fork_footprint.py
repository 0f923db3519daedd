"""What a warm fork restores, on the ``fig7_hello`` unit-0 prefix.

A fork is one ``pickle.loads`` of the captured deployment, so every
object in the blob is one the fork pays to build.  These tests pin what
the blob leaves out: the empty per-session mark sets of neighbor
entries (one shared frozenset), one ``CsmaParams`` per MAC (one shared
default), the radios' reception pools, a pickler hook called per
pickled object, and the geometry arrays (shared in place).
"""

import gc

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import monte_carlo
from repro.sim.snapshot import WarmSnapshot, _PrefixPickler

#: the fig7_hello benchmark's first unit at input seed 0 (bench/trial.py)
FIG7 = SimulationConfig(protocol="mtmrp", group_size=20, mac="csma", hello_phase=True,
                        hello_warmup=15.0, construction_time=0.5, data_time=0.25)

#: gc-tracked objects one fork of the unit-0 prefix creates: 3,747
#: (5,625 while every entry carried two empty sets, every MAC its own
#: CsmaParams and every radio its reception pool)
MAX_FORK_OBJECTS = 3_900


@pytest.fixture(scope="module")
def snap():
    return WarmSnapshot.capture(monte_carlo(FIG7, 1, 700)[0])


def _fork_objects(snap):
    was = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        fork = snap.fork()
        return fork, len(gc.get_objects()) - before
    finally:
        if was:
            gc.enable()


def test_fork_creates_few_objects(snap):
    fork, created = _fork_objects(snap)
    assert created <= MAX_FORK_OBJECTS
    fork.net.close()


def test_unmarked_entries_share_one_immutable_mark_set(snap):
    fork = snap.fork()
    entries = [e for n in fork.net.nodes for e in n.neighbor_table._entries.values()]
    assert len(entries) > 600
    for e in entries:
        for marks in (e.covered_sessions, e.forwarder_sessions):
            assert isinstance(marks, frozenset) or marks  # no mutable empty set
    assert len({id(e.covered_sessions) for e in entries}
               | {id(e.forwarder_sessions) for e in entries}) == 1
    fork.net.close()


def test_every_mac_shares_one_params_object(snap):
    fork = snap.fork()
    assert len({id(n.mac.params) for n in fork.net.nodes}) == 1
    fork.net.close()


def test_pickler_has_no_per_object_hook():
    assert "persistent_id" not in vars(_PrefixPickler)


def test_forks_share_geometry_and_plans_survive(snap):
    a, b = snap.fork(), snap.fork()
    ca, cb = a.net.channel, b.net.channel
    assert a.positions is b.positions
    assert all(x is y for x, y in zip(ca._neighbor_ids, cb._neighbor_ids))
    assert all(not r.free_pool for r in ca.radios)
    # the warmup's plans ride in the blob, each one its sender's delivery list
    plans = ca._plans
    assert all(p is d for p, d in zip(plans, ca._delivery) if p is not None)
    assert sum(p is not None for p in plans) == len(plans)
    a.net.close()
    b.net.close()
