"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass
else:
    # Derandomized by default so local runs and CI explore the identical
    # example sequence: a property failure reproduces with plain pytest,
    # no database or --hypothesis-seed juggling.  Opt into fresh examples
    # with HYPOTHESIS_PROFILE=explore.
    settings.register_profile(
        "derandomized",
        derandomize=True,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("explore", deadline=None, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))

from repro.experiments.runner import shutdown_pool
from repro.mac.csma import CsmaMac
from repro.mac.ideal import IdealMac
from repro.net.network import Network
from repro.net.topology import grid_topology, random_topology
from repro.sim.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=7)


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(n)`` makes the process see ``n`` usable CPUs,
    whatever the host has (``runner.resolve_workers`` reads them)."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    return set_cpus


@pytest.fixture
def two_cpus(usable_cpus):
    """Auto worker count resolves to 2, on a fresh shared pool that is
    gone afterwards, so later tests (the service's worker-kill suite)
    build their own."""
    usable_cpus(2)
    shutdown_pool()
    yield
    shutdown_pool()


def make_grid_network(
    sim: Simulator,
    nx: int = 10,
    ny: int = 10,
    side: float = 200.0,
    comm_range: float = 40.0,
    mac: str = "ideal",
    perfect: bool = True,
) -> Network:
    """Standard deterministic test deployment."""
    mac_factory = IdealMac if mac == "ideal" else CsmaMac
    return Network(
        sim,
        grid_topology(nx, ny, side),
        comm_range=comm_range,
        mac_factory=mac_factory,
        perfect_channel=perfect,
    )


def make_random_network(
    sim: Simulator,
    n: int = 200,
    seed: int = 0,
    comm_range: float = 40.0,
    mac: str = "ideal",
    perfect: bool = True,
) -> Network:
    mac_factory = IdealMac if mac == "ideal" else CsmaMac
    pos = random_topology(n, rng=np.random.default_rng(seed), comm_range=comm_range)
    return Network(
        sim, pos, comm_range=comm_range, mac_factory=mac_factory, perfect_channel=perfect
    )


def run_multicast_round(
    sim: Simulator,
    net: Network,
    agent_factory,
    receivers,
    group: int = 1,
    source: int = 0,
    settle: float = 2.0,
    data_time: float = 1.0,
):
    """Install agents, build one tree, push one data packet; returns agents."""
    net.set_group_members(group, receivers)
    net.bootstrap_neighbor_tables()
    agents = net.install(lambda node: agent_factory())
    net.start()
    agents[source].request_route(group)
    sim.run(until=sim.now + settle)
    agents[source].send_data(group, 0)
    sim.run(until=sim.now + data_time)
    return agents
