"""Integration tests for the shadowing ablation substrate."""

from repro.experiments import SimulationConfig, run_single


def test_shadowing_changes_topology_not_draws():
    """Shadowed runs keep the same receiver draw (variance isolation)."""
    base = SimulationConfig(protocol="mtmrp", topology="grid", group_size=15, seed=8)
    clean = run_single(base)
    faded = run_single(base.with_(shadowing_sigma_db=4.0))
    assert clean.receivers == faded.receivers


def test_shadowing_deterministic_per_seed():
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=15,
                           seed=9, shadowing_sigma_db=4.0)
    assert run_single(cfg) == run_single(cfg)


def test_checked_shadowed_run_validates_the_radios_links():
    """The invariants judge a shadowed run on the links its radio used
    (``Network.graph()`` reads the channel), not on the unit disk."""
    from repro.check import CheckHarness

    harness = CheckHarness()
    run_single(SimulationConfig(group_size=15, seed=0, shadowing_sigma_db=6.0),
               hooks=[harness])
    assert harness.report.ok
    assert harness.report.checkpoints == ["route-discovery", "end-of-run"]


def test_channel_links_symmetric_under_fading():
    """The mirrored fading draw keeps links bidirectional, at equal power."""
    from repro.mac.ideal import IdealMac
    from repro.net.network import Network
    from repro.net.topology import grid_topology
    from repro.phy.propagation import LogDistance
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=4)
    prop = LogDistance(
        reference_distance=1.0,
        reference_power_factor=(1.5 * 1.5) ** 2,
        path_loss_exponent=4.0,
        shadowing_sigma_db=6.0,
        rng=sim.rng.stream("shadowing"),
    )
    net = Network(sim, grid_topology(), comm_range=40.0,
                  mac_factory=IdealMac, propagation=prop)
    ch = net.channel
    for i in range(len(net)):
        for j, power in zip(ch.neighbors(i).tolist(), ch._nbr_powers[i].tolist()):
            back = ch.neighbors(j).tolist()
            assert i in back
            assert ch._nbr_powers[j][back.index(i)] == power


def test_heavy_fading_prunes_some_nominal_links():
    from repro.mac.ideal import IdealMac
    from repro.net.network import Network
    from repro.net.topology import grid_topology
    from repro.phy.propagation import LogDistance
    from repro.sim.kernel import Simulator

    def link_count(sigma):
        sim = Simulator(seed=4)
        prop = None
        if sigma:
            prop = LogDistance(
                reference_distance=1.0,
                reference_power_factor=(1.5 * 1.5) ** 2,
                path_loss_exponent=4.0,
                shadowing_sigma_db=sigma,
                rng=sim.rng.stream("shadowing"),
            )
        net = Network(sim, grid_topology(), comm_range=40.0,
                      mac_factory=IdealMac, propagation=prop)
        return sum(len(net.neighbors(i)) for i in range(len(net)))

    clean = link_count(0)
    faded = link_count(6.0)
    assert faded != clean  # fading reshapes the neighborhood
