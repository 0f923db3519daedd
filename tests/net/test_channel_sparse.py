"""The channel's neighbor rows vs. a brute-force all-pairs reference.

The rows are the channel's only geometry: for every propagation model
they have to agree with an all-pairs computation bit for bit — neighbor
ids, propagation delays, receive powers — because the trace-digest
determinism contract rides on them.  A deterministic model fills them
from a cell list, a fading model from one mirrored ``(n, n)`` draw.
"""

import numpy as np

from repro.mac.ideal import IdealMac
from repro.net.channel import Channel
from repro.net.network import Network
from repro.net.packet import DataPacket
from repro.net.topology import grid_topology, pairwise_distances, random_topology
from repro.phy.propagation import SPEED_OF_LIGHT, LogDistance, TwoRayGround
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind


def _positions(n=120, seed=7):
    return random_topology(n, rng=np.random.default_rng(seed), comm_range=40.0)


def _fading(seed=5):
    """The shadowing ablation's model (median-matched to TwoRayGround)."""
    return LogDistance(reference_distance=1.0, reference_power_factor=(1.5 * 1.5) ** 2,
                       path_loss_exponent=4.0, shadowing_sigma_db=6.0,
                       rng=np.random.default_rng(seed))


def _reference(pos, prop, tx_power, rx_threshold):
    """Brute force: every pair's power from one ``(n, n)`` evaluation,
    mirrored (a no-op unless the model fades), thresholded."""
    d = pairwise_distances(pos)
    off = d.copy()
    np.fill_diagonal(off, np.inf)
    rx = np.asarray(prop.receive_power(tx_power, np.maximum(off, 1e-9)))
    iu = np.triu_indices(len(pos), k=1)
    rx[(iu[1], iu[0])] = rx[iu]
    reach = rx >= rx_threshold
    np.fill_diagonal(reach, False)
    ids = [np.flatnonzero(row) for row in reach]
    return ids, [d[i, r] / SPEED_OF_LIGHT for i, r in enumerate(ids)], [
        rx[i, r] for i, r in enumerate(ids)
    ]


def _channel_and_reference(fading):
    pos = _positions(200)
    prop = _fading() if fading else None
    ch = Channel(Simulator(seed=1), pos, comm_range=40.0, propagation=prop)
    ch._ensure_rows()
    ref = _reference(pos, _fading() if fading else TwoRayGround(), ch.tx_power, ch.rx_threshold)
    return ch, ref


def test_sparse_matches_dense_neighbor_sets():
    for fading in (False, True):
        ch, (ids, _, _) = _channel_and_reference(fading)
        for i in range(ch.n):
            assert np.array_equal(ch.neighbors(i), ids[i]), (fading, i)


def test_sparse_matches_dense_delays_and_powers():
    for fading in (False, True):
        ch, (_, delays, powers) = _channel_and_reference(fading)
        for i in range(ch.n):
            # exact equality, not approx: both evaluate the same float
            # expressions on the same operands
            assert np.array_equal(ch._nbr_delays[i], delays[i]), (fading, i)
            assert np.array_equal(ch._nbr_powers[i], powers[i]), (fading, i)


def test_default_backend_is_sparse_for_deterministic_propagation():
    """The propagation model picks the builder: a cell list with lazy rows
    for a deterministic one, the rows drawn at construction for fading."""
    ch = Channel(Simulator(seed=1), _positions(), comm_range=40.0)
    assert ch._grid is not None and not ch._rows_ready
    faded = Channel(Simulator(seed=1), _positions(), comm_range=40.0, propagation=_fading())
    assert faded._grid is None and faded._rows_ready


def test_rows_materialise_lazily():
    ch = Channel(Simulator(seed=1), _positions(50), comm_range=40.0)
    assert not ch._rows_ready  # construction did not pay for the rows
    ch.neighbors(0)
    assert ch._rows_ready  # first access materialised them


def test_boundary_node_at_exact_range_is_neighbor():
    pos = np.array([[0.0, 0.0], [40.0, 0.0], [40.0 + 1e-6, 0.0]])
    ch = Channel(Simulator(seed=1), pos, comm_range=40.0)
    assert ch.neighbors(0).tolist() == [1]


def test_incremental_update_positions_matches_full_rebuild():
    pos = _positions(80)
    moving = Channel(Simulator(seed=1), pos.copy(), comm_range=40.0)
    moving.neighbors(0)  # materialise, so the update path goes incremental
    rng = np.random.default_rng(11)
    for _ in range(3):  # several waypoints: stale-cell bookkeeping must hold up
        # move a small subset so the *incremental* path (not the
        # full-rebuild fallback) is the one under test
        idx = rng.choice(len(pos), size=5, replace=False)
        pos[idx] += rng.uniform(-35.0, 35.0, size=(5, 2))
        moving.update_positions(pos.copy())
    rebuilt = Channel(Simulator(seed=1), pos.copy(), comm_range=40.0)
    for i in range(moving.n):
        assert moving.neighbors(i).tolist() == rebuilt.neighbors(i).tolist(), i
        assert np.array_equal(moving._nbr_delays[i], rebuilt._nbr_delays[i])
        assert np.array_equal(moving._nbr_powers[i], rebuilt._nbr_powers[i])


def test_update_positions_before_materialisation():
    pos = _positions(60)
    ch = Channel(Simulator(seed=1), pos.copy(), comm_range=40.0)
    pos2 = pos + 5.0
    ch.update_positions(pos2.copy())  # rows still lazy here
    ref = Channel(Simulator(seed=1), pos2.copy(), comm_range=40.0)
    for i in range(ch.n):
        assert ch.neighbors(i).tolist() == ref.neighbors(i).tolist(), i


def test_dead_and_sleeping_neighbors_get_no_delivery_events():
    """transmit() skips inactive receivers instead of delivering-then-dropping."""
    sim = Simulator(seed=1)
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
    net = Network(sim, pos, comm_range=40.0, mac_factory=IdealMac,
                  perfect_channel=True)
    net.node(1).fail()
    net.node(2).sleep()
    before = sim.pending
    net.channel.transmit(0, DataPacket(src=0))
    # end_tx + exactly ONE arrival (node 3) — nothing queued for 1 and 2
    assert sim.pending - before == 2
    sim.run()
    assert sim.trace.nodes_with(TraceKind.RX) == {3}


def test_equal_geometry_shares_row_arrays_per_process():
    """A second channel on equal positions reuses the first one's row
    arrays in lists of its own; moving nodes on one leaves the other's."""
    pos = grid_topology(8, 8, 7 * 22.2)
    a = Channel(Simulator(seed=1), pos.copy(), comm_range=40.0)
    a._ensure_rows()
    b = Channel(Simulator(seed=2), pos.copy(), comm_range=40.0)
    b._ensure_rows()
    assert b._neighbor_ids is not a._neighbor_ids
    for rows in ("_neighbor_ids", "_nbr_delays", "_nbr_powers"):
        for ra, rb in zip(getattr(a, rows), getattr(b, rows)):
            assert rb is ra and not ra.flags.writeable
    shared = list(b._neighbor_ids)
    before = [row.tolist() for row in shared]
    moved = pos.copy()
    moved[0] += 15.0
    a.update_positions(moved)
    assert a.neighbors(0).tolist() != before[0]
    assert a._neighbor_ids[0] is not shared[0]
    assert all(row is old for row, old in zip(b._neighbor_ids, shared))
    assert [row.tolist() for row in b._neighbor_ids] == before
    # a third channel on the original positions gets the untouched rows
    c = Channel(Simulator(seed=3), pos.copy(), comm_range=40.0)
    assert [c.neighbors(i).tolist() for i in range(c.n)] == before


def test_stochastic_geometry_is_not_shared():
    pos = _positions(40)
    prop = LogDistance(shadowing_sigma_db=4.0, rng=np.random.default_rng(1))
    a = Channel(Simulator(seed=1), pos, comm_range=40.0, propagation=prop)
    assert a._rows_key() is None
    assert Channel(Simulator(seed=1), pos, comm_range=40.0)._rows_key() is not None
