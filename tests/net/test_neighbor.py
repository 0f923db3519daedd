"""Unit tests for neighbor tables and the HELLO protocol (Sec. IV-B)."""

import pickle

import numpy as np
from hypothesis import given, strategies as st

from repro.mac.ideal import IdealMac
from repro.net.neighbor import HelloAgent, NeighborTable
from repro.net.network import Network
from repro.net.topology import grid_topology
from repro.sim.kernel import Simulator

SESSION = (0, 1, 0)


class TestNeighborTable:
    def test_update_inserts_and_refreshes(self):
        t = NeighborTable()
        t.update_hello(3, {1}, now=1.0)
        assert 3 in t and len(t) == 1
        t.update_hello(3, {1, 2}, now=5.0)
        e = t.entry(3)
        assert e.last_seen == 5.0
        assert e.groups == {1, 2}

    def test_purge_recycles_overdue_entries(self):
        t = NeighborTable()
        t.update_hello(1, set(), now=0.0)
        t.update_hello(2, set(), now=9.0)
        removed = t.purge(now=10.0, expiry=3.0)
        assert removed == 1
        assert 1 not in t and 2 in t

    def test_members_of(self):
        t = NeighborTable()
        t.update_hello(1, {7}, 0.0)
        t.update_hello(2, {7, 8}, 0.0)
        t.update_hello(3, set(), 0.0)
        assert t.members_of(7) == {1, 2}
        assert t.members_of(8) == {2}
        assert t.members_of(9) == set()

    def test_relay_profit_counts_uncovered_members(self):
        t = NeighborTable()
        for n in (1, 2, 3):
            t.update_hello(n, {1}, 0.0)
        t.update_hello(4, set(), 0.0)
        assert t.relay_profit(1, SESSION) == 3
        t.mark_covered(2, SESSION)
        assert t.relay_profit(1, SESSION) == 2
        t.mark_forwarder(3, SESSION)  # forwarding receivers count as covered
        assert t.relay_profit(1, SESSION) == 1

    def test_relay_profit_is_per_session(self):
        t = NeighborTable()
        t.update_hello(1, {1}, 0.0)
        t.mark_covered(1, SESSION)
        other = (0, 1, 1)
        assert t.relay_profit(1, SESSION) == 0
        assert t.relay_profit(1, other) == 1

    def test_has_forwarder_and_exclusion(self):
        t = NeighborTable()
        t.update_hello(5, set(), 0.0)
        assert not t.has_forwarder(SESSION)
        t.mark_forwarder(5, SESSION)
        assert t.has_forwarder(SESSION)
        assert not t.has_forwarder(SESSION, exclude={5})
        assert t.forwarders_of(SESSION) == {5}

    def test_marks_create_entry_for_unknown_neighbor(self):
        """A JoinReply can be overheard from a node whose HELLO was lost."""
        t = NeighborTable()
        t.mark_forwarder(9, SESSION)
        assert 9 in t
        assert t.has_forwarder(SESSION)

    def test_remove(self):
        t = NeighborTable()
        t.update_hello(1, set(), 0.0)
        t.remove(1)
        assert 1 not in t

    def test_entries_pickle_field_for_field(self):
        """Warm forks restore entries through ``NeighborEntry.__reduce__``."""
        t = NeighborTable()
        t.update_hello(1, {2}, 3.0, position=(1.0, 2.0))
        t.mark_covered(1, SESSION)
        t.mark_forwarder(1, (0, 1, 1))
        t.update_hello(4, (), 3.5)
        restored = pickle.loads(pickle.dumps(t))
        assert restored._entries == t._entries and restored._oldest == t._oldest

    @given(st.sets(st.integers(min_value=0, max_value=50), max_size=20))
    def test_uncovered_members_never_exceeds_members_property(self, covered):
        t = NeighborTable()
        for n in range(20):
            t.update_hello(n, {1}, 0.0)
        for c in covered:
            t.mark_covered(c, SESSION)
        assert t.uncovered_members(1, SESSION) <= t.members_of(1)
        assert t.relay_profit(1, SESSION) == len(t.members_of(1) - covered)


class TestHelloAgent:
    def _hello_net(self, expiry=3.5):
        sim = Simulator(seed=3)
        net = Network(sim, grid_topology(4, 4, 66.0), comm_range=25.0,
                      mac_factory=IdealMac, perfect_channel=True)
        net.node(5).join_group(1)
        net.install_hello(period=1.0, expiry=expiry)
        net.start()
        return sim, net

    def test_hello_converges_to_geometric_neighbors(self):
        sim, net = self._hello_net()
        sim.run(until=2.5)
        for node in net.nodes:
            expected = {int(x) for x in net.neighbors(node.node_id)}
            assert node.neighbor_table.ids() == expected

    def test_hello_carries_group_membership(self):
        sim, net = self._hello_net()
        sim.run(until=2.5)
        for nbr in net.neighbors(5):
            assert 5 in net.node(int(nbr)).neighbor_table.members_of(1)

    def test_dead_neighbor_expires(self):
        sim, net = self._hello_net(expiry=2.5)
        sim.run(until=2.0)
        victim = 5
        witness = int(net.neighbors(victim)[0])
        assert victim in net.node(witness).neighbor_table
        net.node(victim).fail()
        sim.run(until=8.0)
        assert victim not in net.node(witness).neighbor_table

    def test_membership_update_via_explicit_hello(self):
        sim, net = self._hello_net()
        sim.run(until=2.5)
        net.node(6).join_group(4)
        agent = net.node(6).agent_of(HelloAgent)
        agent.broadcast_hello()  # "sent if a node wants to update membership"
        sim.run(until=sim.now + 0.1)
        for nbr in net.neighbors(6):
            assert 6 in net.node(int(nbr)).neighbor_table.members_of(4)

    def test_bootstrap_equals_hello_fixed_point(self):
        """The oracle bootstrap equals what HELLO converges to."""
        sim, net = self._hello_net()
        sim.run(until=2.5)
        hello_tables = {n.node_id: n.neighbor_table.ids() for n in net.nodes}

        sim2 = Simulator(seed=3)
        net2 = Network(sim2, grid_topology(4, 4, 66.0), comm_range=25.0,
                       mac_factory=IdealMac, perfect_channel=True)
        net2.node(5).join_group(1)
        net2.bootstrap_neighbor_tables()
        for n in net2.nodes:
            assert n.neighbor_table.ids() == hello_tables[n.node_id]

    def test_mark_on_unknown_neighbor_is_purged_at_the_next_tick(self):
        """Today's behaviour, pinned: ``_ensure`` stamps ``last_seen =
        0.0``, so past the expiry the groupless entry that keeps a mark
        overheard from an unknown neighbor is stale at once, and the
        node's next HELLO tick purges it, mark included (CHANGES.md
        records it; stamping ``now`` instead would move lossy and mobile
        HELLO digests)."""
        sim, net = self._hello_net()
        sim.run(until=5.0)
        table = net.node(0).neighbor_table
        known = table.ids()
        stranger = 15  # the far corner: never heard by node 0
        assert stranger not in known
        table.mark_forwarder(stranger, SESSION)
        assert table.has_forwarder(SESSION) and table.entry(stranger).last_seen == 0.0
        sim.run(until=6.2)  # node 0 ticks once more (period 1.0 +- 0.1)
        assert stranger not in table and not table.has_forwarder(SESSION)
        assert table.ids() == known
