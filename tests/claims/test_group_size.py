"""Figs. 5-6: the three metrics vs multicast group size, grid and random.

The paper's shape: MTMRP needs the fewest data transmissions, the
member-biased protocols (DODMRP, MTMRP) involve fewer extra nodes than
ODMRP, and relay profit grows with group size and is highest for MTMRP.
On the grid MTMRP also beats DODMRP and its own no-PHS variant, and PHS
saves ~20-30% of ODMRP's JoinReply transmissions (EXPERIMENTS.md).
"""

import pytest

from repro.experiments import figures

from tests.claims.helpers import (
    GROUP_SIZES,
    NAMED,
    RUNS,
    assert_grows,
    assert_lower,
    runs,
)


@pytest.fixture(scope="module")
def fig5():
    return figures.fig5(runs=RUNS, group_sizes=GROUP_SIZES)


@pytest.fixture(scope="module")
def fig6():
    return figures.fig6(runs=RUNS, group_sizes=GROUP_SIZES, protocols=NAMED)


@pytest.mark.parametrize("fig", ["fig5", "fig6"])
def test_mtmrp_needs_fewer_transmissions_than_odmrp(fig, request):
    sweep = request.getfixturevalue(fig)
    assert_lower(runs(sweep, "mtmrp"), runs(sweep, "odmrp"))


@pytest.mark.parametrize("baseline", ["dodmrp", "mtmrp_nophs"])
def test_grid_mtmrp_needs_fewer_transmissions_than(baseline, fig5):
    assert_lower(runs(fig5, "mtmrp"), runs(fig5, baseline))


@pytest.mark.parametrize("fig", ["fig5", "fig6"])
@pytest.mark.parametrize("protocol", ["dodmrp", "mtmrp"])
def test_member_bias_involves_fewer_extra_nodes_than_odmrp(protocol, fig, request):
    sweep = request.getfixturevalue(fig)
    assert_lower(runs(sweep, protocol), runs(sweep, "odmrp"), "extra_nodes")


@pytest.mark.parametrize("fig", ["fig5", "fig6"])
def test_relay_profit_grows_with_group_size(fig, request):
    assert_grows(request.getfixturevalue(fig), "mtmrp", "average_relay_profit")


@pytest.mark.parametrize("fig", ["fig5", "fig6"])
def test_mtmrp_relay_profit_above_odmrp(fig, request):
    sweep = request.getfixturevalue(fig)
    assert_lower(runs(sweep, "odmrp"), runs(sweep, "mtmrp"), "average_relay_profit")


def test_join_reply_saving_over_odmrp_in_band(fig5):
    mt, od = runs(fig5, "mtmrp"), runs(fig5, "odmrp")
    saving = 1.0 - sum(r.join_reply_tx for r in mt) / sum(r.join_reply_tx for r in od)
    assert 0.20 <= saving <= 0.30, f"pooled JoinReply saving {saving:.1%}"
    for gs in fig5.xs:
        assert_lower(fig5.runs["mtmrp", gs], fig5.runs["odmrp", gs], "join_reply_tx")
