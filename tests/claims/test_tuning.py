"""Figs. 7-8: tuning the system parameters N and w (grid 20 / random 15 receivers).

The paper: MTMRP responds to N and w (larger w amplifies the per-hop
latency differences and improves the tree), while DODMRP and ODMRP,
which have no such parameters, stay flat above it.  Fig. 8 "shows the
same results as in Fig. 7"; its w-trend does not reproduce.
"""

import pytest

from repro.experiments import figures

from tests.claims.helpers import NAMED, NS, RUNS, WS, assert_lower, runs


@pytest.fixture(scope="module")
def fig7():
    return figures.fig7(runs=RUNS, ns=NS, ws=WS, protocols=NAMED)


@pytest.fixture(scope="module")
def fig8():
    return figures.fig8(runs=RUNS, ns=NS, ws=WS, protocols=NAMED)


def _column(w):
    return [(n, w) for n in NS]


@pytest.mark.parametrize("fig", [
    "fig7",
    pytest.param("fig8", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="EXPERIMENTS.md, Fig. 8: the w-axis is flat in the random field "
               "(noted discrepancy, cause open)")),
])
def test_mtmrp_improves_as_w_grows(fig, request):
    sweep = request.getfixturevalue(fig)
    assert_lower(runs(sweep, "mtmrp", _column(max(WS))), runs(sweep, "mtmrp", _column(min(WS))))


@pytest.mark.parametrize("fig", ["fig7", "fig8"])
@pytest.mark.parametrize("baseline", ["dodmrp", "odmrp"])
def test_baseline_surface_is_flat(baseline, fig, request):
    # _tuning_sweep simulates each N/w-blind baseline once: every cell
    # holds the same runs
    sweep = request.getfixturevalue(fig)
    first = sweep.runs[baseline, sweep.xs[0]]
    assert all(sweep.runs[baseline, x] == first for x in sweep.xs)


@pytest.mark.parametrize("fig", ["fig7", "fig8"])
@pytest.mark.parametrize("baseline", ["dodmrp", "odmrp"])
def test_mtmrp_at_largest_w_beats_baseline(baseline, fig, request):
    sweep = request.getfixturevalue(fig)
    strong = _column(max(WS))
    assert_lower(runs(sweep, "mtmrp", strong), runs(sweep, baseline, strong))
