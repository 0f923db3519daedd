"""Fixed scale and judging rule of the paper-claim suite.

Every figure claim runs the real ``figures`` pipeline at one fixed scale:
20 Monte-Carlo runs per point on reduced x grids, at each figure's
default batch seed.  No option or environment variable changes it, and
it may not shrink: at 5 or 10 runs Fig. 5's MTMRP-vs-DODMRP interval
still spans zero.

An ordering claim "``low`` needs less of a metric than ``high``" holds
when the paired 95% CI of ``high - low``, pooled over the sweep's x
values, lies wholly above zero.  Runs pair up because every protocol and
every tuning cell of a sweep shares the sweep's batch seed.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.analysis.stats import mean_ci, paired_comparison
from repro.experiments.figures import SweepResult
from repro.experiments.runner import RunResult

RUNS = 20
GROUP_SIZES = (10, 20, 40, 60)
NS = (3.0, 4.0, 6.0)
WS = (0.001, 0.01, 0.03)
#: Figs. 6-8 simulate only the protocols their claims name
NAMED = ("mtmrp", "dodmrp", "odmrp")


def runs(sweep: SweepResult, protocol: str, xs: Optional[Sequence[Hashable]] = None) -> List[RunResult]:
    """Every run of ``protocol`` over ``xs`` (default: the whole sweep), in x order."""
    return [r for x in (sweep.xs if xs is None else xs) for r in sweep.runs[protocol, x]]


def assert_lower(
    low: Sequence[RunResult], high: Sequence[RunResult], metric: str = "data_transmissions"
) -> None:
    """The claim that the paired runs ``low`` need less ``metric`` than ``high``."""
    cmp = paired_comparison(low, high, metric)
    assert cmp.ci_lo > 0, (
        f"{metric}: {cmp.b} - {cmp.a} = {cmp.mean_diff:+.2f}, "
        f"95% CI [{cmp.ci_lo:.2f}, {cmp.ci_hi:.2f}] over {cmp.n} pairs"
    )


def assert_grows(sweep: SweepResult, protocol: str, metric: str) -> None:
    """``metric``'s 95% CI at the sweep's first x lies wholly below the one at its last.

    Different x values draw different receivers, so these runs do not pair.
    """
    first, last = (
        mean_ci([getattr(r, metric) for r in sweep.runs[protocol, x]])
        for x in (sweep.xs[0], sweep.xs[-1])
    )
    assert first["hi"] < last["lo"], f"{protocol} {metric}: {first} vs {last}"
