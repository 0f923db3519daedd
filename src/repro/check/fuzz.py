"""Seeded fuzz cases and checked runs.

A fuzz case is a plain :class:`~repro.experiments.config.SimulationConfig`
whose :class:`~repro.experiments.config.Schedule` carries the stressors
the paper's round doesn't exercise: a fault schedule, random-waypoint
mobility, an energy budget, CBR data, periodic route refresh and the
self-healing layer.  :func:`run_scenario` runs one under a
:class:`~repro.check.CheckHarness` (checkpoints after route discovery, at
end of run, and on every RouteError) and reports violations
(:class:`ScenarioMeter`); the ``check`` CLI runs whole campaigns of them
on :func:`~repro.experiments.runner.run_many`.

The space (:data:`BOUNDS`) is written once, in one generator over
five draws (``coin``, ``integers``, ``uniform``, ``choice``,
``weighted``) with two backends:

* :func:`random_scenario` — a ``numpy.random.Generator``, used by the
  ``check`` CLI for long offline campaigns;
* :func:`scenario_strategy` — a Hypothesis strategy whose structured
  draws shrink topology size, fault count and packet count
  independently, used by ``tests/check/test_fuzz.py``.

Falsifying configs are serialised into ``tests/corpus/`` via
:func:`save_corpus_entry` and replayed forever after by
:func:`replay_corpus` (a tier-1 regression test and a stage of the
``check`` and ``chaos`` CLIs) — the corpus is the fuzzer's long-term
memory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.check.harness import CheckHarness
from repro.experiments.config import Schedule, SimulationConfig
from repro.faults.plan import FaultPlan
from repro.protocols.repair import RepairPolicy
from repro.sim.hooks import Meter
from repro.sim.trace import TraceKind, trace_digest
from repro.traffic.metrics import session_deliveries

__all__ = [
    "ScenarioReport",
    "ScenarioMeter",
    "describe",
    "scenario_hooks",
    "run_scenario",
    "random_scenario",
    "scenario_strategy",
    "save_corpus_entry",
    "load_corpus_entry",
    "replay_corpus_entry",
    "replay_corpus",
    "BOUNDS",
]

#: The scenario space.  Ranges are inclusive.  Grid spacing stays under
#: the 40 m radio range so topologies are connected; random deployments
#: use densities where the resampling in ``random_topology`` converges.
BOUNDS = {
    "protocols": ("mtmrp", "mtmrp_nophs", "odmrp", "dodmrp"),
    "seed": (0, 2**31 - 2),
    "grid_dim": (3, 5),           # nodes per grid axis
    "grid_spacing": (22.0, 38.0),  # metres between grid neighbours
    "random_n": (14, 26),
    "random_side": (60.0, 90.0),
    "group_max": 8,
    "backoff_n": (2, 5),
    "backoff_w": (0.0005, 0.001, 0.002),
    "iid_loss": (0.0, 0.3),
    "ge_p_good_bad": (0.01, 0.1),
    "ge_p_bad_good": (0.1, 0.5),
    "max_faults": 3,
    "sleep_duration": (0.05, 1.0),
    "recover_delay": (0.2, 1.5),
    "energy_budget": (1e-4, 2e-3),
    "speed_max": (1.0, 3.0),
    "pause": (0.0, 0.5),
    "n_packets": (1, 5),
    "rate_pps": (4.0, 20.0),
    "refresh_interval": (1.0, 2.5),
    "repair_ttl": (1, 2),
    "degraded_ttl": (3, 5),
    # multi-session axis: 2-4 concurrent flows (1 = the legacy path),
    # small per-flow groups, staggered starts within a second
    "max_sessions": 4,
    "session_group_max": 4,
    "session_start": (0.0, 1.0),
    "session_packets": (1, 3),
    "session_rate": (5.0, 20.0),
}

#: the committed regression corpus, relative to a source checkout
CORPUS_DIR = Path("tests") / "corpus"


def describe(cfg: SimulationConfig) -> str:
    """One line naming a fuzz case's deployment and stressors."""
    bits = [
        f"{cfg.protocol}/{cfg.topology}({cfg.n_nodes})",
        f"grp={cfg.group_size}", f"seed={cfg.seed}", f"mac={cfg.mac}",
    ]
    if cfg.sessions is not None:
        bits.append(f"sessions={len(cfg.sessions)}")
    if cfg.loss_model != "none":
        bits.append(f"loss={cfg.loss_model}")
    s = cfg.schedule or Schedule()
    if s.faults:
        bits.append(f"faults={len(s.faults)}")
    if s.mobility:
        bits.append("mobility")
    if s.energy_budget is not None:
        bits.append(f"budget={s.energy_budget:.1e}J")
    if s.refresh_interval is not None:
        bits.append(f"refresh={s.refresh_interval:.1f}s")
    if s.repair is not None:
        bits.append("repair")
    return " ".join(bits)


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of one checked run."""

    violations: Tuple = ()
    checkpoints: Tuple[str, ...] = ()
    delivered_receivers: int = 0
    n_receivers: int = 0
    data_transmissions: int = 0
    trace_sha256: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


class ScenarioMeter(Meter):
    """Measures a finished checked run as a :class:`ScenarioReport`."""

    def __init__(self, harness: CheckHarness) -> None:
        self.harness = harness

    def measure(self) -> ScenarioReport:
        cfg, receivers = self.cfg, self.receivers
        trace = self.net.sim.trace
        if self.members is None:
            flows = {(cfg.source, cfg.group): receivers}
            delivered = len(trace.nodes_with(TraceKind.DELIVER) & set(receivers))
        else:
            flows = self.members
            delivered = sum(
                len(session_deliveries(trace, flow)[0] & set(recv))
                for flow, recv in flows.items()
            )
        report = self.harness.report
        return ScenarioReport(
            violations=tuple(report.violations),
            checkpoints=tuple(report.checkpoints),
            delivered_receivers=delivered,
            n_receivers=sum(len(set(recv)) for recv in flows.values()),
            data_transmissions=trace.count(TraceKind.TX, "DataPacket"),
            trace_sha256=trace_digest(trace),
        )


def scenario_hooks(
    cfg: SimulationConfig, mode: str = "collect", invariants=None, context: Any = None
) -> list:
    """``run_many`` hook factory: a harness, then a :class:`ScenarioMeter`.

    ``context`` is the repro description embedded in violations (default:
    the run's config, which carries the whole fuzz case).
    """
    harness = CheckHarness(mode=mode, invariants=invariants)
    harness.context = context
    return [harness, ScenarioMeter(harness)]


def run_scenario(
    cfg: SimulationConfig,
    mode: str = "collect",
    invariants=None,
    context: Any = None,
) -> ScenarioReport:
    """Run ``cfg`` under a :class:`CheckHarness`.

    With ``mode="raise"`` the first violation propagates (tests); with
    ``mode="collect"`` all violations land on the report (campaigns).
    ``context`` overrides the repro description embedded in violations
    (e.g. a corpus file path).  The run is
    :func:`~repro.experiments.runner.run_single` on ``cfg``.
    """
    from repro.experiments.runner import run_single

    hooks = scenario_hooks(cfg, mode, invariants, context)
    run_single(cfg, hooks=hooks)
    return hooks[-1].result


# --------------------------------------------------------------------- #
# the scenario space
# --------------------------------------------------------------------- #
class _NumpyDraws:
    """The five draws :func:`_draw_scenario` is written in, on a
    ``numpy.random.Generator``."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def coin(self, p: float) -> bool:
        return bool(self.rng.random() < p)

    def integers(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi + 1))

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def choice(self, options):
        return options[int(self.rng.choice(len(options)))]

    def weighted(self, options, weights):
        roll = self.rng.random()
        for option, edge in zip(options, accumulate(weights)):
            if roll < edge:
                return option
        return options[-1]


class _HypothesisDraws:
    """The same draws through a Hypothesis ``draw``.  Coins are fair and
    weights only order the options, heaviest first, so shrinking takes
    every coin to False, every choice to its first option and every
    weighted draw to its heaviest option."""

    def __init__(self, draw) -> None:
        from hypothesis import strategies

        self.draw, self.st = draw, strategies

    def coin(self, p: float) -> bool:
        return self.draw(self.st.booleans())

    def integers(self, lo: int, hi: int) -> int:
        return self.draw(self.st.integers(lo, hi))

    def uniform(self, lo: float, hi: float) -> float:
        return self.draw(self.st.floats(lo, hi))

    def choice(self, options):
        return self.draw(self.st.sampled_from(options))

    def weighted(self, options, weights):
        ranked = sorted(zip(weights, options), key=lambda wo: -wo[0])
        return self.choice(tuple(option for _, option in ranked))


def _draw_sessions(d, n: int, group_size: int) -> Tuple[Dict[str, Any], ...]:
    """2-4 concurrent sessions: the first is the config's own flow (so the
    legacy receiver draw is reused), the rest get fresh groups with small
    receiver sets, staggered starts and short CBR streams."""
    b = BOUNDS
    return tuple(
        {
            "source": 0 if i == 0 else d.integers(0, n - 1),
            "group": 1 + i,
            "group_size": (
                group_size if i == 0
                else d.integers(1, min(b["session_group_max"], n - 1))
            ),
            "start": d.uniform(*b["session_start"]),
            "rate_pps": d.uniform(*b["session_rate"]),
            "n_packets": d.integers(*b["session_packets"]),
        }
        for i in range(d.integers(2, b["max_sessions"]))
    )


def _draw_scenario(d) -> SimulationConfig:
    """One fuzz case from :data:`BOUNDS`, drawn through ``d``, one of the
    two backends above.

    The draw order is part of the campaign format: ``check --seed S``
    draws the same configs for as long as it holds, which
    ``tests/check/test_fuzz.py`` pins.
    """
    b = BOUNDS
    cfg_kwargs: Dict[str, Any] = {
        "protocol": d.choice(b["protocols"]),
        "seed": d.integers(*b["seed"]),
        "mac": d.weighted(("ideal", "csma"), (0.5, 0.5)),
        "backoff_n": float(d.integers(*b["backoff_n"])),
        "backoff_w": d.choice(b["backoff_w"]),
        "hello_phase": d.coin(0.25),
    }
    if d.coin(0.5):
        nx_, ny = d.integers(*b["grid_dim"]), d.integers(*b["grid_dim"])
        cfg_kwargs.update(
            topology="grid", grid_nx=nx_, grid_ny=ny,
            side=d.uniform(*b["grid_spacing"]) * (min(nx_, ny) - 1),
        )
        n = nx_ * ny
    else:
        n = d.integers(*b["random_n"])
        cfg_kwargs.update(
            topology="random", random_nodes=n, side=d.uniform(*b["random_side"])
        )
    cfg_kwargs["group_size"] = d.integers(1, min(b["group_max"], n - 1))
    loss = d.weighted(("iid", "gilbert", "none"), (0.3, 0.3, 0.4))
    if loss == "iid":
        cfg_kwargs.update(loss_model="iid", loss_rate=d.uniform(*b["iid_loss"]))
    elif loss == "gilbert":
        cfg_kwargs.update(
            loss_model="gilbert",
            ge_p_good_bad=d.uniform(*b["ge_p_good_bad"]),
            ge_p_bad_good=d.uniform(*b["ge_p_bad_good"]),
        )
    if d.coin(0.3):
        cfg_kwargs["sessions"] = _draw_sessions(d, n, cfg_kwargs["group_size"])
    cfg = SimulationConfig(**cfg_kwargs)

    plan = FaultPlan()
    if d.coin(0.6):
        window = cfg.effective_construction_time + 2.0
        for _ in range(d.integers(1, b["max_faults"])):
            victim, t = d.integers(0, n - 1), d.uniform(0.0, window)
            if d.coin(0.5):
                plan.crash(t, victim)
                if d.coin(0.3):
                    plan.recover(t + d.uniform(*b["recover_delay"]), victim)
            else:
                plan.sleep(victim, t, d.uniform(*b["sleep_duration"]))
    mobility = None
    if d.coin(0.25):
        mobility = {
            "speed_min": 0.5,
            "speed_max": d.uniform(*b["speed_max"]),
            "pause": d.uniform(*b["pause"]),
            "update_interval": 0.25,
        }
    energy_budget = d.uniform(*b["energy_budget"]) if d.coin(0.2) else None
    refresh = d.uniform(*b["refresh_interval"]) if d.coin(0.5) else None
    repair = None
    if d.coin(0.25):
        repair = RepairPolicy(
            repair_ttl=d.integers(*b["repair_ttl"]),
            degraded_ttl=d.integers(*b["degraded_ttl"]),
        )
    return cfg.with_(schedule=Schedule(
        faults=tuple(plan.events),
        mobility=mobility,
        energy_budget=energy_budget,
        refresh_interval=refresh,
        repair=repair,
        n_packets=d.integers(*b["n_packets"]),
        rate_pps=d.uniform(*b["rate_pps"]),
    ))


def random_scenario(rng: np.random.Generator) -> SimulationConfig:
    """Draw one fuzz case on ``rng`` (the ``check`` CLI's generator)."""
    return _draw_scenario(_NumpyDraws(rng))


def scenario_strategy():
    """Hypothesis strategy over :func:`random_scenario`'s space.

    Hypothesis is imported lazily, so the CLI path never needs it.
    """
    from hypothesis import strategies as st

    return st.composite(lambda draw: _draw_scenario(_HypothesisDraws(draw)))()


# --------------------------------------------------------------------- #
# corpus
# --------------------------------------------------------------------- #
def save_corpus_entry(
    cfg: SimulationConfig,
    path,
    note: str = "",
    trace_sha256: Optional[str] = None,
) -> None:
    """Serialise a fuzz case (plus optional pinned digest) as JSON."""
    payload = {"note": note, "config": asdict(cfg)}
    if trace_sha256:
        payload["trace_sha256"] = trace_sha256
    Path(path).write_text(json.dumps(payload, indent=2, default=float) + "\n")


def load_corpus_entry(path) -> Tuple[SimulationConfig, Dict[str, Any]]:
    """Read a corpus JSON back into its config and its payload."""
    payload = json.loads(Path(path).read_text())
    return SimulationConfig(**payload["config"]), payload


def replay_corpus_entry(path, mode: str = "raise") -> ScenarioReport:
    """Re-run one corpus entry under the harness.

    Raises the recorded class of failure if it regressed: an
    :class:`InvariantViolation` whose message names ``path`` (with
    ``mode="raise"``), or an :class:`AssertionError` when the entry pins
    a trace digest and the run no longer reproduces it.
    """
    cfg, payload = load_corpus_entry(path)
    report = run_scenario(cfg, mode=mode, context=f"corpus entry {path}")
    expected = payload.get("trace_sha256")
    if expected and report.trace_sha256 != expected:
        raise AssertionError(
            f"corpus entry {path} no longer replays bit-identically: "
            f"trace sha256 {report.trace_sha256} != recorded {expected} "
            f"(seed={cfg.seed})"
        )
    return report


def replay_corpus() -> Iterator[Tuple[Path, str, Union[ScenarioReport, AssertionError]]]:
    """Replay every committed corpus entry, in name order.

    Yields ``(path, note, outcome)`` per entry: its report, or the
    :class:`AssertionError` (an invariant violation or a digest drift)
    its replay raised.  The corpus is the working directory's
    ``tests/corpus`` if there is one, else the source tree's, so the
    CLIs gate on it from any directory.
    """
    corpus = CORPUS_DIR
    if not corpus.is_dir():
        corpus = Path(__file__).resolve().parents[3] / CORPUS_DIR
    for path in sorted(corpus.glob("*.json")):
        note = json.loads(path.read_text()).get("note", "")
        try:
            outcome = replay_corpus_entry(path)
        except AssertionError as exc:
            outcome = exc
        yield path, note, outcome
