"""Seeded scenario generation and checked scenario execution.

A :class:`Scenario` is a fully serialisable description of one short
checked run: a :class:`~repro.experiments.config.SimulationConfig` plus
the stressors the paper's round doesn't exercise — a fault schedule,
random-waypoint mobility, an energy budget, CBR data and periodic route
refresh.  :meth:`Scenario.run_config` folds them into the config's
:class:`~repro.experiments.config.Schedule`, and :func:`run_scenario`
runs it under a :class:`~repro.check.CheckHarness` (checkpoints after
route discovery, at end of run, and on every RouteError) and reports
violations (:class:`ScenarioMeter`); the ``check`` CLI runs whole
campaigns of them on :func:`~repro.experiments.runner.run_many`.

Scenarios come from two generators sharing one parameter space
(:data:`BOUNDS`):

* :func:`random_scenario` — plain ``numpy.random.Generator`` draws, used
  by the ``check`` CLI for long offline campaigns;
* :func:`scenario_strategy` — a Hypothesis strategy with structured
  draws (so shrinking minimises topology size, fault count and packet
  count independently), used by ``tests/check/test_fuzz.py``.

Falsifying scenarios are serialised into ``tests/corpus/`` via
:func:`save_corpus_entry` and replayed forever after by
:func:`replay_corpus_entry` (a tier-1 regression test) — the corpus is
the fuzzer's long-term memory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.check.harness import CheckHarness
from repro.experiments.config import Schedule, SimulationConfig
from repro.faults.plan import FaultPlan
from repro.protocols.repair import RepairPolicy
from repro.sim.hooks import Meter
from repro.sim.trace import TraceKind, trace_digest
from repro.traffic.metrics import session_deliveries

__all__ = [
    "Scenario",
    "ScenarioReport",
    "ScenarioMeter",
    "scenario_hooks",
    "run_scenario",
    "random_scenario",
    "scenario_strategy",
    "save_corpus_entry",
    "load_corpus_entry",
    "replay_corpus_entry",
    "BOUNDS",
]

#: Shared parameter space of both generators.  Grid spacing stays under
#: the 40 m radio range so topologies are connected; random deployments
#: use densities where the resampling in ``random_topology`` converges.
BOUNDS = {
    "protocols": ("mtmrp", "mtmrp_nophs", "odmrp", "dodmrp"),
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
    "seed_max": 2**31 - 1,
}


@dataclass(frozen=True)
class Scenario:
    """One serialisable checked-run description."""

    config: SimulationConfig
    #: :meth:`FaultPlan.to_dicts` payload (absolute simulated times)
    faults: Tuple[Dict[str, Any], ...] = ()
    #: CBR data stream after route discovery
    n_packets: int = 2
    rate_pps: float = 10.0
    #: periodic JoinQuery refresh interval (None = single round)
    refresh_interval: Optional[float] = None
    #: random-waypoint kwargs (speed_min/speed_max/pause/update_interval)
    mobility: Optional[Dict[str, float]] = None
    #: per-node battery in joules (None = unlimited)
    energy_budget: Optional[float] = None
    #: :meth:`RepairPolicy.to_dict` payload enabling the self-healing
    #: layer on every session-keeping agent (None = layer off)
    repair: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["faults"] = [dict(f) for f in self.faults]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Scenario":
        d = dict(d)
        d["config"] = SimulationConfig(**d["config"])
        d["faults"] = tuple(dict(f) for f in d.get("faults", ()))
        if d.get("mobility") is not None:
            d["mobility"] = {k: float(v) for k, v in d["mobility"].items()}
        return cls(**d)

    def run_config(self) -> SimulationConfig:
        """The scenario as one config: its stressors become the schedule."""
        stressors = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "config"}
        return self.config.with_(schedule=Schedule(**stressors))

    def describe(self) -> str:
        cfg = self.config
        bits = [
            f"{cfg.protocol}/{cfg.topology}({cfg.n_nodes})",
            f"grp={cfg.group_size}", f"seed={cfg.seed}", f"mac={cfg.mac}",
        ]
        if cfg.sessions is not None:
            bits.append(f"sessions={len(cfg.sessions)}")
        if cfg.loss_model != "none":
            bits.append(f"loss={cfg.loss_model}")
        if self.faults:
            bits.append(f"faults={len(self.faults)}")
        if self.mobility:
            bits.append("mobility")
        if self.energy_budget is not None:
            bits.append(f"budget={self.energy_budget:.1e}J")
        if self.refresh_interval is not None:
            bits.append(f"refresh={self.refresh_interval:.1f}s")
        if self.repair is not None:
            bits.append("repair")
        return " ".join(bits)


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of one checked scenario run."""

    #: the scenario run (None on a :class:`ScenarioMeter`'s own report)
    scenario: Optional[Scenario] = None
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
    """Measures a finished checked scenario as a :class:`ScenarioReport`."""

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
    the run's config, which carries the whole scenario as its schedule).
    """
    harness = CheckHarness(mode=mode, invariants=invariants)
    harness.context = context
    return [harness, ScenarioMeter(harness)]


def run_scenario(
    scenario: Scenario,
    mode: str = "collect",
    invariants=None,
    context: Any = None,
) -> ScenarioReport:
    """Execute ``scenario`` under a :class:`CheckHarness`.

    With ``mode="raise"`` the first violation propagates (tests); with
    ``mode="collect"`` all violations land on the report (campaigns).
    ``context`` overrides the repro description embedded in violations
    (e.g. a corpus file path).  The run is
    :func:`~repro.experiments.runner.run_single` on
    :meth:`Scenario.run_config`.
    """
    from repro.experiments.runner import run_single

    cfg = scenario.run_config()
    hooks = scenario_hooks(cfg, mode, invariants, scenario if context is None else context)
    run_single(cfg, hooks=hooks)
    return replace(hooks[-1].result, scenario=scenario)


# --------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------- #
def _draw_sessions_np(
    rng: np.random.Generator, n: int, group_size: int
) -> Tuple[Dict[str, Any], ...]:
    """2-4 concurrent sessions: the first is the config's own flow (so the
    legacy receiver draw is reused), the rest get fresh groups with small
    receiver sets, staggered starts and short CBR streams."""
    b = BOUNDS
    k = int(rng.integers(2, b["max_sessions"] + 1))
    specs = []
    for i in range(k):
        if i == 0:
            source, group, gsize = 0, 1, group_size
        else:
            source = int(rng.integers(0, n))
            group = 1 + i
            gsize = int(rng.integers(1, min(b["session_group_max"], n - 1) + 1))
        specs.append(
            {
                "source": source,
                "group": group,
                "group_size": gsize,
                "start": float(rng.uniform(*b["session_start"])),
                "rate_pps": float(rng.uniform(*b["session_rate"])),
                "n_packets": int(
                    rng.integers(b["session_packets"][0], b["session_packets"][1] + 1)
                ),
            }
        )
    return tuple(specs)


def random_scenario(rng: np.random.Generator) -> Scenario:
    """Draw one scenario from :data:`BOUNDS` (CLI campaign generator)."""
    b = BOUNDS
    protocol = str(rng.choice(b["protocols"]))
    cfg_kwargs: Dict[str, Any] = {
        "protocol": protocol,
        "seed": int(rng.integers(0, b["seed_max"])),
        "mac": "ideal" if rng.random() < 0.5 else "csma",
        "backoff_n": float(rng.integers(b["backoff_n"][0], b["backoff_n"][1] + 1)),
        "backoff_w": float(rng.choice(b["backoff_w"])),
        "hello_phase": bool(rng.random() < 0.25),
    }
    if rng.random() < 0.5:
        nx_ = int(rng.integers(b["grid_dim"][0], b["grid_dim"][1] + 1))
        ny = int(rng.integers(b["grid_dim"][0], b["grid_dim"][1] + 1))
        spacing = float(rng.uniform(*b["grid_spacing"]))
        cfg_kwargs.update(
            topology="grid", grid_nx=nx_, grid_ny=ny,
            side=spacing * (min(nx_, ny) - 1),
        )
        n = nx_ * ny
    else:
        n = int(rng.integers(b["random_n"][0], b["random_n"][1] + 1))
        cfg_kwargs.update(
            topology="random", random_nodes=n,
            side=float(rng.uniform(*b["random_side"])),
        )
    cfg_kwargs["group_size"] = int(rng.integers(1, min(b["group_max"], n - 1) + 1))
    roll = rng.random()
    if roll < 0.3:
        cfg_kwargs.update(loss_model="iid", loss_rate=float(rng.uniform(*b["iid_loss"])))
    elif roll < 0.6:
        cfg_kwargs.update(
            loss_model="gilbert",
            ge_p_good_bad=float(rng.uniform(*b["ge_p_good_bad"])),
            ge_p_bad_good=float(rng.uniform(*b["ge_p_bad_good"])),
        )
    if rng.random() < 0.3:
        cfg_kwargs["sessions"] = _draw_sessions_np(rng, n, cfg_kwargs["group_size"])
    cfg = SimulationConfig(**cfg_kwargs)

    faults: Tuple[Dict[str, Any], ...] = ()
    if rng.random() < 0.6:
        window = cfg.effective_construction_time + 2.0
        plan = FaultPlan()
        for _ in range(int(rng.integers(1, b["max_faults"] + 1))):
            victim = int(rng.integers(0, n))
            t = float(rng.uniform(0.0, window))
            if rng.random() < 0.5:
                plan.crash(t, victim)
                if rng.random() < 0.3:
                    plan.recover(t + float(rng.uniform(*b["recover_delay"])), victim)
            else:
                plan.sleep(victim, t, float(rng.uniform(*b["sleep_duration"])))
        faults = tuple(plan.to_dicts())

    mobility = None
    if rng.random() < 0.25:
        mobility = {
            "speed_min": 0.5,
            "speed_max": float(rng.uniform(*b["speed_max"])),
            "pause": float(rng.uniform(*b["pause"])),
            "update_interval": 0.25,
        }
    energy_budget = (
        float(rng.uniform(*b["energy_budget"])) if rng.random() < 0.2 else None
    )
    refresh = (
        float(rng.uniform(*b["refresh_interval"])) if rng.random() < 0.5 else None
    )
    repair = None
    if rng.random() < 0.25:
        repair = RepairPolicy(
            repair_ttl=int(rng.integers(b["repair_ttl"][0], b["repair_ttl"][1] + 1)),
            degraded_ttl=int(
                rng.integers(b["degraded_ttl"][0], b["degraded_ttl"][1] + 1)
            ),
        ).to_dict()
    return Scenario(
        config=cfg,
        faults=faults,
        n_packets=int(rng.integers(b["n_packets"][0], b["n_packets"][1] + 1)),
        rate_pps=float(rng.uniform(*b["rate_pps"])),
        refresh_interval=refresh,
        mobility=mobility,
        energy_budget=energy_budget,
        repair=repair,
    )


def scenario_strategy():
    """Hypothesis strategy over the same space as :func:`random_scenario`.

    Imported lazily so the module works without hypothesis installed
    (the CLI path never needs it).
    """
    from hypothesis import strategies as st

    b = BOUNDS

    @st.composite
    def scenarios(draw) -> Scenario:
        protocol = draw(st.sampled_from(b["protocols"]))
        cfg_kwargs: Dict[str, Any] = {
            "protocol": protocol,
            "seed": draw(st.integers(0, b["seed_max"])),
            "mac": draw(st.sampled_from(("ideal", "csma"))),
            "backoff_n": float(draw(st.integers(*b["backoff_n"]))),
            "backoff_w": draw(st.sampled_from(b["backoff_w"])),
            "hello_phase": draw(st.booleans()),
        }
        if draw(st.booleans()):
            nx_ = draw(st.integers(*b["grid_dim"]))
            ny = draw(st.integers(*b["grid_dim"]))
            spacing = draw(
                st.floats(*b["grid_spacing"], allow_nan=False, allow_infinity=False)
            )
            cfg_kwargs.update(
                topology="grid", grid_nx=nx_, grid_ny=ny,
                side=spacing * (min(nx_, ny) - 1),
            )
            n = nx_ * ny
        else:
            n = draw(st.integers(*b["random_n"]))
            cfg_kwargs.update(
                topology="random", random_nodes=n,
                side=draw(
                    st.floats(*b["random_side"], allow_nan=False, allow_infinity=False)
                ),
            )
        cfg_kwargs["group_size"] = draw(st.integers(1, min(b["group_max"], n - 1)))
        loss = draw(st.sampled_from(("none", "iid", "gilbert")))
        if loss == "iid":
            cfg_kwargs.update(
                loss_model="iid",
                loss_rate=draw(st.floats(*b["iid_loss"], allow_nan=False)),
            )
        elif loss == "gilbert":
            cfg_kwargs.update(
                loss_model="gilbert",
                ge_p_good_bad=draw(st.floats(*b["ge_p_good_bad"], allow_nan=False)),
                ge_p_bad_good=draw(st.floats(*b["ge_p_bad_good"], allow_nan=False)),
            )
        if draw(st.booleans()):
            k = draw(st.integers(2, b["max_sessions"]))
            specs = []
            for i in range(k):
                if i == 0:
                    source, group = 0, 1
                    gsize = cfg_kwargs["group_size"]
                else:
                    source = draw(st.integers(0, n - 1))
                    group = 1 + i
                    gsize = draw(st.integers(1, min(b["session_group_max"], n - 1)))
                specs.append(
                    {
                        "source": source,
                        "group": group,
                        "group_size": gsize,
                        "start": draw(
                            st.floats(*b["session_start"], allow_nan=False)
                        ),
                        "rate_pps": draw(
                            st.floats(*b["session_rate"], allow_nan=False)
                        ),
                        "n_packets": draw(st.integers(*b["session_packets"])),
                    }
                )
            cfg_kwargs["sessions"] = tuple(specs)
        cfg = SimulationConfig(**cfg_kwargs)

        window = cfg.effective_construction_time + 2.0
        plan = FaultPlan()
        for _ in range(draw(st.integers(0, b["max_faults"]))):
            victim = draw(st.integers(0, n - 1))
            t = draw(st.floats(0.0, window, allow_nan=False))
            if draw(st.booleans()):
                plan.crash(t, victim)
                if draw(st.booleans()):
                    plan.recover(
                        t + draw(st.floats(*b["recover_delay"], allow_nan=False)),
                        victim,
                    )
            else:
                plan.sleep(
                    victim, t, draw(st.floats(*b["sleep_duration"], allow_nan=False))
                )

        mobility = None
        if draw(st.booleans()):
            mobility = {
                "speed_min": 0.5,
                "speed_max": draw(st.floats(*b["speed_max"], allow_nan=False)),
                "pause": draw(st.floats(*b["pause"], allow_nan=False)),
                "update_interval": 0.25,
            }
        energy_budget = draw(
            st.none() | st.floats(*b["energy_budget"], allow_nan=False)
        )
        refresh = draw(
            st.none() | st.floats(*b["refresh_interval"], allow_nan=False)
        )
        repair = None
        if draw(st.booleans()):
            repair = RepairPolicy(
                repair_ttl=draw(st.integers(*b["repair_ttl"])),
                degraded_ttl=draw(st.integers(*b["degraded_ttl"])),
            ).to_dict()
        return Scenario(
            config=cfg,
            faults=tuple(plan.to_dicts()),
            n_packets=draw(st.integers(*b["n_packets"])),
            rate_pps=draw(st.floats(*b["rate_pps"], allow_nan=False)),
            refresh_interval=refresh,
            mobility=mobility,
            energy_budget=energy_budget,
            repair=repair,
        )

    return scenarios()


# --------------------------------------------------------------------- #
# corpus
# --------------------------------------------------------------------- #
def save_corpus_entry(
    scenario: Scenario,
    path,
    note: str = "",
    trace_sha256: Optional[str] = None,
) -> None:
    """Serialise a scenario (plus optional pinned digest) as JSON."""
    payload = {"note": note, "scenario": scenario.to_dict()}
    if trace_sha256:
        payload["trace_sha256"] = trace_sha256
    Path(path).write_text(json.dumps(payload, indent=2, default=float) + "\n")


def load_corpus_entry(path) -> Tuple[Scenario, Dict[str, Any]]:
    """Read a corpus JSON back into a Scenario and its metadata."""
    payload = json.loads(Path(path).read_text())
    return Scenario.from_dict(payload["scenario"]), payload


def replay_corpus_entry(path, mode: str = "raise") -> ScenarioReport:
    """Re-run one corpus entry under the harness.

    Raises the recorded class of failure if it regressed: an
    :class:`InvariantViolation` whose message names ``path`` (with
    ``mode="raise"``), or an :class:`AssertionError` when the entry pins
    a trace digest and the run no longer reproduces it.
    """
    scenario, payload = load_corpus_entry(path)
    report = run_scenario(scenario, mode=mode, context=f"corpus entry {path}")
    expected = payload.get("trace_sha256")
    if expected and report.trace_sha256 != expected:
        raise AssertionError(
            f"corpus entry {path} no longer replays bit-identically: "
            f"trace sha256 {report.trace_sha256} != recorded {expected} "
            f"(seed={scenario.config.seed})"
        )
    return report
