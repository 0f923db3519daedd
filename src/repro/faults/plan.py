"""Declarative fault schedules.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records —
crash / recover / sleep / wake at absolute simulated times — built either
by hand (the builder methods chain) or drawn from a seeded generator
(:meth:`FaultPlan.random_crashes`).  Plans are plain data: they can be
validated against a deployment, serialised to/from dicts for campaign
files, and replayed bit-for-bit by :class:`repro.faults.FaultInjector`.

Determinism contract: a plan built from ``rng = RngRegistry(seed).stream(
"faults")`` (or ``sim.rng.stream("faults")``) is a pure function of the
seed, and the injector applies events in ``(time, node, kind)`` order, so
the whole faulty run replays identically from its master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(str, Enum):
    """What happens to the node at the event's time."""

    CRASH = "crash"      #: permanent (until RECOVER) failure: state lost conceptually
    RECOVER = "recover"  #: a crashed node comes back up
    SLEEP = "sleep"      #: duty-cycle sleep window opens: radio off
    WAKE = "wake"        #: sleep window closes: radio back on


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` applied to ``node`` at ``time``."""

    time: float
    node: int
    kind: FaultKind

    def to_dict(self) -> Dict:
        return {"time": self.time, "node": self.node, "kind": self.kind.value}

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultEvent":
        return cls(time=float(d["time"]), node=int(d["node"]), kind=FaultKind(d["kind"]))


class FaultPlan:
    """An editable, serialisable schedule of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = list(events)

    # ------------------------------------------------------------------ #
    # builders (chainable)
    # ------------------------------------------------------------------ #
    def crash(self, time: float, node: int) -> "FaultPlan":
        """Kill ``node`` at ``time``."""
        self._events.append(FaultEvent(float(time), int(node), FaultKind.CRASH))
        return self

    def recover(self, time: float, node: int) -> "FaultPlan":
        """Bring a crashed ``node`` back at ``time``."""
        self._events.append(FaultEvent(float(time), int(node), FaultKind.RECOVER))
        return self

    def sleep(self, node: int, start: float, duration: float) -> "FaultPlan":
        """One duty-cycle sleep window: radio off during [start, start+duration)."""
        if duration <= 0:
            raise ValueError(f"sleep duration must be positive, got {duration}")
        self._events.append(FaultEvent(float(start), int(node), FaultKind.SLEEP))
        self._events.append(FaultEvent(float(start + duration), int(node), FaultKind.WAKE))
        return self

    def duty_cycle(
        self,
        node: int,
        period: float,
        active_fraction: float,
        start: float = 0.0,
        end: float = 0.0,
    ) -> "FaultPlan":
        """Periodic sleep windows: awake the first ``active_fraction`` of
        every ``period`` in [start, end)."""
        if not 0.0 < active_fraction <= 1.0:
            raise ValueError(f"active_fraction {active_fraction} not in (0, 1]")
        if period <= 0 or end <= start:
            raise ValueError("need period > 0 and end > start")
        if active_fraction == 1.0:
            return self  # always on: nothing to schedule
        t = start
        while t < end:
            window_start = t + active_fraction * period
            window_len = min(t + period, end) - window_start
            if window_len > 0:
                self.sleep(node, window_start, window_len)
            t += period
        return self

    # ------------------------------------------------------------------ #
    # generated plans
    # ------------------------------------------------------------------ #
    @classmethod
    def random_crashes(
        cls,
        rng: np.random.Generator,
        candidates: Sequence[int],
        n_crashes: int,
        window: Tuple[float, float],
        recover_after: float = 0.0,
    ) -> "FaultPlan":
        """``n_crashes`` distinct nodes crash at uniform times in ``window``.

        ``recover_after > 0`` schedules each victim's recovery that many
        seconds after its crash.  The plan is a pure function of the
        generator's state — pass a named stream for reproducibility.
        """
        cands = np.asarray(sorted(set(int(c) for c in candidates)))
        if n_crashes > len(cands):
            raise ValueError(f"cannot crash {n_crashes} of {len(cands)} candidates")
        t0, t1 = float(window[0]), float(window[1])
        if t1 < t0:
            raise ValueError(f"bad window {window}")
        victims = rng.choice(cands, size=n_crashes, replace=False)
        times = np.sort(rng.uniform(t0, t1, size=n_crashes))
        plan = cls()
        for t, v in zip(times, victims):
            plan.crash(float(t), int(v))
            if recover_after > 0.0:
                plan.recover(float(t) + float(recover_after), int(v))
        return plan

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> List[FaultEvent]:
        """Events in deterministic application order."""
        return sorted(self._events, key=lambda e: (e.time, e.node, e.kind.value))

    def crashes(self) -> List[FaultEvent]:
        return [e for e in self.events if e.kind is FaultKind.CRASH]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self.events)

    def validate(self, n_nodes: int) -> None:
        """Sanity-check against a deployment size; raises ``ValueError``."""
        for ev in self._events:
            if ev.time < 0:
                raise ValueError(f"negative event time: {ev}")
            if not 0 <= ev.node < n_nodes:
                raise ValueError(f"node {ev.node} outside deployment of {n_nodes}: {ev}")

    # ------------------------------------------------------------------ #
    # serialisation (a Schedule's ``faults``, the fuzz corpus)
    # ------------------------------------------------------------------ #
    def to_dicts(self) -> List[Dict]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, dicts: Iterable[Dict]) -> "FaultPlan":
        return cls(FaultEvent.from_dict(d) for d in dicts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {k: sum(1 for e in self._events if e.kind is k) for k in FaultKind}
        parts = ", ".join(f"{k.value}={n}" for k, n in kinds.items() if n)
        return f"FaultPlan({parts or 'empty'})"
