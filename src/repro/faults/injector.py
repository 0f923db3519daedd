"""Replays a :class:`FaultPlan` onto a live deployment.

The injector is the single place where node lifecycle changes during a
run: it schedules every plan event on the event kernel, flips the node
flags (:meth:`Node.fail` / :meth:`recover` / :meth:`sleep` / :meth:`wake`),
emits a ``NOTE`` trace record per applied fault (kind ``"Fault"``) so the
metrics layer can reconstruct the fault timeline from the trace alone, and
keeps an application log for reproducibility checks.

Beyond static plans it supports two runtime modes:

* **energy depletion** — give every node a battery budget; the charge
  that exhausts it kills the node on the spot (the paper's "a forwarder
  runs out of energy" scenario, Sec. IV-D);
* **targeted forwarder crash** — at a chosen time, pick (seeded) one
  current mid-tree forwarder and kill it, the canonical route-recovery
  workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.sim.trace import TraceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.protocols.base import OnDemandMulticastAgent

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms a fault schedule (and/or energy budgets) on a network.

    Parameters
    ----------
    net:
        The deployment to inject into.
    plan:
        Static fault schedule; ``None`` means no scheduled events (useful
        with ``energy_budget`` or :meth:`schedule_forwarder_crash` alone).
    energy_budget:
        When set, every node's battery is capped at this many joules and
        the node crashes at the charge that exhausts it.
    """

    def __init__(
        self,
        net: "Network",
        plan: Optional[FaultPlan] = None,
        energy_budget: Optional[float] = None,
    ) -> None:
        self.net = net
        self.sim = net.sim
        self.plan = plan if plan is not None else FaultPlan()
        self.plan.validate(len(net))
        self.energy_budget = energy_budget
        #: applied faults, in application order: (time, node, kind, cause)
        self.log: List[Tuple[float, int, str, str]] = []
        self._armed = False

    # ------------------------------------------------------------------ #
    # arming
    # ------------------------------------------------------------------ #
    def arm(self) -> "FaultInjector":
        """Schedule every plan event; install energy-depletion hooks."""
        if self._armed:
            raise RuntimeError("FaultInjector.arm() called twice")
        self._armed = True
        for ev in self.plan.events:
            self.sim.schedule_at(ev.time, self._apply, ev, "plan")
        if self.energy_budget is not None:
            budget = float(self.energy_budget)
            for node in self.net.nodes:
                node.energy.initial_joules = budget
                node.energy.on_depleted = self._make_depletion_hook(node.node_id)
                if node.energy.consumed >= budget and node.alive:
                    # already over budget (e.g. armed after a warm-up)
                    self._apply(
                        FaultEvent(self.sim.now, node.node_id, FaultKind.CRASH), "energy"
                    )
        return self

    def _make_depletion_hook(self, node_id: int):
        def hook(_account) -> None:
            if self.net.node(node_id).alive:
                self._apply(FaultEvent(self.sim.now, node_id, FaultKind.CRASH), "energy")

        return hook

    # ------------------------------------------------------------------ #
    # runtime-targeted faults
    # ------------------------------------------------------------------ #
    def schedule_forwarder_crash(
        self,
        time: float,
        agents: Sequence["OnDemandMulticastAgent"],
        source: int = 0,
        group: int = 1,
        rng: Optional[np.random.Generator] = None,
        exclude_members: bool = True,
    ) -> None:
        """At ``time``, kill one live forwarder of ``(source, group)``.

        The victim is drawn (seeded — defaults to the run's ``"faults"``
        stream) among current mid-tree forwarders: alive, not the source
        and, with ``exclude_members``, not a receiver themselves.  Falls
        back to receiver-forwarders when no pure relay exists; no-ops when
        the session has no forwarders at all.
        """
        gen = rng if rng is not None else self.sim.rng.stream("faults")

        def fire() -> None:
            def forwarders(allow_members: bool) -> List[int]:
                out = []
                for a in agents:
                    if a.node_id == source or not a.node.alive:
                        continue
                    if not allow_members and a.node.is_member(group):
                        continue
                    st = a.state_of(source, group)
                    if st is not None and st.is_forwarder:
                        out.append(a.node_id)
                return sorted(out)

            cands = forwarders(allow_members=not exclude_members)
            if not cands and exclude_members:
                cands = forwarders(allow_members=True)
            if not cands:
                return
            victim = int(cands[int(gen.integers(len(cands)))])
            self._apply(FaultEvent(self.sim.now, victim, FaultKind.CRASH), "forwarder")

        self.sim.schedule_at(time, fire)

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def _apply(self, ev: FaultEvent, cause: str) -> None:
        node = self.net.node(ev.node)
        if ev.kind is FaultKind.CRASH:
            if not node.alive:
                return
            node.fail()
        elif ev.kind is FaultKind.RECOVER:
            if node.alive:
                return
            node.recover()
        elif ev.kind is FaultKind.SLEEP:
            node.sleep()
        elif ev.kind is FaultKind.WAKE:
            node.wake()
        self.log.append((self.sim.now, ev.node, ev.kind.value, cause))
        self.sim.trace.emit(
            self.sim.now, TraceKind.NOTE, ev.node, "Fault", (ev.kind.value, cause)
        )

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def crashed(self) -> Set[int]:
        """Nodes currently down."""
        return {n.node_id for n in self.net.nodes if not n.alive}

    def crash_times(self) -> List[Tuple[float, int]]:
        """Applied crashes as (time, node), in application order."""
        return [(t, n) for t, n, kind, _cause in self.log if kind == FaultKind.CRASH.value]

    def first_crash_time(self) -> Optional[float]:
        times = self.crash_times()
        return times[0][0] if times else None
