"""Run hooks: the one way to ride along a run.

:func:`repro.sim.snapshot.build_prefix` builds a deployment and
``repro.experiments.runner._run_suffix`` runs the rest (the config's
:class:`~repro.experiments.config.Schedule`).  Both deliver the same
events, in order, to every object in a ``hooks`` list:

* ``on_attach(sim, cfg)`` — the kernel exists and the channel has not
  yet cached ``trace.emit``;
* ``on_phase_begin(name, sim, net, **meta)`` and ``on_phase_end(name,
  sim, net)`` — around ``prefix-build`` (``net`` is None as it begins),
  ``hello-warmup``, ``route-discovery`` and ``data-delivery``;
* ``on_bind(net, agents, cfg, receivers, members)`` — the protocol
  agents are installed and started; ``members`` maps each session's
  ``(source, group)`` to its receivers (None on single-session runs);
* ``on_finish()`` — the last phase ended; metrics and the close follow.

``run_many(cfgs, hooks=factory)`` builds each run's hooks where it runs
and returns their :meth:`RunHook.run_report` on ``RunResult.reports``.
:class:`repro.check.CheckHarness`, :class:`repro.obs.Observer` and the
drivers' :class:`Meter` subclasses implement these events; a run with no
hooks pays a few empty loops.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict

__all__ = ["RunHook", "Meter", "phase"]


class RunHook:
    """Base class for hooks: every event is a no-op."""

    def on_attach(self, sim, cfg) -> None:
        pass

    def on_phase_begin(self, name: str, sim, net, **meta) -> None:
        pass

    def on_phase_end(self, name: str, sim, net) -> None:
        pass

    def on_bind(self, net, agents, cfg, receivers, members) -> None:
        pass

    def on_finish(self) -> None:
        pass

    def run_report(self):
        """What the hook measured (picklable; None if nothing)."""
        return None


class Meter(RunHook):
    """Measures a finished run at ``on_finish``, before it is closed.

    :meth:`measure` reads ``net``, ``cfg``, ``receivers``, ``members`` and
    ``t_data`` (the data phase's start); its value is :attr:`result`.
    """

    result = None

    def on_bind(self, net, agents, cfg, receivers, members) -> None:
        self.net, self.cfg, self.receivers, self.members = net, cfg, receivers, members

    def on_phase_begin(self, name: str, sim, net, **meta) -> None:
        if name == "data-delivery":
            self.t_data = sim.now

    def on_finish(self) -> None:
        self.result = self.measure()
        del self.net, self.members

    def measure(self):
        raise NotImplementedError

    def send_times(self) -> Dict[int, float]:
        """Send time of each packet of the config's schedule stream."""
        schedule = self.cfg.schedule
        interval = 1.0 / schedule.rate_pps
        return {k: self.t_data + k * interval for k in range(schedule.n_packets)}

    def run_report(self):
        return self.result


@contextmanager
def phase(hooks, name: str, sim, net, **meta):
    """Bracket one phase: ``on_phase_begin`` before the body, ``on_phase_end`` after."""
    for h in hooks:
        h.on_phase_begin(name, sim, net, **meta)
    yield
    for h in hooks:
        h.on_phase_end(name, sim, net)
