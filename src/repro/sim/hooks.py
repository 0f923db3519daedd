"""Run hooks: the one way to ride along a run.

:func:`repro.sim.snapshot.build_prefix` builds a deployment and
``repro.experiments.runner._run_suffix`` (or an experiment's own
schedule) drives it.  Both deliver the same events, in order, to every
object in a ``hooks`` list:

* ``on_attach(sim, cfg)`` — the kernel exists and the channel has not
  yet cached ``trace.emit``;
* ``on_phase_begin(name, sim, net, **meta)`` and ``on_phase_end(name,
  sim, net)`` — around ``prefix-build`` (``net`` is None as it begins),
  ``hello-warmup``, ``route-discovery`` and ``data-delivery``;
* ``on_bind(net, agents, cfg, receivers, members)`` — the protocol
  agents are installed and started; ``members`` maps each session's
  ``(source, group)`` to its receivers (None on single-session runs);
* ``on_finish()`` — the last phase ended; metrics follow.

:class:`repro.check.CheckHarness` and :class:`repro.obs.Observer`
implement these events; a run with no hooks pays a few empty loops.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["RunHook", "phase"]


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


@contextmanager
def phase(hooks, name: str, sim, net, **meta):
    """Bracket one phase: ``on_phase_begin`` before the body, ``on_phase_end`` after."""
    for h in hooks:
        h.on_phase_begin(name, sim, net, **meta)
    yield
    for h in hooks:
        h.on_phase_end(name, sim, net)
