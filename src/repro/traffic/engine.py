"""Concurrent multi-session execution: membership draws and phase scheduling.

The engine is deliberately small — the protocol layer already keeps one
:class:`~repro.protocols.base.SessionState` per ``(source, group)``, so
carrying many sessions is a matter of installing every group's receivers
before the snapshot boundary and driving each session's route-discovery
and CBR data phases on the shared event heap.  The runner's one run
schedule (``repro.experiments.runner._run_suffix``) calls into these
helpers for every multi-session run, the fuzzer's checked scenarios
(:func:`repro.check.fuzz.run_scenario`) included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.spec import SessionSpec

__all__ = [
    "install_session_members",
    "schedule_sessions",
    "sessions_horizon",
    "session_members",
]


def install_session_members(
    cfg,
    sim,
    net,
    plan: Sequence[SessionSpec],
    legacy_receivers: Optional[Sequence[int]] = None,
) -> Dict[Tuple[int, int], List[int]]:
    """Draw/install every session's receiver set; returns flow -> receivers.

    A session matching the config's own ``(source, group, group_size)``
    reuses the legacy draw (the ``"receivers"`` stream the single-session
    path consumed — keeping that stream untouched is what preserves the
    flag-off digests).  Every other session draws from its own stream
    keyed by the session *identity*, ``("receivers", source, group)``, so
    the draw is invariant to the plan's composition: a session sees the
    same receivers alone or among eight others (the differential-matrix
    contract).
    """
    members: Dict[Tuple[int, int], List[int]] = {}
    for spec in plan:
        if spec.receivers is not None:
            recv = [int(r) for r in spec.receivers]
        elif (
            legacy_receivers is not None
            and spec.source == cfg.source
            and spec.group == cfg.group
            and spec.group_size == cfg.group_size
        ):
            # membership for cfg.group was already installed by the
            # legacy draw; just record it
            members[spec.flow] = list(legacy_receivers)
            continue
        else:
            rng = sim.rng.stream("receivers", spec.source, spec.group)
            candidates = np.arange(0, cfg.n_nodes)
            candidates = candidates[candidates != spec.source]
            if not 0 < spec.group_size < cfg.n_nodes:
                raise ValueError(
                    f"session {spec.flow} group_size {spec.group_size} "
                    f"not in (0, {cfg.n_nodes})"
                )
            recv = [
                int(r)
                for r in rng.choice(candidates, size=spec.group_size, replace=False)
            ]
        net.set_group_members(spec.group, recv)
        members[spec.flow] = recv
    return members


def schedule_sessions(
    cfg,
    sim,
    net,
    agents: Sequence,
    plan: Sequence[SessionSpec],
    members: Dict[Tuple[int, int], List[int]],
    t0: Optional[float] = None,
) -> float:
    """Schedule every session's discovery + data phases; returns the horizon.

    Session timing relative to the traffic epoch ``t0`` (default: now):

    * ``t0 + start`` — the source floods its JoinQuery (on-demand
      protocols only; geographic/flooding sources have no discovery);
    * ``t0 + start + settle`` — the CBR stream begins (``n_packets`` at
      ``rate_pps``), where ``settle`` is the config's construction window
      (kept for every protocol family so cross-protocol session
      schedules stay aligned);
    * the returned horizon adds ``cfg.data_time`` of drain after the last
      packet of the last session.
    """
    if t0 is None:
        t0 = sim.now
    settle = cfg.effective_construction_time
    horizon = t0
    for spec in plan:
        src_agent = agents[spec.source]
        data_start = t0 + spec.start + settle
        interval = 1.0 / spec.rate_pps
        if hasattr(src_agent, "request_route"):
            sim.schedule_at(t0 + spec.start, src_agent.request_route, spec.group)
            for k in range(spec.n_packets):
                sim.schedule_at(
                    data_start + k * interval, src_agent.send_data, spec.group, k
                )
        elif hasattr(src_agent, "multicast"):
            # geographic (GMR): stateless, the packet carries the
            # destination positions
            dests = {d: net.node(d).position for d in members[spec.flow]}
            for k in range(spec.n_packets):
                sim.schedule_at(
                    data_start + k * interval,
                    src_agent.multicast,
                    spec.group,
                    dests,
                    k,
                )
        else:
            # flooding baseline: every packet is a network-wide flood
            for k in range(spec.n_packets):
                sim.schedule_at(
                    data_start + k * interval, src_agent.originate, spec.group, k
                )
        horizon = max(horizon, data_start + (spec.n_packets - 1) * interval)
    return horizon + cfg.data_time


def sessions_horizon(cfg, plan: Sequence[SessionSpec]) -> float:
    """Total simulated traffic duration of ``plan`` (epoch-relative)."""
    settle = cfg.effective_construction_time
    return (
        max(
            spec.start + settle + (spec.n_packets - 1) / spec.rate_pps
            for spec in plan
        )
        + cfg.data_time
    )


def session_members(net, plan: Sequence[SessionSpec]) -> Dict[Tuple[int, int], List[int]]:
    """Recover every session's receiver set from installed memberships.

    Used by the metrics/check layers after a warm fork, where the draw
    happened before the snapshot boundary and only node state survives.
    """
    return {spec.flow: net.members_of(spec.group) for spec in plan}
