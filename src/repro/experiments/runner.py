"""Single-run and Monte-Carlo execution.

A run is a pure function of its :class:`SimulationConfig` (including the
seed), so Monte-Carlo batches are embarrassingly parallel.  ``run_many``
plans a campaign into tasks — batch-kernel sub-batches, chunks of warm
runs grouped by prefix, and chunks of single runs — and executes them on
the host's usable CPUs through a *persistent* process pool shared by
every campaign (creating a pool per sweep point paid worker spawn +
module import over and over).  ``workers=1`` runs the same plan
in-process.  Results stream back as tasks finish, so an ``on_result``
callback sees completions immediately.

Warm starts: paired sweeps (same seed, varying protocol or tuning
parameters) rebuild an identical prefix — topology, channel, HELLO
warmup — once per run.  ``run_single(warm_start=...)`` forks that prefix
from a :class:`repro.sim.snapshot.WarmSnapshot` instead, bit-identically
(see :mod:`repro.sim.snapshot`); ``run_many(warm=True)`` applies this
automatically to configs where forking beats a cold build.

Failure isolation: one poisoned config no longer kills a campaign with a
bare traceback — failures surface as :class:`RunError` carrying the
config, seed, index and content hash, and ``on_error="collect"`` keeps
the campaign running with errors returned in-place (fuzz mode).

Because a run is a pure function of its config, results are also
*storeable*: a :class:`ResultStore` keeps each flat result under its
:func:`config_hash`, and :func:`run_single` (``cache=``, or
``$REPRO_RESULT_CACHE``) replays a stored result instead of rerunning it.
A campaign writes each run as it lands, so an interrupted sweep resumes
where it stopped.  Delete the store directory — or bump
``CACHE_VERSION`` when run semantics change — to invalidate.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import tempfile
import threading
import traceback as _traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.experiments.config import (
    SimulationConfig,
    make_agent_factory,
)
from repro.sim.hooks import RunHook, phase
from repro.sim.rng import RngRegistry
from repro.sim.snapshot import (
    ForkedPrefix,
    SnapshotCache,
    WarmSnapshot,
    absorb_trace,
    build_prefix,
    prefix_key,
    warm_profitable,
)
from repro.sim.trace import TraceKind, TraceRecorder

__all__ = [
    "RunResult",
    "RunError",
    "ResultStore",
    "run_single",
    "run_many",
    "resolve_workers",
    "monte_carlo",
    "aggregate",
    "aggregate_columnar",
    "field_means",
    "config_hash",
    "shared_pool",
    "shutdown_pool",
    "pool_broken",
    "pool_worker_pids",
    "CACHE_VERSION",
]

#: Bump whenever a change alters what a run computes for the *same*
#: config (new metrics, different semantics) — stale cache entries become
#: unreachable because the version participates in :func:`config_hash`.
#: v2: the config grew a ``sessions`` field (multi-session traffic
#: plans), changing the hashed payload shape for every config.
CACHE_VERSION = 2

#: Environment variable naming the default result store directory.
#: Unset (the default) disables the store entirely.
CACHE_ENV_VAR = "REPRO_RESULT_CACHE"


@dataclass(frozen=True)
class RunResult:
    """Flattened outcome of one Monte-Carlo run."""

    protocol: str
    topology: str
    group_size: int
    seed: int
    backoff_n: float
    backoff_w: float

    data_transmissions: int
    tree_transmissions: int
    extra_nodes: int
    average_relay_profit: float
    delivered: int
    delivery_ratio: float
    covered_receivers: int
    join_query_tx: int
    join_reply_tx: int
    hello_tx: int
    collisions: int
    energy_joules: float
    #: seconds from flood start to last receiver covered (the backoff's
    #: latency price; 0.0 for flooding, which has no construction phase)
    construction_latency: float = 0.0
    #: frames erased by the configured link-loss model (0 without one)
    frames_lost: int = 0

    #: for snapshot rendering
    transmitters: Tuple[int, ...] = ()
    receivers: Tuple[int, ...] = ()
    positions: Optional[np.ndarray] = None

    #: multi-session runs: the per-session + aggregate traffic view
    #: (:class:`repro.traffic.metrics.TrafficMetrics`); None on legacy
    #: single-session runs
    traffic: Optional[object] = None

    #: ``run_many(hooks=...)``: each hook's ``run_report()``, in hook order
    reports: Tuple = ()


# --------------------------------------------------------------------- #
# the result store
# --------------------------------------------------------------------- #
def config_hash(cfg: SimulationConfig) -> str:
    """Content hash identifying a run: the full config + cache version."""
    items = asdict(cfg)
    if items["schedule"] is None:  # unscheduled configs hash as before the field
        del items["schedule"]
    payload = repr((CACHE_VERSION, sorted(items.items())))
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultStore:
    """Content-addressed :class:`RunResult` store: one ``<config_hash>.json``
    file per run, under ``root``.

    Every stored result is served to any later run — in any process — of
    the same config.  ``config_hash`` folds in ``CACHE_VERSION``, so
    entries written under older run semantics become unreachable when
    the version bumps.  Writes are atomic: each writer renames a temp file
    of its own over the entry, so readers never see half a file and two
    writers of one entry (threads or processes) never collide.  Only flat
    metric results are storeable: :meth:`put` refuses runs carrying
    positions, a multi-session traffic payload or hook reports.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._lock = threading.Lock()

    def path_for(self, cfg: SimulationConfig, digest: Optional[str] = None) -> Path:
        """``cfg``'s entry; ``digest`` is its :func:`config_hash`, if known."""
        return self.root / f"{digest or config_hash(cfg)}.json"

    @staticmethod
    def storeable(result: RunResult) -> bool:
        return result.traffic is None and result.positions is None and not result.reports

    def get(self, cfg: SimulationConfig, digest: Optional[str] = None) -> Optional[RunResult]:
        """The stored result for ``cfg``, or None (counts hits/misses).

        ``digest``: ``cfg``'s :func:`config_hash`, for a caller that has
        it already.
        """
        try:
            payload = json.loads(self.path_for(cfg, digest).read_text())
        except (OSError, ValueError):
            payload = None
        with self._lock:
            if payload is None:
                self.misses += 1
                return None
            self.hits += 1
        payload["transmitters"] = tuple(payload.get("transmitters", ()))
        payload["receivers"] = tuple(payload.get("receivers", ()))
        return RunResult(**payload)

    def put(self, cfg: SimulationConfig, result: RunResult) -> bool:
        """Store ``result`` under ``cfg``'s hash; False if not storeable."""
        if not self.storeable(result):
            return False
        payload = asdict(result)
        for name in ("positions", "traffic", "reports"):
            del payload[name]
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=self.root)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload, default=float))  # folds numpy scalars
            os.replace(tmp, self.path_for(cfg))
        except BaseException:
            os.unlink(tmp)
            raise
        with self._lock:
            self.stores += 1
        return True

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json")))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


def _store_dir(cache: Union[None, bool, str, Path]) -> Optional[Path]:
    """The directory ``run_single(cache=...)`` names, or None for no store."""
    if cache is False:
        return None
    if cache is None or cache is True:
        cache = os.environ.get(CACHE_ENV_VAR) or None
    return None if cache is None else Path(cache)


def run_single(
    cfg: SimulationConfig,
    keep_positions: bool = False,
    trace: Optional[TraceRecorder] = None,
    cache: Union[None, bool, str, Path] = None,
    warm_start: Union[None, bool, SnapshotCache, WarmSnapshot] = None,
    hooks: Sequence = (),
) -> RunResult:
    """Execute one run under ``cfg`` and collect all metrics.

    Parameters
    ----------
    keep_positions:
        Retain the deployment coordinates on the result (snapshot plots).
    trace:
        Optional externally supplied recorder — lets callers observe the
        full event trace of the run (determinism tests, debugging).  The
        default recorder keeps only the kinds the metrics layer reads.
    cache:
        Result store directory (a :class:`ResultStore`): a path uses
        that directory, True or None (default) ``$REPRO_RESULT_CACHE``
        if it is set, and False none.  A call that keeps positions,
        takes an external trace or carries hooks neither reads nor
        writes the store, since a stored result cannot give those back;
        any other replays a stored result, or writes its own when it is
        storeable.
    warm_start:
        Fork the run's prefix (topology/channel/HELLO warmup) from a
        warm snapshot instead of rebuilding it — bit-identical to the
        cold path (see :mod:`repro.sim.snapshot`).  ``True`` uses the
        process-wide :class:`SnapshotCache`; a :class:`SnapshotCache`
        scopes reuse to the caller; a :class:`WarmSnapshot` must match
        this config's :func:`~repro.sim.snapshot.prefix_key`.  Ignored
        for hooked runs, whose hooks ride the live kernel, and for
        scheduled ones, whose stressors arm before the snapshot boundary.
    hooks:
        Run hooks (:mod:`repro.sim.hooks`) riding the whole run: a
        :class:`repro.check.CheckHarness` enforcing protocol invariants
        at the route-discovery and end-of-run checkpoints (and on
        RouteErrors), an :class:`repro.obs.Observer` (counters, phase
        spans, windowed samples), or a driver's
        :class:`~repro.sim.hooks.Meter`.  Hooks only read simulator
        state, so the trace is bit-identical with or without them.
        Without any (the default) the run executes no hook code.
    """
    hooks = tuple(hooks)
    replayable = not keep_positions and trace is None and not hooks
    store_dir = _store_dir(cache) if replayable else None
    store = None if store_dir is None else ResultStore(store_dir)
    if store is not None:
        stored = store.get(cfg)
        if stored is not None:
            return stored

    warm = None if hooks or cfg.schedule is not None else _resolve_warm(warm_start)

    # Pause cyclic GC across build + run + metrics: network assembly
    # allocates tens of thousands of containers whose churn triggers
    # pointless gen-0 scans (the run loop pauses GC on its own, but the
    # build phase is a comparable allocation burst).  Nothing is left
    # for the collector afterwards: the suffix closes the deployment,
    # so reference counting frees it.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if warm is not None:
            result = _execute_warm(cfg, warm, keep_positions=keep_positions, trace=trace)
        else:
            result = _execute_run(cfg, keep_positions=keep_positions, trace=trace, hooks=hooks)
    finally:
        if gc_was_enabled:
            gc.enable()
    if store is not None:
        store.put(cfg, result)
    return result


#: process-wide snapshot cache backing ``run_single(warm_start=True)``;
#: worker processes each grow their own copy of this module state, which
#: is what lets a persistent pool amortise prefixes across sweep points
_SNAPSHOTS: Optional[SnapshotCache] = None


def _process_snapshots() -> SnapshotCache:
    global _SNAPSHOTS
    if _SNAPSHOTS is None:
        _SNAPSHOTS = SnapshotCache()
    return _SNAPSHOTS


def _resolve_warm(warm_start) -> Union[None, SnapshotCache, WarmSnapshot]:
    if warm_start is None or warm_start is False:
        return None
    if warm_start is True:
        return _process_snapshots()
    if isinstance(warm_start, (SnapshotCache, WarmSnapshot)):
        return warm_start
    raise TypeError(
        f"warm_start must be None/bool/SnapshotCache/WarmSnapshot, "
        f"got {type(warm_start).__name__}"
    )


def _execute_warm(
    cfg: SimulationConfig,
    warm: Union[SnapshotCache, WarmSnapshot],
    keep_positions: bool = False,
    trace: Optional[TraceRecorder] = None,
) -> RunResult:
    """Fork the prefix from a snapshot and run the protocol suffix."""
    if isinstance(warm, WarmSnapshot):
        key = prefix_key(cfg, trace)
        if warm.key != key:
            raise ValueError(
                "warm_start snapshot does not match this config's prefix "
                "(different topology/seed/channel/HELLO parameters or trace shape)"
            )
        snap = warm
    else:
        snap = warm.get_or_capture(cfg, trace=trace)
    fork = snap.fork()
    result = _run_suffix(cfg, fork, keep_positions)
    if trace is not None:
        # the continuation ran on the fork's private recorder; hand the
        # full trace (prefix + suffix) back to the caller's
        absorb_trace(trace, fork.sim.trace)
    return result


def _execute_run(
    cfg: SimulationConfig,
    keep_positions: bool = False,
    trace: Optional[TraceRecorder] = None,
    hooks: Sequence = (),
) -> RunResult:
    """Build the network, run the round, and collect metrics (no caching).

    A scheduled run starts its packet uids at 0, so nothing that ran
    before it in this process reaches its trace.
    """
    prefix_hooks = hooks
    if cfg.schedule is not None:
        from repro.net.packet import reset_uids

        reset_uids()
        prefix_hooks = (*hooks, _ArmAtWarmup(cfg.schedule))
    p = build_prefix(cfg, trace=trace, hooks=prefix_hooks)
    return _run_suffix(cfg, p, keep_positions, hooks=hooks)


#: forwarder soft state outlives one refresh period and expires soon
#: after, so a dead relay's tree entry ages out by itself
FG_TIMEOUT_FACTOR = 2.5

#: seconds between a receiver's checks on its serving forwarder
MONITOR_INTERVAL = 1.0


def _arm(schedule, net) -> None:
    """Start the schedule's mobility; arm its fault events and energy budget."""
    from repro.faults import FaultInjector, FaultPlan

    if schedule.mobility is not None:
        from repro.net.mobility import RandomWaypointMobility

        RandomWaypointMobility(net, **dict(schedule.mobility)).start()
    FaultInjector(net, plan=FaultPlan(schedule.faults), energy_budget=schedule.energy_budget).arm()


class _ArmAtWarmup(RunHook):
    """Arms a schedule's stressors as the HELLO warmup begins: their times
    are absolute, and the warmup advances the clock past early faults.
    Without a HELLO phase :func:`_run_suffix` arms them at bind."""

    def __init__(self, schedule) -> None:
        self.schedule = schedule

    def on_phase_begin(self, name: str, sim, net, **meta) -> None:
        if name == "hello-warmup":
            _arm(self.schedule, net)


def _run_suffix(
    cfg: SimulationConfig,
    prefix: ForkedPrefix,
    keep_positions: bool = False,
    hooks: Sequence = (),
) -> RunResult:
    """Run everything after the snapshot boundary: the one run schedule.

    Installs and starts the protocol agents (HELLO agents were started by
    the prefix) and binds the hooks, then runs route discovery (on-demand
    protocols; each session's from its start).  Without ``cfg.schedule``
    the paper's round follows: one data packet, run to ``t0 + settle +
    data_time``.  Under a :class:`~repro.experiments.config.Schedule` the
    source streams packet ``k`` at ``t_data + k / rate`` from the end of
    discovery amid refresh, route monitors, repair and faults, and the
    run drains ``(refresh or 0) + 1`` s past the stream.  Hooks see both
    phases and ``on_finish``; the network is closed once the result is
    built, so reference counting frees the deployment.
    """
    from repro.metrics.collect import collect_metrics
    from repro.traffic.engine import schedule_sessions, session_members
    from repro.traffic.spec import active_sessions

    sim, net, receivers = prefix.sim, prefix.net, prefix.receivers
    agents = net.install(make_agent_factory(cfg))
    for agent in agents:
        agent.start()
    plan = active_sessions(cfg)
    # each session's receivers in node order; ``flows`` keeps draw order
    members = None if plan is None else session_members(net, plan)
    for h in hooks:
        h.on_bind(net, agents, cfg, receivers, members)
    schedule = cfg.schedule
    source_agent = agents[cfg.source]
    t0 = sim.now
    settle = cfg.effective_construction_time
    geographic = cfg.protocol == "gmr"
    on_demand = not geographic and cfg.protocol != "flooding"
    refresh = None if schedule is None else schedule.refresh_interval
    refreshing = refresh is not None and on_demand
    flows = prefix.members if plan is not None else {(cfg.source, cfg.group): receivers}
    if schedule is not None:
        if not cfg.hello_phase:  # static bootstrap: arm at bind
            _arm(schedule, net)
        for a in agents if on_demand else ():
            if refresh is not None:
                a.fg_timeout = FG_TIMEOUT_FACTOR * refresh
            if schedule.repair is not None and getattr(a, "supports_repair", False):
                a.repair_policy = schedule.repair

    if plan is not None:
        stream_end = schedule_sessions(cfg, sim, net, agents, plan, members, t0=t0)
    if plan is not None or on_demand:  # flooding and GMR build no routes
        with phase(hooks, "route-discovery", sim, net, protocol=cfg.protocol):
            if plan is None:
                source_agent.request_route(cfg.group)
                sim.run(until=t0 + settle)
            else:
                sim.run(until=t0 + min(s.start for s in plan) + settle)

    t_data = sim.now
    if refreshing:
        for (source, group), recv in flows.items():
            agents[source].start_periodic_refresh(group, refresh)
            if cfg.hello_phase:
                # with live HELLO maintenance each receiver watchdogs its
                # serving forwarder; a dead one triggers a RouteError
                for r in recv:
                    agents[r].start_route_monitor(source, group, interval=MONITOR_INTERVAL)
    n, interval = (1, 0.0) if schedule is None else (schedule.n_packets, 1.0 / schedule.rate_pps)
    if schedule is not None and schedule.crash_forwarder_at is not None:
        from repro.faults import FaultInjector

        FaultInjector(net).schedule_forwarder_crash(
            t_data + schedule.crash_forwarder_at, agents, source=cfg.source, group=cfg.group
        )
    if schedule is not None and schedule.churn is not None:
        from repro.experiments.chaos import build_churn_plan
        from repro.faults import FaultInjector

        n_cycles, down_time = schedule.churn
        # churn fires strictly inside the stream so every crash competes
        # with live traffic; the margin keeps the tail packets measurable
        window = (t_data + 2 * interval, t_data + n * interval - down_time)
        churn = build_churn_plan(cfg, net.graph(), receivers, window, n_cycles, down_time)
        FaultInjector(net, plan=churn).arm()
    if plan is None:
        if on_demand:
            send = partial(source_agent.send_data, cfg.group)
        elif geographic:
            # stateless: the packet carries the destination positions
            # (the GMR assumption set)
            send = partial(source_agent.multicast, cfg.group, {d: net.node(d).position for d in receivers})
        else:
            send = partial(source_agent.originate, cfg.group)
        for k in range(n):
            sim.schedule_at(t_data + k * interval, send, k)
        stream_end = t_data + n * interval
    if schedule is None:
        end = stream_end if plan is not None else t0 + settle + cfg.data_time
    else:
        end = stream_end + 1.0 if refresh is None else stream_end + refresh + 1.0
    with phase(hooks, "data-delivery", sim, net, protocol=cfg.protocol):
        sim.run(until=end)
    if refreshing:
        for source, group in flows:
            agents[source].stop_periodic_refresh(group)
    for h in hooks:
        h.on_finish()

    traffic = None
    if plan is not None:
        m, traffic = _traffic_run_metrics(net, agents, cfg, plan, members, end - t0)
    elif cfg.protocol == "flooding":
        m = _flooding_metrics(net, cfg, receivers)
    elif geographic:
        m = _geo_metrics(net, cfg, receivers)
    else:
        m = collect_metrics(net, agents, cfg.source, cfg.group, receivers)
    metrics = {f.name: getattr(m, f.name) for f in fields(m)}
    metrics["transmitters"] = tuple(sorted(m.transmitters))
    result = RunResult(
        protocol=cfg.protocol,
        topology=cfg.topology,
        group_size=cfg.group_size,
        seed=cfg.seed,
        backoff_n=cfg.backoff_n,
        backoff_w=cfg.backoff_w,
        receivers=tuple(receivers),
        positions=prefix.positions if keep_positions else None,
        traffic=traffic,
        **metrics,
    )
    net.close()
    return result


def _traffic_run_metrics(net, agents, cfg: SimulationConfig, plan, members, horizon):
    """Multi-session metrics: the aggregate MulticastMetrics view plus the
    per-session :class:`~repro.traffic.metrics.TrafficMetrics` payload.

    Aggregate fields fold every session together — ``delivered`` sums
    per-session delivered receivers, ``delivery_ratio`` is the mean
    per-session ratio (Jain-weighted fairness lives on the traffic
    payload) and ``data_transmissions`` counts every data-plane frame of
    every session.
    """
    from repro.metrics.collect import MulticastMetrics, average_relay_profit
    from repro.traffic.metrics import _DATA_TYPES, collect_traffic_metrics

    traffic = collect_traffic_metrics(net, agents, plan, members, horizon)
    trace = net.sim.trace
    transmitters: set = set()
    for pt in _DATA_TYPES:
        transmitters |= trace.nodes_with(TraceKind.TX, pt)
    sources = {spec.source for spec in plan}
    all_receivers = set()
    for recv in members.values():
        all_receivers |= set(recv)

    stateful = any(getattr(a, "sessions", None) for a in agents)
    if stateful:
        covered = 0
        for spec in plan:
            for r in members[spec.flow]:
                sess = getattr(agents[r], "sessions", None)
                st = sess.get(spec.flow) if sess else None
                if st is not None and st.covered:
                    covered += 1
    else:
        covered = sum(s.delivered for s in traffic.sessions)

    first_jq = next(trace.filter(TraceKind.TX, "JoinQuery"), None)
    t_start = first_jq.time if first_jq is not None else None
    t_covered = None
    for rec in trace.filter(TraceKind.MARK, "Covered"):
        if rec.node in all_receivers:
            t_covered = rec.time
    latency = (
        (t_covered - t_start)
        if (t_start is not None and t_covered is not None)
        else 0.0
    )
    m = MulticastMetrics(
        data_transmissions=traffic.aggregate_data_tx,
        tree_transmissions=sum(1 + len(s.forwarders) for s in traffic.sessions),
        extra_nodes=len(transmitters - sources - all_receivers),
        average_relay_profit=average_relay_profit(net, transmitters, all_receivers),
        delivered=sum(s.delivered for s in traffic.sessions),
        delivery_ratio=traffic.aggregate_delivery_ratio,
        covered_receivers=covered,
        join_query_tx=trace.count(TraceKind.TX, "JoinQuery"),
        join_reply_tx=trace.count(TraceKind.TX, "JoinReply"),
        hello_tx=trace.count(TraceKind.TX, "HelloPacket"),
        collisions=net.channel.frames_collided,
        energy_joules=net.energy_summary()["total_joules"],
        frames_lost=net.channel.frames_lost,
        construction_latency=latency,
        transmitters=transmitters,
    )
    return m, traffic


def _flooding_metrics(net, cfg: SimulationConfig, receivers: Sequence[int]):
    """Flooding has no tree; every transmitter is a 'forwarder'."""
    return _treeless_metrics(net, cfg, receivers, "DataPacket")


def _geo_metrics(net, cfg: SimulationConfig, receivers: Sequence[int]):
    """GMR metrics: packets are GeoDataPackets, there is no tree state."""
    return _treeless_metrics(net, cfg, receivers, "GeoDataPacket")


def _treeless_metrics(net, cfg: SimulationConfig, receivers: Sequence[int], packet_type: str):
    """Metrics of a run that keeps no tree: ``packet_type`` frames are the data plane."""
    from repro.metrics.collect import MulticastMetrics, average_relay_profit, extra_nodes

    trace = net.sim.trace
    transmitters = trace.nodes_with(TraceKind.TX, packet_type)
    delivered = len(trace.nodes_with(TraceKind.DELIVER) & set(receivers))
    tx = trace.count(TraceKind.TX, packet_type)
    return MulticastMetrics(
        data_transmissions=tx,
        tree_transmissions=tx,
        extra_nodes=extra_nodes(transmitters, cfg.source, receivers),
        average_relay_profit=average_relay_profit(net, transmitters, receivers),
        delivered=delivered,
        delivery_ratio=delivered / len(receivers) if receivers else 1.0,
        covered_receivers=delivered,
        join_query_tx=0,
        join_reply_tx=0,
        hello_tx=trace.count(TraceKind.TX, "HelloPacket"),
        collisions=net.channel.frames_collided,
        energy_joules=net.energy_summary()["total_joules"],
        frames_lost=net.channel.frames_lost,
        transmitters=transmitters,
    )


def monte_carlo(cfg: SimulationConfig, n_runs: int, batch_seed: int = 12345) -> List[SimulationConfig]:
    """Expand ``cfg`` into ``n_runs`` configs with independent seeds."""
    seeds = RngRegistry(batch_seed).spawn_run_seeds(n_runs)
    return [cfg.with_(seed=s) for s in seeds]


class RunError(RuntimeError):
    """One run of a campaign failed; carries what reproduces it.

    Raised by :func:`run_many` in ``on_error="raise"`` mode (the default)
    or returned *in-place* of the result in ``on_error="collect"`` mode.
    ``config``/``index``/``seed``/``config_hash`` identify the failing
    run; ``worker_traceback`` preserves the original stack even when the
    failure happened in a worker process.
    """

    def __init__(
        self,
        message: str,
        config: Optional[SimulationConfig] = None,
        index: Optional[int] = None,
        worker_traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.config = config
        self.index = index
        self.config_hash = config_hash(config) if config is not None else None
        self.worker_traceback = worker_traceback

    @property
    def seed(self) -> Optional[int]:
        return self.config.seed if self.config is not None else None


def _run_error(cfg: SimulationConfig, index: int, cause: str,
               worker_traceback: Optional[str] = None) -> RunError:
    return RunError(
        f"run #{index} failed (seed={cfg.seed}, protocol={cfg.protocol}, "
        f"config_hash={config_hash(cfg)[:12]}): {cause}",
        config=cfg,
        index=index,
        worker_traceback=worker_traceback,
    )


# --------------------------------------------------------------------- #
# persistent worker pool
# --------------------------------------------------------------------- #
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _warm_imports() -> None:
    """Worker initializer: pay the heavy imports once per process."""
    import repro.core.mtmrp  # noqa: F401
    import repro.mac.csma  # noqa: F401
    import repro.metrics.collect  # noqa: F401
    import repro.net.network  # noqa: F401
    import repro.protocols.dodmrp  # noqa: F401
    import repro.protocols.gmr  # noqa: F401
    import repro.protocols.maodv  # noqa: F401
    import repro.protocols.odmrp  # noqa: F401


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, created lazily and reused forever.

    Campaigns used to build (and tear down) one pool per sweep point,
    paying worker spawn + interpreter warmup dozens of times; the shared
    pool pays it once.  The pool grows if a later call asks for more
    workers and is otherwise left alone; ``shutdown_pool()`` exists for
    tests and long-lived embedders.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = ProcessPoolExecutor(max_workers=workers, initializer=_warm_imports)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared executor (no-op when none exists).

    Also the recovery path after a worker death: a killed worker leaves
    the executor broken (every pending future raises
    ``BrokenProcessPool``), and dropping it here lets the next
    :func:`shared_pool` call build a fresh one — which is how the
    campaign service's scheduler restarts after fault injection.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def pool_broken() -> bool:
    """Has a worker of the shared pool died?  False when there is none.

    A dead worker marks its executor broken before it fails the pending
    futures, so a scheduler that caught ``BrokenProcessPool`` finds the
    pool it ran on still broken — unless a concurrent recovery already
    replaced it, in which case tearing the new pool down would break
    *that* campaign's healthy retry.
    """
    return _POOL is not None and bool(_POOL._broken)


def pool_worker_pids() -> Tuple[int, ...]:
    """PIDs of the shared pool's live worker processes (empty: no pool).

    Operational surface for the service tier: health probes and the
    worker-kill fault-injection tests (kill a pid, then prove the
    scheduler re-queues and recovers) both need worker identity without
    reaching into executor internals.
    """
    if _POOL is None or _POOL._processes is None:
        return ()
    return tuple(_POOL._processes.keys())


def resolve_workers(workers: Optional[int], n_runs: int) -> int:
    """Worker count for a campaign of ``n_runs`` runs.

    An explicit ``workers`` is returned unchanged.  ``None`` means "use
    the host": the CPUs this process may run on (its affinity mask, or
    ``os.cpu_count()`` where the platform has none), capped at
    ``n_runs`` so a small campaign spawns no idle workers.  A result of
    1 makes :func:`run_many` execute in-process, creating no pool.
    """
    if workers is not None:
        return workers
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform (macOS, Windows)
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_runs))


# --------------------------------------------------------------------- #
# the execution planner
# --------------------------------------------------------------------- #
#: One planned unit of work: ``(batched, items)`` with items ``(index,
#: config, warm)``.  A batched task is a sub-batch of one batch group;
#: any other task is a chunk of runs executed one by one.
_Item = Tuple[int, SimulationConfig, bool]
_Task = Tuple[bool, List[_Item]]

#: Serialises in-process execution across threads: the packet-uid counter
#: (which warm forks rewind), the snapshot cache and the batch counters
#: are process-global, so in-process campaigns in two threads (the
#: campaign service's executor threads) must not interleave.
_EXEC_LOCK = threading.RLock()


def _plan(
    cfgs: List[SimulationConfig],
    workers: int,
    flags: List[bool],
    batch: int,
    chunk_size: Optional[int],
) -> List[_Task]:
    """Cut a campaign into batch groups, warm groups and singles.

    Batch groups (``batch > 1``): eligible configs sharing a
    :func:`~repro.sim.batch.batch_group_key`, in sub-batches of
    ``min(batch, ceil(len(group) / workers))`` seeds so every worker gets
    a share; each ineligible config counts as a batch fallback here.  The
    rest goes out in chunks, since small fast runs drown in per-future
    IPC when submitted one by one.  Auto chunks shrink (factoring): each
    takes half of the remaining runs' share per worker, at most 32, down
    to single runs at the tail, so no worker is left waiting on another's
    last big chunk (a sweep's runs grow heavier along it).  Warm items
    are sorted by prefix key first, so each process's snapshot cache sees
    a prefix's runs back to back.
    """
    items = [(k, c, flags[k]) for k, c in enumerate(cfgs)]
    tasks: List[_Task] = []
    if batch > 1:
        from repro.sim.batch import STATS, batch_eligible, batch_group_key

        groups: Dict[tuple, List[_Item]] = {}
        rest = []
        for it in items:
            reason = batch_eligible(it[1])
            if reason is None:
                groups.setdefault(batch_group_key(it[1]), []).append(it)
            else:
                STATS.record_fallback(reason)
                rest.append(it)
        for group in groups.values():
            size = min(batch, (len(group) + workers - 1) // workers)
            tasks += [(True, group[i:i + size]) for i in range(0, len(group), size)]
        items = rest
    if any(it[2] for it in items):
        items.sort(key=lambda it: (repr(prefix_key(it[1])) if it[2] else "", it[0]))
    if chunk_size is not None:
        return tasks + [(False, items[i:i + chunk_size]) for i in range(0, len(items), chunk_size)]
    start = 0
    while start < len(items):
        size = max(1, min(32, (len(items) - start) // (workers * 2)))
        tasks.append((False, items[start:start + size]))
        start += size
    return tasks


def _task_rows(task: _Task, hooks=None, cache: Union[bool, Path] = False):
    """Run one task, yielding ``(index, result, exc)`` per run.

    ``exc`` is what a failed run raised (its ``result`` is None).  A
    batch task whose kernel call raises reruns its configs one by one,
    which pins the failure on its own run.  ``hooks`` (a factory) builds
    each run's hooks here; their reports land on the result.  ``cache``
    is the caller's result store directory (False: none), handed to each
    unbatched run.
    """
    batched, items = task
    if batched:
        from repro.sim.batch import run_batch

        try:
            results = run_batch([it[1] for it in items])
        except Exception:  # noqa: BLE001 - no per-run attribution; rerun below
            pass
        else:
            for it, res in zip(items, results):
                yield it[0], res, None
            return
    for idx, cfg, warm in items:
        res = exc = None
        try:
            run_hooks = () if hooks is None else tuple(hooks(cfg))
            res = run_single(cfg, cache=cache, warm_start=warm or None, hooks=run_hooks)
            if run_hooks:
                res = replace(res, reports=tuple(h.run_report() for h in run_hooks))
        except Exception as e:  # noqa: BLE001 - reported per run to the caller
            exc = e
        yield idx, res, exc


def _run_task(task: _Task, hooks=None, cache: Union[bool, Path] = False) -> tuple:
    """Pool-worker entry point: one task's rows, failures made picklable.

    A batch task also ships this worker's batch-kernel counters for the
    task (zeroed first); the parent folds them into its own, so the
    ``batch_*`` obs counters read the same at any worker count.
    """
    stats = None
    if task[0]:
        from repro.sim.batch import STATS

        STATS.reset()
        stats = STATS
    rows = []
    for idx, res, exc in _task_rows(task, hooks, cache):
        if exc is not None:
            exc = (repr(exc), "".join(_traceback.format_exception(exc)))
        rows.append((idx, res, exc))
    return rows, stats


def run_many(
    configs: Iterable[SimulationConfig],
    workers: Optional[int] = None,
    on_error: str = "raise",
    warm: bool = False,
    chunk_size: Optional[int] = None,
    on_result: Optional[Callable[[int, RunResult], None]] = None,
    batch: int = 0,
    hooks: Optional[Callable[[SimulationConfig], Sequence]] = None,
) -> List[RunResult]:
    """Run every config on the host's usable CPUs; results in input order.

    ``workers=None`` (the default) takes the worker count from the host
    (:func:`resolve_workers`).  The campaign is planned into tasks (batch
    sub-batches, warm groups, singles; see ``batch`` and ``warm``).  The
    tasks run in-process when the worker count is 1 or the plan holds one
    task, and on the persistent :func:`shared_pool` otherwise;
    ``chunk_size`` overrides the auto-sized chunks of non-batch runs.
    ``workers=1`` is the path to profile: pool workers are invisible to a
    profiler attached to the parent.  Every task is a pure function of
    its configs, so results are bit-identical at any worker count.
    Results stream back as tasks finish: ``on_result(index, result)``
    fires per completed run with the run's position in ``configs``
    (checkpointing callers need the identity, not just the order of
    completion).

    ``on_error="raise"`` (default) aborts on the first failure with a
    :class:`RunError` naming the config/seed/index; ``"collect"`` keeps
    going and leaves the :class:`RunError` in the failed run's result
    slot (callers filter with ``isinstance``).

    **Ordering contract** (pinned by ``tests/experiments/test_runner.py::
    TestCollectOrderingContract``; the campaign service's scheduler
    re-queues failed slots by index and depends on every clause): the
    returned list always has exactly ``len(configs)`` slots in input
    order, whether tasks run in-process or on the pool and whether or
    not they batch, under any mix of failures and successes; in collect
    mode a failed run's slot holds a :class:`RunError` whose ``index``
    equals its position; and ``on_result(index, result)`` reports the
    same index the result lands in, regardless of completion order.

    ``warm=True`` forks run prefixes from per-process snapshot caches
    where profitable (HELLO-phase / fading-channel configs — see
    :func:`repro.sim.snapshot.warm_profitable`).  Warm runs are grouped
    by prefix, so each process captures a prefix at most once.  Results
    are bit-identical either way.

    ``batch=N`` routes eligible configs through the vectorized many-seed
    kernel (:func:`repro.sim.batch.run_batch`).  Configs sharing a
    warm-snapshot ``prefix_key`` (seed aside) form a batch group, cut
    into sub-batches of ``min(N, ceil(len(group) / workers))`` seeds.
    Results are bit-identical to the scalar loop; ineligible or
    inexpressible configs fall back to scalar runs, counted in the
    ``batch_fallback`` obs counter (pool workers' counts are folded into
    this process's).  Callbacks fire in completion order.

    ``hooks`` is a picklable factory, ``hooks(cfg) -> [RunHook, ...]``
    (a module-level function or a ``functools.partial`` of one).  Each
    run's hooks are built in the process that executes it, and each
    hook's :meth:`~repro.sim.hooks.RunHook.run_report` lands on the
    result's ``reports``, in hook order — so checked and fault-injected
    campaigns run on the pool too.  Hooks attach to the live kernel, so
    there is nothing to fork or batch: ``hooks`` with ``warm`` or
    ``batch`` raises ValueError.

    With ``$REPRO_RESULT_CACHE`` set, unbatched unhooked runs go through
    a :class:`ResultStore` there (see :func:`run_single`): each run is
    written as it finishes, and a rerun of the campaign replays it.  The
    directory is read here, once, so pool workers use the caller's.
    """
    if on_error not in ("raise", "collect"):
        raise ValueError(f'on_error must be "raise" or "collect", got {on_error!r}')
    if hooks is not None and (warm or batch):
        raise ValueError("hooks= attach to the live kernel: there is nothing to fork (warm=) or batch (batch=)")
    cfgs = list(configs)
    total = len(cfgs)
    workers = max(1, resolve_workers(workers, total))
    flags = [warm and warm_profitable(c) for c in cfgs]
    tasks = _plan(cfgs, workers, flags, batch, chunk_size)
    # workers keep the environment and working directory they were forked with
    store_dir = _store_dir(None)
    cache = False if store_dir is None else store_dir.absolute()
    slots: List[Optional[RunResult]] = [None] * total

    def land(idx: int, res, failure) -> None:
        # ``failure``: an in-process run's exception, or the
        # ``(repr, traceback)`` pair a pool worker shipped
        if failure is not None:
            if isinstance(failure, Exception):
                err, cause = _run_error(cfgs[idx], idx, repr(failure)), failure
            else:
                err = _run_error(cfgs[idx], idx, failure[0], worker_traceback=failure[1])
                cause = None
            if on_error == "raise":
                raise err from cause
            res = err
        slots[idx] = res
        if on_result is not None:
            on_result(idx, res)

    if workers == 1 or len(tasks) <= 1:
        with _EXEC_LOCK:
            for task in tasks:
                for row in _task_rows(task, hooks, cache):
                    land(*row)
        return slots  # type: ignore[return-value]

    pool = shared_pool(workers)
    futures = [pool.submit(_run_task, task, hooks, cache) for task in tasks]
    try:
        for fut in as_completed(futures):
            rows, stats = fut.result()
            if stats is not None:
                from repro.sim.batch import STATS

                STATS.merge(stats)
            for row in rows:
                land(*row)
    except BaseException:
        # the pool is persistent: drop undone work, keep the workers
        for fut in futures:
            fut.cancel()
        raise
    return slots  # type: ignore[return-value]


def aggregate(results: Sequence[RunResult], metric: str) -> Dict[str, float]:
    """Mean / std / sem / percentile summary of one metric over runs.

    ``p50``/``p95`` use numpy's default linear interpolation; for fault
    campaigns the tail percentile is the honest summary of recovery
    latency (means hide the slow tail the paper's reader cares about).

    Percentiles of a single replicate are not estimates of anything —
    with ``n < 2`` both come back as NaN (with a warning) rather than
    parroting the lone value, and the key set stays fixed so downstream
    tables keep their columns.
    """
    summary = aggregate_columnar(results, (metric,))[metric]
    if summary["n"] < 2:
        warnings.warn(
            f"aggregate({metric!r}): percentiles of a single replicate are "
            "meaningless; p50/p95 set to NaN (run more replicates)",
            stacklevel=2,
        )
    return summary


def field_means(results: Sequence, *names: str) -> Dict[str, float]:
    """``{name: mean of that attribute over results}`` (sweep summaries)."""
    return {n: float(np.mean([getattr(r, n) for r in results])) for n in names}


def aggregate_columnar(
    results: Sequence[RunResult], metrics: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """``{metric: aggregate(results, metric)}`` for each of ``metrics``
    (default: every numeric metric, in declaration order), without the
    single-replicate warning."""
    from repro.metrics.collect import NUMERIC_METRICS

    if len(results) == 0:
        raise ValueError("no results to aggregate")
    out: Dict[str, Dict[str, float]] = {}
    for metric in NUMERIC_METRICS if metrics is None else metrics:
        if not hasattr(results[0], metric):
            known = ", ".join(sorted(RunResult.__dataclass_fields__))
            raise ValueError(f"unknown metric {metric!r}; expected one of: {known}")
        vals = np.asarray([getattr(r, metric) for r in results], dtype=float)
        if vals.size > 1:
            std = float(vals.std(ddof=1))
            p50 = float(np.percentile(vals, 50.0))
            p95 = float(np.percentile(vals, 95.0))
        else:
            std = 0.0
            p50 = p95 = float("nan")
        out[metric] = {
            "mean": float(vals.mean()),
            "std": std,
            "sem": std / float(np.sqrt(vals.size)) if vals.size > 1 else 0.0,
            "p50": p50,
            "p95": p95,
            "n": int(vals.size),
        }
    return out
