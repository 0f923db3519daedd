"""Warm-state snapshot/fork engine for campaign-scale execution.

Every Monte-Carlo run pays a *prefix* — topology build, channel
construction, receiver draw and (optionally) the simulated HELLO warmup —
before the part that actually varies across a sweep (protocol agents,
backoff parameters, the discovery/data phases).  The prefix is a pure
function of a subset of the :class:`~repro.experiments.config.
SimulationConfig` fields (see :func:`prefix_key`), so paired designs that
sweep protocol or tuning parameters at a *fixed seed* recompute an
identical prefix once per run.

:class:`WarmSnapshot` captures the complete live state at the prefix
boundary — kernel clock + event heap, every node/MAC/radio, the channel's
cached geometry, all per-``(seed, key)`` rng generator states, the trace
prefix, and the packet-uid counter — as one pickled blob.  :meth:`~
WarmSnapshot.fork` then materialises an independent deep copy per run:
bound methods in the event heap rebind to the copied objects, generators
resume mid-stream, and the uid counter restarts at the capture point, so
a warm continuation is *bit-identical* to a cold run (enforced by the
golden sha256 trace digests in ``tests/integration`` and the corpus
replay tests).

Validity: a snapshot may be reused by any config whose :func:`prefix_key`
matches.  Fields that only act after the boundary — ``protocol`` (except
the geographic bit), ``backoff_n``/``backoff_w``, ``construction_time``,
``data_time`` — are deliberately excluded from the key; everything the
prefix consumed (seed, topology, channel, loss model, HELLO timing) is
included.  Runs with hooks (a :class:`repro.check.CheckHarness`, an
observer) never use snapshots: hooks attach to the live kernel before
network construction.

Cost model: a fork is one ``pickle.loads`` (a few ms for the paper's
deployments) while a cold prefix costs up to hundreds of ms with a HELLO
warmup — but for small static-bootstrap runs the cold build is *cheaper*
than a fork, so campaign drivers gate warm starts on
:func:`warm_profitable`.
"""

from __future__ import annotations

import copy
import io
import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.sim.hooks import phase
from repro.sim.trace import TraceKind, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import SimulationConfig
    from repro.net.network import Network
    from repro.sim.kernel import Simulator

__all__ = [
    "WarmSnapshot",
    "SnapshotCache",
    "ForkedPrefix",
    "prefix_key",
    "build_prefix",
    "deploy",
    "absorb_trace",
    "default_trace_kinds",
    "warm_profitable",
]

#: Config fields the prefix consumes — the reuse key.  ``protocol`` is
#: excluded on purpose (it only selects the agents installed *after* the
#: boundary) except for its geographic bit, which changes what the
#: HELLO/bootstrap phase records (neighbor positions).
_PREFIX_FIELDS: Tuple[str, ...] = (
    "topology",
    "side",
    "grid_nx",
    "grid_ny",
    "random_nodes",
    "comm_range",
    "seed",
    "source",
    "group",
    "group_size",
    "mac",
    "perfect_channel",
    "shadowing_sigma_db",
    "loss_model",
    "loss_rate",
    "ge_p_good_bad",
    "ge_p_bad_good",
    "hello_phase",
    "hello_period",
    "hello_warmup",
    "keep_rx_records",
)


def default_trace_kinds(cfg: "SimulationConfig") -> set:
    """The record kinds a plain metrics run needs (mirrors ``run_single``)."""
    kinds = {TraceKind.TX, TraceKind.DELIVER, TraceKind.MARK, TraceKind.NOTE}
    if cfg.keep_rx_records:
        kinds.add(TraceKind.RX)
    return kinds


def _trace_signature(trace: Optional[TraceRecorder], cfg: "SimulationConfig") -> tuple:
    """What the capture recorder must look like to serve this request."""
    if trace is None:
        return (frozenset(default_trace_kinds(cfg)), False)
    enabled = trace._enabled
    return (frozenset(enabled) if enabled is not None else None, trace.counters_only)


def _sessions_signature(cfg: "SimulationConfig") -> Optional[tuple]:
    """The session set the prefix installs memberships for (None = legacy).

    A trivially default single-session plan signs identically to
    ``sessions=None`` — both build the exact legacy prefix, so they may
    share snapshots (and they must, for the flag-off digest guarantee).
    """
    from repro.traffic.spec import TrafficPlan, active_sessions

    plan = active_sessions(cfg)
    if plan is None:
        return None
    return TrafficPlan(sessions=plan).key()


def prefix_key(cfg: "SimulationConfig", trace: Optional[TraceRecorder] = None) -> tuple:
    """Hashable identity of the prefix a run under ``cfg`` would build.

    Two configs with equal keys build bit-identical prefix state, so a
    single :class:`WarmSnapshot` serves both.  The key folds in the trace
    recorder shape (enabled kinds, counters-only) because the captured
    recorder rides inside the snapshot, and the active session set
    because multi-session prefixes install extra group memberships and
    consume per-session receiver streams.
    """
    fields = tuple(getattr(cfg, f) for f in _PREFIX_FIELDS)
    return fields + (
        cfg.protocol == "gmr",
        _trace_signature(trace, cfg),
        _sessions_signature(cfg),
    )


def warm_profitable(cfg: "SimulationConfig") -> bool:
    """Is forking a snapshot expected to beat a cold prefix build?

    A fork unpickles the whole deployment (~the cost of building it),
    so it only wins when the prefix includes simulated work — the HELLO
    warmup — or an expensive geometry build (dense stochastic channel,
    large deployments).  Static-bootstrap runs at the paper's sizes build
    faster cold.
    """
    return bool(cfg.hello_phase or cfg.shadowing_sigma_db > 0.0 or cfg.n_nodes >= 1000)


class ForkedPrefix(NamedTuple):
    """One independent live continuation point produced by ``fork()``."""

    sim: "Simulator"
    net: "Network"
    receivers: List[int]
    positions: np.ndarray
    #: multi-session runs: each session's receivers by ``(source, group)``,
    #: in draw order (None on single-session runs)
    members: Optional[Dict[Tuple[int, int], List[int]]] = None


def deploy(
    cfg: "SimulationConfig",
    trace: Optional[TraceRecorder] = None,
    hooks: Sequence = (),
) -> ForkedPrefix:
    """Build the deployment: kernel, topology, channel, receiver draw.

    The ``prefix-build`` phase of :func:`build_prefix`, which every run
    shares: hooks get ``on_attach`` right after kernel creation, then the
    phase brackets topology, channel and group memberships.  Neighbor
    discovery is left to the caller (the batch kernel writes its
    analytic warmup in place of the simulated one).
    """
    from repro.experiments.config import make_loss_model, make_positions
    from repro.mac.csma import CsmaMac
    from repro.mac.ideal import IdealMac
    from repro.net.network import Network
    from repro.sim.kernel import Simulator
    from repro.traffic.spec import active_sessions

    if trace is None:
        trace = TraceRecorder(enabled_kinds=default_trace_kinds(cfg))
    sim = Simulator(seed=cfg.seed, trace=trace)
    for h in hooks:
        h.on_attach(sim, cfg)
    for h in hooks:
        h.on_phase_begin("prefix-build", sim, None, topology=cfg.topology, seed=cfg.seed)
    positions = make_positions(cfg, sim.rng.stream("topology"))
    perfect = cfg.perfect_channel or cfg.mac == "ideal"
    mac_factory = IdealMac if cfg.mac == "ideal" else CsmaMac
    propagation = None
    if cfg.shadowing_sigma_db > 0.0:
        from repro.phy.propagation import LogDistance

        # Median-matched to the paper's TwoRayGround (Pt*(ht*hr)^2/d^4):
        # identical nominal range, plus quasi-static log-normal fading —
        # the effect Sec. V-A explicitly disables, kept here as an
        # ablation substrate.
        propagation = LogDistance(
            reference_distance=1.0,
            reference_power_factor=(1.5 * 1.5) ** 2,
            path_loss_exponent=4.0,
            shadowing_sigma_db=cfg.shadowing_sigma_db,
            rng=sim.rng.stream("shadowing"),
        )
    net = Network(
        sim,
        positions,
        comm_range=cfg.comm_range,
        mac_factory=mac_factory,
        perfect_channel=perfect,
        propagation=propagation,
        loss=make_loss_model(cfg, sim.rng.stream("loss")),
    )

    recv_rng = sim.rng.stream("receivers")
    candidates = np.arange(0, cfg.n_nodes)
    candidates = candidates[candidates != cfg.source]
    receivers = recv_rng.choice(candidates, size=cfg.group_size, replace=False)
    receivers = [int(r) for r in receivers]

    # group memberships before any HELLO agent: beacon sizes (and the
    # neighbor-table group sets) depend on them
    plan = active_sessions(cfg)
    members = None
    if plan is None:
        net.set_group_members(cfg.group, receivers)
    else:
        # extra sessions draw from identity-keyed streams, leaving the
        # legacy "receivers" stream (consumed above) untouched.  The
        # legacy draw's *membership* is only installed when a session
        # actually reuses it — otherwise a plan session on cfg.group
        # would see the union of both draws
        from repro.traffic.engine import install_session_members

        if any(
            s.receivers is None
            and s.source == cfg.source
            and s.group == cfg.group
            and s.group_size == cfg.group_size
            for s in plan
        ):
            net.set_group_members(cfg.group, receivers)
        members = install_session_members(cfg, sim, net, plan, legacy_receivers=receivers)
    for h in hooks:
        h.on_phase_end("prefix-build", sim, net)
    return ForkedPrefix(sim, net, receivers, positions, members)


def build_prefix(
    cfg: "SimulationConfig",
    trace: Optional[TraceRecorder] = None,
    hooks: Sequence = (),
) -> ForkedPrefix:
    """Build a deployment up to the snapshot boundary (cold path).

    Everything up to — and including — neighbor discovery: the
    :func:`deploy` step, then either the simulated HELLO warmup
    (``cfg.hello_phase``, HELLO agents started) or the static bootstrap
    fixed point.  Protocol agents are *not* installed; their ``start()``
    is a no-op and they handle no HELLO traffic, so installing them after
    the boundary is trace-identical to the historical single-pass build.

    ``hooks`` (see :mod:`repro.sim.hooks`) receive the kernel attach and
    the ``prefix-build`` and ``hello-warmup`` phases.  Hooked runs are
    never snapshotted: a hook attaches to the live kernel.
    """
    prefix = deploy(cfg, trace, hooks)
    sim, net = prefix.sim, prefix.net
    geographic = cfg.protocol == "gmr"
    if cfg.hello_phase:
        net.install_hello(period=cfg.hello_period, share_position=geographic)
        # start only the HELLO agents (all that exist before the boundary);
        # protocol agents are started individually by the suffix
        for node in net.nodes:
            node.start_agents()
        with phase(hooks, "hello-warmup", sim, net):
            sim.run(until=cfg.hello_warmup)
    else:
        net.bootstrap_neighbor_tables(with_positions=geographic)
    return prefix


#: bit-generator classes :func:`_rebuild_generator` can reconstruct.
_BIT_GENERATORS = {
    name: getattr(np.random, name)
    for name in ("PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937")
    if hasattr(np.random, name)
}


def _rebuild_generator(state: dict) -> np.random.Generator:
    """Rebuild a ``Generator`` from its bit-generator state dict.

    numpy's own unpickling constructs the bit generator with a fresh
    entropy-pool seed (OS entropy + seed sequence spreading) and then
    overwrites the state — roughly half the cost of unpickling a
    generator, all wasted.  Seeding from the constant 0 and assigning
    the captured state lands on the identical generator in half the
    time (state assignment fully determines the output stream).
    """
    bg = _BIT_GENERATORS[state["bit_generator"]](0)
    bg.state = state
    return np.random.Generator(bg)


class _PrefixPickler(pickle.Pickler):
    """Capture-side pickler: shared immutables + cheap generator rebuilds.

    ``shared_ids`` maps ``id(obj)`` to a small-int token for objects every
    fork may reference *in place* (see ``_shared_prefix_state``); numpy
    ``Generator`` objects are swapped for :func:`_rebuild_generator` so
    forks skip the entropy-seeding constructor.
    """

    def __init__(self, buf, shared_ids: dict) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared_ids = shared_ids

    def persistent_id(self, obj):
        return self._shared_ids.get(id(obj))

    def reducer_override(self, obj):
        if type(obj) is np.random.Generator:
            return (_rebuild_generator, (obj.bit_generator.state,))
        return NotImplemented


class _PrefixUnpickler(pickle.Unpickler):
    def __init__(self, buf, shared: list) -> None:
        super().__init__(buf)
        self._shared = shared

    def persistent_load(self, pid):
        return self._shared[pid]


def _shared_prefix_state(prefix: ForkedPrefix) -> list:
    """Immutable objects forks may share instead of reconstructing.

    Geometry state is *replace-only* after construction: mobility and
    row rebuilds assign fresh arrays into the row lists and rebind
    ``positions``/``_grid`` wholesale, never writing existing arrays in
    place.  Sharing the array objects across forks is therefore safe —
    a fork that moves nodes swaps in its own arrays and the siblings
    keep seeing the capture-time geometry.  The *containers* (row lists,
    the grid object) stay per-fork.

    Only the sparse backend's row arrays qualify; the dense path (used
    under stochastic propagation) keeps whole matrices whose mutation
    discipline this function does not audit, so they ride in the blob.
    """
    ch = prefix.net.channel
    shared: list = [prefix.positions]
    if ch is not None:
        for attr in ("_neighbor_ids", "_nbr_delays", "_nbr_powers"):
            rows = getattr(ch, attr, None)
            if isinstance(rows, list):
                shared.extend(a for a in rows if isinstance(a, np.ndarray))
        grid = getattr(ch, "_grid", None)
        if grid is not None:
            shared.extend(
                v for v in vars(grid).values() if isinstance(v, np.ndarray)
            )
    return shared


class WarmSnapshot:
    """Frozen prefix state; :meth:`fork` yields independent live copies.

    The captured object graph is serialised immediately (one blob), so
    the snapshot itself can never be mutated by a continuation and every
    fork is a fresh materialisation.  Three classes of capture-time state
    are handed to forks without a per-fork rebuild: immutable geometry
    arrays (shared in place via a ``persistent_id`` pickler), the prefix
    trace records (immutable tuples, shared through one C-level list
    copy per fork), and rng generators (rebuilt from raw state, skipping
    the entropy-seeding constructor).  The capture recorder is also
    pre-indexed, so forks inherit ready trace indexes and metrics
    queries only index the records their own suffix appends.  Object
    graphs that refuse to pickle (exotic user extensions) fall back to
    per-fork ``copy.deepcopy`` of a private live copy.
    """

    __slots__ = (
        "key", "uid_base", "uid_end", "n_forks", "_blob", "_live",
        "_shared", "_prefix_records",
    )

    def __init__(self, key: tuple, uid_base: int, uid_end: int,
                 blob: Optional[bytes], live: Optional[ForkedPrefix],
                 shared: Optional[list] = None,
                 prefix_records: Optional[Tuple] = None) -> None:
        self.key = key
        #: packet-uid counter value when the capture build began
        self.uid_base = uid_base
        #: counter value at the boundary — every fork resumes here
        self.uid_end = uid_end
        self.n_forks = 0
        self._blob = blob
        self._live = live
        self._shared = shared if shared is not None else []
        #: records detached by :meth:`capture` (None: records are in the
        #: blob — snapshots built from externally pickled state)
        self._prefix_records = prefix_records

    @classmethod
    def capture(
        cls,
        cfg: "SimulationConfig",
        trace: Optional[TraceRecorder] = None,
    ) -> "WarmSnapshot":
        """Build ``cfg``'s prefix cold and freeze it at the boundary.

        ``trace`` only donates its *shape* (enabled kinds/counters-only);
        the capture runs on a private recorder whose prefix records are
        replayed into each fork.  Callers holding an external recorder
        get the records back via :func:`absorb_trace`.
        """
        from repro.net.packet import current_uid

        key = prefix_key(cfg, trace)
        enabled, counters_only = _trace_signature(trace, cfg)
        recorder = TraceRecorder(
            enabled_kinds=enabled, counters_only=counters_only
        )
        uid_base = current_uid()
        prefix = build_prefix(cfg, trace=recorder)
        uid_end = current_uid()
        # pre-index now so every fork inherits ready trace indexes
        recorder._reindex()
        # detach the records for out-of-band sharing: each fork receives
        # a shallow list copy (the records are immutable tuples), instead
        # of unpickling every record again
        prefix_records = tuple(recorder.records)
        recorder.records = []
        shared = _shared_prefix_state(prefix)
        shared_ids = {id(o): i for i, o in enumerate(shared)}
        try:
            buf = io.BytesIO()
            _PrefixPickler(buf, shared_ids).dump(tuple(prefix))
        except Exception:
            # never run further; deepcopied per fork, so it stays open
            recorder.records = list(prefix_records)
            return cls(key, uid_base, uid_end, None, prefix, shared, prefix_records)
        prefix.net.close()
        return cls(key, uid_base, uid_end, buf.getvalue(), None, shared, prefix_records)

    @property
    def size_bytes(self) -> int:
        """Serialized snapshot size (0 on the deepcopy fallback)."""
        return len(self._blob) if self._blob is not None else 0

    def fork(self) -> ForkedPrefix:
        """Materialise an independent continuation of the captured state.

        Restores the process-global packet-uid counter to the boundary
        value, so the continuation assigns the same uids a cold run from
        the same base would.  Forks share nothing mutable with each other
        or with the snapshot (asserted by ``tests/sim/test_snapshot.py``).
        """
        from repro.net.packet import reset_uids

        if self._blob is not None:
            prefix = ForkedPrefix(
                *_PrefixUnpickler(io.BytesIO(self._blob), self._shared).load()
            )
            if self._prefix_records is not None:
                # the blob carries an empty records list (pre-indexed to
                # the boundary); hand this fork its own record-list copy
                prefix.sim.trace.records = list(self._prefix_records)
        else:
            prefix = ForkedPrefix(*copy.deepcopy(tuple(self._live)))
        self.n_forks += 1
        reset_uids(self.uid_end)
        return prefix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "pickle" if self._blob is not None else "deepcopy"
        return (
            f"WarmSnapshot(uids={self.uid_base}..{self.uid_end}, "
            f"forks={self.n_forks}, via={mode}, {self.size_bytes / 1e6:.2f} MB)"
        )


def absorb_trace(target: TraceRecorder, source: TraceRecorder) -> None:
    """Append ``source``'s records/counters to ``target`` (warm-run glue).

    A warm run executes on the fork's private recorder; callers that
    passed an external recorder to ``run_single`` receive the full trace
    (prefix + continuation) through this append.  Append-only, so the
    target's lazy indexes stay valid and simply extend on next query.
    """
    target.records.extend(source.records)
    target.counts.update(source.counts)


class SnapshotCache:
    """Small LRU of :class:`WarmSnapshot` keyed by :func:`prefix_key`.

    Snapshots hold whole serialized deployments, so the cache is bounded
    (``max_entries``); sweeps grouped by seed evict cleanly as they move
    through the campaign.  One instance per process is plenty — worker
    processes each grow their own (see ``runner._process_snapshots``).
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("SnapshotCache needs room for at least one entry")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, WarmSnapshot]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Occupancy and traffic counters (the campaign service surfaces
        these next to the result-store stats: the snapshot cache is the
        warm-prefix artifact store every shard shares per process)."""
        return {
            "entries": len(self._entries),
            "bytes": sum(s.size_bytes for s in self._entries.values()),
            "forks": sum(s.n_forks for s in self._entries.values()),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def get_or_capture(
        self,
        cfg: "SimulationConfig",
        trace: Optional[TraceRecorder] = None,
    ) -> WarmSnapshot:
        """The snapshot serving ``cfg`` (captured cold on first miss)."""
        key = prefix_key(cfg, trace)
        snap = self._entries.get(key)
        if snap is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return snap
        self.misses += 1
        snap = WarmSnapshot.capture(cfg, trace=trace)
        self._entries[key] = snap
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        return snap

    def clear(self) -> None:
        self._entries.clear()
