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
``data_time``, ``schedule`` — are deliberately excluded from the key;
everything the prefix consumed (seed, topology, channel, loss model,
HELLO timing) is included.  Runs with hooks (a
:class:`repro.check.CheckHarness`, an observer) never use snapshots:
hooks attach to the live kernel before network construction.  Nor do
scheduled runs, whose stressors arm as the HELLO warmup begins.

Cost model: a fork is one ``pickle.loads`` (a few ms for the paper's
deployments) while a cold prefix costs up to hundreds of ms with a HELLO
warmup — but for small static-bootstrap runs the cold build is *cheaper*
than a fork, so campaign drivers gate warm starts on
:func:`warm_profitable`.
"""

from __future__ import annotations

import copy
import copyreg
import dataclasses
import io
import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


def _trace_signature(
    trace: Optional[TraceRecorder], cfg: "SimulationConfig"
) -> Optional[frozenset]:
    """The record kinds the capture recorder must store (None: all)."""
    if trace is None:
        return frozenset(default_trace_kinds(cfg))
    enabled = trace._enabled
    return frozenset(enabled) if enabled is not None else None


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
    warmup — or an expensive geometry build (a fading channel's all-pairs
    draw, large deployments).  Static-bootstrap runs at the paper's sizes
    build faster cold.
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


class _ZeroWords(ISeedSequence):
    """Seed words that are all zero: a bit generator seeded from them
    skips SeedSequence hashing, and its state is overwritten at once."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_ZERO_WORDS = _ZeroWords()


def _rebuild_generator(state: dict) -> np.random.Generator:
    """Rebuild a ``Generator`` from its bit-generator state dict.

    numpy's own unpickling constructs the bit generator with a fresh
    entropy-pool seed (OS entropy + seed sequence spreading) and then
    overwrites the state — most of the cost of unpickling a generator,
    all wasted.  Seeding from zero words and assigning the captured
    state lands on the identical generator (state assignment fully
    determines the output stream).
    """
    bg = _BIT_GENERATORS[state["bit_generator"]](_ZERO_WORDS)
    bg.state = state
    return np.random.Generator(bg)


def _restore_frozen(cls, state: dict):
    """Rebuild a frozen dataclass instance attribute by attribute."""
    obj = object.__new__(cls)
    for name, value in state.items():
        object.__setattr__(obj, name, value)
    return obj


#: how :class:`_PrefixPickler` reduces instances of each class
_PLAIN, _FROZEN, _DEFAULT = "plain", "frozen", "default"
_REDUCTION: Dict[type, str] = {}


def _reduction(cls: type) -> str:
    """``_PLAIN`` or ``_FROZEN`` for this package's dict-backed classes
    that pickle by their attribute dict; ``_DEFAULT`` for the rest."""
    if (
        not cls.__module__.startswith("repro.")
        or cls.__dictoffset__ == 0  # slotted: pickle already uses setattr
        or cls.__reduce_ex__ is not object.__reduce_ex__
        or cls.__reduce__ is not object.__reduce__
        or hasattr(cls, "__setstate__")
    ):
        return _DEFAULT
    if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
        return _FROZEN
    return _PLAIN


def _shared_ref(token: int) -> np.ndarray:
    """Stands for shared array ``token`` in a capture's blob.

    A fork's unpickler resolves this global to its snapshot's shared list
    (:meth:`_PrefixUnpickler.find_class`), so nothing calls this body.
    """
    raise RuntimeError("shared prefix arrays resolve only inside WarmSnapshot.fork")


class _PrefixPickler(pickle.Pickler):
    """Capture-side pickler: shared immutables, cheap generator rebuilds,
    and inline attribute values in every fork.

    ``shared_ids`` maps ``id(obj)`` to a small-int token for arrays every
    fork may reference *in place* (see ``_shared_prefix_state``); each
    reduces to ``_shared_ref(token)``.  ``reducer_override`` is the only
    hook: pickle calls it for every object outside its built-in atoms and
    containers (ints, floats, strings, tuples, lists, dicts, sets), which
    is how it sees every ndarray, instead of a ``persistent_id`` call per
    pickled object.  numpy ``Generator`` objects are swapped for
    :func:`_rebuild_generator` so forks skip the entropy-seeding
    constructor.

    The package's own objects travel in pickle's slot-state form,
    ``(copyreg.__newobj__, (cls,), (None, state))``.  Its BUILD sets each
    attribute with ``setattr``, where the default form writes into
    ``inst.__dict__`` — and on CPython 3.11+ merely asking for an
    instance's ``__dict__`` moves its attributes out of the inline value
    array into a real dict, which takes every later attribute access off
    the interpreter's specialised fast path.  Frozen dataclasses, whose
    ``setattr`` raises, are rebuilt by :func:`_restore_frozen`.
    """

    def __init__(self, buf, shared_ids: dict) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared_ids = shared_ids

    def reducer_override(self, obj):
        cls = type(obj)
        if cls is np.ndarray:
            token = self._shared_ids.get(id(obj))
            return NotImplemented if token is None else (_shared_ref, (token,))
        if cls is np.random.Generator:
            return (_rebuild_generator, (obj.bit_generator.state,))
        how = _REDUCTION.get(cls)
        if how is None:
            how = _REDUCTION[cls] = _reduction(cls)
        if how is _DEFAULT:
            return NotImplemented
        state = obj.__getstate__()
        if state is None:
            state = {}
        if how is _FROZEN:
            return (_restore_frozen, (cls, state))
        return (copyreg.__newobj__, (cls,), (None, state))


class _PrefixUnpickler(pickle.Unpickler):
    """Fork-side unpickler: ``_shared_ref(token)`` is ``shared[token]``."""

    def __init__(self, buf, shared: list) -> None:
        super().__init__(buf)
        self._shared = shared

    def find_class(self, module, name):
        # once per blob: pickle memoizes each global it loads
        if name == "_shared_ref" and module == __name__:
            return self._shared.__getitem__
        return super().find_class(module, name)


def _shared_prefix_state(prefix: ForkedPrefix) -> list:
    """Immutable objects forks may share instead of reconstructing.

    Geometry state is *replace-only* after construction: mobility and
    row rebuilds assign fresh arrays into the row lists and rebind
    ``positions``/``_grid`` wholesale, never writing existing arrays in
    place.  Sharing the array objects across forks is therefore safe —
    a fork that moves nodes swaps in its own arrays and the siblings
    keep seeing the capture-time geometry.  The *containers* (row lists,
    the grid object) stay per-fork.  Every channel keeps its geometry in
    these rows, a fading channel's included.
    """
    ch = prefix.net.channel
    shared: list = [prefix.positions]
    if ch is not None:
        for rows in (ch._neighbor_ids, ch._nbr_delays, ch._nbr_powers):
            shared.extend(a for a in rows if a is not None)  # None: lazy row
        if ch._grid is not None:
            shared.extend(
                v for v in vars(ch._grid).values() if isinstance(v, np.ndarray)
            )
    return shared


def _detach_trace(recorder: TraceRecorder) -> tuple:
    """Take the records and indexes out of an indexed ``recorder``.

    Records are immutable tuples and index entries immutable ints, so
    each fork gets container copies of the one detached set
    (:func:`_attach_trace`) instead of unpickling every record again.
    """
    out = (
        tuple(recorder.records),
        {k: tuple(v) for k, v in recorder._ix.items()},
        {k: frozenset(v) for k, v in recorder._ix_nodes.items()},
    )
    recorder.records, recorder._ix, recorder._ix_nodes = [], {}, {}
    return out


def _attach_trace(recorder: TraceRecorder, detached: tuple) -> None:
    """Give ``recorder`` its own copies of :func:`_detach_trace`'s output."""
    records, ix, ix_nodes = detached
    recorder.records = list(records)
    recorder._ix = {k: list(v) for k, v in ix.items()}
    recorder._ix_nodes = {k: set(v) for k, v in ix_nodes.items()}


class WarmSnapshot:
    """Frozen prefix state; :meth:`fork` yields independent live copies.

    The captured object graph is serialised immediately (one blob), so
    the snapshot itself can never be mutated by a continuation and every
    fork is a fresh materialisation.  Three classes of capture-time state
    are handed to forks without a per-fork rebuild: immutable geometry
    arrays (shared in place, each pickled as a reference), the prefix
    trace records and their indexes (immutable tuples and ints, shared
    through C-level container copies per fork), and rng generators
    (rebuilt from raw state, skipping the entropy-seeding constructor).
    The capture recorder is pre-indexed, so forks inherit ready trace
    indexes and metrics queries only index the records their own suffix
    appends.  Object graphs that refuse to pickle (exotic user
    extensions) fall back to per-fork ``copy.deepcopy`` of a private
    live copy.
    """

    __slots__ = (
        "key", "uid_base", "uid_end", "n_forks", "_blob", "_live",
        "_shared", "_prefix_trace",
    )

    def __init__(self, key: tuple, uid_base: int, uid_end: int,
                 blob: Optional[bytes], live: Optional[ForkedPrefix],
                 shared: Optional[list] = None,
                 prefix_trace: Optional[tuple] = None) -> None:
        self.key = key
        #: packet-uid counter value when the capture build began
        self.uid_base = uid_base
        #: counter value at the boundary — every fork resumes here
        self.uid_end = uid_end
        self.n_forks = 0
        self._blob = blob
        self._live = live
        self._shared = shared if shared is not None else []
        #: records and indexes detached by :meth:`capture` (None: they
        #: are in the blob — snapshots built from externally pickled state)
        self._prefix_trace = prefix_trace

    @classmethod
    def capture(
        cls,
        cfg: "SimulationConfig",
        trace: Optional[TraceRecorder] = None,
    ) -> "WarmSnapshot":
        """Build ``cfg``'s prefix cold and freeze it at the boundary.

        ``trace`` only donates its *shape* (its enabled kinds);
        the capture runs on a private recorder whose prefix records are
        replayed into each fork.  Callers holding an external recorder
        get the records back via :func:`absorb_trace`.
        """
        from repro.net.packet import current_uid

        key = prefix_key(cfg, trace)
        recorder = TraceRecorder(enabled_kinds=_trace_signature(trace, cfg))
        uid_base = current_uid()
        prefix = build_prefix(cfg, trace=recorder)
        uid_end = current_uid()
        # a fork's suffix refills the radios' reception pools as it needs
        # them, which costs less than restoring each pooled Reception
        if prefix.net.channel is not None:
            for radio in prefix.net.channel.radios:
                radio.free_pool.clear()
        # pre-index now so every fork inherits ready trace indexes
        recorder._reindex()
        prefix_trace = _detach_trace(recorder)
        shared = _shared_prefix_state(prefix)
        # the pickler's one hook, reducer_override, sees exactly these
        assert all(type(o) is np.ndarray for o in shared)
        shared_ids = {id(o): i for i, o in enumerate(shared)}
        try:
            buf = io.BytesIO()
            _PrefixPickler(buf, shared_ids).dump(tuple(prefix))
        except Exception:
            # never run further; deepcopied per fork, so it stays open
            _attach_trace(recorder, prefix_trace)
            return cls(key, uid_base, uid_end, None, prefix, shared)
        prefix.net.close()
        return cls(key, uid_base, uid_end, buf.getvalue(), None, shared, prefix_trace)

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
            if self._prefix_trace is not None:
                # the blob carries an empty recorder (indexed up to the
                # boundary); hand this fork its own copies
                _attach_trace(prefix.sim.trace, self._prefix_trace)
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
