"""Vectorized many-seed Monte Carlo kernel.

The campaign engine's replicate dimension — hundreds of seeds of the
*same* scenario — is a scalar python loop whose cost is dominated by the
HELLO warmup: tens of thousands of kernel events per seed that do nothing
but jittered periodic beaconing over a static topology.  Under a perfect
channel and the Ideal MAC that whole phase is *closed-form*: every tick
time is a cumulative sum of jitter draws, every transmission reaches
exactly the static neighbor set after a fixed delay, and every neighbor
table / energy account / trace record at the warmup boundary is a pure
function of those tick times.

This module reconstructs the boundary state analytically, advancing the
per-node jitter draws for all seeds as a handful of numpy block
computations (via :class:`repro.sim.rng.BatchedStreams`), and then hands
each seed to the ordinary scalar suffix (`_run_suffix`) — the scalar
kernel stays the semantic oracle, and golden-digest tests pin the
reconstruction byte-for-byte against it.

The same closed form serves the suffix.  Route discovery and the data
packet are over long before their phases end, and what remains is the
warmup's dynamics again: nothing but beaconing.  A batched seed's HELLO
agents (:class:`_BatchHello`) notice, at a tick, when the heap holds
nothing but the other nodes' pending ticks, and then write everything up
to the running ``sim.run`` call's horizon as one epoch (:func:`_epoch`,
the routine the warmup uses too).  A window it cannot express exactly is
stepped as before.

Bit-exactness contract (why this is safe, not just close):

* numpy block draws are bitwise identical to the same number of scalar
  draws and leave the generator in the identical state; speculative
  over-draws are reconciled by stepping the bit generator back to the
  exact count (:meth:`_BlockDraw.commit`).
* ``np.cumsum`` performs the same left-to-right float fold the scalar
  tick chain performs (``t += period + u``).
* packet uids are assigned in global tick-time order; TX records are
  emitted in fire order (= tick order); both are reproduced from one
  stable argsort, with exact-tie detection falling back to scalar.
* energy accumulators are per-node sequential float folds (tx and rx are
  *separate* accumulators), reproduced with ``cumsum`` (tx) and an
  unbuffered ``np.add.at`` over the receptions in finish-time order (rx);
  ambiguous same-instant folds fall back to scalar.
* radio state (begin/end TX, capture bookkeeping) is unobservable under
  ``perfect_channel`` + IdealMac, and is therefore not reconstructed.
* multi-session plans only touch the *prefix* through group-membership
  installs (HELLO frames carry the member-group bits) and the
  identity-keyed receiver draws — session scheduling itself lives in the
  scalar suffix — so the reconstruction installs memberships exactly as
  ``snapshot.build_prefix`` does and the closed form holds unchanged.
* i.i.d. loss fates are pre-sampled as one block: the scalar channel
  draws ``deg(sender)`` uniforms per fired frame at fire time, fire
  order equals the global tick order, and ``Generator.random(n)``
  consumes the identical doubles the per-frame chunks would — so one
  block draw reproduces every fate *and* the stream end-state.

Anything the closed form cannot express — CSMA backoff, stateful
(Gilbert–Elliott) loss, fading, geographic HELLOs (positions in
beacons) — falls back to the scalar path, counted in :data:`STATS` and
surfaced as the ``batch_fallback`` obs counter.
"""

from __future__ import annotations

import gc
import threading

from collections import Counter as _Counter
from heapq import heapify
from itertools import repeat as _repeat
from operator import attrgetter, itemgetter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.net.neighbor import HelloAgent, NeighborEntry
from repro.net.packet import HelloPacket, current_uid, reset_uids
from repro.sim.hooks import RunHook
from repro.sim.rng import BatchedStreams
from repro.sim.trace import TraceKind, TraceRecord, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import RunResult

__all__ = [
    "BatchStats",
    "STATS",
    "batch_eligible",
    "batch_group_key",
    "run_batch",
]

#: fixed parameters of ``Network.install_hello`` the closed form is
#: specialised to (the defaults every batch-eligible caller uses)
_HELLO_EXPIRY = 3.5
_HELLO_JITTER = 0.1

#: IdealMac access delay (fixed; the closed form bakes it in)
_ACCESS_DELAY = 10e-6

#: sub-order key larger than any delivery-list index, so a frame's
#: ``_finish_head`` sorts after its arrival pushes (matching the scalar
#: push order inside ``IdealMac._fire``)
_SUB_AFTER_ARRIVALS = 1 << 30


class _Inexpressible(Exception):
    """Raised when the analytic reconstruction detects a case it cannot
    reproduce bit-exactly (exact float ties, mid-warmup depletion, …).
    The caller falls back to the scalar kernel for that seed."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


#: Guards every update of a :class:`BatchStats`: pool campaigns fold their
#: workers' counts into ``STATS`` from their own threads (a lock cannot be
#: a field: the stats are pickled back from pool workers).
_STATS_LOCK = threading.Lock()


@dataclass
class BatchStats:
    """Process-wide accounting of batch-kernel engagement.

    ``fallback_runs`` is the number surfaced as the ``batch_fallback``
    obs counter; ``fallback_reasons`` explains *why* (config gate name or
    runtime inexpressibility tag).
    """

    batched_runs: int = 0
    #: (seed × session) flows served by the batch kernel — a legacy
    #: single-flow run counts one; an 8-session plan counts eight per seed
    batched_sessions: int = 0
    fallback_runs: int = 0
    fallback_reasons: _Counter = field(default_factory=_Counter)
    #: idle stretches of batched suffixes written in closed form
    idle_windows: int = 0

    def record_batched(self, n_flows: int) -> None:
        with _STATS_LOCK:
            self.batched_runs += 1
            self.batched_sessions += n_flows

    def record_idle_window(self) -> None:
        with _STATS_LOCK:
            self.idle_windows += 1

    def record_fallback(self, reason: str, n: int = 1) -> None:
        with _STATS_LOCK:
            self.fallback_runs += n
            self.fallback_reasons[reason] += n

    def merge(self, other: "BatchStats") -> None:
        """Fold in counts taken elsewhere (a pool worker's, for one task)."""
        with _STATS_LOCK:
            self.batched_runs += other.batched_runs
            self.batched_sessions += other.batched_sessions
            self.fallback_runs += other.fallback_runs
            self.fallback_reasons.update(other.fallback_reasons)
            self.idle_windows += other.idle_windows

    def reset(self) -> None:
        self.batched_runs = 0
        self.batched_sessions = 0
        self.fallback_runs = 0
        self.fallback_reasons.clear()
        self.idle_windows = 0


#: the process-wide instance (read by ``repro.obs.CounterRegistry``)
STATS = BatchStats()


# --------------------------------------------------------------------- #
# eligibility
# --------------------------------------------------------------------- #
def batch_eligible(cfg: "SimulationConfig") -> Optional[str]:
    """None if ``cfg`` can run on the batch kernel, else the fallback reason.

    The analytic warmup requires a deterministic medium with at most
    memoryless (i.i.d.) erasures and the draw-free Ideal MAC; everything
    else (CSMA backoff, stateful per-link loss chains, fading, geographic
    position beacons) perturbs either the rng draw counts or the boundary
    state in ways the closed form does not model.  Multi-session plans
    ride the kernel: sessions only reach the warmup through group
    memberships and identity-keyed receiver draws, both reproduced
    exactly, while the schedule itself runs in the scalar suffix.  A
    config's :class:`~repro.experiments.config.Schedule` does not: its
    stressors arm before the snapshot boundary.
    """
    if cfg.schedule is not None:
        return "schedule"
    if not cfg.hello_phase:
        # the static bootstrap prefix is already nearly free — nothing to
        # amortise, and the scalar path is bit-identical by definition
        return "no-hello-phase"
    if cfg.mac != "ideal":
        return f"mac:{cfg.mac}"
    if cfg.loss_model not in ("none", "iid"):
        # Gilbert–Elliott burns two draws per frame through a per-link
        # state chain — the fate of frame k depends on every prior frame
        # on that link, which the block pre-sample cannot express
        return f"loss:{cfg.loss_model}"
    if cfg.shadowing_sigma_db > 0.0:
        return "shadowing"
    if cfg.protocol == "gmr":
        return "geographic-hellos"
    period = cfg.hello_period
    # the closed form needs strictly separated tick chains (no queueing)
    # and a purge that can never remove an entry mid-warmup
    if period - _HELLO_JITTER <= 0.005:
        return "hello-period-too-short"
    if period + 2.0 * _HELLO_JITTER + 1e-3 >= _HELLO_EXPIRY:
        return "hello-period-vs-expiry"
    return None


def batch_group_key(cfg: "SimulationConfig", trace=None) -> tuple:
    """The warm-snapshot ``prefix_key`` with the seed masked out.

    Configs sharing this key differ only in their replicate seed and can
    ride one batch.  The batch *size* is deliberately not part of the
    key (regression-tested): batching is an execution strategy, not an
    identity input.
    """
    from repro.sim.snapshot import prefix_key

    return prefix_key(cfg.with_(seed=-1), trace)


# --------------------------------------------------------------------- #
# cross-seed jitter plan
# --------------------------------------------------------------------- #
def _round_span(cfg: "SimulationConfig") -> float:
    """Simulated seconds a round runs past the warmup: the plan's reach.

    A plan that falls short costs nothing but speed: an epoch reaching
    past the planned ticks refuses, and the window is stepped.
    """
    from repro.traffic.engine import sessions_horizon
    from repro.traffic.spec import active_sessions

    plan = active_sessions(cfg)
    if plan is not None:
        return sessions_horizon(cfg, plan)
    return cfg.effective_construction_time + cfg.data_time


class _HelloPlan:
    """Tick times for every (seed, node), computed as one numpy fold.

    ``ticks[s, i, k]`` is node ``i``'s ``k``-th HELLO tick under seed
    ``s``, planned to the round's end: a tick's time depends on its
    node's hello stream alone, so the warmup and every idle window of the
    suffix read their ticks from here.  ``n_exec[s, i]`` is how many of
    them execute within the warmup.  Draws are committed back to the
    per-seed streams so each registry ends draw-for-draw identical to a
    scalar warmup; the suffix's scalar ticks then draw the planned values
    again, and a fast-forwarded window advances the streams past its own.
    """

    __slots__ = ("ticks", "n_exec", "warmup")

    def __init__(self, cfg: "SimulationConfig", streams: BatchedStreams) -> None:
        n_nodes = cfg.n_nodes
        period = cfg.hello_period
        warmup = cfg.hello_warmup
        n_seeds = len(streams)
        # enough speculative draws to cover the fastest possible tick
        # chain (every inter-tick gap at its period - jitter minimum)
        depth = int((warmup + _round_span(cfg)) / (period - _HELLO_JITTER)) + 2

        ticks = np.empty((n_seeds, n_nodes, depth + 1), dtype=np.float64)
        blocks = []
        for i in range(n_nodes):
            key = ("hello", i)
            # HelloAgent.start(): uniform(0, jitter) — the first tick
            ticks[:, i, 0] = streams.uniform_matrix(key, 0.0, _HELLO_JITTER)
            # HelloAgent._tick(): period + uniform(-jitter, jitter) each
            block = streams.uniform_block(key, -_HELLO_JITTER, _HELLO_JITTER, depth)
            ticks[:, i, 1:] = np.maximum(period + block.matrix, 1e-6)
            blocks.append(block)
        # t_{k+1} = t_k + max(period + u_k, 1e-6): the exact scalar fold
        np.cumsum(ticks, axis=2, out=ticks)

        n_exec = np.sum(ticks <= warmup, axis=2)
        if np.any(n_exec > depth):  # pragma: no cover - defensive margin
            raise _Inexpressible("tick-depth-exceeded")
        # one scalar kernel draw per executed tick — step each stream
        # back to exactly that many so it lands on the scalar state
        for i, block in enumerate(blocks):
            block.commit(n_exec[:, i])

        self.ticks = ticks
        self.n_exec = n_exec
        self.warmup = warmup


# --------------------------------------------------------------------- #
# per-seed closed form
# --------------------------------------------------------------------- #
class _AdoptStreams(RunHook):
    """Hook handing a new kernel one seed's pre-advanced rng registry.

    The kernel's own registry made no draws and owns no streams, so
    replacing it before the deployment build is inert.
    """

    def __init__(self, registry) -> None:
        self.registry = registry

    def on_attach(self, sim, cfg) -> None:
        sim.rng = self.registry


class _ClosedForm:
    """One batched seed's HELLO closed form: the state its epochs share.

    The warmup is the seed's first epoch (:func:`_apply_warmup`); each
    idle stretch of the suffix is another, entered from a tick of a
    :class:`_BatchHello` agent (:meth:`forward`).  It references no
    agent — the agents reference it — so ``Network.close`` cutting the
    nodes' agent lists leaves nothing cyclic behind.
    """

    __slots__ = (
        "sim", "net", "ticks", "gens", "heap", "idle_depth", "refused", "_rows",
    )

    def __init__(self, sim, net, ticks: np.ndarray, gens: list) -> None:
        self.sim = sim
        self.net = net
        #: this seed's planned tick times, ``ticks[i, k]``
        self.ticks = ticks
        #: each node's hello stream (advanced past a fast-forwarded window)
        self.gens = gens
        self.heap = sim._queue._heap
        #: heap size at an idle tick: every other node's pending tick, as
        #: each HELLO agent always has exactly one tick pending
        self.idle_depth = len(net.nodes) - 1
        #: the horizon whose window the closed form refused (it is stepped)
        self.refused: Optional[float] = None
        #: the concatenated neighbor rows (a batched seed never moves)
        self._rows = None

    def rows(self) -> tuple:
        """``(deg, nbr_off, nbr_cat, delay_cat, sender_of_pair)``."""
        if self._rows is None:
            ch = self.net.channel
            ch._ensure_rows()
            ids = ch._neighbor_ids
            deg = np.array([a.size for a in ids], dtype=np.int64)
            self._rows = (
                deg,
                # each node's slice of the concatenated neighbor lists: a
                # reception's slot there names its (sender, neighbor) pair
                np.cumsum(deg) - deg,
                np.concatenate(ids),
                np.concatenate(ch._nbr_delays),
                np.repeat(np.arange(len(ids)), deg),
            )
        return self._rows

    def forward(self, agent: "_BatchHello") -> bool:
        """Write everything from ``agent``'s tick to the running ``run``
        call's horizon in closed form; False leaves the tick to step."""
        sim = self.sim
        until = sim.horizon
        if until is None or until == self.refused:
            return False
        try:
            n_win = _epoch(self, until, agent)
        except _Inexpressible:
            self.refused = until
            return False
        # one draw per executed tick, as the scalar ticks would have made
        for gen, k in zip(self.gens, n_win.tolist()):
            if k:
                gen.bit_generator.advance(k)
        STATS.record_idle_window()
        return True


class _BatchHello(HelloAgent):
    """A batched seed's HELLO agent: an idle tick fast-forwards the seed.

    Its tick is the scalar one unless the heap holds nothing but the
    other nodes' pending ticks.  Then nothing but beaconing can happen
    before the running ``sim.run`` call returns, and
    :meth:`_ClosedForm.forward` writes that stretch at once.
    """

    def __init__(self, closed_form: Optional[_ClosedForm], period: float) -> None:
        super().__init__(period=period)
        #: None: this seed steps every tick (a lossy channel, which the
        #: suffix's direct lane does not serve)
        self.closed_form = closed_form

    def _tick(self) -> None:
        cf = self.closed_form
        if cf is not None and len(cf.heap) == cf.idle_depth and cf.forward(self):
            return
        HelloAgent._tick(self)


def _reconstruct_prefix(cfg, registry, recorder, plan: _HelloPlan, s: int):
    """Build one seed's deployment and its analytic warmup boundary.

    Returns the :class:`~repro.sim.snapshot.ForkedPrefix` in exactly the
    state ``snapshot.build_prefix`` leaves after simulating the HELLO
    warmup: the same :func:`~repro.sim.snapshot.deploy` step, then the HELLO
    agents installed and started (their start/tick draws were consumed
    by the plan) and their warmup written in place.
    """
    from repro.sim.snapshot import deploy

    prefix = deploy(cfg, recorder, hooks=(_AdoptStreams(registry),))
    sim, net = prefix.sim, prefix.net
    cf = _ClosedForm(
        sim, net, plan.ticks[s],
        [registry.stream("hello", i) for i in range(cfg.n_nodes)],
    )
    # the suffix fast-forwards on the direct lane, which lossy seeds leave
    forward = cf if net.channel.loss is None else None
    agents = [node.add_agent(_BatchHello(forward, cfg.hello_period)) for node in net.nodes]
    try:
        _apply_warmup(cfg, cf, agents)
    except _Inexpressible:
        net.close()  # the seed reruns scalar; free this one now
        raise
    return prefix


def _apply_warmup(cfg, cf: _ClosedForm, agents) -> None:
    """The warmup as the seed's first epoch: every HELLO agent starts as
    ``HelloAgent.start`` would (its draw is planned), then one epoch
    advances all of them to the boundary."""
    push_fire = cf.sim._queue.push_fire
    for i, agent in enumerate(agents):
        push_fire(float(cf.ticks[i, 0]), agent._tick)
    _epoch(cf, cfg.hello_warmup)
    cf.sim.now = cfg.hello_warmup


def _push_key(e: tuple) -> tuple:
    return e[:5]


def _epoch(cf: _ClosedForm, until: float, current: Optional[HelloAgent] = None) -> np.ndarray:
    """Advance one seed's HELLO beaconing through ``until`` in closed form.

    The heap must hold nothing but every node's pending HELLO tick —
    except ``current``'s, whose tick is executing now.  Every tick up to
    ``until`` runs: frames fire and are received, and the epoch writes
    what the scalar loop would leave — trace records and counts, packet
    uids, energy folds, neighbor tables, MAC / agent / channel counters —
    then rebuilds the heap: ticks after ``until`` stay as they are, and
    the entries the epoch leaves pending join them in scalar push order,
    on the lane the channel runs (arrive/finish, or the direct lane).
    Returns each node's number of executed ticks.  Raises
    :class:`_Inexpressible` before writing anything.
    """
    sim, net = cf.sim, cf.net
    ch = net.channel
    nodes = net.nodes
    n_nodes = len(nodes)
    recorder = sim.trace
    queue = sim._queue
    heap = queue._heap
    ticks = cf.ticks
    depth = ticks.shape[1]
    direct = ch.direct_finish and ch.loss is None
    uid0 = current_uid()

    # ---- each node's pending tick, and the ticks up to until --------- #
    pend = [(e[3].__self__.node_id, e[0], e[3]) for e in heap]
    if current is not None:
        pend.append((current.node_id, sim.now, current._tick))
    pend.sort(key=itemgetter(0))
    fns = [fn for _, _, fn in pend]
    t_pend = np.array([t for _, t, _ in pend])
    if [j for j, _, _ in pend] != list(range(n_nodes)):  # pragma: no cover
        raise _Inexpressible("not-all-beaconing")
    if not all(node.alive and not node.asleep for node in nodes):
        raise _Inexpressible("not-all-beaconing")
    m_end = np.count_nonzero(ticks <= until, axis=1)
    if np.any(m_end >= depth):
        raise _Inexpressible("tick-depth-exceeded")
    k0 = np.minimum(np.count_nonzero(ticks < t_pend[:, None], axis=1), depth - 1)
    if np.any(ticks[np.arange(n_nodes), k0] != t_pend):  # pragma: no cover
        raise _Inexpressible("tick-off-plan")
    n_win = m_end - k0

    # ---- per-node frame parameters ---------------------------------- #
    bitrate = ch.bitrate_bps
    # HelloPacket.size_bits() with position=None
    bits = np.array([288 + 16 * len(node.groups) for node in nodes], dtype=np.int64)
    durations = bits / bitrate
    sizes = np.unique(bits).tolist()
    e_tx = {b: ch.energy_model.tx_energy(b) for b in sizes}
    e_rx = {b: ch.energy_model.rx_energy(b) for b in sizes}
    # warm the channel's energy cache exactly as the scalar run would
    for b in sizes:
        ch._energy_cache[b] = (e_tx[b], e_rx[b])
    groups_of = [frozenset(node.groups) for node in nodes]

    # ---- global uid order (= global tick-time order) ----------------- #
    in_win = np.arange(depth) >= k0[:, None]
    in_win &= np.arange(depth) < m_end[:, None]
    # every executed tick, node by node
    all_t = ticks[in_win]
    all_node = np.repeat(np.arange(n_nodes), n_win)
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(n_win, out=offsets[1:])
    total_exec = int(offsets[-1])
    order = np.argsort(all_t, kind="stable")
    sorted_t = all_t[order]
    if total_exec > 1 and np.any(sorted_t[1:] == sorted_t[:-1]):
        # two ticks at the bit-identical instant: the scalar execution
        # (and uid) order then depends on push seq — fall back
        raise _Inexpressible("tick-time-tie")
    uids = np.empty(total_exec, dtype=np.int64)
    uids[order] = uid0 + np.arange(total_exec, dtype=np.int64)

    # ---- TX records (fire order = tick order) ------------------------ #
    all_fire = all_t + _ACCESS_DELAY
    fired_mask = all_fire <= until
    n_fired_per_node = np.bincount(all_node[fired_mask], minlength=n_nodes)
    n_tx = int(fired_mask.sum())
    if direct and n_tx:
        # ticks and fires push the entries the epoch leaves pending; a
        # tie between two of them would order those pushes by seq
        pushes = np.sort(np.concatenate((all_t, all_fire[fired_mask])))
        if np.any(pushes[1:] == pushes[:-1]):
            raise _Inexpressible("push-time-tie")
    enabled = recorder._enabled
    store_tx = enabled is None or TraceKind.TX in enabled
    store_rx = enabled is None or TraceKind.RX in enabled
    store_drop = enabled is None or TraceKind.DROP in enabled

    # ---- receptions: one flat, frame-major layout -------------------- #
    # Every reception of a fired frame, frames in fire (= uid) order, each
    # followed by its sender's neighbor list.  That is the order the
    # scalar channel draws i.i.d. loss fates in: deg(sender) uniforms per
    # fired frame at fire time (IidLoss.frame_lost_batch over the whole
    # delivery list), so the epoch's draws are one contiguous block, one
    # per element.  p <= 0 and p >= 1 short-circuit draw-free in the
    # scalar model, so nothing is sampled there either.  It is also
    # nearly finish order, which keeps the rx-energy fold's sort cheap.
    deg_all, nbr_off, nbr_cat, delay_cat, sender_of_pair = cf.rows()
    neighbor_ids = ch._neighbor_ids
    nbr_delays = ch._nbr_delays
    loss = ch.loss
    p_loss = float(loss.p) if loss is not None else 0.0
    has_draws = loss is not None and 0.0 < p_loss < 1.0
    all_lost = loss is not None and p_loss >= 1.0
    snd = all_node[order[:n_tx]]  # fired frames' senders, in fire order
    fire_q = all_fire[order[:n_tx]]
    deg_q = deg_all[snd]
    frame_start = np.cumsum(deg_q) - deg_q
    total = int(deg_q.sum())
    # only the warmup is ever lossy: a refusal there reruns the seed
    # scalar on fresh streams, so these draws need no undoing
    u_all = loss.rng.random(total) if has_draws and n_tx else None

    n_fin = 0
    fin_keep = recv_keep = None
    tf_first = tf_last = tf_recv = tf_send = None
    rx_arr = rx_fire = rx_uid = rx_cidx = rx_lost = None
    n_del = n_drop = 0
    if total:
        pair = np.repeat(nbr_off[snd] - frame_start, deg_q) + np.arange(total)
        recv = nbr_cat[pair]
        frame_e = np.repeat(np.arange(n_tx), deg_q)  # fire rank = uid - uid0
        # finish = (fire + delay) + duration: the scalar two-step add
        fire_e = np.repeat(fire_q, deg_q)
        arr_e = fire_e + delay_cat[pair]
        fin_e = arr_e + np.repeat(durations[snd], deg_q)
        keep = fin_e <= until
        if has_draws:
            lost_e = u_all < p_loss
            del_e = keep & ~lost_e
        elif all_lost:
            lost_e = np.ones(total, dtype=bool)
            del_e = np.zeros(total, dtype=bool)
        else:
            lost_e = None
            del_e = keep
        n_fin = int(keep.sum())
        n_del = int(del_e.sum()) if lost_e is not None else n_fin
        n_drop = n_fin - n_del
        if n_fin:
            e_rx_of = np.empty(n_nodes, dtype=np.float64)
            for b in sizes:
                e_rx_of[bits == b] = e_rx[b]
            erx_frame = e_rx_of[snd]
            # Neighbor tables form from *delivered* receptions only.
            # Scalar semantics: update_hello inserts/refreshes an entry on
            # every delivery, and each receiver's own HELLO tick purges
            # entries with now - last_seen > expiry.  An entry's dict
            # position is therefore its *current epoch* insertion time —
            # the first delivery after the most recent purge-removal —
            # and it survives to the boundary only if the receiver's last
            # executed tick did not purge it.  Lossless runs never purge
            # (the eligibility gate bounds every refresh gap below the
            # expiry; the write phase checks the gaps it cannot see), so
            # the epoch walk is loss-only work — and only the warmup,
            # which starts from empty tables, is ever lossy.
            # A pair's receptions come one per fired frame of its sender,
            # finishing in frame order, so "within the epoch" is a prefix
            # of them.
            if has_draws:
                # the epoch walk runs on a column-major copy: one column
                # per pair, its receptions in frame order
                col_len = np.bincount(pair)
                cols = np.flatnonzero(col_len)
                col_len = col_len[cols]
                col_start = np.cumsum(col_len) - col_len
                pair_col = np.repeat(np.arange(cols.size), col_len)
                col_nbr = nbr_cat[cols]
                by_pair = np.argsort(
                    pair.astype(np.int16 if nbr_cat.size <= 1 << 15 else np.int32),
                    kind="stable",
                )
                fin_flat = fin_e[by_pair]
                del_flat = del_e[by_pair]
                flat_idx = np.arange(total)
                last_i = np.maximum.reduceat(
                    np.where(del_flat, flat_idx, -1), col_start
                )
                del_idx = np.flatnonzero(del_flat)
                # previous delivered element within the same column
                prev_acc = np.maximum.accumulate(
                    np.where(del_flat, flat_idx, -1)
                )
                prev_sh = np.empty_like(prev_acc)
                prev_sh[0] = -1
                prev_sh[1:] = prev_acc[:-1]
                prev_d = prev_sh[del_idx]
                first_of_pair = prev_d < col_start[pair_col[del_idx]]
                restart = first_of_pair.copy()
                chk = np.flatnonzero(~first_of_pair)
                if chk.size:
                    # last receiver tick at or before each delivery (an
                    # equal-time tick pops first: prio 0 beats prio 1)
                    fins_c = fin_flat[del_idx[chk]]
                    recv_c = col_nbr[pair_col[del_idx[chk]]]
                    prev_fin = fin_flat[prev_d[chk]]
                    t_tick = np.full(chk.size, -np.inf)
                    r_ord = np.argsort(recv_c, kind="stable")
                    bnd = np.flatnonzero(
                        recv_c[r_ord][1:] != recv_c[r_ord][:-1]
                    ) + 1
                    for a, b in zip(
                        np.concatenate(([0], bnd)),
                        np.concatenate((bnd, [r_ord.size])),
                    ):
                        jj = int(recv_c[r_ord[a]])
                        tj = ticks[jj, : int(m_end[jj])]
                        ix = np.searchsorted(
                            tj, fins_c[r_ord[a:b]], side="right"
                        ) - 1
                        hit = ix >= 0
                        t_tick[r_ord[a:b][hit]] = tj[ix[hit]]
                    # the scalar purge test, same float expression
                    restart[chk] |= (t_tick - prev_fin) > _HELLO_EXPIRY
                restart_flat = np.zeros(total, dtype=bool)
                restart_flat[del_idx] = restart
                ins_i = np.maximum.reduceat(
                    np.where(restart_flat, flat_idx, -1), col_start
                )
                # survival: the receiver's last executed tick must not
                # have purged the entry after its final refresh
                t_last_of = np.full(n_nodes, -np.inf)
                has_tick = m_end > 0
                t_last_of[has_tick] = ticks[
                    np.flatnonzero(has_tick), m_end[has_tick] - 1
                ]
                f_max = fin_flat[np.maximum(last_i, 0)]
                alive_col = ~((t_last_of[col_nbr] - f_max) > _HELLO_EXPIRY)
                sel = (last_i >= 0) & alive_col
                tf_first = fin_flat[ins_i[sel]]
                tf_last = fin_flat[last_i[sel]]
                tf_recv = col_nbr[sel]
                tf_send = sender_of_pair[cols[sel]]
            else:
                # every frame inside the epoch delivers (or, at p >= 1,
                # none does): a pair's entry spans its sender's first
                # delivered frame to its last
                n_got = np.bincount(pair[del_e])
                cols = np.flatnonzero(n_got)
                tf_send = sender_of_pair[cols]
                slot = cols - nbr_off[tf_send]
                first = frame_start[uids[offsets[tf_send]] - uid0] + slot
                last = frame_start[uids[offsets[tf_send] + n_got[cols] - 1] - uid0] + slot
                tf_first = fin_e[first]
                tf_last = fin_e[last]
                tf_recv = nbr_cat[cols]
            if store_rx or (store_drop and lost_e is not None):
                fin_keep = fin_e[keep]
                recv_keep = recv[keep]
                rx_arr = arr_e[keep]
                rx_fire = fire_e[keep]
                rx_uid = uid0 + frame_e[keep]
                # delivery index: the neighbor's slot in the sender's list
                rx_cidx = (pair - np.repeat(nbr_off[snd], deg_q))[keep]
                if lost_e is not None:
                    rx_lost = lost_e[keep]

    # ---- stored records (emission = heap pop order) ------------------- #
    # TX records are emitted during the prio-0 _fire events at fire time;
    # RX and DROP records during the prio-1 finish events at finish time.
    # Equal-(time, prio) finishes pop in push order: on the arrive lane
    # that is _arrive execution order = (arrival, fire, delivery index),
    # and uid ties across *different* frames at one instant cannot be
    # disambiguated; on the direct lane finishes are pushed at fire time,
    # so (fire, delivery index) — fires are tie-free there.
    tx_recs: List[TraceRecord] = []
    rx_recs: List[TraceRecord] = []
    if store_tx and n_tx:
        tx_recs = list(map(tuple.__new__, _repeat(TraceRecord), zip(
            fire_q.tolist(),
            _repeat(TraceKind.TX),
            snd.tolist(),
            _repeat("HelloPacket"),
            range(uid0, uid0 + n_tx),
        )))
    if rx_arr is not None:
        if direct:
            rx_ord = np.lexsort((rx_cidx, rx_fire, fin_keep))
        else:
            rx_ord = np.lexsort((rx_cidx, rx_fire, rx_arr, fin_keep))
            rfin = fin_keep[rx_ord]
            rarr = rx_arr[rx_ord]
            rfire = rx_fire[rx_ord]
            ruid = rx_uid[rx_ord]
            tie = (
                (rfin[1:] == rfin[:-1]) & (rarr[1:] == rarr[:-1])
                & (rfire[1:] == rfire[:-1]) & (ruid[1:] != ruid[:-1])
            )
            if np.any(tie):
                raise _Inexpressible("rx-order-tie")
        rfin = fin_keep[rx_ord]
        ruid = rx_uid[rx_ord]
        rrecv = recv_keep[rx_ord]
        if rx_lost is None:
            rx_recs = list(map(tuple.__new__, _repeat(TraceRecord), zip(
                rfin.tolist(),
                _repeat(TraceKind.RX),
                rrecv.tolist(),
                _repeat("HelloPacket"),
                ruid.tolist(),
            )))
        else:
            # mixed finish stream: a lost frame emits DROP (detail
            # "loss"), a delivered one RX — same pop order either way
            ap = rx_recs.append
            for t, j, u, lo in zip(
                rfin.tolist(), rrecv.tolist(), ruid.tolist(),
                rx_lost[rx_ord].tolist(),
            ):
                if lo:
                    if store_drop:
                        ap(TraceRecord(t, TraceKind.DROP, j, "HelloPacket", "loss"))
                elif store_rx:
                    ap(TraceRecord(t, TraceKind.RX, j, "HelloPacket", u))

    # ---- neighbor tables: first-reception order, refreshed to the last #
    # reception (update_hello semantics: the sender's groups)
    tables = [node.neighbor_table._entries for node in nodes]
    ents = None
    if tf_first is not None:
        tbl_ord = np.lexsort((tf_send, tf_first, tf_recv))
        f_first = tf_first[tbl_ord]
        f_recv = tf_recv[tbl_ord]
        f_send = tf_send[tbl_ord]
        recv_l = f_recv.tolist()
        send_l = f_send.tolist()
        new = None
        if any(tables):
            ents = list(map(dict.get, map(tables.__getitem__, recv_l), send_l))
            new = [k for k, e in enumerate(ents) if e is None]
        if new is None or new:
            nr = f_recv if new is None else f_recv[new]
            nf = f_first if new is None else f_first[new]
            if np.any((nr[1:] == nr[:-1]) & (nf[1:] == nf[:-1])):
                # two senders first heard at the bit-identical instant: the
                # scalar entry (dict insertion) order depends on push seq
                raise _Inexpressible("first-reception-tie")
        f_last = tf_last[tbl_ord].tolist()
    if not (has_draws or all_lost):
        # lossless: every refresh gap inside the epoch is below the expiry
        # (the eligibility gate), so a purge can only hit an entry that
        # was already stale when the epoch began
        stale = attrgetter("last_seen")
        ticking = np.flatnonzero(n_win)
        for j, t_last in zip(ticking.tolist(), ticks[ticking, m_end[ticking] - 1].tolist()):
            tbl = tables[j]
            if tbl and t_last - min(map(stale, tbl.values())) > _HELLO_EXPIRY:
                raise _Inexpressible("purge-in-epoch")

    # ---- energy: per node, the exact sequential folds ----------------- #
    accounts = [node.energy for node in nodes]
    tx_new, rx_new, initial = np.array(
        [(en.tx_joules, en.rx_joules, en.initial_joules) for en in accounts]
    ).T
    rx_new = rx_new.copy()  # np.add.at folds into it in place
    rx_hit = None
    if n_fin:
        # the receptions inside the epoch, in finish order (stable: ties
        # keep frame-major order)
        by_fin = np.argsort(fin_e, kind="stable")[:n_fin]
        fin_s = fin_e[by_fin]
        frame_s = frame_e[by_fin]
        recv_s = recv[by_fin]
        erx_s = erx_frame[frame_s]
        same_fin = fin_s[1:] == fin_s[:-1]
        mixed = same_fin & (frame_s[1:] != frame_s[:-1])
        if np.any(mixed):
            # frames finishing at one bit-identical instant: if two of
            # them of different sizes reach one radio, the fold order
            # there is seq-dependent
            run = np.concatenate(([0], np.cumsum(~same_fin)))
            mk = np.isin(run, run[1:][mixed])
            o = np.lexsort((recv_s[mk], run[mk]))
            ru, rr, ee = run[mk][o], recv_s[mk][o], erx_s[mk][o]
            if np.any((ru[1:] == ru[:-1]) & (rr[1:] == rr[:-1]) & (ee[1:] != ee[:-1])):
                raise _Inexpressible("rx-energy-fold-tie")
        # np.add.at is unbuffered: it adds one element at a time, in
        # order, so each receiver's accumulator performs the scalar fold
        np.add.at(rx_new, recv_s, erx_s)
        rx_hit = np.flatnonzero(np.bincount(recv_s, minlength=n_nodes)).tolist()
    # tx: nf identical adds of the node's tx cost onto what it had
    max_fired = int(n_fired_per_node.max()) if n_nodes else 0
    if max_fired:
        e_tx_of = np.array([e_tx[b] for b in bits.tolist()])
        fold = np.zeros((n_nodes, max_fired + 1))
        fold[:, 0] = tx_new
        fold[:, 1:] = np.where(
            np.arange(max_fired) < n_fired_per_node[:, None], e_tx_of[:, None], 0.0
        )
        tx_new = np.cumsum(fold, axis=1)[:, -1]
    if np.any(tx_new + rx_new >= initial):
        # depletion would trip inside the epoch, in seq order the closed
        # form does not reproduce — scalar handles it
        raise _Inexpressible("energy-depleted-in-epoch")

    # ================= write phase: nothing below refuses ============= #
    if n_tx:
        recorder.counts[(TraceKind.TX, "HelloPacket")] += n_tx
    if n_del:
        recorder.counts[(TraceKind.RX, "HelloPacket")] += n_del
    if n_drop:
        recorder.counts[(TraceKind.DROP, "HelloPacket")] += n_drop
    ch.frames_sent += n_tx
    ch.frames_delivered += n_del
    ch.frames_lost += n_drop
    if not rx_recs:
        recorder.extend_indexed(TraceKind.TX, "HelloPacket", tx_recs)
    elif not tx_recs:
        recorder.records.extend(rx_recs)
    else:
        # two-pointer merge on (time, prio): TX (prio 0) wins ties
        out = recorder.records
        ti = ri = 0
        nt, nr = len(tx_recs), len(rx_recs)
        while ti < nt and ri < nr:
            if tx_recs[ti].time <= rx_recs[ri].time:
                out.append(tx_recs[ti])
                ti += 1
            else:
                out.append(rx_recs[ri])
                ri += 1
        out.extend(tx_recs[ti:])
        out.extend(rx_recs[ri:])

    if tf_first is not None:
        # refreshed in place: a protocol's session marks live on entries
        for e, j, i, last in zip(ents or _repeat(None), recv_l, send_l, f_last):
            if e is None:
                tables[j][i] = NeighborEntry(i, last, groups_of[i])
            else:
                e.last_seen = last
                e.groups = groups_of[i]
        # written past NeighborTable: its next purge rescans for the bound
        for j in set(recv_l):
            nodes[j].neighbor_table._oldest = -np.inf

    if rx_hit is not None:
        for j, v in zip(rx_hit, rx_new[rx_hit].tolist()):
            accounts[j].rx_joules = v
    fired = np.flatnonzero(n_fired_per_node)
    for i, v in zip(fired.tolist(), tx_new[fired].tolist()):
        accounts[i].tx_joules = v

    # MAC / agent bookkeeping, per node that ticked
    ticking = np.flatnonzero(n_win)
    ticked = list(zip(
        ticking.tolist(),
        n_win[ticking].tolist(),
        n_fired_per_node[ticking].tolist(),
        ticks[ticking, m_end[ticking] - 1].tolist(),  # its last tick
        ticks[ticking, m_end[ticking]].tolist(),  # its next one
    ))
    for i, nw, nf, _, _ in ticked:
        fns[i].__self__.hellos_sent += nw
        nodes[i].mac.sent += nf

    # ---- entries left pending (in scalar push order at equal (t, prio)) #
    # entry: (time, priority, push_time, push_sub, push_node, fn, args)
    events: list = []
    radios = ch.radios
    nbr_powers = ch._nbr_powers
    if not direct:
        # senders mid-transmission at the boundary had begin_tx applied
        # at fire time in the scalar run; apply it before any reception
        # bookkeeping so TX-doom checks see the same radio state
        for i in np.flatnonzero(n_fired_per_node).tolist():
            f = float(all_fire[offsets[i] + n_fired_per_node[i] - 1])
            if f + float(durations[i]) > until:
                radios[i].begin_tx(f, float(durations[i]))
    dur_of = durations.tolist()
    for i, nw, nf, t_last, t_next in ticked:
        # the tick pushes its successor after its frame's _fire
        events.append((t_next, 0, t_last, 1, i, fns[i], None))
        mac = nodes[i].mac
        dur = dur_of[i]
        if nf < nw:
            # last tick executed but its frame has not fired yet
            pkt = HelloPacket(src=i, uid=int(uids[offsets[i] + nw - 1]), groups=groups_of[i])
            mac.queue.append(pkt)
            mac._busy = True
            f = float(all_fire[offsets[i] + nw - 1])
            events.append((f, 0, t_last, 0, i, mac._fire, None))
        if nf > 0:
            f = float(all_fire[offsets[i] + nf - 1])
            head_done = f + dur
            pkt = None
            if head_done > until:
                pkt = HelloPacket(src=i, uid=int(uids[offsets[i] + nf - 1]), groups=groups_of[i])
                mac.queue.append(pkt)
                mac._busy = True
                if not direct:
                    # transmit pushed end_tx (prio -1) before the arrivals
                    events.append((head_done, -1, f, -1, i, radios[i].end_tx, (head_done,)))
                events.append(
                    (head_done, 0, f, _SUB_AFTER_ARRIVALS, i, mac._finish_head, None)
                )
            # in-flight receptions of the last fired frame (frames before
            # it are fully settled: inter-tick gap >> chain span)
            nbr = neighbor_ids[i]
            if nbr.size and until - f < 0.005:
                if pkt is None:
                    pkt = HelloPacket(src=i, uid=int(uids[offsets[i] + nf - 1]), groups=groups_of[i])
                delays_i = nbr_delays[i]
                powers_i = nbr_powers[i]
                # the frame's RX energy, as transmit computes it once
                e_rx_i = e_rx[bits[i]]
                if has_draws:
                    # the frame fired inside the epoch, so its fates are in
                    # the pre-sampled block at its fire rank's offset
                    base = int(frame_start[int(uids[offsets[i] + nf - 1]) - uid0])
                for c in range(nbr.size):
                    arr = f + float(delays_i[c])
                    fin = arr + dur
                    if fin <= until:
                        continue
                    j = int(nbr[c])
                    node_j = nodes[j]
                    if direct:
                        # transmit pushed one finish per delivery
                        events.append(
                            (fin, 1, f, c, i, ch._finish_direct, (node_j, j, pkt, e_rx_i))
                        )
                        continue
                    if has_draws:
                        lost_c = bool(u_all[base + c] < p_loss)
                    else:
                        lost_c = all_lost
                    radio_j = radios[j]
                    if arr > until:
                        events.append(
                            (arr, 0, f, c, i, ch._arrive,
                             (radio_j, node_j, j, pkt, float(powers_i[c]), dur, lost_c,
                              e_rx_i))
                        )
                    else:
                        rec = radio_j.begin_reception(pkt, arr, dur, float(powers_i[c]))
                        if lost_c:
                            # a garbled in-flight signal still occupies
                            # the radio but can never decode (_arrive)
                            rec.intact = False
                        events.append(
                            (fin, 1, arr, c, i, ch._finish,
                             (radio_j, node_j, j, rec, lost_c, e_rx_i))
                        )

    # ticks past until keep their entries (and older seqs); the epoch's
    # pushes follow in push order
    events.sort(key=_push_key)
    seq = queue._seq
    before = len(heap)
    heap[:] = [e for e in heap if e[0] > until] + [
        (t, prio, seq + k, fn, () if args is None else args)
        for k, (t, prio, _pt, _ps, _pn, fn, args) in enumerate(events)
    ]
    heapify(heap)
    queue._seq = seq + len(events)
    queue._live += len(heap) - before
    reset_uids(uid0 + total_exec)
    return n_win


# --------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------- #
def run_batch(
    cfgs: Sequence["SimulationConfig"],
    trace: Optional[TraceRecorder] = None,
    keep_positions: bool = False,
) -> List["RunResult"]:
    """Run a homogeneous seed batch through the analytic kernel.

    All configs must be :func:`batch_eligible` and share
    :func:`batch_group_key`; seeds may repeat or vary freely.  Per-seed
    results are returned in input order and are bit-identical (traces,
    metrics, uid consumption) to running each config through
    ``run_single`` sequentially.  Seeds the reconstruction cannot express
    exactly fall back to the scalar path individually.
    """
    from repro.experiments.runner import _run_suffix, run_single
    from repro.sim.snapshot import _trace_signature, absorb_trace
    from repro.traffic.spec import active_sessions

    if not cfgs:
        return []
    key0 = batch_group_key(cfgs[0], trace)
    for cfg in cfgs[1:]:
        if batch_group_key(cfg, trace) != key0:
            raise ValueError("run_batch requires configs differing only by seed")
    reason = batch_eligible(cfgs[0])
    if reason is not None:
        raise ValueError(f"configs are not batch-eligible: {reason}")

    # Pause cyclic GC for the whole call, as run_single does for one run:
    # the plan builds thousands of generators and each seed a deployment
    # of thousands of containers, whose churn would trigger pointless
    # young-generation scans.  No garbage piles up meanwhile:
    # _run_suffix closes every seed's deployment, so reference counting
    # frees it.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        try:
            streams = BatchedStreams([cfg.seed for cfg in cfgs])
            plan = _HelloPlan(cfgs[0], streams)
        except _Inexpressible as exc:
            # plan-level failure (e.g. tick-depth margin): scalar for everyone
            STATS.record_fallback(exc.reason, n=len(cfgs))
            return [
                run_single(
                    cfg, keep_positions=keep_positions, trace=trace,
                    cache=False, warm_start=False,
                )
                for cfg in cfgs
            ]
        enabled = _trace_signature(trace, cfgs[0])
        session_plan = active_sessions(cfgs[0])
        n_flows = len(session_plan) if session_plan is not None else 1

        results: List["RunResult"] = []
        for s, cfg in enumerate(cfgs):
            uid_start = current_uid()
            recorder = TraceRecorder(enabled_kinds=enabled)
            try:
                prefix = _reconstruct_prefix(cfg, streams.registry(s), recorder, plan, s)
                prefix.net.channel.direct_finish = True
                res = _run_suffix(cfg, prefix, keep_positions)
                STATS.record_batched(n_flows)
            except _Inexpressible as exc:
                reset_uids(uid_start)
                STATS.record_fallback(exc.reason)
                res = run_single(
                    cfg, keep_positions=keep_positions, trace=trace,
                    cache=False, warm_start=False,
                )
                results.append(res)
                continue
            if trace is not None:
                absorb_trace(trace, recorder)
            results.append(res)
    finally:
        if gc_was_enabled:
            gc.enable()
    return results
