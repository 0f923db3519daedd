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
from itertools import repeat as _repeat
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.net.neighbor import NeighborEntry
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

    def record_batched(self, n_flows: int) -> None:
        with _STATS_LOCK:
            self.batched_runs += 1
            self.batched_sessions += n_flows

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

    def reset(self) -> None:
        self.batched_runs = 0
        self.batched_sessions = 0
        self.fallback_runs = 0
        self.fallback_reasons.clear()


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
class _HelloPlan:
    """Tick times for every (seed, node), computed as one numpy fold.

    ``ticks[s, i, k]`` is node ``i``'s ``k``-th HELLO tick under seed
    ``s``; ``n_exec[s, i]`` is how many of them execute within the
    warmup.  Draws are committed back to the per-seed streams so each
    registry ends draw-for-draw identical to a scalar warmup.
    """

    __slots__ = ("ticks", "n_exec", "warmup")

    def __init__(self, cfg: "SimulationConfig", streams: BatchedStreams) -> None:
        n_nodes = cfg.n_nodes
        period = cfg.hello_period
        warmup = cfg.hello_warmup
        n_seeds = len(streams)
        # enough speculative draws to cover the fastest possible tick
        # chain (every inter-tick gap at its period - jitter minimum)
        depth = int(warmup / (period - _HELLO_JITTER)) + 2

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
# per-seed reconstruction
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


def _reconstruct_prefix(cfg, registry, recorder, plan: _HelloPlan, s: int):
    """Build one seed's deployment and its analytic warmup boundary.

    Returns the :class:`~repro.sim.snapshot.ForkedPrefix` in exactly the
    state ``snapshot.build_prefix`` leaves after simulating the HELLO
    warmup: the same :func:`~repro.sim.snapshot.deploy` step, then the HELLO
    agents installed (not started: their start/tick draws were consumed
    by the plan) and their warmup written in place.
    """
    from repro.sim.snapshot import deploy

    prefix = deploy(cfg, recorder, hooks=(_AdoptStreams(registry),))
    agents = prefix.net.install_hello(period=cfg.hello_period)
    try:
        _apply_warmup(cfg, prefix.sim, prefix.net, agents, plan, s)
    except _Inexpressible:
        prefix.net.close()  # the seed reruns scalar; free this one now
        raise
    return prefix


def _apply_warmup(cfg, sim, net, agents, plan: _HelloPlan, s: int) -> None:
    """Write the warmup boundary state into a freshly built deployment."""
    warmup = plan.warmup
    n_nodes = cfg.n_nodes
    ch = net.channel
    ch._ensure_rows()
    recorder = sim.trace

    ticks = plan.ticks[s]
    n_exec = plan.n_exec[s]
    uid0 = current_uid()

    # ---- per-node frame parameters ---------------------------------- #
    bitrate = ch.bitrate_bps
    bits = np.empty(n_nodes, dtype=np.int64)
    for i, node in enumerate(net.nodes):
        # HelloPacket.size_bits() with position=None
        bits[i] = 288 + 16 * len(node.groups)
    durations = bits / bitrate
    e_tx = {b: ch.energy_model.tx_energy(int(b)) for b in np.unique(bits)}
    e_rx = {b: ch.energy_model.rx_energy(int(b)) for b in np.unique(bits)}
    # warm the channel's energy caches exactly as the scalar run would
    for b in np.unique(bits):
        ch._tx_energy_cache[int(b)] = e_tx[b]
        ch._rx_energy_cache[int(b)] = e_rx[b]

    # ---- global uid order (= global tick-time order) ----------------- #
    total_exec = int(n_exec.sum())
    # every executed tick, node by node
    all_t = ticks[np.arange(ticks.shape[1]) < n_exec[:, None]]
    all_node = np.repeat(np.arange(n_nodes), n_exec)
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(n_exec, out=offsets[1:])
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
    fired_mask = all_fire <= warmup
    n_fired_per_node = np.bincount(all_node[fired_mask], minlength=n_nodes)
    n_tx = int(fired_mask.sum())
    enabled = recorder._enabled
    store_tx = not recorder.counters_only and (
        enabled is None or TraceKind.TX in enabled
    )
    store_rx = not recorder.counters_only and (
        enabled is None or TraceKind.RX in enabled
    )
    store_drop = not recorder.counters_only and (
        enabled is None or TraceKind.DROP in enabled
    )
    if n_tx:
        recorder.counts[(TraceKind.TX, "HelloPacket")] += n_tx

    # ---- receptions: one flat, frame-major layout -------------------- #
    # Every reception of a fired frame, frames in fire (= uid) order, each
    # followed by its sender's neighbor list.  That is the order the
    # scalar channel draws i.i.d. loss fates in: deg(sender) uniforms per
    # fired frame at fire time (IidLoss.frame_lost_batch over the whole
    # delivery list), so the warmup's draws are one contiguous block, one
    # per element.  p <= 0 and p >= 1 short-circuit draw-free in the
    # scalar model, so nothing is sampled there either.  It is also
    # nearly finish order, which keeps the rx-energy fold's sort cheap.
    neighbor_ids = ch._neighbor_ids
    nbr_delays = ch._nbr_delays
    deg_all = np.array([ids.size for ids in neighbor_ids], dtype=np.int64)
    # each node's slice of the concatenated neighbor lists: a reception's
    # slot there names its (sender, neighbor) pair
    nbr_off = np.cumsum(deg_all) - deg_all
    loss = ch.loss
    p_loss = float(loss.p) if loss is not None else 0.0
    has_draws = loss is not None and 0.0 < p_loss < 1.0
    all_lost = loss is not None and p_loss >= 1.0
    snd = all_node[order[:n_tx]]  # fired frames' senders, in fire order
    fire_q = all_fire[order[:n_tx]]
    deg_q = deg_all[snd]
    frame_start = np.cumsum(deg_q) - deg_q
    total = int(deg_q.sum())
    u_all = loss.rng.random(total) if has_draws and n_tx else None

    n_fin = 0
    fin_keep = recv_keep = None
    tf_first = tf_last = tf_recv = tf_send = None
    rx_arr = rx_fire = rx_uid = rx_cidx = rx_lost = None
    n_del = n_drop = 0
    if total:
        pair = np.repeat(nbr_off[snd] - frame_start, deg_q) + np.arange(total)
        nbr_cat = np.concatenate(neighbor_ids)
        recv = nbr_cat[pair]
        frame_e = np.repeat(np.arange(n_tx), deg_q)  # fire rank = uid - uid0
        # finish = (fire + delay) + duration: the scalar two-step add
        fire_e = np.repeat(fire_q, deg_q)
        arr_e = fire_e + np.concatenate(nbr_delays)[pair]
        fin_e = arr_e + np.repeat(durations[snd], deg_q)
        keep = fin_e <= warmup
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
            for b in np.unique(bits):
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
            # expiry), so the epoch walk is loss-only work.
            # A pair's receptions come one per fired frame of its sender,
            # finishing in frame order, so "within the warmup" is a prefix
            # of them.
            sender_of_pair = np.repeat(np.arange(n_nodes), deg_all)
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
                        tj = ticks[jj, : int(n_exec[jj])]
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
                has_tick = n_exec > 0
                t_last_of[has_tick] = ticks[
                    np.flatnonzero(has_tick), n_exec[has_tick] - 1
                ]
                f_max = fin_flat[np.maximum(last_i, 0)]
                alive_col = ~((t_last_of[col_nbr] - f_max) > _HELLO_EXPIRY)
                sel = (last_i >= 0) & alive_col
                tf_first = fin_flat[ins_i[sel]]
                tf_last = fin_flat[last_i[sel]]
                tf_recv = col_nbr[sel]
                tf_send = sender_of_pair[cols[sel]]
            else:
                # every frame inside the warmup delivers (or, at p >= 1,
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
    if n_del:
        recorder.counts[(TraceKind.RX, "HelloPacket")] += n_del
    if n_drop:
        recorder.counts[(TraceKind.DROP, "HelloPacket")] += n_drop
    ch.frames_sent += n_tx
    ch.frames_delivered += n_del
    ch.frames_lost += n_drop

    # ---- stored records (emission = heap pop order) ------------------- #
    # TX records are emitted during the prio-0 _fire events at fire time;
    # RX and DROP records during the prio-1 _finish events at finish
    # time.  The scalar pop order of equal-(time, prio) finishes follows
    # _arrive execution order = (arrival, fire, delivery index); uid ties
    # across *different* frames at one instant cannot be disambiguated.
    if store_tx or rx_arr is not None:
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
            rx_ord = np.lexsort((rx_cidx, rx_fire, rx_arr, fin_keep))
            rfin = fin_keep[rx_ord]
            rarr = rx_arr[rx_ord]
            rfire = rx_fire[rx_ord]
            ruid = rx_uid[rx_ord]
            rrecv = recv_keep[rx_ord]
            tie = (
                (rfin[1:] == rfin[:-1]) & (rarr[1:] == rarr[:-1])
                & (rfire[1:] == rfire[:-1]) & (ruid[1:] != ruid[:-1])
            )
            if np.any(tie):
                raise _Inexpressible("rx-order-tie")
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

    # neighbor tables: entries in first-reception order, refreshed to the
    # last reception (update_hello semantics: the sender's groups)
    nodes = net.nodes
    if tf_first is not None:
        tbl_ord = np.lexsort((tf_send, tf_first, tf_recv))
        f_first = tf_first[tbl_ord]
        f_recv = tf_recv[tbl_ord]
        if np.any((f_recv[1:] == f_recv[:-1]) & (f_first[1:] == f_first[:-1])):
            # two senders first heard at the bit-identical instant: the
            # scalar entry (dict insertion) order depends on push seq
            raise _Inexpressible("first-reception-tie")
        f_last = tf_last[tbl_ord].tolist()
        f_send = tf_send[tbl_ord].tolist()
        groups_of = [frozenset(node.groups) for node in nodes]
        tables = [node.neighbor_table._entries for node in nodes]
        for j, i, last in zip(f_recv.tolist(), f_send, f_last):
            tables[j][i] = NeighborEntry(i, last, groups_of[i])

    # rx energy: per receiver, the exact sequential fold in finish order
    if n_fin:
        # the receptions inside the warmup, in finish order (stable: ties
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
            m = np.isin(run, run[1:][mixed])
            o = np.lexsort((recv_s[m], run[m]))
            ru, rr, ee = run[m][o], recv_s[m][o], erx_s[m][o]
            if np.any((ru[1:] == ru[:-1]) & (rr[1:] == rr[:-1]) & (ee[1:] != ee[:-1])):
                raise _Inexpressible("rx-energy-fold-tie")
        # np.add.at is unbuffered: it adds one element at a time, in
        # order, so each receiver's accumulator performs the scalar fold
        rx_joules = np.zeros(n_nodes)
        np.add.at(rx_joules, recv_s, erx_s)
        for j in np.flatnonzero(np.bincount(recv_s, minlength=n_nodes)).tolist():
            nodes[j].energy.rx_joules = float(rx_joules[j])

    # tx energy: n identical adds of the per-node tx cost
    max_fired = int(n_fired_per_node.max()) if n_nodes else 0
    fold_table = {b: np.cumsum(np.full(max_fired, e_tx[b])) for b in np.unique(bits)} if max_fired else {}
    for i in range(n_nodes):
        nf = int(n_fired_per_node[i])
        if nf:
            nodes[i].energy.tx_joules = float(fold_table[bits[i]][nf - 1])
    for node in nodes:
        en = node.energy
        if en.tx_joules + en.rx_joules >= en.initial_joules:
            # depletion would have tripped mid-warmup in seq order we
            # did not reproduce — scalar handles it
            raise _Inexpressible("energy-depleted-in-warmup")

    # MAC / agent bookkeeping
    for i, agent in enumerate(agents):
        agent.hellos_sent = int(n_exec[i])
        nodes[i].mac.sent = int(n_fired_per_node[i])

    # ---- boundary events (in scalar push order at equal (t, prio)) --- #
    # entry: (time, priority, push_time, push_sub, push_node, fn, args)
    events: list = []
    in_flight: Dict[int, HelloPacket] = {}
    radios = ch.radios
    nbr_powers = ch._nbr_powers
    # senders mid-transmission at the boundary had begin_tx applied at
    # fire time in the scalar run; apply it before any reception
    # bookkeeping so TX-doom checks see the same radio state
    for i in range(n_nodes):
        nf = int(n_fired_per_node[i])
        if nf and float(all_fire[offsets[i] + nf - 1]) + float(durations[i]) > warmup:
            radios[i].begin_tx(float(all_fire[offsets[i] + nf - 1]), float(durations[i]))
    for i in range(n_nodes):
        m = int(n_exec[i])
        agent = agents[i]
        t_pend = float(ticks[i, m])
        if m == 0:
            # still waiting for the start() tick, pushed at build time in
            # node order — before every other event in the run
            events.append((t_pend, 0, -1.0, 0, i, agent._tick, None))
            continue
        t_last = float(ticks[i, m - 1])
        events.append((t_pend, 0, t_last, 1, i, agent._tick, None))

        mac = net.nodes[i].mac
        nf = int(n_fired_per_node[i])
        dur = float(durations[i])
        node_obj = net.nodes[i]

        if nf < m:
            # last tick executed but its frame has not fired yet
            uid = int(uids[offsets[i] + m - 1])
            pkt = HelloPacket(src=i, uid=uid, groups=frozenset(node_obj.groups))
            in_flight[i] = pkt
            mac.queue.append(pkt)
            mac._busy = True
            f = float(all_fire[offsets[i] + m - 1])
            events.append((f, 0, t_last, 0, i, mac._fire, None))
        if nf > 0:
            f = float(all_fire[offsets[i] + nf - 1])
            head_done = f + dur
            chain_open = head_done > warmup
            if chain_open:
                uid = int(uids[offsets[i] + nf - 1])
                pkt = HelloPacket(src=i, uid=uid, groups=frozenset(node_obj.groups))
                in_flight[i] = pkt
                mac.queue.append(pkt)
                mac._busy = True
                # transmit pushed end_tx (prio -1) before the arrivals
                events.append((head_done, -1, f, -1, i, radios[i].end_tx, (head_done,)))
                events.append(
                    (head_done, 0, f, _SUB_AFTER_ARRIVALS, i, mac._finish_head, None)
                )
            # in-flight arrivals/finishes of the last fired frame (frames
            # before it are fully settled: inter-tick gap >> chain span)
            nbr = neighbor_ids[i]
            if nbr.size and warmup - f < 0.005:
                pkt = in_flight.get(i)
                if pkt is None:
                    uid = int(uids[offsets[i] + nf - 1])
                    pkt = HelloPacket(src=i, uid=uid, groups=frozenset(node_obj.groups))
                delays_i = nbr_delays[i]
                powers_i = nbr_powers[i]
                # the frame's RX energy, as transmit computes it once
                e_rx_i = e_rx[bits[i]]
                if has_draws:
                    # the frame fired pre-boundary, so its fates are in
                    # the pre-sampled block at its fire rank's offset
                    base = int(frame_start[int(uids[offsets[i] + nf - 1]) - uid0])
                for c in range(nbr.size):
                    arr = f + float(delays_i[c])
                    fin = arr + dur
                    if fin <= warmup:
                        continue
                    if has_draws:
                        lost_c = bool(u_all[base + c] < p_loss)
                    else:
                        lost_c = all_lost
                    j = int(nbr[c])
                    radio_j = radios[j]
                    node_j = net.nodes[j]
                    if arr > warmup:
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

    events.sort(key=lambda e: e[:5])
    push_fire = sim._queue.push_fire
    for time, prio, _pt, _ps, _pn, fn, args in events:
        if args is None:
            push_fire(time, fn, (), prio)
        else:
            push_fire(time, fn, args, prio)

    reset_uids(uid0 + total_exec)
    sim.now = cfg.hello_warmup


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
        enabled, counters_only = _trace_signature(trace, cfgs[0])
        session_plan = active_sessions(cfgs[0])
        n_flows = len(session_plan) if session_plan is not None else 1

        results: List["RunResult"] = []
        for s, cfg in enumerate(cfgs):
            uid_start = current_uid()
            recorder = TraceRecorder(enabled_kinds=enabled, counters_only=counters_only)
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
