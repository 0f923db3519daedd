"""The shared wireless medium.

The channel keeps one geometry: per node, the ids of the neighbors it
reaches (ascending), their propagation delays and their received powers
(``_neighbor_ids``, ``_nbr_delays``, ``_nbr_powers``).  The propagation
model picks how the rows are filled:

* a deterministic model (the paper's TwoRayGround) evaluates only the
  candidate pairs of a spatial-hash cell list, O(n·k) time and memory, so
  1000–5000-node deployments are a supported workload.  Rows materialise
  lazily, patch incrementally when a few nodes move, and are shared by
  every channel of the process on equal geometry;
* a fading model (the shadowing ablation) draws once per geometry over
  the whole ``(n, n)`` distance matrix and mirrors the draw, so every
  link is two-way and a seed's draws stay bit-reproducible.

At runtime the channel:

* delivers every transmission to every node within range after the
  line-of-sight propagation delay (broadcast nature of Sec. I);
* maintains per-node concurrent-reception state via
  :class:`repro.phy.radio.Radio` so overlapping arrivals collide (unless
  the capture condition holds) — matching ns-2's 802.11 PHY behaviour
  (substitution S3);
* charges TX energy to the sender and RX energy to every node in range —
  the cost model of Sec. III ("the cost of a transmission consists of the
  sending cost of the sender, and the receiving cost of its one hop
  neighbors");
* emits TX / RX / COLLISION trace records for the metrics layer.

``perfect=True`` disables collision bookkeeping (every in-range arrival
succeeds); combined with :class:`repro.mac.ideal.IdealMac` this gives the
deterministic medium used by unit tests and fast sweeps.

Determinism: both builders compute distances as ``sqrt(dx² + dy²)`` and
list neighbors in ascending id order, so a row is bit-equal to the same
row of a brute-force all-pairs computation (asserted by
``tests/net/test_channel_sparse.py``; the golden digests pin whole runs).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import is_dataclass
from heapq import heappush
from operator import itemgetter
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.net.geometry import SpatialHash, pair_distances
from repro.net.loss import LossModel
from repro.net.neighbor import HelloAgent
from repro.net.packet import HelloPacket
from repro.net.topology import pairwise_distances
from repro.phy.energy import EnergyModel
from repro.phy.propagation import (
    SPEED_OF_LIGHT,
    PropagationModel,
    TwoRayGround,
    range_to_threshold,
)
from repro.phy.radio import Radio, RadioState, Reception
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node
    from repro.net.packet import Packet

__all__ = ["Channel", "TX_POWER", "BITRATE_BPS"]

# Trace kinds as module globals: an enum member lookup costs ~5x a global
# read on Python 3.11, and the path emits once per frame and per reception.
_TX = TraceKind.TX
_RX = TraceKind.RX
_COLLISION = TraceKind.COLLISION
_DROP = TraceKind.DROP
_IDLE = RadioState.IDLE

#: the one packet handler an isolated frame may reach at a receiver
_HELLO_ON_PACKET = HelloAgent.on_packet

#: Transmit power in watts (ns-2's default).  Every received power and
#: the receive threshold scale with it alike, so it decides no link.
TX_POWER = 0.281838

#: Link bitrate for frame airtime (2 Mb/s, the ns-2 802.11 default).
BITRATE_BPS = 2_000_000.0

#: Above this fraction of moved nodes, ``update_positions`` rebuilds the
#: whole cell-list index instead of patching affected rows (waypoint
#: mobility moves nearly everyone per tick, where incremental would only
#: add cost).
_FULL_REBUILD_FRACTION = 0.4

#: Row arrays of the last deterministic geometries this process
#: materialised, by :meth:`Channel._rows_key` (every grid run of a
#: campaign has the same positions).  Rows are replace-only, the rule
#: warm-snapshot forks share them under, so channels on equal geometry
#: share the read-only arrays and each keeps its own row lists.
_SHARED_ROWS: "OrderedDict[tuple, tuple]" = OrderedDict()
_SHARED_ROWS_MAX = 8

_arrival = itemgetter(0)


class Channel:
    """Wireless broadcast medium for one deployment.

    Parameters
    ----------
    sim:
        The simulation kernel (clock, scheduling, trace).
    positions:
        ``(n, 2)`` node coordinates in meters.
    comm_range:
        Nominal transmission range in meters (40 m in the paper).  The
        receive threshold is derived from it through the propagation
        model, so ``receive iff distance <= comm_range`` exactly.
    propagation:
        Propagation model; defaults to the paper's TwoRayGround (Eq. 5).
    perfect:
        Disable collisions (see module docstring).  Frame-loss models
        still apply: ``perfect`` refers to contention, not link quality.
    loss:
        Optional :class:`~repro.net.loss.LossModel` erasing frames per
        directed link (i.i.d. or Gilbert–Elliott bursts).  A lost frame
        still occupies the receiver's radio for its airtime — it arrives
        garbled — so carrier sense and collisions are unaffected.
    """

    def __init__(
        self,
        sim: Simulator,
        positions: np.ndarray,
        comm_range: float = 40.0,
        propagation: Optional[PropagationModel] = None,
        perfect: bool = False,
        loss: Optional[LossModel] = None,
    ) -> None:
        self.sim = sim
        self.positions = np.asarray(positions, dtype=float)
        self.propagation = propagation if propagation is not None else TwoRayGround()
        self.tx_power = TX_POWER
        self.bitrate_bps = BITRATE_BPS
        self.energy_model = EnergyModel(bitrate_bps=BITRATE_BPS)
        self.perfect = perfect
        self.loss = loss
        # the range itself is not kept: reachability is this threshold
        self.rx_threshold = range_to_threshold(self.propagation, TX_POWER, float(comm_range))
        self._recompute_geometry()

        self.radios = [Radio(i) for i in range(self.n)]
        self._nodes: List["Node"] = []

        # per-frame-size ``(tx, rx)`` energy memo (pure functions of the
        # bit count, so caching is bit-identical; sizes are per-packet-class
        # constants)
        self._energy_cache: dict = {}

        # The reception path pushes its fire-and-forget entries
        # ``(time, priority, seq, fn, args)`` straight onto the kernel's
        # heap, consuming one ``seq`` and one live count per entry exactly
        # as ``EventQueue.push_fire`` does, minus a call frame per event.
        self._queue = sim._queue
        self._emit = sim.trace.emit

        # Direct-finish lane (batch kernel): with a perfect channel, no
        # loss model, and a MAC that never carrier-senses, the radio
        # pipeline (begin_tx/end_tx, begin/finish_reception) feeds only
        # the collision verdict — which ``perfect`` overrides — so each
        # delivery can be one finish event scheduled at transmit time.
        # Finish ties keep the scalar order: same-frame equal-delay
        # finishes follow delivery-list order (as the arrival pushes
        # did), cross-frame ties follow transmit order (as the arrival
        # execution order did).
        self.direct_finish = False

        # counters useful for profiling and tests
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        #: frames erased by the loss model
        self.frames_lost = 0
        #: frames a dead/sleeping sender's MAC tried to put on the air
        self.frames_suppressed = 0

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.positions)

    @property
    def _cell_size(self) -> float:
        """Candidate radius for the cell list.

        The model's true maximum range, padded by a relative epsilon so a
        node at *exactly* the nominal range survives the threshold->range
        float round-trip.  Reachability itself is still decided by
        ``rx_power >= rx_threshold``.
        """
        return self.propagation.max_range(TX_POWER, self.rx_threshold) * (1.0 + 1e-9)

    def _recompute_geometry(self) -> None:
        """Rebuild the rows from ``self.positions``.

        A deterministic model indexes the positions in a cell list and
        leaves the rows to materialise on first access, so constructing a
        Channel is O(n).  A fading model draws its rows now: the draw
        belongs to this geometry, whether or not a row is ever read.
        """
        n = self.n
        #: per-node delivery fast path: ``[(nbr, delay, rx_power), ...]``,
        #: built lazily per sender on first transmit
        self._delivery: List[Optional[list]] = [None] * n
        #: dst-id column of each delivery list, cached on a lossy
        #: channel's first frame from the sender, so per-frame loss
        #: batching never re-materialises the id list
        self._delivery_dsts: List[Optional[list]] = [None] * n
        #: per sender, its isolated-HELLO plan (:meth:`_plan`), dropped
        #: with its delivery list
        self._plans: list = [None] * n
        #: per node: neighbor ids (ascending), their delays and powers
        self._neighbor_ids: List[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._nbr_delays: List[np.ndarray] = [None] * n  # type: ignore[list-item]
        self._nbr_powers: List[np.ndarray] = [None] * n  # type: ignore[list-item]
        # Both builders set the same names in the same order, so every
        # channel of a process shares its class's keys (PERFORMANCE.md,
        # "Inline attribute values").
        if self.propagation.is_deterministic:
            #: the cell list (deterministic models only)
            self._grid: Optional[SpatialHash] = SpatialHash(self.positions, self._cell_size)
            self._rows_ready = False
        else:
            self._grid = None
            self._rows_ready = True
            self._draw_rows()

    def _ensure_rows(self) -> None:
        """Materialise every cell-list row (idempotent).

        A deterministic geometry this process already materialised reuses
        that build's row arrays (``_SHARED_ROWS``) in fresh row lists.
        """
        if self._rows_ready:
            return
        self._rows_ready = True
        key = self._rows_key()
        rows = _SHARED_ROWS.get(key) if key is not None else None
        if rows is not None:
            _SHARED_ROWS.move_to_end(key)
            self._neighbor_ids, self._nbr_delays, self._nbr_powers = map(list, rows)
            return
        self._rebuild_rows(np.arange(self.n, dtype=np.intp))
        if key is not None:
            rows = (tuple(self._neighbor_ids), tuple(self._nbr_delays), tuple(self._nbr_powers))
            for row in rows:
                for a in row:
                    a.flags.writeable = False  # shared: a write would leak across runs
            _SHARED_ROWS[key] = rows
            if len(_SHARED_ROWS) > _SHARED_ROWS_MAX:
                _SHARED_ROWS.popitem(last=False)

    def _rows_key(self) -> Optional[tuple]:
        """The inputs the rows are a function of; None if not shareable.

        Only deterministic rows are shared, and only for a dataclass
        propagation model, whose ``repr`` spells out every parameter.
        """
        prop = self.propagation
        if not (prop.is_deterministic and is_dataclass(prop)):
            return None
        pos = self.positions
        return (type(prop), repr(prop), self.rx_threshold,
                self._cell_size, pos.shape, pos.tobytes())

    def _rebuild_rows(self, src: np.ndarray) -> None:
        """Recompute the cell-list rows of the (sorted) node ids in ``src``.

        Reachability is power-based — ``rx_power >= rx_threshold`` —
        evaluated on the candidate pairs of the 3×3 cell blocks.
        """
        i, j, d = pair_distances(self._grid, src, self.positions)
        with np.errstate(divide="ignore"):
            rx = np.asarray(self.propagation.receive_power(TX_POWER, np.maximum(d, 1e-9)))
        keep = rx >= self.rx_threshold
        self._store_rows(src, i[keep], j[keep], d[keep] / SPEED_OF_LIGHT, rx[keep])

    def _draw_rows(self) -> None:
        """Fill every row from one fading draw over all ``(n, n)`` pairs.

        Link gains are symmetrised (shadowing is a property of the path,
        not the direction) by mirroring the upper triangle.
        """
        distances = pairwise_distances(self.positions)
        delays = distances / SPEED_OF_LIGHT
        np.fill_diagonal(distances, np.inf)
        with np.errstate(divide="ignore"):
            rx = np.asarray(
                self.propagation.receive_power(TX_POWER, np.maximum(distances, 1e-9))
            )
        iu = np.triu_indices(self.n, k=1)
        rx[(iu[1], iu[0])] = rx[iu]  # mirror the upper triangle
        reach = rx >= self.rx_threshold
        np.fill_diagonal(reach, False)
        i, j = np.nonzero(reach)
        self._store_rows(np.arange(self.n, dtype=np.intp), i, j, delays[i, j], rx[i, j])

    def _store_rows(self, src: np.ndarray, i: np.ndarray, j: np.ndarray,
                    delays: np.ndarray, powers: np.ndarray) -> None:
        """Slice the links ``(i, j)``, sorted by ``(i, j)``, into the rows
        of ``src``, and drop those senders' delivery lists."""
        lo = np.searchsorted(i, src)
        hi = np.searchsorted(i, src, side="right")
        ids, nbr_delays, nbr_powers = self._neighbor_ids, self._nbr_delays, self._nbr_powers
        delivery, dsts, plans = self._delivery, self._delivery_dsts, self._plans
        for s, a, b in zip(src.tolist(), lo.tolist(), hi.tolist()):
            ids[s] = j[a:b]
            nbr_delays[s] = delays[a:b]
            nbr_powers[s] = powers[a:b]
            delivery[s] = None
            dsts[s] = None
            plans[s] = None

    @property
    def neighbor_ids(self) -> List[np.ndarray]:
        """Per-node neighbor id arrays (materialises the rows lazily)."""
        if not self._rows_ready:
            self._ensure_rows()
        return self._neighbor_ids

    def update_positions(self, positions: np.ndarray) -> None:
        """Move the nodes and re-derive reachability (mobility extension).

        With a deterministic model this is incremental: only rows whose
        geometry could have changed — the moved nodes plus everyone in
        the 3×3 cell blocks around their old and new cells — are
        recomputed.  Above ``_FULL_REBUILD_FRACTION`` moved nodes the
        whole index is rebuilt, which is cheaper when (as under waypoint
        mobility) nearly every node moves per tick.  A fading model draws
        its rows afresh on every call.

        Frames already in flight keep the delivery schedule computed at
        transmit time — physically, a frame reaches whoever was in range
        when it was sent.
        """
        pos = np.asarray(positions, dtype=float)
        if pos.shape != self.positions.shape:
            raise ValueError(f"expected shape {self.positions.shape}, got {pos.shape}")
        if self._grid is not None:
            moved = np.flatnonzero((pos != self.positions).any(axis=1))
            if moved.size == 0:
                self.positions = pos.copy()
                return
            if self._rows_ready and moved.size <= _FULL_REBUILD_FRACTION * self.n:
                affected_old = self._grid.block_members(moved)
                self.positions = pos.copy()
                self._grid = SpatialHash(self.positions, self._cell_size)
                affected_new = self._grid.block_members(moved)
                self._rebuild_rows(np.unique(np.concatenate([moved, affected_old, affected_new])))
                return
        # a fading draw, nothing materialised yet, or nearly everyone
        # moved: a fresh geometry is cheaper than patching rows
        self.positions = pos.copy()
        self._recompute_geometry()

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach_nodes(self, nodes: List["Node"]) -> None:
        """Bind the node objects (done once by :class:`repro.net.network.Network`)."""
        if len(nodes) != self.n:
            raise ValueError(f"expected {self.n} nodes, got {len(nodes)}")
        self._nodes = nodes
        # delivery lists and plans embed per-neighbor node references;
        # drop any built before the nodes were bound
        self._delivery = [None] * self.n
        self._delivery_dsts = [None] * self.n
        self._plans = [None] * self.n

    def neighbors(self, node_id: int) -> np.ndarray:
        """Ids of nodes within communication range of ``node_id``."""
        return self.neighbor_ids[node_id]

    def airtime(self, packet: "Packet") -> float:
        """Frame duration on the medium, seconds."""
        return packet.size_bits() / self.bitrate_bps

    # ------------------------------------------------------------------ #
    # carrier sense (used by the CSMA MAC)
    # ------------------------------------------------------------------ #
    def medium_busy(self, node_id: int) -> bool:
        """Does ``node_id`` sense the medium busy right now?"""
        return self.radios[node_id].medium_busy(self.sim.now)

    def busy_until(self, node_id: int) -> float:
        """Earliest instant the medium could be sensed free at ``node_id``."""
        return self.radios[node_id].busy_until(self.sim.now)

    # ------------------------------------------------------------------ #
    # transmission
    # ------------------------------------------------------------------ #
    def _delivery_list(self, node_id: int) -> list:
        """``[(nbr, delay, rx_power, radio, node), ...]`` per sender, cached.

        Everything is converted to native python scalars here, once per
        sender: ``tolist()``/``float()`` preserve the IEEE-754 bits
        exactly, and native floats keep numpy scalar overhead out of the
        event heap (every heap comparison would otherwise go through
        ``np.float64`` dunders) and out of all downstream clock math.
        The receiving radio (and node, when bound) ride along so the
        per-frame reception path never indexes the registries.
        """
        nodes = self._nodes
        radios = self.radios
        if not self._rows_ready:
            self._ensure_rows()
        triples = zip(
            self._neighbor_ids[node_id].tolist(),
            self._nbr_delays[node_id].tolist(),
            self._nbr_powers[node_id].tolist(),
        )
        if nodes:
            dl = [(n, d, p, radios[n], nodes[n]) for n, d, p in triples]
        else:
            dl = [(n, d, p, radios[n], None) for n, d, p in triples]
        self._delivery[node_id] = dl
        return dl

    def _frame_energy(self, bits: int) -> tuple:
        """``(tx, rx)`` joules of a ``bits``-bit frame, memoised per size."""
        em = self.energy_model
        energy = self._energy_cache[bits] = (em.tx_energy(bits), em.rx_energy(bits))
        return energy

    def transmit(self, node_id: int, packet: "Packet") -> None:
        """Broadcast ``packet`` from ``node_id`` to everyone in range.

        Called by MAC layers only; protocols go through
        :meth:`repro.net.node.Node.send`.  Each live receiver's arrival
        entry goes straight onto the kernel heap, one ``seq`` per receiver
        in delivery-list order, so equal arrival times fire in that order.
        The frame's RX energy is computed here, once, and rides in the
        arrival's arguments.
        """
        now = self.sim.now
        nodes = self._nodes
        node = nodes[node_id] if nodes else None
        if node is not None and (not node.alive or node.asleep):
            # The MAC's access timer can fire after the node crashed or
            # went to sleep mid-backoff; a dead radio emits nothing.
            self.frames_suppressed += 1
            return
        bits = packet.size_bits()
        duration = bits / self.bitrate_bps
        queue = self._queue
        direct = self.direct_finish and self.loss is None and nodes
        if not direct:
            radio = self.radios[node_id]
            radio.begin_tx(now, duration)
            end = now + duration
            queue.push_fire(end, radio.end_tx, (end,), -1)

        self.frames_sent += 1
        self._emit(now, _TX, node_id, packet.ptype, packet.uid)
        energy = self._energy_cache.get(bits)
        if energy is None:
            energy = self._frame_energy(bits)
        e_tx, e_rx = energy
        if node is not None:
            node.energy.charge_tx(e_tx)

        delivery = self._delivery[node_id]
        if delivery is None:
            delivery = self._delivery_list(node_id)
        heap = queue._heap
        # read after the TX charge: a depletion callback may have pushed
        seq = first = queue._seq
        if direct:
            # one event per delivery, scheduled at the exact instant the
            # classic arrive->finish chain would have finished:
            # (now + delay) + duration, same float fold, same priority
            finish_direct = self._finish_direct
            for nbr, delay, power, radio, rnode in delivery:
                if rnode.alive and not rnode.asleep:
                    heappush(heap, ((now + delay) + duration, 1, seq, finish_direct,
                                    (rnode, nbr, packet, e_rx)))
                    seq += 1
        elif self.loss is None:
            arrive = self._arrive
            for nbr, delay, power, radio, rnode in delivery:
                # Dead or sleeping neighbors would discard the frame in
                # _finish anyway — skip their events entirely.
                if rnode is None or (rnode.alive and not rnode.asleep):
                    heappush(heap, (now + delay, 0, seq, arrive, (
                        radio, rnode, nbr, packet, power, duration, False, e_rx)))
                    seq += 1
        else:
            # batch the loss draws over the whole delivery list (the
            # i.i.d. model vectorises; others fall back to the scalar
            # loop inside frame_lost_batch, draw-for-draw identical)
            live = [e for e in delivery if e[4] is None or e[4].is_active]
            if len(live) == len(delivery):
                # nobody down: reuse the dst-id column cached when the
                # delivery list was built instead of re-materialising it
                dsts = self._delivery_dsts[node_id]
                if dsts is None:
                    dsts = self._delivery_dsts[node_id] = [e[0] for e in delivery]
            else:
                dsts = [e[0] for e in live]
            fates = self.loss.frame_lost_batch(node_id, dsts)
            arrive = self._arrive
            for (nbr, delay, power, radio, rnode), lost in zip(live, fates):
                heappush(heap, (now + delay, 0, seq, arrive, (
                    radio, rnode, nbr, packet, power, duration, lost, e_rx)))
                seq += 1
        queue._live += seq - first
        queue._seq = seq

    # ------------------------------------------------------------------ #
    # isolated frames (HELLO beacons)
    # ------------------------------------------------------------------ #
    def send_isolated(self, node: "Node", packet: "Packet", delay: float,
                      before: float) -> bool:
        """Transmit ``packet`` from ``node`` ``delay`` s from now and
        deliver it before returning, if the frame is isolated.

        An isolated frame touches nothing that anything else touches
        before it ends (:meth:`_isolated` is the test), so the stepped
        path's events — the MAC's access timer, ``Radio.end_tx``, the
        MAC's head completion, one ``_arrive`` and one ``_finish`` per
        live receiver — would execute back to back.  This writes what
        they would, in their order, while ``sim.now`` steps through
        their instants: the TX record at ``now + delay``, the sender's
        frame counter, TX energy and radio, then per live receiver in
        finish order its RX energy and the table refresh its HELLO agent
        would make (``update_hello``, called directly), then the frame's
        delivery count and its RX records: one counter update
        (:meth:`TraceRecorder.tally`) unless records are stored or
        watched, one emit per record otherwise.  The clock is back at
        ``now`` on return.  Returns False, having changed nothing, when the
        frame is not isolated; the MAC then steps it.
        """
        sim = self.sim
        now = sim.now
        t_fire = now + delay
        frame = self._isolated(node, packet, t_fire, before)
        if frame is None:
            return False
        duration, e_tx, e_rx, receivers = frame
        ptype, uid = packet.ptype, packet.uid
        src, groups, position = packet.src, packet.groups, packet.position
        sim.now = t_fire
        self.frames_sent += 1
        self._emit(t_fire, _TX, node.node_id, ptype, uid)
        node.energy.charge_tx(e_tx)
        self.radios[node.node_id].tx_until = t_fire + duration
        for arrival, _nbr, rnode in receivers:
            t = arrival + duration
            sim.now = t
            rnode.energy.rx_joules += e_rx
            rnode.neighbor_table.update_hello(src, groups, t, position)
        self.frames_delivered += len(receivers)
        if not sim.trace.tally(_RX, ptype, len(receivers)):
            emit = self._emit  # records to store or watchers to show them to
            for arrival, nbr, _rnode in receivers:
                emit(arrival + duration, _RX, nbr, ptype, uid)
        sim.now = now
        return True

    def _isolated(self, node: "Node", packet: "Packet", t_fire: float, before: float):
        """``(duration, e_tx, e_rx, receivers)`` of ``packet`` sent by
        ``node`` at ``t_fire`` if the frame is isolated, else None.

        ``receivers`` lists ``(arrival, id, node)`` per live neighbor
        (dead and sleeping ones hear nothing, as in
        :meth:`transmit`) in the stepped finish order: by rounded
        arrival instant, then by delivery-list order, which is the order
        of their arrival events' ``seq``.  The frame is isolated when:

        * the packet is a :class:`HelloPacket` and its sender has a plan
          (:meth:`_plan`): every neighbor's MAC ignores broadcast frames
          and its only HELLO handler is a :class:`HelloAgent` with the
          stock ``on_packet``;
        * the channel is lossless and on the arrive/finish lane, and the
          running :meth:`Simulator.run` call has a horizon and is not
          stopping;
        * the sender's radio is idle — not transmitting, no reception
          in flight — and so is every live receiver's;
        * no charge of the frame reaches its account's budget, so no
          ``on_depleted`` callback can fire inside it;
        * the frame's last instant is before the heap's top and before
          ``before`` (both strictly: at an equal instant the stepped
          finish, priority 1, runs last), and within the horizon, so it
          never straddles a ``run(until=)`` call or a snapshot.
        """
        sim = self.sim
        horizon = sim.horizon
        if horizon is None or sim._stopped or self.loss is not None or self.direct_finish:
            return None
        node_id = node.node_id
        radio = self.radios[node_id]
        if radio.state is not _IDLE or radio.receptions:
            return None
        if packet.__class__ is not HelloPacket:
            return None
        plan = self._plans[node_id]
        if plan is None:
            plan = self._plans[node_id] = self._plan(node_id)
        if plan is False:
            return None
        bits = packet.size_bits()
        duration = bits / self.bitrate_bps
        energy = self._energy_cache.get(bits)
        if energy is None:
            energy = self._frame_energy(bits)
        e_tx, e_rx = energy
        en = node.energy
        if not en.depleted and (en.tx_joules + e_tx) + en.rx_joules >= en.initial_joules:
            return None
        receivers = []
        for nbr, delay, _power, rradio, rnode in plan:
            if not rnode.alive or rnode.asleep:
                continue
            if rradio.state is not _IDLE or rradio.receptions:
                return None
            ren = rnode.energy
            if not ren.depleted and ren.tx_joules + (ren.rx_joules + e_rx) >= ren.initial_joules:
                return None
            receivers.append((t_fire + delay, nbr, rnode))
        receivers.sort(key=_arrival)  # stable: ties keep delivery order
        last = (receivers[-1][0] if receivers else t_fire) + duration
        heap = self._queue._heap
        if not (last < before and last <= horizon and (not heap or last < heap[0][0])):
            return None
        return duration, e_tx, e_rx, receivers

    def _plan(self, node_id: int):
        """``node_id``'s delivery list if its HELLOs may go isolated, else
        False.

        The checks of :meth:`_isolated` that only an install or a row
        change can turn: per neighbor, live or not, a MAC that ignores
        broadcast frames and a stock :class:`HelloAgent` as its only HELLO
        handler, so the write may refresh the neighbor's table directly.
        The plan is the delivery list itself (no copy for a warm fork to
        restore), kept until the sender's rows change or an agent
        handling HELLOs is installed (:meth:`drop_plans`).
        """
        delivery = self._delivery[node_id]
        if delivery is None:
            delivery = self._delivery_list(node_id)
        for _nbr, _delay, _power, _radio, rnode in delivery:
            if rnode is None or not rnode.mac.ignores_broadcast:
                return False
            handlers = rnode.handlers_of(HelloPacket)
            if len(handlers) != 1 or handlers[0].__class__.on_packet is not _HELLO_ON_PACKET:
                return False
        return delivery

    def drop_plans(self, classes: Tuple[type, ...]) -> None:
        """Forget every plan if an agent that handles one of ``classes``,
        just installed, now hears HELLOs."""
        if issubclass(HelloPacket, classes):
            self._plans = [None] * self.n

    # ------------------------------------------------------------------ #
    # reception pipeline
    # ------------------------------------------------------------------ #
    def _arrive(
        self, radio: Radio, node, nbr_id: int, packet: "Packet",
        power: float, duration: float, lost: bool, e_rx: float,
    ) -> None:
        now = self.sim.now
        rec = radio.begin_reception(packet, now, duration, power)
        if lost:
            # The garbled signal still occupies the radio (carrier sense,
            # collision bookkeeping) but can never decode.
            rec.intact = False
        # the finish entry, pushed inline: priority 1, one seq
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        heappush(queue._heap, (now + duration, 1, seq, self._finish,
                               (radio, node, nbr_id, rec, lost, e_rx)))

    def _finish(self, radio: Radio, node, nbr_id: int, rec: Reception,
                lost: bool, e_rx: float) -> None:
        now = self.sim.now
        ok = radio.finish_reception(rec, now)
        packet: "Packet" = rec.frame
        # recycle: this finish event was the last reference holder
        rec.frame = None
        radio.free_pool.append(rec)
        if node is not None:
            if not node.alive or node.asleep:
                # A dead or sleeping radio neither spends RX energy nor
                # hears the frame (the arrival was scheduled while it was
                # still up).
                return
            # inline EnergyAccount.charge_rx — once per surviving arrival
            en = node.energy
            en.rx_joules += e_rx
            if not en.depleted and en.tx_joules + en.rx_joules >= en.initial_joules:
                en._check()
        if lost:
            self.frames_lost += 1
            self._emit(now, _DROP, nbr_id, packet.ptype, "loss")
        elif ok or self.perfect:
            self.frames_delivered += 1
            self._emit(now, _RX, nbr_id, packet.ptype, packet.uid)
            if node is not None:
                node.on_packet_received(packet)
        else:
            self.frames_collided += 1
            self._emit(now, _COLLISION, nbr_id, packet.ptype, packet.uid)

    def _finish_direct(self, node, nbr_id: int, packet: "Packet", e_rx: float) -> None:
        """Frame completion on the direct lane (perfect, lossless, no radio).

        Mirrors the surviving-reception branch of :meth:`_finish` —
        dead-receiver discard, rx energy, delivery counter, RX record,
        dispatch — with the reception bookkeeping elided (its only
        output, the collision verdict, is overridden by ``perfect``).
        """
        if not node.alive or node.asleep:
            return
        en = node.energy
        en.rx_joules += e_rx
        if not en.depleted and en.tx_joules + en.rx_joules >= en.initial_joules:
            en._check()
        self.frames_delivered += 1
        self._emit(self.sim.now, _RX, nbr_id, packet.ptype, packet.uid)
        node.on_packet_received(packet)
