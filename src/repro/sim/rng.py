"""Named, reproducible random streams.

Every stochastic component in the simulator (MAC backoff at node 7, MTMRP
jitter at node 12, receiver placement, …) draws from its own
``numpy.random.Generator`` derived from one master ``SeedSequence``.  This
gives two properties the experiments rely on:

* **bit-reproducibility** — a run is a pure function of its master seed;
* **variance isolation** — changing how often one component draws (e.g.
  swapping the Ideal MAC for CSMA) does not perturb any other component's
  stream, so A/B comparisons stay paired.

Streams are keyed by arbitrary hashable tuples, e.g.
``rng.stream("mac", node_id)``; the key is folded into the seed material
deterministically (independent of creation order).
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["BatchedStreams", "RngRegistry"]


def _key_to_int(key: Tuple[Hashable, ...]) -> int:
    """Map a stream key to a stable 32-bit integer.

    ``hash()`` is salted per-process for strings, so we use CRC32 of the
    repr instead — stable across processes and Python versions, which is
    required for the multiprocessing Monte-Carlo runner.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


# --------------------------------------------------------------------- #
# numpy's SeedSequence hash, split at the spawn word
# --------------------------------------------------------------------- #
# A stream is ``PCG64(SeedSequence(entropy=seed, spawn_key=(k,)))`` with
# ``k = _key_to_int(key)``.  The SeedSequence pools the entropy words (the
# seed's uint32 words, least significant first and zero-padded to 4, then
# k) into 4 uint32 words, and PCG64 seeds from 8 words hashed out of the
# pool.  Everything up to the spawn word depends on the seed alone, and
# the hash constants never depend on the data, so a registry hashes its
# seed once and each key costs the last 4 mixes and the 8 output hashes —
# which :func:`_spawn_words` computes for one key (Python ints) or for a
# block of keys at once (uint64 arrays, wrapping products masked to 32
# bits).  Constants from numpy/random/bit_generator.pyx.
_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

#: integer-indexed keys ``(name, i)`` are hashed in aligned blocks of
#: this many indices
_BLOCK = 64


def _hash_consts(h: int, mult: int, n: int) -> list:
    """``n`` successive ``(xor constant, multiplier)`` pairs of a hash."""
    out = []
    for _ in range(n):
        h_next = (h * mult) & _M32
        out.append((h, h_next))
        h = h_next
    return out


#: SeedSequence.generate_state's per-word constants (8 words = 4 uint64)
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> _XSHIFT)


def _seed_pool(seed: int) -> tuple:
    """The pool after every seed word, and the spawn word's hash constants."""
    if seed < 0:
        raise ValueError("expected non-negative integer")  # as SeedSequence
    words = []
    n = seed
    while True:
        words.append(n & _M32)
        n >>= 32
        if not n:
            break
    words += [0] * (_POOL_SIZE - len(words))
    consts = iter(_hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * (len(words) + 1)))

    def hashmix(v: int) -> int:
        x, m = next(consts)
        v = ((v ^ x) * m) & _M32
        return v ^ (v >> _XSHIFT)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(w))
    return tuple(pool), tuple(consts)


def _spawn_words(seed_pool: tuple, k):
    """PCG64's four seed words for spawn word ``k`` (an int or a uint64 array)."""
    pool, consts = seed_pool
    mixed = []
    for p, (x, m) in zip(pool, consts):
        v = ((k ^ x) * m) & _M32
        mixed.append(_mix(p, v ^ (v >> _XSHIFT)))
    out = []
    for i, (x, m) in enumerate(_OUT_CONSTS):
        v = ((mixed[i % _POOL_SIZE] ^ x) * m) & _M32
        out.append(v ^ (v >> _XSHIFT))
    # generate_state(4, uint64) pairs the uint32 words little-endian
    return [out[i] | (out[i + 1] << 32) for i in range(0, len(out), 2)]


class _SeedWords(ISeedSequence):
    """A seed sequence that hands a bit generator precomputed words.

    ``PCG64(_SeedWords(w))`` seeds in C from ``w`` exactly as it would from
    the SeedSequence that hashed to ``w``.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class RngRegistry:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[Tuple[Hashable, ...], np.random.Generator] = {}
        #: the seed's share of the stream hash (:func:`_seed_pool`)
        self._pool = None
        #: seed words of the integer-indexed keys, per ``(name, block)``
        self._blocks: Dict[Tuple[str, int], np.ndarray] = {}

    def stream(self, *key: Hashable) -> np.random.Generator:
        """Return (creating on first use) the generator for ``key``.

        The same key always yields the same generator object within a
        registry, and the same *initial state* across registries built
        with the same master seed: that of
        ``PCG64(SeedSequence(entropy=seed, spawn_key=(_key_to_int(key),)))``.
        """
        gen = self._streams.get(key)
        if gen is not None:
            return gen
        if not key:
            raise ValueError("stream key must be non-empty")
        pool = self._pool
        if pool is None:
            pool = self._pool = _seed_pool(self.seed)
        name, i = key if len(key) == 2 else (None, None)
        if type(name) is str and type(i) is int and i >= 0:
            # a numpy integer's repr (and so its stream) differs from an
            # int's, and it takes the one-key path
            b, r = divmod(i, _BLOCK)
            block = self._blocks.get((name, b))
            if block is None:
                ks = np.array(
                    [_key_to_int((name, j)) for j in range(b * _BLOCK, (b + 1) * _BLOCK)],
                    dtype=np.uint64,
                )
                block = self._blocks[(name, b)] = np.stack(_spawn_words(pool, ks), axis=1)
            words = block[r]
        else:
            words = np.array(_spawn_words(pool, _key_to_int(key)), dtype=np.uint64)
        gen = self._streams[key] = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        return gen

    def __getstate__(self) -> dict:
        # a copy (a warm snapshot's blob) leaves the seed-word blocks
        # behind: the streams it carries are built, and any new one
        # recomputes its block
        return {**self.__dict__, "_blocks": {}}

    def spawn_run_seeds(self, n_runs: int) -> list[int]:
        """Derive ``n_runs`` independent master seeds for Monte-Carlo runs.

        Used by the experiment runner to hand each worker process its own
        seed; the derivation is deterministic in (master seed, run index).
        """
        ss = np.random.SeedSequence(entropy=self.seed)
        children = ss.spawn(n_runs)
        return [int(c.generate_state(1, dtype=np.uint64)[0] & 0x7FFF_FFFF) for c in children]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={len(self._streams)})"


class _BlockDraw:
    """One cross-seed block of draws from the same stream key.

    Holds the per-seed matrix of speculatively drawn values, so
    :meth:`commit` can move each stream to where it would stand after
    exactly the number of values the scalar kernel would have consumed.
    Because a size-``n`` numpy draw is bitwise identical to ``n`` scalar
    draws (and leaves the generator in the same state), the committed
    streams are draw-for-draw indistinguishable from scalar execution.
    """

    __slots__ = ("matrix", "_gens")

    def __init__(self, gens, matrix) -> None:
        self._gens = gens
        #: speculative draws, shape ``(n_seeds, n)``
        self.matrix = matrix

    def commit(self, counts) -> None:
        """Step every stream back so it has consumed ``counts[s]`` draws.

        A ``uniform`` double is one 64-bit PCG64 step, so the stream
        ``n`` draws past the block's start lands on the scalar state
        after ``counts[s]`` draws by advancing ``counts[s] - n`` steps
        modulo the period.  ``advance`` also clears the uint32 buffer,
        which double draws never fill.
        """
        n = self.matrix.shape[1]
        for gen, count in zip(self._gens, counts):
            c = int(count)
            if c != n:
                gen.bit_generator.advance((c - n) % (1 << 128))


class BatchedStreams:
    """Seed-batched view over per-seed :class:`RngRegistry` streams.

    The facade owns one registry per seed and exposes matrix-shaped
    draws whose row ``s`` comes from seed ``s``'s own stream — so any
    value the batch kernel consumes is drawn from exactly the generator,
    in exactly the order, that the scalar kernel would have used.  The
    registries can then be handed to per-seed simulators to continue the
    very same streams (:meth:`registry`).

    Draw-count mismatches between the speculative block and the scalar
    control flow are reconciled via :meth:`_BlockDraw.commit`.
    """

    def __init__(self, seeds) -> None:
        self.seeds = [int(s) for s in seeds]
        self.registries = [RngRegistry(s) for s in self.seeds]

    def __len__(self) -> int:
        return len(self.seeds)

    def registry(self, s: int) -> RngRegistry:
        """The per-seed registry (adoptable by a ``Simulator``)."""
        return self.registries[s]

    def stream(self, s: int, *key: Hashable) -> np.random.Generator:
        """Seed ``s``'s generator for ``key`` — same object the scalar run uses."""
        return self.registries[s].stream(*key)

    def uniform_matrix(self, key: Tuple[Hashable, ...], low: float, high: float) -> np.ndarray:
        """One scalar ``uniform(low, high)`` per seed, as a ``(n_seeds,)`` vector."""
        return np.array(
            [float(reg.stream(*key).uniform(low, high)) for reg in self.registries]
        )

    def uniform_block(
        self, key: Tuple[Hashable, ...], low: float, high: float, n: int
    ) -> _BlockDraw:
        """Draw ``n`` values per seed speculatively; commit the real count later."""
        gens = [reg.stream(*key) for reg in self.registries]
        matrix = np.empty((len(gens), n), dtype=np.float64)
        for s, g in enumerate(gens):
            matrix[s] = g.uniform(low, high, size=n)
        return _BlockDraw(gens, matrix)
