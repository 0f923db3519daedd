"""Unit tests for named random streams."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import RngRegistry, _key_to_int


def test_same_key_returns_same_generator():
    reg = RngRegistry(1)
    assert reg.stream("mac", 3) is reg.stream("mac", 3)


def test_different_keys_are_independent_objects():
    reg = RngRegistry(1)
    assert reg.stream("mac", 3) is not reg.stream("mac", 4)


def test_reproducible_across_registries():
    a = RngRegistry(42).stream("proto", 7).uniform(size=10)
    b = RngRegistry(42).stream("proto", 7).uniform(size=10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x").uniform(size=10)
    b = RngRegistry(2).stream("x").uniform(size=10)
    assert not np.array_equal(a, b)


def test_creation_order_does_not_matter():
    reg1 = RngRegistry(5)
    _ = reg1.stream("a")
    v1 = reg1.stream("b").uniform(size=5)
    reg2 = RngRegistry(5)
    v2 = reg2.stream("b").uniform(size=5)  # "b" created first here
    assert np.array_equal(v1, v2)


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        RngRegistry(0).stream()


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        RngRegistry(-1).stream("x")


def test_spawn_run_seeds_deterministic():
    assert RngRegistry(9).spawn_run_seeds(10) == RngRegistry(9).spawn_run_seeds(10)


def test_spawn_run_seeds_distinct():
    seeds = RngRegistry(9).spawn_run_seeds(50)
    assert len(set(seeds)) == 50


def test_spawn_run_seeds_nonnegative():
    assert all(s >= 0 for s in RngRegistry(3).spawn_run_seeds(20))


@given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=10))
def test_stream_stability_property(seed, name):
    """Property: first draw of a stream is a pure function of (seed, key)."""
    a = RngRegistry(seed).stream(name).random()
    b = RngRegistry(seed).stream(name).random()
    assert a == b


# --------------------------------------------------------------------- #
# the stream definition, pinned to numpy's SeedSequence
# --------------------------------------------------------------------- #
_SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 3]),
    st.integers(min_value=0, max_value=2**140),
)
_NAMES = st.one_of(
    st.sampled_from(["hello", "mac", "proto", "topology", "receivers"]),
    st.text(min_size=1, max_size=8),
)
#: stream indices on both sides of 64-key block boundaries
_INDICES = st.one_of(
    st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, 199]),
    st.integers(min_value=0, max_value=5_000),
)
_KEYS = st.one_of(
    st.tuples(_NAMES),
    st.tuples(_NAMES, _INDICES),
    st.tuples(_NAMES, _INDICES, _INDICES),
    # a numpy integer's repr differs from a Python int's, and so does
    # the stream it names
    st.tuples(_NAMES, _INDICES.map(np.int64)),
)


def _numpy_stream_state(seed, key):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_key_to_int(key),))
    return np.random.PCG64(ss).state


# unique: ("x", 5) and ("x", np.int64(5)) are one key to a registry
@given(_SEEDS, st.lists(_KEYS, min_size=1, max_size=8, unique=True))
def test_stream_is_numpy_pcg64_of_seed_and_key(seed, keys):
    """Property: a stream starts in the state numpy's own SeedSequence
    derivation gives its (master seed, key) pair, whatever other streams
    the registry created first."""
    reg = RngRegistry(seed)
    for key in keys:
        assert reg.stream(*key).bit_generator.state == _numpy_stream_state(seed, key)


def test_equal_int_and_numpy_int_keys_keep_their_own_streams():
    """``("hello", 5)`` and ``("hello", np.int64(5))`` compare equal but
    name different streams (their reprs differ); a registry must not hand
    one the stream an earlier same-seed registry created for the other."""
    for first, second in ((5, np.int64(5)), (np.int64(6), 6)):
        RngRegistry(11).stream("hello", first)
        state = RngRegistry(11).stream("hello", second).bit_generator.state
        assert state == _numpy_stream_state(11, ("hello", second))


@given(_SEEDS, _KEYS, st.integers(min_value=0, max_value=5))
def test_stream_survives_pickle_round_trip(seed, key, n_before):
    """Property: a pickled stream resumes exactly where the original is."""
    gen = RngRegistry(seed).stream(*key)
    gen.uniform(size=n_before)
    clone = pickle.loads(pickle.dumps(gen))
    assert clone.bit_generator.state == gen.bit_generator.state
    assert np.array_equal(clone.uniform(size=6), gen.uniform(size=6))


def test_pickled_registry_keeps_deriving_streams():
    """A registry copied by pickle (as warm snapshots copy one) resumes its
    streams and derives new ones exactly as numpy would."""
    seed = 2**33 + 5
    reg = RngRegistry(seed)
    reg.stream("hello", 3).uniform(size=2)
    clone = pickle.loads(pickle.dumps(reg))
    assert clone.stream("hello", 3).bit_generator.state == reg.stream("hello", 3).bit_generator.state
    for key in (("hello", 5), ("hello", 70), ("topology",)):
        assert clone.stream(*key).bit_generator.state == _numpy_stream_state(seed, key)


def test_recycled_generator_is_rewound():
    """A registry built after a same-seed one has died starts each stream
    afresh, not where the dead registry's generator left off."""
    reg = RngRegistry(123)
    expect = reg.stream("mac", 1).uniform(size=8)
    del reg
    got = RngRegistry(123).stream("mac", 1).uniform(size=8)
    assert np.array_equal(expect, got)


def test_live_registries_never_share_a_generator():
    """Two live registries on the same (seed, key) never alias one
    generator: each draws the same values with its own cursor."""
    a = RngRegistry(7)
    b = RngRegistry(7)
    ga = a.stream("proto", 2)
    gb = b.stream("proto", 2)
    assert ga is not gb
    va = ga.uniform(size=6)
    vb = gb.uniform(size=6)
    assert np.array_equal(va, vb)  # same seed: same values, own cursors


# --------------------------------------------------------------------- #
# seed-batched streams (the Monte Carlo batch kernel's rng facade)
# --------------------------------------------------------------------- #
from repro.sim.rng import BatchedStreams  # noqa: E402


def test_batched_matrix_draw_equals_scalar_draws():
    seeds = [0, 1, 42, 999]
    bs = BatchedStreams(seeds)
    got = bs.uniform_matrix(("hello", 7), 0.0, 0.1)
    for s, seed in enumerate(seeds):
        assert got[s] == RngRegistry(seed).stream("hello", 7).uniform(0.0, 0.1)


@given(
    st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=4,
             unique=True),
    st.data(),
)
def test_block_commit_lands_on_exact_scalar_state(seeds, data):
    """Property: speculate-then-commit is draw-for-draw scalar execution.

    For any seeds and per-seed commit counts, the served prefix of a
    block must equal the scalar draw sequence, and the generator must end
    in the state a scalar kernel would leave after exactly that many
    draws — so every *later* draw on the stream stays bit-identical too.
    """
    n = data.draw(st.integers(min_value=1, max_value=12), label="block size")
    counts = [
        data.draw(st.integers(min_value=0, max_value=n), label=f"count[{i}]")
        for i in range(len(seeds))
    ]
    bs = BatchedStreams(seeds)
    first = bs.uniform_matrix(("hello", 3), 0.0, 0.1)
    block = bs.uniform_block(("hello", 3), -0.1, 0.1, n)
    block.commit(counts)
    tails = [bs.stream(s, "hello", 3).uniform(size=3) for s in range(len(seeds))]

    for s, seed in enumerate(seeds):
        g = RngRegistry(seed).stream("hello", 3)
        assert first[s] == g.uniform(0.0, 0.1)
        expect = g.uniform(-0.1, 0.1, size=counts[s])
        assert np.array_equal(block.matrix[s, : counts[s]], expect)
        assert np.array_equal(tails[s], g.uniform(size=3))


def test_interleaved_batched_and_scalar_keys_stay_paired():
    """Draws on one key never perturb another key's stream, batched or not."""
    seeds = [5, 6]
    bs = BatchedStreams(seeds)
    bs.uniform_matrix(("hello", 0), 0.0, 0.1)
    block = bs.uniform_block(("hello", 1), -0.1, 0.1, 8)
    block.commit([3, 0])
    other = [bs.stream(s, "mac", 2).uniform(size=4) for s in range(2)]
    for s, seed in enumerate(seeds):
        ref = RngRegistry(seed).stream("mac", 2).uniform(size=4)
        assert np.array_equal(other[s], ref)


def test_batched_streams_rewind_pooled_generators():
    """A ``BatchedStreams`` built after same-seed registries advanced a
    stream and died sees that stream at its initial state."""
    seeds = [101, 102, 103]
    expect = {}
    for seed in seeds:
        reg = RngRegistry(seed)
        expect[seed] = reg.stream("hello", 0).uniform(size=5)
        del reg
    bs = BatchedStreams(seeds)
    got = bs.uniform_matrix(("hello", 0), 0.0, 1.0)
    for s, seed in enumerate(seeds):
        assert got[s] == expect[seed][0]


def test_registry_handoff_continues_the_batched_stream():
    """``registry(s)`` hands the very streams the batch advanced."""
    bs = BatchedStreams([9])
    head = bs.uniform_matrix(("hello", 4), 0.0, 0.1)
    reg = bs.registry(0)
    cont = reg.stream("hello", 4).uniform(size=3)

    g = RngRegistry(9).stream("hello", 4)
    assert head[0] == g.uniform(0.0, 0.1)
    assert np.array_equal(cont, g.uniform(size=3))
