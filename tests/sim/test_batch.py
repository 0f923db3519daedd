"""Vectorized Monte Carlo batch kernel: bit-identity, gating, fallback.

The batch kernel's contract is absolute: running N seeds through
``run_batch`` must be indistinguishable — trace bytes, metrics, uid
consumption, rng stream states — from running each seed through
``run_single`` sequentially.  These tests pin that contract, route every
committed corpus scenario through the batch entry point, and prove the
fallback machinery leaves ineligible configs bit-unchanged.
"""

import json
from pathlib import Path

import pytest

import repro.sim.batch as batch_mod
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_many, run_single
from repro.net.packet import current_uid, reset_uids
from repro.sim.batch import (
    STATS,
    batch_eligible,
    batch_group_key,
    run_batch,
)
from repro.sim.trace import TraceRecorder, trace_digest
from repro.traffic.spec import SessionSpec, TrafficPlan, ramp_plan

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

#: small batch-eligible scenario (ideal MAC, lossless, HELLO warmup)
ELIGIBLE = SimulationConfig(
    protocol="mtmrp", topology="grid", grid_nx=6, grid_ny=6, side=120.0,
    group_size=6, mac="ideal", hello_phase=True, hello_warmup=6.0,
    construction_time=0.5, data_time=0.25,
)


def _corpus_config(name: str) -> SimulationConfig:
    payload = json.loads((CORPUS_DIR / name).read_text())
    return SimulationConfig(**payload["scenario"]["config"])


@pytest.fixture(autouse=True)
def _fresh_stats():
    STATS.reset()
    yield
    STATS.reset()


# --------------------------------------------------------------------- #
# bit-identity against the scalar oracle
# --------------------------------------------------------------------- #
class TestBatchBitIdentity:
    def test_results_match_scalar_loop(self):
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(8)]
        reset_uids()
        scalar = [run_single(c, cache=False, warm_start=False) for c in cfgs]
        reset_uids()
        batched = run_batch(cfgs)
        assert batched == scalar
        assert STATS.batched_runs == 8 and STATS.fallback_runs == 0
        # a legacy single-flow run counts one flow in the session tally
        assert STATS.batched_sessions == 8

    def test_trace_and_uid_stream_byte_identical(self):
        """Per-seed traces, concatenated in run order, share one digest.

        ``run_batch`` absorbs each seed's records into the external
        recorder in input order, exactly as a scalar loop over
        ``run_single(trace=...)`` appends them — so digest equality here
        is per-seed byte-identity, not just aggregate agreement.
        """
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(4)]
        reset_uids()
        tr_scalar = TraceRecorder()
        for c in cfgs:
            run_single(c, trace=tr_scalar, cache=False, warm_start=False)
        uid_scalar = current_uid()

        reset_uids()
        tr_batch = TraceRecorder()
        run_batch(cfgs, trace=tr_batch)
        assert trace_digest(tr_batch) == trace_digest(tr_scalar)
        assert current_uid() == uid_scalar

    def test_rng_streams_land_on_scalar_state(self):
        """After a batch, each seed's generators sit where scalar left them.

        The HELLO plan draws speculatively and rewinds; a drift of even
        one draw would desynchronise every later consumer of the stream.
        """
        from repro.sim.rng import BatchedStreams, RngRegistry

        cfg = ELIGIBLE
        streams = BatchedStreams([3, 4, 5])
        plan = batch_mod._HelloPlan(cfg, streams)
        for s, seed in enumerate((3, 4, 5)):
            ref = RngRegistry(seed)
            for i in range(cfg.n_nodes):
                g = ref.stream("hello", i)
                g.uniform(0.0, batch_mod._HELLO_JITTER)
                for _ in range(int(plan.n_exec[s, i])):
                    g.uniform(-batch_mod._HELLO_JITTER, batch_mod._HELLO_JITTER)
                got = streams.stream(s, "hello", i)
                assert got.bit_generator.state == g.bit_generator.state

    def test_repeated_seeds_allowed(self):
        cfgs = [ELIGIBLE.with_(seed=7), ELIGIBLE.with_(seed=7)]
        a, b = run_batch(cfgs)
        assert a == b


# --------------------------------------------------------------------- #
# every corpus scenario through the batch entry point
# --------------------------------------------------------------------- #
CORPUS = sorted(p.name for p in CORPUS_DIR.glob("*.json"))


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_scenario_through_batch_entry(name):
    """``run_many(batch=N)`` reproduces the scalar trace for all 8 scenarios.

    Eligible scenarios ride the vectorized kernel with byte-identical
    traces; ineligible ones must take the scalar fallback and stay
    bit-unchanged (same digest, same uid consumption, same result).
    """
    cfg = _corpus_config(name)
    reset_uids()
    tr_ref = TraceRecorder()
    ref = run_single(cfg, trace=tr_ref, cache=False, warm_start=False)
    uid_ref = current_uid()

    eligible = batch_eligible(cfg) is None
    reset_uids()
    tr_got = TraceRecorder()
    if eligible:
        (got,) = run_batch([cfg], trace=tr_got)
    else:
        got = run_single(cfg, trace=tr_got, cache=False, warm_start=False)
    assert got == ref
    assert trace_digest(tr_got) == trace_digest(tr_ref)
    assert current_uid() == uid_ref
    # the dispatch layer must agree with the gate: batched entry point
    # returns the same result either way, counting fallbacks when scalar
    (via_many,) = run_many([cfg], workers=1, batch=4)
    assert via_many == ref
    if not eligible:
        assert STATS.fallback_runs >= 1


def test_corpus_has_both_eligible_and_fallback_scenarios():
    """The corpus must keep exercising both sides of the gate."""
    verdicts = {n: batch_eligible(_corpus_config(n)) for n in CORPUS}
    assert any(v is None for v in verdicts.values())
    assert any(v is not None for v in verdicts.values())


# --------------------------------------------------------------------- #
# lifted paths: multi-session plans and iid loss through the kernel
# --------------------------------------------------------------------- #
def _assert_batch_matches_scalar(cfgs):
    """Results, trace bytes and uid consumption all equal the scalar loop."""
    reset_uids()
    scalar = [run_single(c, cache=False, warm_start=False) for c in cfgs]
    reset_uids()
    tr_scalar = TraceRecorder()
    for c in cfgs:
        run_single(c, trace=tr_scalar, cache=False, warm_start=False)
    uid_scalar = current_uid()
    reset_uids()
    tr_batch = TraceRecorder()
    batched = run_batch(cfgs, trace=tr_batch)
    assert batched == scalar
    assert trace_digest(tr_batch) == trace_digest(tr_scalar)
    assert current_uid() == uid_scalar
    return batched


class TestLiftedPaths:
    def test_multi_session_plan_bit_identical(self):
        cfg = ELIGIBLE.with_(sessions=ramp_plan(ELIGIBLE, 4))
        STATS.reset()
        _assert_batch_matches_scalar([cfg.with_(seed=s) for s in range(4)])
        # the flow tally counts (seed x session): 4 seeds x 4 sessions
        assert STATS.batched_runs == 4
        assert STATS.batched_sessions == 16

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_iid_loss_bit_identical(self, p):
        cfg = ELIGIBLE.with_(loss_model="iid", loss_rate=p)
        _assert_batch_matches_scalar([cfg.with_(seed=s) for s in range(3)])

    def test_sessions_and_loss_combined(self):
        cfg = ELIGIBLE.with_(
            sessions=ramp_plan(ELIGIBLE, 3), loss_model="iid", loss_rate=0.15
        )
        _assert_batch_matches_scalar([cfg.with_(seed=s) for s in range(4)])

    def test_lossy_keep_rx_records(self):
        cfg = ELIGIBLE.with_(loss_model="iid", loss_rate=0.2, keep_rx_records=True)
        _assert_batch_matches_scalar([cfg.with_(seed=s) for s in range(3)])

    @pytest.mark.parametrize(
        "name",
        ["009-two-session-overlap.json", "010-staggered-saturation.json"],
    )
    def test_lifted_corpus_sessions_bit_identical(self, name):
        """009/010 lifted into the kernel's domain batch byte-identically.

        The committed entries stay on the scalar path (009 runs without a
        HELLO phase, 010 under CSMA); lifting exactly those knobs keeps
        the session plans intact, so the batch side must reproduce the
        scalar traces byte for byte.
        """
        cfg = _corpus_config(name).with_(hello_phase=True, mac="ideal")
        assert batch_eligible(cfg) is None
        _assert_batch_matches_scalar([cfg.with_(seed=s) for s in range(3)])

    def test_lossy_corpus_entries_covered(self):
        """Every iid-lossy corpus entry batches; stateful loss stays gated."""
        seen_iid = False
        for name in CORPUS:
            cfg = _corpus_config(name)
            if cfg.loss_model == "none":
                continue
            if cfg.loss_model == "iid":
                seen_iid = True
                lifted = cfg.with_(hello_phase=True, mac="ideal")
                assert batch_eligible(lifted) is None
                _assert_batch_matches_scalar(
                    [lifted.with_(seed=s) for s in range(2)]
                )
            else:
                # stateful loss chains stay gated even in the kernel's
                # domain — lift the unrelated knobs so the loss gate is
                # the one that fires
                lifted = cfg.with_(hello_phase=True, mac="ideal")
                assert batch_eligible(lifted) == f"loss:{cfg.loss_model}"
        assert seen_iid, "corpus lost its iid-lossy entry"


class TestCacheKeyStability:
    def test_newly_eligible_configs_keep_cache_keys(self):
        """Lifting eligibility must not move cache identities.

        Batch output is bit-identical to scalar for the lifted configs,
        so previously cached results stay valid and ``CACHE_VERSION``
        stays at 2; these pins fail loudly if a future change moves
        either without bumping the version.
        """
        from repro.experiments.runner import CACHE_VERSION, config_hash

        assert CACHE_VERSION == 2
        assert config_hash(ELIGIBLE.with_(loss_model="iid", loss_rate=0.1)) == (
            "0c8a355a39bbe2df544d5a870dc4e976f742903573b172e9a39dbe7eebf70c87"
        )
        assert config_hash(ELIGIBLE.with_(sessions=ramp_plan(ELIGIBLE, 3))) == (
            "2fe401ea892fd1ce2f8d71a65283693c935647eb0ba0a3bed7f3ad533a904557"
        )


# --------------------------------------------------------------------- #
# property: any eligible TrafficPlan batches identically to scalar runs
# --------------------------------------------------------------------- #
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _eligible_plans(draw):
    """Random TrafficPlans inside the batch kernel's domain."""
    n_nodes = ELIGIBLE.n_nodes
    n_sessions = draw(st.integers(min_value=1, max_value=3))
    sources = draw(
        st.lists(
            st.integers(0, n_nodes - 1),
            min_size=n_sessions, max_size=n_sessions, unique=True,
        )
    )
    specs = []
    for i, src in enumerate(sources):
        explicit = draw(st.booleans())
        receivers = None
        group_size = draw(st.integers(2, 5))
        if explicit:
            receivers = tuple(
                draw(
                    st.lists(
                        st.integers(0, n_nodes - 1).filter(lambda r: r != src),
                        min_size=group_size, max_size=group_size, unique=True,
                    )
                )
            )
        specs.append(
            SessionSpec(
                source=src,
                group=i + 1,
                group_size=group_size,
                receivers=receivers,
                start=draw(st.sampled_from((0.0, 0.25, 0.4))),
                rate_pps=draw(st.sampled_from((5.0, 10.0, 20.0))),
                n_packets=draw(st.integers(1, 2)),
            )
        )
    return TrafficPlan(sessions=tuple(specs))


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(plan=_eligible_plans())
def test_random_eligible_plan_batches_identically(plan):
    """Property: an eligible random plan batches as N scalar runs would."""
    cfg = ELIGIBLE.with_(sessions=plan)
    assert batch_eligible(cfg) is None
    _assert_batch_matches_scalar([cfg.with_(seed=s) for s in range(2)])


# --------------------------------------------------------------------- #
# dispatch: run_many(batch=N)
# --------------------------------------------------------------------- #
class TestRunManyBatched:
    def test_matches_serial_run_many(self):
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(6)]
        # a second group (different prefix) plus an ineligible straggler
        cfgs += [ELIGIBLE.with_(seed=s, group_size=5) for s in range(3)]
        cfgs += [ELIGIBLE.with_(seed=1, mac="csma")]
        serial = run_many(cfgs, workers=1)
        batched = run_many(cfgs, workers=1, batch=4)
        assert batched == serial

    def test_batch_size_does_not_change_results(self):
        """Chunk boundaries are an execution detail, not an identity input."""
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(5)]
        assert run_many(cfgs, workers=1, batch=2) == run_many(cfgs, workers=1, batch=500)

    def test_progress_and_on_result_cover_every_run(self):
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(4)]
        seen, ticks = {}, []
        out = run_many(
            cfgs, workers=1, batch=2,
            progress=lambda done, total, r: ticks.append((done, total)),
            on_result=lambda k, r: seen.__setitem__(k, r),
        )
        assert ticks == [(i + 1, 4) for i in range(4)]
        assert [seen[k] for k in range(4)] == out


# --------------------------------------------------------------------- #
# grouping key
# --------------------------------------------------------------------- #
class TestBatchGroupKey:
    def test_masks_seed(self):
        assert batch_group_key(ELIGIBLE.with_(seed=1)) == batch_group_key(
            ELIGIBLE.with_(seed=999)
        )

    def test_prefix_inputs_fragment_the_key(self):
        assert batch_group_key(ELIGIBLE.with_(group_size=5)) != batch_group_key(ELIGIBLE)
        assert batch_group_key(
            ELIGIBLE.with_(hello_warmup=12.0)
        ) != batch_group_key(ELIGIBLE)

    def test_batch_size_not_in_key(self):
        """Regression: batching N seeds must not fork the identity key.

        The key is a pure function of the config (minus seed); nothing
        about how many replicates share a dispatch may leak into it —
        otherwise warm-snapshot reuse and result caching would fragment
        by an execution detail.
        """
        key = batch_group_key(ELIGIBLE)
        assert "batch" not in repr(key).lower()
        # and the key of each member of any batch is that same key
        for n in (2, 17, 500):
            assert all(
                batch_group_key(ELIGIBLE.with_(seed=s)) == key for s in range(min(n, 3))
            )


# --------------------------------------------------------------------- #
# gating and fallback
# --------------------------------------------------------------------- #
class TestFallback:
    def test_eligibility_gates(self):
        assert batch_eligible(ELIGIBLE) is None
        assert batch_eligible(ELIGIBLE.with_(hello_phase=False)) == "no-hello-phase"
        assert batch_eligible(ELIGIBLE.with_(mac="csma")) == "mac:csma"
        # iid loss and multi-session plans ride the kernel since the
        # session-aware lift; only stateful loss chains stay gated
        assert batch_eligible(ELIGIBLE.with_(loss_model="iid", loss_rate=0.1)) is None
        assert (
            batch_eligible(ELIGIBLE.with_(sessions=ramp_plan(ELIGIBLE, 3))) is None
        )
        assert batch_eligible(
            ELIGIBLE.with_(loss_model="gilbert", loss_rate=0.1)
        ) == "loss:gilbert"
        assert batch_eligible(ELIGIBLE.with_(shadowing_sigma_db=4.0)) == "shadowing"
        assert batch_eligible(ELIGIBLE.with_(protocol="gmr")) == "geographic-hellos"
        assert batch_eligible(
            ELIGIBLE.with_(hello_period=0.1)
        ) == "hello-period-too-short"
        assert batch_eligible(
            ELIGIBLE.with_(hello_period=3.4)
        ) == "hello-period-vs-expiry"

    def test_run_batch_rejects_ineligible_and_mixed_groups(self):
        with pytest.raises(ValueError, match="not batch-eligible"):
            run_batch([ELIGIBLE.with_(mac="csma")])
        with pytest.raises(ValueError, match="differing only by seed"):
            run_batch([ELIGIBLE.with_(seed=1), ELIGIBLE.with_(seed=2, group_size=5)])
        assert run_batch([]) == []

    def test_runtime_inexpressible_falls_back_per_seed(self, monkeypatch):
        """A seed the closed form cannot express runs scalar, bit-unchanged."""
        cfgs = [ELIGIBLE.with_(seed=s) for s in range(3)]
        reset_uids()
        scalar = [run_single(c, cache=False, warm_start=False) for c in cfgs]

        real = batch_mod._reconstruct_prefix

        def sabotage(cfg, registry, recorder, plan, s):
            if s == 1:
                raise batch_mod._Inexpressible("test-sabotage")
            return real(cfg, registry, recorder, plan, s)

        monkeypatch.setattr(batch_mod, "_reconstruct_prefix", sabotage)
        reset_uids()
        batched = run_batch(cfgs)
        assert batched == scalar
        assert STATS.batched_runs == 2
        assert STATS.fallback_reasons["test-sabotage"] == 1

    def test_fallback_surfaces_in_obs_registry(self):
        from repro.obs.registry import CounterRegistry

        run_many(
            [ELIGIBLE.with_(seed=0), ELIGIBLE.with_(seed=1, mac="csma")],
            workers=1, batch=4,
        )
        reg = CounterRegistry().refresh()
        assert reg.counters["batch_runs"] == 1
        assert reg.counters["batch_fallback"] == 1
        assert reg.counters["batch_fallback.mac:csma"] == 1
        assert "batch_fallback.mac:csma" in reg.table()


def test_stats_updates_from_many_threads_lose_nothing():
    """Pool campaigns fold their workers' counts into STATS from their own
    threads while in-process batches count into it: no update may be lost."""
    import sys
    import threading

    part = batch_mod.BatchStats(batched_runs=1, batched_sessions=2, fallback_runs=1)
    part.fallback_reasons["x"] = 1
    n = 2000

    def hammer(k):
        for _ in range(n):
            if k % 2:
                STATS.merge(part)
            else:
                STATS.record_batched(2)
                STATS.record_fallback("x")

    threads = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    total = 8 * n
    assert (STATS.batched_runs, STATS.batched_sessions, STATS.fallback_runs) == (
        total, 2 * total, total,
    )
    assert STATS.fallback_reasons["x"] == total
