"""End-to-end campaign service tests.

The submit→result round trip is pinned against ``run_single`` digests,
dedupe and coalescing are observed through the service counters (and
their ``obs`` registry mirror), and the worker-kill fault injection
proves the zero-lost-replicates recovery contract: a SIGKILLed pool
worker costs a pool restart and some re-queued replicates, never a
result — and the recovered campaign is byte-identical to an
uninterrupted one.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading

import pytest

from repro.experiments.runner import (
    pool_worker_pids,
    run_many,
    run_single,
    shutdown_pool,
)
from repro.obs.registry import CounterRegistry
from repro.service import (
    STATS,
    CampaignScheduler,
    CampaignService,
    ResultStore,
    SpecError,
)
from repro.service.spec import CampaignSpec, result_record

FAST = {"protocol": "mtmrp", "topology": "grid", "group_size": 10, "mac": "ideal"}


def payload(replicates=3, batch_seed=901, **overrides):
    return {
        "config": {**FAST, **overrides},
        "replicates": replicates,
        "batch_seed": batch_seed,
    }


def make_service(tmp_path, **sched_kwargs) -> CampaignService:
    return CampaignService(
        store=ResultStore(tmp_path / "store"),
        scheduler=CampaignScheduler(**sched_kwargs),
    )


async def collect_events(service, spec_payload):
    return [ev async for ev in service.submit(spec_payload)]


class GatedScheduler(CampaignScheduler):
    """Execution blocks until the gate opens — pins in-flight windows."""

    def __init__(self, gate: threading.Event, **kwargs) -> None:
        super().__init__(**kwargs)
        self.gate = gate

    def execute(self, cfgs, store, on_result=None):
        assert self.gate.wait(timeout=60), "test gate never opened"
        return super().execute(cfgs, store=store, on_result=on_result)


class TestRoundTrip:
    def test_submit_stream_matches_run_single_digests(self, tmp_path):
        service = make_service(tmp_path)
        p = payload()
        events = asyncio.run(collect_events(service, p))

        assert [ev["event"] for ev in events] == (
            ["accepted"] + ["progress"] * 3 + ["done"]
        )
        spec = CampaignSpec.from_payload(p)
        assert events[0]["spec_key"] == spec.key()
        assert events[0]["replicates"] == 3
        assert events[0]["cached"] is False and events[0]["coalesced"] is False

        # every progress event names its replicate by identity
        for ev in events[1:-1]:
            assert ev["total"] == 3 and ev["error"] is None
            assert ev["seed"] == spec.configs()[ev["index"]].seed

        # the service's results are exactly the run_single ground truth
        reference = [result_record(run_single(c)) for c in spec.configs()]
        assert events[-1]["results"] == reference
        assert events[-1]["errors"] == []

    def test_single_replicate_runs_the_config_seed(self, tmp_path):
        service = make_service(tmp_path)
        done = asyncio.run(service.run_to_completion(payload(replicates=1, seed=5)))
        assert done["event"] == "done"
        assert [r["seed"] for r in done["results"]] == [5]

    def test_malformed_specs_are_rejected(self, tmp_path):
        service = make_service(tmp_path)
        for bad in (
            "not a dict",
            {"config": FAST, "replicas": 3},          # unknown spec field
            {"config": {**FAST, "warp": 9}},          # unknown config field
            {"config": {**FAST, "group_size": -1}},   # invalid value
            {"config": FAST, "replicates": 0},
        ):
            with pytest.raises(SpecError):
                asyncio.run(service.run_to_completion(bad))
        assert STATS.get("spec_errors") == 5
        assert STATS.get("requests") == 0


class TestDedupeAndCoalescing:
    def test_resubmitted_spec_served_from_store(self, tmp_path):
        service = make_service(tmp_path)
        p = payload()

        async def twice():
            first = [ev async for ev in service.submit(p)]
            second = [ev async for ev in service.submit(p)]
            return first, second

        first, second = asyncio.run(twice())
        assert [ev["event"] for ev in second] == ["accepted", "done"]
        assert second[0]["cached"] is True and second[-1]["cached"] is True
        assert second[-1]["results"] == first[-1]["results"]
        assert STATS.get("executions") == 1
        assert STATS.get("cache_hits") == 1

        # the obs registry mirrors the service counters process-wide
        reg = CounterRegistry().refresh()
        assert reg.counters["service_cache_hits"] == 1
        assert reg.counters["service_requests"] == 2

    def test_store_hit_expands_once_and_hashes_each_replicate_once(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod
        import repro.service.core as core_mod
        import repro.service.spec as spec_mod

        service = make_service(tmp_path)
        p = payload(replicates=50)
        cfgs = CampaignSpec.from_payload(p).configs()
        res = run_single(cfgs[0], cache=False)
        for cfg in cfgs:
            service.store.put(cfg, res)
        calls = {"monte_carlo": 0, "config_hash": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spec_mod, "monte_carlo", counting("monte_carlo", spec_mod.monte_carlo))
        hashed = counting("config_hash", runner_mod.config_hash)
        for mod in (runner_mod, spec_mod, core_mod):
            monkeypatch.setattr(mod, "config_hash", hashed)
        events = asyncio.run(collect_events(service, p))
        assert [ev["event"] for ev in events] == ["accepted", "done"]
        assert events[0]["cached"] is True and events[0]["replicates"] == 50
        assert len(events[-1]["results"]) == 50
        assert calls == {"monte_carlo": 1, "config_hash": 50}

    def test_concurrent_identical_specs_share_one_execution(self, tmp_path):
        gate = threading.Event()
        service = CampaignService(
            store=ResultStore(tmp_path / "store"),
            scheduler=GatedScheduler(gate),
        )
        p = payload()

        async def main():
            t1 = asyncio.create_task(collect_events(service, p))
            while not service._inflight:
                await asyncio.sleep(0.01)
            t2 = asyncio.create_task(collect_events(service, p))
            while STATS.get("coalesced") < 1:
                await asyncio.sleep(0.01)
            gate.set()
            return await asyncio.wait_for(asyncio.gather(t1, t2), timeout=120)

        first, second = asyncio.run(main())
        assert second[0]["coalesced"] is True
        assert first[-1]["results"] == second[-1]["results"]
        assert STATS.get("executions") == 1
        assert STATS.get("coalesced") == 1
        assert STATS.get("cache_hits") == 0


class TestWorkerKillRecovery:
    def test_killed_worker_loses_no_replicates(self, tmp_path):
        p = payload(replicates=10, batch_seed=77)
        spec = CampaignSpec.from_payload(p)
        reference = [result_record(r) for r in run_many(spec.configs(), workers=1)]

        killed = []
        lock = threading.Lock()

        def kill_one(done_count: int) -> None:
            with lock:
                if killed or done_count < 2:
                    return
                pids = pool_worker_pids()
                if pids:
                    killed.append(pids[0])
                    os.kill(pids[0], signal.SIGKILL)

        service = CampaignService(
            store=ResultStore(tmp_path / "store"),
            scheduler=CampaignScheduler(workers=2, chunk_size=1, kill_hook=kill_one),
        )
        try:
            done = asyncio.run(
                asyncio.wait_for(service.run_to_completion(p), timeout=300)
            )
        finally:
            shutdown_pool()

        assert killed, "fault injection never fired"
        assert done["event"] == "done" and done["errors"] == []
        # zero lost replicates, byte-identical to the uninterrupted run
        assert len(done["results"]) == 10
        assert json.dumps(done["results"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert STATS.get("worker_restarts") >= 1
        assert STATS.get("replicates_requeued") >= 1
        # checkpointed replicates were replayed, not recomputed: total
        # executed plus store replays covers the campaign exactly once
        assert STATS.get("replicates_run") + STATS.get("replicate_cache_hits") >= 10
        reg = CounterRegistry().refresh()
        assert reg.counters["service_worker_restarts"] >= 1

    def test_kill_in_the_campaign_that_creates_the_pool(self, tmp_path):
        """``run_many`` creates the pool lazily, inside the campaign a
        worker dies in: that campaign restarts it once, on its second and
        last attempt, and the next campaign finds a healthy pool."""
        shutdown_pool()
        killed = []

        def kill_one(done_count: int) -> None:
            pids = pool_worker_pids()
            if not killed and pids:
                killed.append(pids[0])
                os.kill(pids[0], signal.SIGKILL)

        first = CampaignSpec.from_payload(payload(replicates=8, batch_seed=78)).configs()
        second = CampaignSpec.from_payload(payload(replicates=4, batch_seed=79)).configs()
        try:
            out = CampaignScheduler(
                workers=2, chunk_size=1, max_attempts=2, kill_hook=kill_one
            ).execute(first, ResultStore(tmp_path / "first"))
            assert killed, "fault injection never fired"
            assert [result_record(r) for r in out] == [
                result_record(r) for r in run_many(first, workers=1)
            ]
            assert STATS.get("worker_restarts") == 1
            requeued = STATS.get("replicates_requeued")
            CampaignScheduler(workers=2, chunk_size=1, max_attempts=1).execute(
                second, ResultStore(tmp_path / "second")
            )
        finally:
            shutdown_pool()
        assert STATS.get("worker_restarts") == 1
        assert STATS.get("replicates_requeued") == requeued
