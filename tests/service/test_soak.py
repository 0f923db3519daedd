"""Concurrency soak: N async clients, Hypothesis-generated specs,
duplicate submissions, cancellation mid-stream, store consistency.

Spec payloads are derived from :func:`repro.check.fuzz.scenario_strategy`
so the service sees the same structured parameter space the checked-run
fuzzer explores (protocol × topology × MAC × loss model × sessions),
not just the happy-path grid config.
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.fuzz import scenario_strategy
from repro.experiments.runner import run_many
from repro.service import (
    STATS,
    CampaignScheduler,
    CampaignService,
    ResultStore,
    ServiceClient,
    start_server,
)
from repro.service.spec import CampaignSpec, result_record

FAST = {"protocol": "mtmrp", "topology": "grid", "group_size": 10, "mac": "ideal"}


def scenario_payload(scenario) -> dict:
    """One service spec from a fuzzer scenario's config."""
    return {"config": dataclasses.asdict(scenario.config), "replicates": 1}


class GatedScheduler(CampaignScheduler):
    def __init__(self, gate: threading.Event, **kwargs) -> None:
        super().__init__(**kwargs)
        self.gate = gate

    def execute(self, cfgs, store=None, on_result=None):
        assert self.gate.wait(timeout=60), "test gate never opened"
        return super().execute(cfgs, store=store, on_result=on_result)


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    scenarios=st.lists(
        scenario_strategy(),
        min_size=2,
        max_size=4,
        unique_by=lambda s: s.config.seed,
    )
)
def test_concurrent_fuzzed_clients_agree_with_serial_truth(scenarios):
    """Every concurrent wire client gets exactly the serial ground truth,
    duplicates dedupe onto shared executions, and the store holds only
    consistent entries."""
    STATS.reset()
    payloads = [scenario_payload(s) for s in scenarios]
    payloads = payloads + payloads[: len(payloads) // 2 + 1]  # duplicates

    refs = {}
    for p in payloads:
        spec = CampaignSpec.from_payload(p)
        if spec.key() not in refs:
            refs[spec.key()] = [
                result_record(r) for r in run_many(spec.configs(), workers=1)
            ]

    async def main():
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            service = CampaignService(
                store=ResultStore(tmp), scheduler=CampaignScheduler()
            )
            async with await start_server(service) as server:
                port = server.sockets[0].getsockname()[1]

                async def one(p):
                    client = await ServiceClient.connect(port=port)
                    try:
                        return await client.run_to_completion(p)
                    finally:
                        await client.close()

                return await asyncio.wait_for(
                    asyncio.gather(*(one(p) for p in payloads)), timeout=300
                )

    dones = asyncio.run(main())
    assert len(dones) == len(payloads)
    for p, done in zip(payloads, dones):
        key = CampaignSpec.from_payload(p).key()
        assert done["event"] == "done", done
        assert done.get("errors") == []
        assert done["results"] == refs[key]
    # duplicates never re-executed: one execution per distinct key at most
    assert STATS.get("executions") <= len(refs)
    assert STATS.get("requests") == len(payloads)


def test_cancellation_mid_stream_keeps_the_job_alive():
    """A client hanging up after ``accepted`` detaches its subscriber
    only; a coalesced client still receives full results."""
    STATS.reset()

    async def main():
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            gate = threading.Event()
            service = CampaignService(
                store=ResultStore(tmp), scheduler=GatedScheduler(gate)
            )
            p = {"config": FAST, "replicates": 2, "batch_seed": 31}

            agen = service.submit(p)
            first = await agen.__anext__()
            assert first["event"] == "accepted"
            follower = asyncio.create_task(service.run_to_completion(p))
            while STATS.get("coalesced") < 1:
                await asyncio.sleep(0.01)
            await agen.aclose()  # cancel mid-stream
            gate.set()
            done = await asyncio.wait_for(follower, timeout=120)
            assert done["event"] == "done" and len(done["results"]) == 2
            assert STATS.get("executions") == 1

    asyncio.run(main())


def test_many_clients_few_specs_no_deadlock():
    """Eight concurrent wire clients over two distinct specs: the serial
    in-process scheduler (with its process-global execution lock) must
    drain the whole queue without deadlock, and every duplicate must ride
    a shared execution or the store."""
    STATS.reset()
    distinct = [
        {"config": {**FAST, "seed": 11}, "replicates": 2, "batch_seed": 41},
        {"config": {**FAST, "protocol": "odmrp", "seed": 12}, "replicates": 1},
    ]
    payloads = [distinct[i % 2] for i in range(8)]

    async def main():
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            service = CampaignService(
                store=ResultStore(tmp), scheduler=CampaignScheduler()
            )
            async with await start_server(service) as server:
                port = server.sockets[0].getsockname()[1]

                async def one(p):
                    client = await ServiceClient.connect(port=port)
                    try:
                        return await client.run_to_completion(p)
                    finally:
                        await client.close()

                return await asyncio.wait_for(
                    asyncio.gather(*(one(p) for p in payloads)), timeout=120
                )

    dones = asyncio.run(main())
    assert [d["event"] for d in dones] == ["done"] * 8
    by_key = {}
    for p, d in zip(payloads, dones):
        key = CampaignSpec.from_payload(p).key()
        by_key.setdefault(key, []).append(d["results"])
    for results in by_key.values():
        assert all(r == results[0] for r in results)
    assert STATS.get("executions") <= 2
    assert STATS.get("cache_hits") + STATS.get("coalesced") >= 6
