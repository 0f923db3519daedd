"""``serve`` CLI: the campaign service as a process, plus its smoke campaign.

Two modes:

* **server** (default) — start the asyncio service on a local TCP port or
  unix socket and run until interrupted.  Clients speak the JSON-lines
  protocol of :mod:`repro.service.wire`::

      PYTHONPATH=src python -m repro.experiments serve --serve-port 7077
      echo '{"op": "ping"}' | nc 127.0.0.1 7077

* **smoke** (``--smoke``) — the self-checking CI campaign: compute serial
  reference results for a mixed spec set, then replay the same specs
  (with duplicates, concurrently, over the wire) against a service
  running on the persistent pool while SIGKILLing one worker
  mid-campaign.  Exits non-zero on digest drift, a lost spec, or a
  recovery that never happened — the ``service-smoke`` CI job's gate.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import tempfile
import threading

__all__ = ["run_serve"]


def _smoke_payloads(n_specs: int):
    """A mixed campaign: multi-replicate and single-run specs, ~1/3 dupes.

    Distinct specs cycle protocol and batch seed; the duplicate tail
    re-submits earlier specs so the smoke run exercises the dedupe and
    coalescing paths, not just cold execution.
    """
    base = {"topology": "grid", "group_size": 10, "mac": "ideal"}
    distinct = []
    n_distinct = max(2, (2 * n_specs) // 3)
    for i in range(n_distinct):
        if i % 3 == 2:
            distinct.append(
                {"config": {**base, "protocol": "odmrp", "seed": 100 + i},
                 "replicates": 1}
            )
        else:
            distinct.append(
                {"config": {**base, "protocol": "mtmrp"},
                 "replicates": 2, "batch_seed": 1000 + i}
            )
    return [distinct[i % n_distinct] for i in range(n_specs)]


def _references(payloads):
    """Serial, service-free ground truth for every distinct spec."""
    from repro.experiments.runner import run_many
    from repro.service.spec import CampaignSpec, result_record

    refs = {}
    for p in payloads:
        spec = CampaignSpec.from_payload(p)
        if spec.key() in refs:
            continue
        out = run_many(spec.configs(), workers=1)
        refs[spec.key()] = [result_record(r) for r in out]
    return refs


async def _smoke_async(payloads, refs, workers: int):
    from repro.experiments.runner import pool_worker_pids
    from repro.service import (
        STATS,
        CampaignScheduler,
        CampaignService,
        ResultStore,
        ServiceClient,
        start_server,
    )
    from repro.service.spec import CampaignSpec

    killed = []
    kill_lock = threading.Lock()

    def kill_one(done_count: int) -> None:
        # exactly one SIGKILL, once a few replicates have landed so the
        # recovery genuinely re-queues work instead of restarting cold
        with kill_lock:
            if killed or done_count < 2:
                return
            pids = pool_worker_pids()
            if pids:
                killed.append(pids[0])
                os.kill(pids[0], signal.SIGKILL)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        store = ResultStore(tmp)
        scheduler = CampaignScheduler(workers=workers, chunk_size=1, kill_hook=kill_one)
        service = CampaignService(store=store, scheduler=scheduler)
        server = await start_server(service)
        port = server.sockets[0].getsockname()[1]

        async def one(payload):
            client = await ServiceClient.connect(port=port)
            try:
                return await client.run_to_completion(payload)
            finally:
                await client.close()

        dones = await asyncio.gather(*(one(p) for p in payloads))
        server.close()
        await server.wait_closed()
        await service.close()

    failures = []
    if len(dones) != len(payloads):
        failures.append(f"lost specs: {len(payloads)} submitted, {len(dones)} finished")
    for payload, done in zip(payloads, dones):
        key = CampaignSpec.from_payload(payload).key()
        if done.get("event") != "done":
            failures.append(f"spec {key[:12]}: terminal event {done.get('event')!r}")
            continue
        if done.get("errors"):
            failures.append(f"spec {key[:12]}: {len(done['errors'])} failed replicates")
        got = json.dumps(done.get("results"), sort_keys=True)
        want = json.dumps(refs[key], sort_keys=True)
        if got != want:
            failures.append(f"spec {key[:12]}: digest drift vs serial reference")
    if not killed:
        failures.append("fault injection never fired (no worker was killed)")
    if STATS.get("worker_restarts") < 1:
        failures.append("worker died but the scheduler never restarted the pool")
    return dones, killed, failures


def run_smoke(n_specs: int = 25, workers: int = 2) -> int:
    """The self-checking campaign behind CI's ``service-smoke`` job."""
    from repro.experiments.runner import shutdown_pool
    from repro.service import STATS

    payloads = _smoke_payloads(n_specs)
    n_distinct = len({json.dumps(p, sort_keys=True) for p in payloads})
    print(f"== service smoke: {n_specs} specs ({n_distinct} distinct), "
          f"workers={workers}, one injected worker kill ==")
    print("[1/2] serial references ...", flush=True)
    refs = _references(payloads)
    print(f"      {len(refs)} distinct campaigns pinned")
    print("[2/2] concurrent service replay with fault injection ...", flush=True)
    try:
        dones, killed, failures = asyncio.run(_smoke_async(payloads, refs, workers))
    finally:
        shutdown_pool()

    snap = STATS.snapshot()
    print(f"      killed pid={killed[0] if killed else None}  "
          f"restarts={snap['worker_restarts']}  requeued={snap['replicates_requeued']}")
    print(f"      requests={snap['requests']}  cache_hits={snap['cache_hits']}  "
          f"coalesced={snap['coalesced']}  executions={snap['executions']}  "
          f"replicates_run={snap['replicates_run']}")
    if failures:
        for f in failures:
            print(f"  FAIL: {f}", file=sys.stderr)
        return 1
    print(f"  OK: {len(dones)} specs, zero lost, results byte-identical "
          f"to serial references")
    return 0


def _serve_forever(host: str, port: int, unix_path, store_dir, workers: int) -> int:
    from repro.experiments.runner import shutdown_pool
    from repro.service import CampaignScheduler, CampaignService, ResultStore, start_server

    async def main() -> None:
        os.makedirs(store_dir, exist_ok=True)
        service = CampaignService(
            store=ResultStore(store_dir),
            scheduler=CampaignScheduler(workers=workers),
        )
        server = await start_server(service, host=host, port=port, unix_path=unix_path)
        if unix_path is not None:
            where = unix_path
        else:
            sock = server.sockets[0].getsockname()
            where = f"{sock[0]}:{sock[1]}"
        print(f"[serve] campaign service on {where} "
              f"(store={store_dir}, workers={workers}); Ctrl-C to stop",
              file=sys.stderr)
        # SIGTERM (kill, Popen.terminate) stops the server as Ctrl-C
        # does, so the pool below is shut down either way
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\n[serve] interrupted", file=sys.stderr)
    except asyncio.CancelledError:
        print("[serve] terminated", file=sys.stderr)
    finally:
        shutdown_pool()
    return 0


def run_serve(args) -> None:
    """Entry point for ``python -m repro.experiments serve``."""
    workers = 1 if args.workers is None else args.workers
    if args.smoke:
        code = run_smoke(n_specs=args.runs, workers=max(workers, 2))
        if code:
            raise SystemExit(code)
        return
    _serve_forever(
        host="127.0.0.1",
        port=args.serve_port,
        unix_path=args.serve_unix,
        store_dir=args.serve_store,
        workers=workers,
    )
