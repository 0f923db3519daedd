"""The asyncio campaign service: submit, dedupe, coalesce, stream, recover.

:class:`CampaignService` is the long-running front end the ROADMAP's
"millions of users" tier asked for: the simulator becomes a backend, the
content-hash cache becomes a shared artifact store, and every client
speaks campaign specs (:mod:`repro.service.spec`) instead of driving
``run_many`` directly.

Request lifecycle::

    submit(payload)
      └─ canonicalize: CampaignSpec → per-replicate config_hash chain
         ├─ every replicate in the ResultStore?  → serve from disk
         │                                          ("cache_hits")
         ├─ identical spec already executing?    → attach to its event
         │                                          stream ("coalesced")
         └─ otherwise                            → new job on the
                                                    scheduler ("executions")

Every subscriber receives an ordered event stream (plain dicts, JSON-
ready): one ``accepted``, one ``progress`` per replicate (with its
position, seed, config hash and whether it was replayed from the store),
and a final ``done`` carrying the flat result records — or ``error`` if
the job itself failed.  A subscriber that cancels mid-stream simply
detaches; the job keeps running and its results still land in the store,
so nothing a client does can lose replicates for the other clients
coalesced onto the same spec.

Backpressure: at most ``max_concurrent`` jobs execute at once (an
``asyncio.Semaphore``); further submissions queue as created-but-waiting
jobs, visible to coalescing the whole time.  Execution happens in
worker threads (``asyncio.to_thread``) so the event loop — and every
subscriber stream — stays responsive while campaigns run.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Dict, List, Optional

from repro.experiments.runner import ResultStore, RunError, config_hash
from repro.service.scheduler import CampaignScheduler
from repro.service.spec import CampaignSpec, SpecError, result_record
from repro.service.stats import STATS

__all__ = ["CampaignService"]


class _Job:
    """One executing campaign and its subscriber fan-out."""

    __slots__ = ("spec", "key", "configs", "hashes", "subscribers", "task", "done_event")

    def __init__(self, spec: CampaignSpec, key: str, configs, hashes: List[str]) -> None:
        self.spec = spec
        self.key = key
        self.configs = configs
        #: each replicate's config_hash, in replicate order
        self.hashes = hashes
        self.subscribers: List[asyncio.Queue] = []
        self.task: Optional[asyncio.Task] = None
        self.done_event: Optional[Dict[str, Any]] = None


class CampaignService:
    """Accepts campaign specs; dedupes, schedules, streams, recovers."""

    def __init__(
        self,
        store: ResultStore,
        scheduler: Optional[CampaignScheduler] = None,
        workers: int = 0,
        warm: bool = True,
        batch: int = 0,
        max_concurrent: int = 4,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.store = store
        self.scheduler = scheduler if scheduler is not None else CampaignScheduler(
            workers=workers, warm=warm, batch=batch
        )
        self.stats = STATS
        self._inflight: Dict[str, _Job] = {}
        self._lock = asyncio.Lock()
        self._sem = asyncio.Semaphore(max_concurrent)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(self, payload: Any) -> AsyncIterator[Dict[str, Any]]:
        """Submit one campaign spec; yields its event stream.

        Raises :class:`SpecError` (before the first event) on a
        malformed payload.
        """
        try:
            spec = CampaignSpec.from_payload(payload)
        except SpecError:
            STATS.inc("spec_errors")
            raise
        STATS.inc("requests")
        # one expansion and one hash per replicate serve the key, the
        # store lookups and the accepted event
        cfgs = spec.configs()
        hashes = [config_hash(cfg) for cfg in cfgs]
        key = spec.key(hashes)
        queue: asyncio.Queue = asyncio.Queue()
        async with self._lock:
            job = self._inflight.get(key)
            if job is not None:
                STATS.inc("coalesced")
                job.subscribers.append(queue)
                accepted = self._accepted(spec, key, cfgs, coalesced=True)
            else:
                stored = self._stored_results(cfgs, hashes)
                if stored is not None:
                    STATS.inc("cache_hits")
                    job = None
                else:
                    STATS.inc("executions")
                    job = _Job(spec, key, cfgs, hashes)
                    job.subscribers.append(queue)
                    self._inflight[key] = job
                    job.task = asyncio.create_task(self._run_job(job))
                    accepted = self._accepted(spec, key, cfgs, coalesced=False)
        if job is None:
            # full store hit: the whole campaign replays from disk
            yield self._accepted(spec, key, cfgs, cached=True)
            yield {
                "event": "done",
                "spec_key": key,
                "cached": True,
                "results": [result_record(r) for r in stored],
                "errors": [],
            }
            return
        yield accepted
        try:
            while True:
                ev = await queue.get()
                yield ev
                if ev["event"] in ("done", "error"):
                    return
        finally:
            # cancellation mid-stream: detach only this subscriber — the
            # job (and every coalesced client) keeps running
            try:
                job.subscribers.remove(queue)
            except ValueError:  # pragma: no cover - already detached
                pass

    async def run_to_completion(self, payload: Any) -> Dict[str, Any]:
        """Convenience: submit and return the final ``done``/``error`` event."""
        last: Dict[str, Any] = {}
        async for ev in self.submit(payload):
            last = ev
        return last

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def service_stats(self) -> Dict[str, Any]:
        """Service, store and warm-snapshot counters in one payload."""
        from repro.experiments.runner import _process_snapshots

        return {
            "service": STATS.snapshot(),
            "inflight": len(self._inflight),
            "store": self.store.stats(),
            "snapshots": _process_snapshots().stats(),
        }

    async def close(self) -> None:
        """Cancel in-flight jobs and wait them out (test/shutdown hygiene)."""
        async with self._lock:
            jobs = list(self._inflight.values())
            self._inflight.clear()
        for job in jobs:
            if job.task is not None:
                job.task.cancel()
        for job in jobs:
            if job.task is not None:
                try:
                    await job.task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _accepted(
        self, spec: CampaignSpec, key: str, cfgs, coalesced: bool = False,
        cached: bool = False,
    ) -> Dict[str, Any]:
        return {
            "event": "accepted",
            "spec_key": key,
            "replicates": len(cfgs),
            "coalesced": coalesced,
            "cached": cached,
            "prefix_signature": spec.prefix_signature(cfgs),
        }

    def _stored_results(self, cfgs, hashes: List[str]) -> Optional[list]:
        """Every replicate from the store, or None on any miss."""
        out = []
        for cfg, digest in zip(cfgs, hashes):
            res = self.store.get(cfg, digest)
            if res is None:
                return None
            out.append(res)
        return out

    async def _run_job(self, job: _Job) -> None:
        loop = asyncio.get_running_loop()
        total = len(job.configs)
        progress = [0]

        def _publish(ev: Dict[str, Any]) -> None:
            for q in list(job.subscribers):
                q.put_nowait(ev)

        def _on_result(i: int, res, cached: bool) -> None:
            # called from the scheduler's executor thread
            progress[0] += 1
            ev = {
                "event": "progress",
                "spec_key": job.key,
                "index": i,
                "done": progress[0],
                "total": total,
                "seed": job.configs[i].seed,
                "config_hash": job.hashes[i],
                "cached": cached,
                "error": str(res) if isinstance(res, RunError) else None,
            }
            loop.call_soon_threadsafe(_publish, ev)

        try:
            async with self._sem:
                results = await asyncio.to_thread(
                    self.scheduler.execute, job.configs, self.store, _on_result
                )
            records = []
            errors = []
            for i, res in enumerate(results):
                if isinstance(res, RunError):
                    errors.append(
                        {
                            "index": i,
                            "config_hash": job.hashes[i],
                            "message": str(res),
                        }
                    )
                else:
                    records.append(result_record(res))
            final = {
                "event": "done",
                "spec_key": job.key,
                "cached": False,
                "results": records,
                "errors": errors,
            }
        except asyncio.CancelledError:
            final = {
                "event": "error",
                "spec_key": job.key,
                "message": "job cancelled at service shutdown",
            }
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced to subscribers
            final = {"event": "error", "spec_key": job.key, "message": repr(exc)}
        finally:
            job.done_event = final
            async with self._lock:
                self._inflight.pop(job.key, None)
            _publish(final)
