"""Replicate scheduling: shard campaigns over workers, survive worker loss.

The scheduler is the service's pluggable execution tier on top of
:func:`~repro.experiments.runner.run_many`.  One instance describes a
*placement policy* — in-process (``workers <= 1``) or the persistent
multi-process pool (``workers > 1``), either one optionally through the
vectorized batch kernel — behind one interface, ``execute``, that a
multi-host shard would also satisfy (ship configs, stream back
index-keyed results).

Recovery model, in order of blast radius:

* **one poisoned replicate** — ``run_many(on_error="collect")`` isolates
  it as a :class:`~repro.experiments.runner.RunError` in its result slot;
  the scheduler retries it up to ``max_attempts`` and then surfaces the
  error (deterministic failures stay failures, they are never dropped).
* **a killed worker process** — the pool raises ``BrokenProcessPool``
  for every in-flight chunk.  The scheduler tears the poisoned pool down
  (:func:`~repro.experiments.runner.shutdown_pool`), re-queues every
  replicate that had not landed, and re-executes on a fresh pool.
  Replicates that completed before the kill were already checkpointed to
  the :class:`~repro.experiments.runner.ResultStore`, so the retry pass
  replays them from disk — zero recomputation, zero loss, and (because
  runs are pure functions of their configs) results byte-identical to an
  uninterrupted campaign.

The index-keyed ordering contract of ``run_many`` — results always in
input order, ``on_result(index, ...)`` reporting run identity, RunErrors
left in-place in collect mode — is what makes re-queueing sound; it is
pinned by ``tests/experiments/test_runner.py::TestCollectOrderingContract``.

In-process execution is serialised by ``run_many`` itself, under the
runner's ``_EXEC_LOCK``: the simulator's packet-uid counter (and the
warm-snapshot forks that rewind it) is process-global state, so two
in-process campaigns in two event-loop executor threads must not
interleave.  ``run_many`` knows when a call runs in-process (``workers
<= 1``, or a plan of one task), so it takes the lock exactly then; pool
campaigns need no lock — concurrent jobs simply share the pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor
from typing import Callable, List, Optional, Sequence, Union

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    ResultStore,
    RunError,
    RunResult,
    pool_broken,
    run_many,
    shutdown_pool,
)
from repro.service.stats import STATS

__all__ = ["CampaignScheduler", "SchedulerError"]

#: Serialises worker-loss recovery across concurrent campaigns.  Every
#: in-flight ``run_many`` on a killed pool raises ``BrokenProcessPool``,
#: so several scheduler threads race into recovery at once; testing the
#: pool for brokenness under this lock makes exactly one of them tear
#: it down while the rest just re-queue onto the replacement.
_RECOVERY_LOCK = threading.Lock()


class SchedulerError(RuntimeError):
    """The scheduler exhausted its attempts against repeated worker loss."""


class CampaignScheduler:
    """Execute a campaign's configs with checkpointing and re-queueing.

    Parameters
    ----------
    workers:
        ``<= 1`` runs in-process; ``> 1`` fans out over the persistent
        process pool.
    warm:
        Fork shared run prefixes from warm snapshots where profitable
        (bit-identical either way; see :mod:`repro.sim.snapshot`).
    batch:
        Route eligible configs through the vectorized many-seed kernel
        (``run_many(batch=N)``), in-process or on the pool.
    chunk_size:
        Pool submission chunk size (None = auto).  The worker-kill tests
        pin it to 1 so a mid-campaign kill always has chunks in flight.
    max_attempts:
        Executions a replicate may consume (first run + retries) before
        its :class:`RunError` is surfaced instead of re-queued.
    kill_hook:
        Test-only fault injection: called as ``kill_hook(done_count)``
        after every landed replicate, from the execution thread.  The
        worker-kill suite uses it to SIGKILL a pool worker mid-campaign.
    """

    def __init__(
        self,
        workers: int = 0,
        warm: Union[bool, str] = True,
        batch: int = 0,
        chunk_size: Optional[int] = None,
        max_attempts: int = 3,
        kill_hook: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.workers = int(workers)
        self.warm = warm
        self.batch = int(batch)
        self.chunk_size = chunk_size
        self.max_attempts = int(max_attempts)
        self.kill_hook = kill_hook

    # ------------------------------------------------------------------ #
    def execute(
        self,
        cfgs: Sequence[SimulationConfig],
        store: ResultStore,
        on_result: Optional[Callable[[int, object, bool], None]] = None,
    ) -> List[Union[RunResult, RunError]]:
        """Run every config; returns results in input order.

        Results already in ``store`` are replayed from it, and every new
        one is written to it as it lands.
        ``on_result(index, result, cached)`` fires once per *final*
        replicate outcome (store replays included, ``cached=True``);
        re-queued attempts do not fire it.  Slots that still fail after
        ``max_attempts`` hold the last :class:`RunError`.
        """
        cfgs = list(cfgs)
        total = len(cfgs)
        results: List[Optional[Union[RunResult, RunError]]] = [None] * total
        done = [0]

        def _land(i: int, res, cached: bool) -> None:
            results[i] = res
            done[0] += 1
            if on_result is not None:
                on_result(i, res, cached)
            if self.kill_hook is not None:
                self.kill_hook(done[0])

        todo = list(range(total))
        attempt = 0
        while todo:
            attempt += 1
            # checkpoint replay: anything a previous attempt (or an
            # earlier campaign) persisted is served from the store
            pending: List[int] = []
            for i in todo:
                cached = store.get(cfgs[i])
                if cached is not None:
                    STATS.inc("replicate_cache_hits")
                    _land(i, cached, cached=True)
                else:
                    pending.append(i)
            if not pending:
                break

            landed: set = set()

            def _cb(j: int, res, _ix=tuple(pending)) -> None:
                i = _ix[j]
                if isinstance(res, RunError):
                    return  # retry/surface decided after the pass
                landed.add(i)
                store.put(cfgs[i], res)
                STATS.inc("replicates_run")
                _land(i, res, cached=False)

            sub = [cfgs[i] for i in pending]
            try:
                out = run_many(
                    sub,
                    workers=self.workers,
                    warm=self.warm,
                    batch=self.batch,
                    chunk_size=self.chunk_size,
                    on_error="collect",
                    on_result=_cb,
                )
            except BrokenExecutor as exc:
                # a worker died: drop the poisoned pool, re-queue every
                # replicate that had not landed, run again on a fresh one.
                # Only a pool that is still broken comes down: a second
                # campaign that caught the same death may have replaced
                # it already, and run_many may have created it lazily
                with _RECOVERY_LOCK:
                    if pool_broken():
                        shutdown_pool()
                        STATS.inc("worker_restarts")
                todo = [i for i in pending if i not in landed]
                STATS.inc("replicates_requeued", len(todo))
                if attempt >= self.max_attempts:
                    raise SchedulerError(
                        f"worker pool died {attempt} times; "
                        f"{len(todo)} replicates still pending"
                    ) from exc
                continue

            failed = [
                (i, res)
                for i, res in zip(pending, out)
                if isinstance(res, RunError)
            ]
            if attempt >= self.max_attempts:
                for i, err in failed:
                    _land(i, err, cached=False)
                todo = []
            else:
                todo = [i for i, _ in failed]
                if todo:
                    STATS.inc("replicates_requeued", len(todo))
        return results  # type: ignore[return-value]
