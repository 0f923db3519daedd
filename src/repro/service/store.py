"""Content-addressed result store shared by every campaign the service runs.

The runner's run-result disk cache (``results/cache`` convention) was a
per-invocation accelerator; the service promotes the same on-disk format
to a *shared artifact store*: every completed replicate is written under
its :func:`~repro.experiments.runner.config_hash` the moment it lands,
and every later campaign — from any client — that expands to the same
config is served from disk instead of recomputed.  Because the hash
folds in ``CACHE_VERSION``, entries written under an older run semantics
become unreachable the moment the version bumps (a stale-version spec
simply recomputes; see ``tests/service/test_store.py``).

The store doubles as the service's *checkpoint journal*: the scheduler
re-checks it before every (re)execution attempt, so replicates finished
before a worker died are replayed from disk, never re-run — that is the
zero-lost-replicates recovery contract.

Writes are atomic (write-then-rename, inherited from the runner cache),
so concurrent readers of one entry — and concurrent writer/reader pairs
across service processes — never observe a torn file.  Eviction is LRU
over a bounded entry count, tracked in-process and seeded from file
mtimes at startup; ``get`` touches the file so recency survives process
restarts.  Only flat metric results are storeable: runs carrying
positions, a structured multi-session traffic payload or hook reports
report ``put(...) == False`` and are recomputed per campaign (in-flight
coalescing still dedupes concurrent identical submissions).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    RunResult,
    _cache_load,
    _cache_store,
    config_hash,
)

__all__ = ["ResultStore"]


class ResultStore:
    """Bounded content-addressed RunResult store (``<hash>.json`` files)."""

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("ResultStore needs room for at least one entry")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self._lock = threading.Lock()
        # in-process LRU order, seeded from disk so a restarted service
        # keeps evicting least-recently-*used*, not least-recently-written
        self._recency: "OrderedDict[str, None]" = OrderedDict()
        entries = sorted(
            self.root.glob("*.json"), key=lambda p: (p.stat().st_mtime, p.name)
        )
        for p in entries:
            self._recency[p.stem] = None

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #
    def path_for(self, cfg: SimulationConfig) -> Path:
        return self.root / f"{config_hash(cfg)}.json"

    @staticmethod
    def storeable(result: RunResult) -> bool:
        """Flat metric results only — mirrors the runner cache's gate."""
        return result.traffic is None and result.positions is None and not result.reports

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def get(self, cfg: SimulationConfig) -> Optional[RunResult]:
        """The stored result for ``cfg``, or None (counts hits/misses)."""
        path = self.path_for(cfg)
        result = _cache_load(path)
        with self._lock:
            if result is None:
                self.misses += 1
                self._recency.pop(path.stem, None)
                return None
            self.hits += 1
            self._recency[path.stem] = None
            self._recency.move_to_end(path.stem)
        try:
            os.utime(path)  # recency survives a service restart
        except OSError:  # pragma: no cover - entry raced away
            pass
        return result

    def put(self, cfg: SimulationConfig, result: RunResult) -> bool:
        """Persist ``result`` under ``cfg``'s content hash; False if the
        result carries non-flat payloads the JSON format cannot hold."""
        if not self.storeable(result):
            return False
        path = self.path_for(cfg)
        _cache_store(path, result)
        with self._lock:
            self.stores += 1
            self._recency[path.stem] = None
            self._recency.move_to_end(path.stem)
            while self.max_entries is not None and len(self._recency) > self.max_entries:
                victim, _ = self._recency.popitem(last=False)
                try:
                    (self.root / f"{victim}.json").unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
                self.evictions += 1
        return True

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json")))

    def clear(self) -> None:
        with self._lock:
            for p in self.root.glob("*.json"):
                try:
                    p.unlink()
                except OSError:  # pragma: no cover
                    pass
            self._recency.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._recency),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
            }
