"""Result-store tests: round trips, cache-version invalidation,
concurrent readers and writers, and the storeable gate."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import repro.experiments.runner as runner_mod
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_single
from repro.service import ResultStore

FAST = dict(topology="grid", group_size=10, mac="ideal")


def cfg_for(seed: int) -> SimulationConfig:
    return SimulationConfig(protocol="mtmrp", seed=seed, **FAST)


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(1)
        res = run_single(cfg)
        assert store.put(cfg, res) is True
        assert store.get(cfg) == res
        assert store.path_for(cfg).exists()
        assert len(store) == 1
        assert store.stats() == {"hits": 1, "misses": 0, "stores": 1}

    def test_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(cfg_for(1)) is None
        assert store.stats()["misses"] == 1

    def test_non_flat_results_are_not_storeable(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(2)
        res = run_single(cfg, keep_positions=True)
        assert ResultStore.storeable(res) is False
        assert store.put(cfg, res) is False
        assert len(store) == 0


class TestCacheVersionInvalidation:
    def test_stale_version_entries_become_unreachable(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        cfg = cfg_for(4)
        res = run_single(cfg)
        store.put(cfg, res)
        assert store.get(cfg) == res

        # a version bump re-keys the content hash: the old entry is never
        # served for a new-semantics spec (it recomputes instead)
        monkeypatch.setattr(runner_mod, "CACHE_VERSION", runner_mod.CACHE_VERSION + 1)
        assert store.get(cfg) is None
        assert store.path_for(cfg).exists() is False  # new key, no file

        # rolling back restores addressability of the old entry
        monkeypatch.undo()
        assert store.get(cfg) == res


class TestConcurrency:
    def test_concurrent_readers_see_consistent_results(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(5)
        res = run_single(cfg)
        store.put(cfg, res)
        with ThreadPoolExecutor(max_workers=8) as pool:
            out = list(pool.map(lambda _: store.get(cfg), range(64)))
        assert all(r == res for r in out)
        assert store.stats()["hits"] == 64

    def test_reader_during_rewrites_never_sees_torn_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(6)
        res = run_single(cfg)
        store.put(cfg, res)

        def rewrite():
            for _ in range(50):
                store.put(cfg, res)

        def read():
            seen = []
            for _ in range(200):
                got = store.get(cfg)
                if got is not None:
                    seen.append(got)
            return seen

        with ThreadPoolExecutor(max_workers=4) as pool:
            w = pool.submit(rewrite)
            readers = [pool.submit(read) for _ in range(3)]
            w.result()
            for f in readers:
                # atomic write-then-rename: every observed value is whole
                assert all(g == res for g in f.result())

    def test_writers_of_one_entry_never_collide(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(7)
        res = run_single(cfg)

        def rewrite(_):
            for _ in range(150):
                store.put(cfg, res)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(rewrite, range(4), timeout=60))  # re-raises a failed put
        finally:
            sys.setswitchinterval(interval)
        assert store.stats()["stores"] == 600
        assert store.get(cfg) == res
        # every writer renamed its own temp file away
        assert [p.name for p in tmp_path.iterdir()] == [store.path_for(cfg).name]
