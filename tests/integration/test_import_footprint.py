"""The simulation path imports numpy and the standard library, nothing else.

networkx serves the tree baselines, the check harness, the exact-optimum
oracle and the fault/chaos metrics; scipy serves the exact solver and
``repro.analysis``.  Each loads inside the functions that use it, so a
process that only simulates (a benchmark trial, a CLI figure run, a pool
worker, a service worker) never pays for either: in a process that has
numpy already, networkx alone costs ~0.13 s of start-up and ~17 MB of
RSS.

A fresh interpreter runs the in-process paths of every benchmarked
workload and reports which of the two libraries ended up in
``sys.modules``; the answer must be neither.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: each benchmarked path, in-process: a pool worker's start-up imports,
#: the paper default and a random deployment (scalar runs), the
#: many-seed batch kernel plus ``aggregate_columnar``, the warm-snapshot
#: N x w campaign, and one cold service request; the batch and fork
#: counters prove those two paths engaged
SCRIPT = """
import asyncio, json, sys, tempfile

from repro.experiments import runner
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import aggregate_columnar, monte_carlo, run_many, run_single
from repro.service import CampaignService, ResultStore
from repro.sim import batch

runner._warm_imports()
run_single(SimulationConfig(seed=1))
run_single(SimulationConfig(topology="random", seed=2))

mc = SimulationConfig(group_size=20, mac="ideal", hello_phase=True, hello_warmup=5.0)
aggregate_columnar(run_many(monte_carlo(mc, 4, 900), batch=4, workers=1))
assert batch.STATS.batched_runs == 4, batch.STATS

fig7 = SimulationConfig(
    group_size=20, mac="csma", hello_phase=True, hello_warmup=2.0,
    construction_time=0.5, data_time=0.25, seed=7,
)
run_many([fig7.with_(backoff_n=n, backoff_w=w) for n in (3.0, 4.0) for w in (0.005, 0.01)],
         warm=True, workers=1)
assert runner._process_snapshots().stats()["forks"] == 4, runner._process_snapshots().stats()


async def cold_request(store):
    service = CampaignService(store=ResultStore(store), workers=1)
    payload = {"config": {"group_size": 10}, "replicates": 2, "batch_seed": 11}
    return [ev["event"] async for ev in service.submit(payload)]


with tempfile.TemporaryDirectory() as store:
    assert asyncio.run(cold_request(store))[-1] == "done"

print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] in ("networkx", "scipy"))))
"""


def test_simulation_paths_load_neither_networkx_nor_scipy():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_RESULT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == [], f"{len(loaded)} modules, first {loaded[:5]}"
