"""One benchmark trial, run in a fresh interpreter by ``bench/run.py``.

A fresh process per trial means every process-wide cache starts empty:
the warm-snapshot cache, the rng state cache, the shared worker pool.
The trial imports the program, runs one warm-up ``run_single`` and
prints ``READY`` (the parent times spawn -> ``READY`` as set-up), then
drives ``--units`` units of its workload in a closed loop and prints one
JSON object as its last stdout line::

    PYTHONPATH=src python3 bench/trial.py --workload fig5_static --seed 0 \
        [--block 0] --units 2 [--profile] [--oracle]

A unit is one call into a public entry point (``figures.fig5``,
``run_many`` + ``aggregate_columnar``) or one request to the ``serve``
CLI over its unix socket; only those calls are timed.  The work is fixed,
not time-bounded, so outputs, counts and memory repeat exactly for the
same inputs.  ``--seed`` and ``--block`` pick the inputs: block ``b`` of
an in-process workload is units ``b * units`` to ``(b + 1) * units - 1``;
for the service it is its own spec catalog and request stream.
``--profile`` wraps exactly the timed calls in cProfile;
``--oracle`` adds spot checks against the scalar ``run_single`` path
after the timed loop.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

#: seeds of one mc_hello_batch unit (one ``run_many(batch=...)`` call)
MC_BATCH = 25

#: Fig. 7's HELLO-phase campaign shape: real CSMA warmup, short phases
FIG7_CONFIG = dict(
    protocol="mtmrp", group_size=20, mac="csma", hello_phase=True,
    hello_warmup=15.0, construction_time=0.5, data_time=0.25,
)
#: the Fig. 5 shape with the HELLO phase on the ideal MAC (batch-eligible)
MC_CONFIG = dict(group_size=20, mac="ideal", hello_phase=True, hello_warmup=90.0)

#: service mix: one request in this many names a spec never seen before
SERVICE_COLD_EVERY = 5
SERVICE_CONNECTIONS = 2
SERVICE_WORKERS = 2
SERVICE_REPLICATES = 4
SERVICE_GROUP_SIZES = (10, 20, 40)
SERVICE_PROTOCOLS = ("mtmrp", "mtmrp_nophs", "dodmrp", "odmrp")
#: spec indices set aside for each input block (a trial creates far fewer)
SERVICE_BLOCK_SPECS = 10_000

#: RunResult fields that identify a run's outcome (present on every tree
#: since the warm-snapshot engine, so digests compare across commits)
RECORD_FIELDS = (
    "protocol", "topology", "group_size", "seed", "backoff_n", "backoff_w",
    "data_transmissions", "tree_transmissions", "extra_nodes",
    "average_relay_profit", "delivered", "delivery_ratio", "covered_receivers",
    "join_query_tx", "join_reply_tx", "hello_tx", "collisions", "energy_joules",
    "construction_latency", "frames_lost",
)


def input_seed(base: int, seed: int, unit: int) -> int:
    """Batch seed of ``unit`` under workload ``seed`` (seed 0, unit 0 -> base)."""
    return base + 1000 * unit + 1_000_000 * seed


def _plain(obj):
    return obj.item() if hasattr(obj, "item") else float(obj)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_plain)


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def record(res) -> dict:
    """One RunResult as a plain dict (JSON round-tripped, like the wire)."""
    rec = {f: getattr(res, f) for f in RECORD_FIELDS}
    rec["transmitters"] = list(res.transmitters)
    rec["receivers"] = list(res.receivers)
    return json.loads(canonical(rec))


def _result_counts(results) -> dict:
    return {
        "runs": len(results),
        "collisions": sum(r.collisions for r in results),
        "ctrl_tx": sum(r.join_query_tx + r.join_reply_tx + r.hello_tx for r in results),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# in-process workloads: one unit = one call into a public entry point,
# returning its RunResults and any summary the call produced
# --------------------------------------------------------------------- #
def _fig5_unit(seed: int, u: int):
    from repro.experiments import figures

    sweep = figures.fig5(runs=1, batch_seed=input_seed(500, seed, u))
    return [r for rs in sweep.runs.values() for r in rs], None


def _fig7_configs(seed: int, u: int):
    from repro.experiments.config import SimulationConfig
    from repro.experiments.figures import TUNING_N, TUNING_W
    from repro.experiments.runner import monte_carlo

    base = SimulationConfig(**FIG7_CONFIG)
    run_seed = monte_carlo(base, 1, input_seed(700, seed, u))[0].seed
    return [
        base.with_(seed=run_seed, backoff_n=n, backoff_w=w)
        for n in TUNING_N
        for w in TUNING_W
    ]


def _fig7_unit(seed: int, u: int):
    from repro.experiments.runner import run_many

    return run_many(_fig7_configs(seed, u), warm=True), None


def _mc_configs(seed: int, u: int):
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import monte_carlo

    return monte_carlo(SimulationConfig(**MC_CONFIG), MC_BATCH, input_seed(900, seed, u))


def _mc_unit(seed: int, u: int):
    from repro.experiments.runner import aggregate_columnar, run_many

    results = run_many(_mc_configs(seed, u), batch=MC_BATCH)
    return results, aggregate_columnar(results)


def _oracle_fig7(seed: int, first: int, unit0: list) -> list:
    """The first 3 forked results equal cold ``run_single(cache=False)``."""
    from repro.experiments.runner import run_single

    cfgs = _fig7_configs(seed, first)[:3]
    return [w == run_single(c, cache=False) for c, w in zip(cfgs, unit0)]


def _oracle_mc(seed: int, first: int, unit0: list) -> list:
    """The first 3 batched seeds equal the scalar ``run_single`` path."""
    from repro.experiments.runner import run_single

    cfgs = _mc_configs(seed, first)[:3]
    return [b == run_single(c, cache=False, warm_start=False) for c, b in zip(cfgs, unit0)]


IN_PROCESS = {
    "fig5_static": (_fig5_unit, None),
    "fig7_hello": (_fig7_unit, _oracle_fig7),
    "mc_hello_batch": (_mc_unit, _oracle_mc),
}


def _in_process(workload: str, seed: int, block: int, units: int, prof, oracle: bool) -> dict:
    unit_fn, oracle_fn = IN_PROCESS[workload]
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import run_single

    if workload == "mc_hello_batch":
        import repro.sim.batch  # noqa: F401 - imported during set-up, not timed
    run_single(SimulationConfig(seed=1))
    print("READY", flush=True)

    first = block * units
    busy = 0.0
    results, digests, errors, unit0 = [], [], [], []
    failed = 0
    for u in range(units):
        if prof is not None:
            prof.enable()
        t0 = time.perf_counter()
        try:
            rs, summary = unit_fn(seed, first + u)
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
            rs = None
            errors.append(f"unit {u}: {exc!r}")
        busy += time.perf_counter() - t0
        if prof is not None:
            prof.disable()
        if rs is None:
            failed += 1
            digests.append("failed")
        else:
            if u == 0:
                unit0 = rs
            results.extend(rs)
            digests.append(digest({"runs": [record(r) for r in rs], "summary": summary}))

    out = {
        "ops": len(results) + failed,
        "failed": failed,
        "wall_s": busy,
        "unit_digests": digests,
        "errors": errors,
        "peak_rss_mb": _peak_rss_mb(),
        "counts": _result_counts(results),
    }
    if workload == "mc_hello_batch":
        from repro.sim.batch import STATS

        out["batch"] = {"batched_runs": STATS.batched_runs, "fallback_runs": STATS.fallback_runs}
    if oracle and oracle_fn is not None:
        out["oracle"] = oracle_fn(seed, first, unit0)
    return out


# --------------------------------------------------------------------- #
# service_mix: the serve CLI over a unix socket, driven closed-loop
# --------------------------------------------------------------------- #
def service_payload(seed: int, block: int, k: int) -> dict:
    """Spec ``k`` of a block's catalog: the 12 (protocol, group size) shapes in turn."""
    return {
        "config": {
            "protocol": SERVICE_PROTOCOLS[k % len(SERVICE_PROTOCOLS)],
            "group_size": SERVICE_GROUP_SIZES[(k // len(SERVICE_PROTOCOLS)) % len(SERVICE_GROUP_SIZES)],
        },
        "replicates": SERVICE_REPLICATES,
        "batch_seed": input_seed(1000, seed, SERVICE_BLOCK_SPECS * block + k),
    }


def service_plan(seed: int, block: int):
    """Endless request stream of a block: the spec index of every request.

    Every SERVICE_COLD_EVERY-th request names a never-seen spec (a store
    miss); the others repeat a spec already created, drawn Zipf(s=1) over
    creation rank.  A fixed miss share, rather than a drawn one, keeps
    seeds from differing in how much work their mix holds.
    """
    rng = random.Random(f"service_mix:{seed}:{block}")
    created = 0
    for i in itertools.count():
        if i % SERVICE_COLD_EVERY == 0:
            created += 1
            yield created - 1
        else:
            weights = [1.0 / (r + 1) for r in range(created)]
            yield rng.choices(range(created), weights=weights)[0]


class _Conn:
    """One JSON-lines connection to the service (the wire format only)."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, path: str) -> "_Conn":
        return cls(*await asyncio.open_unix_connection(path))

    async def send(self, req: dict) -> None:
        self.writer.write((json.dumps(req) + "\n").encode())
        await self.writer.drain()

    async def event(self) -> dict:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def submit(self, payload: dict) -> dict:
        """Submit; returns event times (perf_counter) and the final event."""
        t_send = time.perf_counter()
        await self.send({"op": "submit", "spec": payload})
        times = {"send": t_send, "accepted": None, "progress": []}
        while True:
            ev = await self.event()
            now = time.perf_counter()
            kind = ev.get("event")
            if kind == "accepted":
                times["accepted"] = now
                times["cached"] = bool(ev.get("cached"))
            elif kind == "progress":
                times["progress"].append(now)
            elif kind in ("done", "error"):
                times["done"] = now
                times["final"] = ev
                return times


def _peak_kib(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in KiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list:
    """Child pids of every thread of ``pid`` (the pool forks from a thread)."""
    out = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            pass
    return out


def _stop_server(server: subprocess.Popen, worker_pids: list) -> None:
    """SIGINT (the CLI's clean shutdown joins the pool), else kill all."""
    if server.poll() is not None:
        return
    server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=20)
    except subprocess.TimeoutExpired:
        for pid in worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        server.kill()
        server.wait()


async def _service_async(server, sock: str, seed: int, block: int, units: int, prof) -> dict:
    # set-up: spawn -> first ping answered -> one warm-up request done
    # (the pool is created lazily by the first execution)
    t_deadline = time.perf_counter() + 60.0
    while True:
        try:
            conn = await _Conn.open(sock)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if server.poll() is not None or time.perf_counter() > t_deadline:
                raise RuntimeError("the service never came up") from None
            await asyncio.sleep(0.005)
    await conn.send({"op": "ping"})
    if (await conn.event()).get("event") != "pong":
        raise RuntimeError("service did not answer ping")
    warm = dict(service_payload(seed, block, 0), batch_seed=input_seed(999, seed, 0))
    if (await conn.submit(warm))["final"].get("event") != "done":
        raise RuntimeError("warm-up request failed")
    ready = time.perf_counter()
    await conn.send({"op": "stats"})
    stats0 = (await conn.event())["service"]
    conns = [conn] + [await _Conn.open(sock) for _ in range(SERVICE_CONNECTIONS - 1)]

    plan = service_plan(seed, block)
    completed = {}  # spec index -> event set once its first request is done
    requests = []
    t_start = time.perf_counter()

    def next_request():
        i = len(requests)
        if i >= units:
            return None
        k = next(plan)
        cold = k not in completed
        if cold:
            completed[k] = asyncio.Event()
        req = {"index": i, "spec": k, "cold": cold}
        requests.append(req)
        return req

    async def client(c: _Conn) -> None:
        while True:
            req = next_request()
            if req is None:
                return
            if not req["cold"]:
                # a repeat waits for its spec's first completion, so every
                # repeat is a store read and the counts repeat exactly
                await completed[req["spec"]].wait()
            try:
                req.update(await c.submit(service_payload(seed, block, req["spec"])))
            finally:
                if req["cold"]:
                    completed[req["spec"]].set()

    if prof is not None:
        prof.enable()
    await asyncio.gather(*(client(c) for c in conns))
    if prof is not None:
        prof.disable()
    wall = time.perf_counter() - t_start
    await conn.send({"op": "stats"})
    stats1 = (await conn.event())["service"]
    for c in conns:
        await c.close()
    return {"setup_ready": ready, "requests": requests, "wall_s": wall,
            "stats": {k: stats1[k] - stats0.get(k, 0) for k in stats1}}


def _service(seed: int, block: int, units: int, prof, oracle: bool) -> dict:
    print("READY", flush=True)
    root = Path.cwd()
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="svc-", dir=out_dir))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("REPRO_RESULT_CACHE", None)
    try:
        with open(tmp / "server.log", "wb") as log:
            t0 = time.perf_counter()
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments", "serve", "--serve-unix", "s.sock",
                 "--serve-store", "store", "--workers", str(SERVICE_WORKERS)],
                cwd=tmp, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            try:
                # a relative socket path keeps under the 107-byte AF_UNIX limit
                sock = os.path.relpath(tmp / "s.sock")
                run = asyncio.run(_service_async(server, sock, seed, block, units, prof))
                rss_kib = sum(_peak_kib(p) for p in [server.pid, *_children(server.pid)])
            except BaseException:
                log.flush()
                sys.stderr.write((tmp / "server.log").read_text(errors="replace"))
                raise
            finally:
                _stop_server(server, _children(server.pid))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    reqs = run["requests"]
    digests, errors, failed = [], [], 0
    for r in reqs:
        final = r.get("final", {})
        if final.get("event") != "done" or final.get("errors"):
            failed += 1
            errors.append(f"request {r['index']}: {final.get('message') or final.get('errors')}")
            digests.append("failed")
        else:
            digests.append(digest(final["results"]))
    cold = [r for r in reqs if r["cold"]]
    out = {
        "ops": len(reqs),
        "failed": failed,
        "wall_s": run["wall_s"],
        "setup_s": run["setup_ready"] - t0,
        "unit_digests": digests,
        "errors": errors,
        "peak_rss_mb": rss_kib / 1024.0,
        "counts": {
            "runs": SERVICE_REPLICATES * len(cold),
            "collisions": sum(x["collisions"] for r in cold for x in r["final"].get("results", [])),
            "ctrl_tx": sum(
                x["join_query_tx"] + x["join_reply_tx"] + x["hello_tx"]
                for r in cold for x in r["final"].get("results", [])
            ),
        },
        "service": {"stats": run["stats"], "requests": [
            {k: r.get(k) for k in ("cold", "send", "accepted", "progress", "done", "cached")}
            for r in reqs
        ]},
    }
    if oracle:
        out["oracle"] = _oracle_service(seed, block, cold[:3])
    return out


def _oracle_service(seed: int, block: int, cold: list) -> list:
    """3 ``done`` payloads equal ``run_single`` on the spec's replicates."""
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import monte_carlo, run_single

    ok = []
    for r in cold:
        p = service_payload(seed, block, r["spec"])
        cfgs = monte_carlo(SimulationConfig(**p["config"]), p["replicates"], p["batch_seed"])
        got = r["final"]["results"]
        want = [record(run_single(c, cache=False)) for c in cfgs]
        ok.append(len(got) == len(want) and all(
            canonical(g) == canonical({k: w[k] for k in g}) for g, w in zip(got, want)
        ))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*IN_PROCESS, "service_mix"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--block", type=int, default=0)
    ap.add_argument("--units", type=int, required=True)
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args(argv)
    if args.units < 1 or args.block < 0:
        ap.error("--units must be >= 1 and --block >= 0")

    prof = cProfile.Profile() if args.profile else None
    if args.workload == "service_mix":
        out = _service(args.seed, args.block, args.units, prof, args.oracle)
    else:
        out = _in_process(args.workload, args.seed, args.block, args.units, prof, args.oracle)
    if prof is not None:
        prof.create_stats()
        out["profile"] = layers.profile_metrics(prof.stats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
