"""Per-layer split of a cProfile trace of one benchmark trial.

Layers are the program's modules, grouped as below.  A function's self
time goes to its module's layer.  Time in code outside the program
(builtins, numpy, pickle, the standard library) goes to the layers that
called it, in proportion to the self time the pstats callers table
records per caller, following the callers upward until a program frame
is found; left untreated, builtins alone hold a quarter of the self time
and no layer would own it.  Whatever has no program frame above it (the
benchmark's own loop, the service client) is ``other``.

Counts (events, frames, calls) are exact call counts from the same
trace, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, Iterable, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "sim.kernel", "net.channel", "phy", "mac", "net.node", "protocols",
    "sim.trace", "sim.rng", "metrics", "experiments.runner",
    "sim.snapshot", "sim.batch", "other",
)

#: (module prefix, layer); the first match wins
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.kernel", "sim.kernel"),
    ("repro.sim.events", "sim.kernel"),
    ("repro.sim.snapshot", "sim.snapshot"),
    ("repro.sim.batch", "sim.batch"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim.rng", "sim.rng"),
    ("repro.net.channel", "net.channel"),
    ("repro.net.geometry", "net.channel"),
    ("repro.net.loss", "net.channel"),
    ("repro.net.flooding", "protocols"),
    ("repro.net", "net.node"),
    ("repro.phy", "phy"),
    ("repro.mac", "mac"),
    ("repro.protocols", "protocols"),
    ("repro.core", "protocols"),
    ("repro.metrics", "metrics"),
    ("repro.trees", "metrics"),
    ("repro.experiments", "experiments.runner"),
    ("repro.traffic", "experiments.runner"),
)

_MODULE_RE = re.compile(r"[/\\]src[/\\](repro(?:[/\\][A-Za-z0-9_]+)*)\.py$")

Func = Tuple[str, int, str]


def module_of(filename: str) -> Optional[str]:
    """``.../src/repro/sim/kernel.py`` -> ``repro.sim.kernel`` (else None)."""
    m = _MODULE_RE.search(filename)
    if m is None:
        return None
    mod = re.sub(r"[/\\]", ".", m.group(1))
    return mod[: -len(".__init__")] if mod.endswith(".__init__") else mod


def layer_of(func: Func) -> Optional[str]:
    mod = module_of(func[0])
    if mod is None:
        return None
    for prefix, layer in MODULE_LAYERS:
        if mod == prefix or mod.startswith(prefix + "."):
            return layer
    return "other"


def self_fracs(stats: dict) -> Dict[str, float]:
    """Share of total self time per layer (sums to 1 over LAYERS)."""
    memo: Dict[Func, Dict[str, float]] = {}

    def charge(func: Func, path: frozenset) -> Dict[str, float]:
        # memoised on first computation: in a recursive cycle of outside
        # code the edge back into the cycle is dropped
        if func in memo:
            return memo[func]
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        callers = stats[func][4]
        # callers[c] = (nc, cc, tt, ct): weight by the self time spent
        # on behalf of each caller, by call count when that is all zero
        live = {c: v for c, v in callers.items() if c in stats and c not in path}
        weights = {c: v[2] for c, v in live.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(v[0]) for c, v in live.items()}
        total = sum(weights.values())
        if total <= 0.0:
            out = {"other": 1.0}
        else:
            out = {}
            for c, w in weights.items():
                for lay, share in charge(c, path | {func}).items():
                    out[lay] = out.get(lay, 0.0) + share * w / total
        memo[func] = out
        return out

    sums = {layer: 0.0 for layer in LAYERS}
    grand = 0.0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))  # caller chains of outside code
    try:
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            if tt <= 0.0:
                continue
            grand += tt
            for lay, share in charge(func, frozenset()).items():
                sums[lay] += tt * share
    finally:
        sys.setrecursionlimit(limit)
    if grand <= 0.0:
        return {layer: (1.0 if layer == "other" else 0.0) for layer in LAYERS}
    return {layer: sums[layer] / grand for layer in LAYERS}


def _find(stats: dict, module: str, name: str) -> Iterable[Func]:
    return [f for f in stats if f[2] == name and module_of(f[0]) == module]


def _calls(stats: dict, module: str, name: str) -> int:
    return sum(stats[f][1] for f in _find(stats, module, name))


def _cum(stats: dict, module: str, name: str) -> float:
    return sum(stats[f][3] for f in _find(stats, module, name))


def _cum_from(stats: dict, module: str, name: str, caller_module: str, caller: str) -> float:
    """Cumulative time of ``module.name`` when called from ``caller``."""
    total = 0.0
    for f in _find(stats, module, name):
        for c, v in stats[f][4].items():
            if c[2] == caller and module_of(c[0]) == caller_module:
                total += v[3]
    return total


def _events(stats: dict) -> int:
    """Callbacks executed by ``Simulator.run`` (its own helpers excluded)."""
    runs = set(_find(stats, "repro.sim.kernel", "run"))
    n = 0
    for f, entry in stats.items():
        if f[0] == "~" and ("heappop" in f[2] or "gc." in f[2]):
            continue
        for c, v in entry[4].items():
            if c in runs:
                n += v[0]
    return n


def profile_metrics(stats: dict) -> dict:
    """Everything the per-layer report needs from one trace (JSON-ready)."""
    warmup = _cum_from(stats, "repro.sim.kernel", "run", "repro.sim.snapshot", "build_prefix")
    batch_warmup = _cum(stats, "repro.sim.batch", "_apply_warmup")
    return {
        "self_frac": self_fracs(stats),
        "total_s": sum(v[2] for v in stats.values()),
        "events": _events(stats),
        "tx": _calls(stats, "repro.net.channel", "transmit"),
        "rx": _calls(stats, "repro.net.channel", "_finish")
        + _calls(stats, "repro.net.channel", "_finish_direct"),
        "delivered_up": _calls(stats, "repro.net.node", "on_packet_received"),
        "backoff_draws": _calls(stats, "repro.mac.csma", "_backoff_slots"),
        "captures": _calls(stats, "repro.sim.snapshot", "capture"),
        "forks": _calls(stats, "repro.sim.snapshot", "fork"),
        "capture_ms": 1e3 * _cum(stats, "repro.sim.snapshot", "capture"),
        "fork_ms": 1e3 * _cum(stats, "repro.sim.snapshot", "fork"),
        "batch_ms": 1e3 * _cum(stats, "repro.sim.batch", "run_batch"),
        "phase_ms": {
            "build": 1e3 * (
                _cum(stats, "repro.sim.snapshot", "build_prefix") - warmup
                + _cum(stats, "repro.sim.batch", "_reconstruct_prefix") - batch_warmup
            ),
            "warmup": 1e3 * (warmup + batch_warmup),
            "suffix": 1e3 * _cum_from(
                stats, "repro.sim.kernel", "run", "repro.experiments.runner", "_run_suffix"
            ),
            "metrics": 1e3 * sum(
                _cum(stats, mod, name) for mod, name in (
                    ("repro.metrics.collect", "collect_metrics"),
                    ("repro.experiments.runner", "_flooding_metrics"),
                    ("repro.experiments.runner", "_geo_metrics"),
                    ("repro.experiments.runner", "_traffic_run_metrics"),
                )
            ),
        },
    }
