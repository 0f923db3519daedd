"""Checkpointed experiment campaigns.

A *campaign* is a (possibly large) list of :class:`SimulationConfig`
objects whose results are persisted to a JSON-lines file as they finish.
Re-running a campaign skips configurations already present, so a
100-runs-per-point regeneration of Figs. 5-8 can be interrupted and
resumed — the pattern the hpc-parallel guides recommend for long
parameter sweeps.

File format: one JSON object per line with the full config, the run's
metrics (positions/transmitter sets excluded to keep files small) and the
:data:`~repro.experiments.runner.CACHE_VERSION` it was computed under.
A record from another version (or from before records carried one) is
ignored on load, so resuming after a change of run semantics re-runs it
instead of mixing old results into the new campaign.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import CACHE_VERSION, RunError, RunResult, run_many

__all__ = ["run_campaign", "load_campaign", "config_key"]

#: RunResult fields persisted to disk (metrics only)
_RESULT_FIELDS = (
    "protocol",
    "topology",
    "group_size",
    "seed",
    "backoff_n",
    "backoff_w",
    "data_transmissions",
    "tree_transmissions",
    "extra_nodes",
    "average_relay_profit",
    "delivered",
    "delivery_ratio",
    "covered_receivers",
    "join_query_tx",
    "join_reply_tx",
    "hello_tx",
    "collisions",
    "energy_joules",
    "construction_latency",
    "frames_lost",
)


def config_key(cfg: SimulationConfig) -> str:
    """Stable identity of a configuration (JSON of its sorted fields)."""
    d = dataclasses.asdict(cfg)
    return json.dumps(d, sort_keys=True)


def _result_record(cfg: SimulationConfig, res: RunResult) -> Dict:
    rec = {f: getattr(res, f) for f in _RESULT_FIELDS}
    rec["_config"] = dataclasses.asdict(cfg)
    rec["_version"] = CACHE_VERSION
    return rec


def load_campaign(path: str | Path) -> Tuple[Dict[str, Dict], List[Dict]]:
    """Read a campaign file; returns (by-config-key index, record list).

    Records computed under another ``CACHE_VERSION`` are skipped: they are
    neither indexed nor returned, so :func:`run_campaign` re-runs them.
    """
    p = Path(path)
    index: Dict[str, Dict] = {}
    records: List[Dict] = []
    if not p.exists():
        return index, records
    with p.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("_version") != CACHE_VERSION:
                continue
            records.append(rec)
            cfg = SimulationConfig(**rec["_config"])
            index[config_key(cfg)] = rec
    return index, records


def run_campaign(
    configs: Iterable[SimulationConfig],
    path: str | Path,
    progress: Optional[callable] = None,
    workers: int = 1,
    warm: bool = True,
    on_error: str = "raise",
) -> List[Dict]:
    """Run every config not already in the campaign file; returns all records.

    Results are appended (and flushed) one by one as they complete, so an
    interrupted campaign loses at most the in-flight runs.  ``workers``
    fans the todo list over the persistent worker pool; ``warm`` forks
    shared run prefixes where profitable (both via
    :func:`~repro.experiments.runner.run_many` — results and the file
    contents are bit-identical to the serial cold path, only completion
    *order* may differ).  ``on_error="collect"`` skips failed runs
    (nothing is checkpointed for them, so a rerun retries) instead of
    aborting the campaign.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    index, records = load_campaign(p)
    todo = [c for c in configs if config_key(c) not in index]
    done = [0]
    with p.open("a") as fh:

        def checkpoint(i: int, res) -> None:
            done[0] += 1
            if isinstance(res, RunError):
                return  # on_error="collect": leave the run for a rerun
            rec = _result_record(todo[i], res)
            fh.write(json.dumps(rec) + "\n")
            fh.flush()
            records.append(rec)
            index[config_key(todo[i])] = rec
            if progress is not None:
                progress(done[0], len(todo))

        run_many(todo, workers=workers, warm=warm, on_error=on_error,
                 on_result=checkpoint)
    return records
