"""The ``obs`` CLI: observed campaign with telemetry report and exports.

::

    python -m repro.experiments obs --runs 10 --seed 7
    python -m repro.experiments obs --obs-protocol odmrp --obs-out results/obs

Runs a small Monte-Carlo campaign with a :class:`repro.obs.Observer`
attached to every run, then prints a three-part report:

1. the counter/gauge table aggregated over the campaign (plus the last
   run's full registry);
2. the last run's protocol-phase span timeline (wall-clock and sim-time
   durations side by side);
3. sparklines of the streamed time-series — delivery ratio, per-window
   transmissions, forwarder count, pending-heap depth — concatenated
   across runs in completion order.

Exports land under ``--obs-out`` (default ``results/obs``):
``counters.prom`` (Prometheus text), ``counters.json``,
``samples.jsonl``, ``spans.jsonl`` and ``spans_chrome.json`` (load the
latter in ``chrome://tracing`` / Perfetto).  The CI ``obs-smoke`` job
runs this command and re-parses every export.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["run_obs"]

#: default export directory (overridable with --obs-out)
DEFAULT_OUT = Path("results/obs")

#: the time-series the report draws as sparklines
_SPARK_FIELDS = (
    ("delivery_ratio", "delivery "),
    ("tx_w", "tx/window"),
    ("forwarders", "forwarder"),
    ("pending", "heap     "),
)


def run_obs(args) -> None:
    """Entry point for ``python -m repro.experiments obs``."""
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import monte_carlo, run_single
    from repro.obs import Observer
    from repro.viz import render_sparkline

    runs = max(args.runs // 3, 2) if args.runs >= 6 else max(args.runs, 2)
    seed = args.seed if args.seed is not None else 20260806
    protocol = args.obs_protocol
    out_dir = Path(args.obs_out)
    window = args.obs_window

    base = SimulationConfig(protocol=protocol, topology="grid", group_size=15)
    cfgs = monte_carlo(base, runs, batch_seed=seed)

    print(f"\n== Observed campaign: {runs} x {protocol} (grid, 15 rx, "
          f"window {window}s) ==")

    # one observer per run (observer state is per-simulator); the report
    # aggregates counters across runs and keeps the last run's observer
    # for the span timeline and the export bundle
    series = {field: [] for field, _label in _SPARK_FIELDS}
    totals: dict = {}
    last_obs = None
    for k, cfg in enumerate(cfgs):
        ob = Observer(window=window)
        result = run_single(cfg, hooks=[ob])
        for field in series:
            series[field].extend(ob.sampler.series(field))
        for name, value in ob.registry.counters.items():
            totals[name] = totals.get(name, 0) + value
        last_obs = ob
        print(f"  run {k}: seed={cfg.seed} delivery={result.delivery_ratio:.2f} "
              f"tx={ob.registry.counters['tx']} "
              f"windows={len(ob.samples)} "
              f"recoveries={len(ob.recovery_spans)}")

    print(f"\n-- counters (summed over {runs} runs) --")
    name_w = max(len(n) for n in totals)
    for name in sorted(totals):
        print(f"  {name:<{name_w}} {totals[name]:>12}")

    print("\n-- last run: counter/gauge registry --")
    for line in last_obs.registry.table().splitlines():
        print(f"  {line}")

    print("\n-- last run: protocol-phase spans --")
    for line in last_obs.spans.timeline().splitlines():
        print(f"  {line}")

    print(f"\n-- streamed series ({sum(len(v) for v in series.values())} points, "
          f"all runs concatenated) --")
    for field, label in _SPARK_FIELDS:
        print(f"  {render_sparkline(series[field], width=64, label=label)}")

    written = last_obs.export(out_dir)
    for name in sorted(written):
        print(f"[export] {written[name]}")
