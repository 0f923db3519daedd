"""Command-line entry point regenerating the paper's figures.

Examples::

    python -m repro.experiments fig5 --runs 100
    python -m repro.experiments fig7 --runs 20
    python -m repro.experiments fig9
    python -m repro.experiments all --runs 10     # quick pass over everything

Output is plain text (tables + ASCII charts); redirect to a file to keep a
record, e.g. ``python -m repro.experiments fig5 --runs 100 > fig5.txt``.
The paper's claims about these figures are checked by ``tests/claims/``;
speed is measured by the end-to-end benchmark, ``python3 bench/run.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import figures
from repro.experiments.report import (
    PANEL_TITLES,
    format_series_chart,
    format_series_table,
    format_snapshots,
    format_tuning_surfaces,
    save_snapshot_svgs,
    save_sweep_svgs,
    save_tuning_svgs,
)

__all__ = ["main"]


def _emit_sweep(sweep, name: str) -> None:
    for metric, title in PANEL_TITLES.items():
        print(f"\n== {name}: {title} ==")
        print(format_series_table(sweep, metric))
        print()
        print(format_series_chart(sweep, metric))


def _run_fig5(args) -> None:
    sweep = figures.fig5(runs=args.runs, workers=args.workers)
    _emit_sweep(sweep, "Fig. 5 (grid)")
    if args.svg_dir:
        for p in save_sweep_svgs(sweep, args.svg_dir, "fig5"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig6(args) -> None:
    sweep = figures.fig6(runs=args.runs, workers=args.workers)
    _emit_sweep(sweep, "Fig. 6 (random)")
    if args.svg_dir:
        for p in save_sweep_svgs(sweep, args.svg_dir, "fig6"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig7(args) -> None:
    sweep = figures.fig7(runs=args.runs, workers=args.workers)
    print("\n== Fig. 7: tuning N and w (grid, 20 receivers) ==")
    print(format_tuning_surfaces(sweep))
    if args.svg_dir:
        for p in save_tuning_svgs(sweep, args.svg_dir, "fig7"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig8(args) -> None:
    sweep = figures.fig8(runs=args.runs, workers=args.workers)
    print("\n== Fig. 8: tuning N and w (random, 15 receivers) ==")
    print(format_tuning_surfaces(sweep))
    if args.svg_dir:
        for p in save_tuning_svgs(sweep, args.svg_dir, "fig8"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig9(args) -> None:
    snaps = figures.fig9(**({"seed": args.seed} if args.seed is not None else {}))
    print("\n== Fig. 9: routing snapshots (grid, 20 receivers) ==")
    print(format_snapshots(snaps))
    if args.svg_dir:
        for p in save_snapshot_svgs(snaps, args.svg_dir, "fig9"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig10(args) -> None:
    snaps = figures.fig10(**({"seed": args.seed} if args.seed is not None else {}))
    print("\n== Fig. 10: routing snapshots (random, 15 receivers) ==")
    print(format_snapshots(snaps))
    if args.svg_dir:
        for p in save_snapshot_svgs(snaps, args.svg_dir, "fig10"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_ablations(args) -> None:
    from repro.experiments import ablations

    runs = args.runs
    # ablations run per-point campaigns serially unless --workers is given
    workers = 1 if args.workers is None else args.workers
    print("\n== Ablations (DESIGN.md §6) ==")

    cmp = ablations.phs_ablation(runs=runs, workers=workers)
    print(
        f"\npath handover scheme: saves {cmp.mean_diff:.2f} tx "
        f"(95% CI [{cmp.ci_lo:.2f}, {cmp.ci_hi:.2f}], p={cmp.p_value:.2g}, "
        f"n={cmp.n})"
    )

    macs = ablations.mac_ablation(runs=runs, workers=workers)
    for mac, c in macs.items():
        print(f"MTMRP vs ODMRP under {mac:5s} MAC: MTMRP saves {c.mean_diff:.2f} tx "
              f"(win rate {c.win_rate:.0%})")

    lat = ablations.construction_latency_price(runs=runs, workers=workers)
    print("\nconstruction-latency price (grid, 20 receivers):")
    for k, v in lat.items():
        print(f"  {k:18s} latency={v['latency'] * 1e3:7.1f} ms  overhead={v['overhead']:.1f}")

    shadow = ablations.shadowing_ablation(runs=max(runs // 2, 4), workers=workers)
    print("\nshadow fading (the effect Sec. V-A disables):")
    for sigma, v in shadow.items():
        print(f"  sigma={sigma:3.1f} dB  delivery={v['delivery_ratio']['mean']:.3f}  "
              f"overhead={v['data_transmissions']['mean']:.1f}")

    gap = ablations.centralized_gap(rounds=max(runs // 3, 3))
    print("\ncentralized yardsticks (same instances, mean transmissions):")
    print("  " + "  ".join(f"{k}={v:.1f}" for k, v in gap.items()))


def _run_load(args) -> None:
    from repro.experiments.load import load_sweep

    rates = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0)
    out = load_sweep(rates_pps=rates, runs=max(args.runs // 5, 3), workers=args.workers)
    print("\n== CBR load sweep (MTMRP tree, grid, 20 receivers) ==")
    print(f"{'rate':>8} {'delivery':>9} {'goodput':>9} {'tx/pkt':>7} {'collisions':>11}")
    for rate in rates:
        v = out[rate]
        print(f"{rate:>8.0f} {v['delivery_ratio']:>9.3f} {v['goodput_rps']:>9.1f} "
              f"{v['tx_per_packet']:>7.1f} {v['collisions']:>11.0f}")


def _run_faults(args) -> None:
    from repro.experiments.faults import fault_sweep

    runs = max(args.runs // 5, 3)
    print("\n== Fault injection: mid-stream forwarder crash (grid, ideal MAC) ==")
    header = (f"{'protocol':>10} {'delivery':>9} {'pre':>7} {'post':>7} "
              f"{'recovery(s)':>12} {'p95(s)':>8} {'recovered':>10}")
    for loss, label in ((0.0, "loss-free links"), (0.1, "10% i.i.d. frame loss")):
        out = fault_sweep(
            runs=runs,
            loss_model="iid" if loss > 0 else "none",
            loss_rate=loss,
            workers=args.workers,
        )
        print(f"\n-- {label} --")
        print(header)
        for proto, v in out.items():
            print(f"{proto:>10} {v['delivery_ratio']:>9.3f} "
                  f"{v['pre_fault_delivery']:>7.3f} {v['post_fault_delivery']:>7.3f} "
                  f"{v['recovery_latency']:>12.3f} {v['recovery_p95']:>8.3f} "
                  f"{v['recovered_runs']:>10.0%}")


def _run_check(args) -> None:
    from repro.experiments.check import run_check

    run_check(args)


def _run_obs(args) -> None:
    from repro.experiments.obs import run_obs

    run_obs(args)


def _run_chaos(args) -> None:
    from repro.experiments.chaos import run_chaos

    run_chaos(args)


def _run_traffic(args) -> None:
    from repro.experiments.traffic import run_traffic

    run_traffic(args)


def _run_serve(args) -> None:
    from repro.experiments.serve import run_serve

    run_serve(args)


COMMANDS = {
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "ablations": _run_ablations,
    "load": _run_load,
    "faults": _run_faults,
    "check": _run_check,
    "obs": _run_obs,
    "chaos": _run_chaos,
    "traffic": _run_traffic,
    "serve": _run_serve,
}

#: Utility commands excluded from ``all`` (they drive tooling, not the
#: paper's figures).
_NON_FIGURE = {"check", "obs", "chaos", "traffic", "serve"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the MTMRP paper's evaluation figures.",
    )
    parser.add_argument("figure", choices=[*COMMANDS, "all"], help="which figure to run")
    parser.add_argument("--runs", type=int, default=30, help="Monte-Carlo rounds per point (paper: 100)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes; fig5-fig8, load, faults, chaos, check (its "
             "fuzz campaign) and traffic (the ramp or --traffic-campaign) "
             "default to every usable CPU, 1 keeps a campaign serial in this "
             "process; ablations and serve default to 1",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="snapshot seed for fig9/fig10 (default: each figure's representative round)",
    )
    parser.add_argument(
        "--svg-dir", default=None,
        help="also write SVG charts of each figure into this directory",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="store each run in results/cache/ as it finishes and replay "
             "stored runs, so a rerun resumes (sets REPRO_RESULT_CACHE; "
             "delete the directory to invalidate); hooked campaigns "
             "(faults, load, chaos, check) neither read nor write it",
    )
    parser.add_argument(
        "--obs-out", default="results/obs",
        help="obs: directory for telemetry exports (Prometheus/JSONL/Chrome-trace)",
    )
    parser.add_argument(
        "--obs-window", type=float, default=0.25,
        help="obs: sampler window in simulated seconds",
    )
    parser.add_argument(
        "--obs-protocol", default="mtmrp",
        help="obs: protocol to observe (mtmrp, odmrp, dodmrp, maodv, gmr)",
    )
    parser.add_argument(
        "--traffic-sessions", type=int, default=8,
        help="traffic: maximum concurrent session count in the ramp",
    )
    parser.add_argument(
        "--serve-port", type=int, default=7077,
        help="serve: TCP port for the campaign service (0 = ephemeral)",
    )
    parser.add_argument(
        "--serve-unix", default=None, metavar="SOCKET_PATH",
        help="serve: listen on a unix-domain socket instead of TCP",
    )
    parser.add_argument(
        "--serve-store", default="results/service-store",
        help="serve: directory for the content-addressed result store",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="serve: CI smoke campaign — --runs mixed specs over the wire "
             "with one injected worker kill; exits non-zero on digest "
             "drift or lost specs",
    )
    parser.add_argument(
        "--traffic-campaign", action="store_true",
        help="traffic: CI soak mode — --runs checked 4-session runs plus "
             "the flag-off digest guard; exits non-zero on any violation",
    )
    args = parser.parse_args(argv)

    if args.cache:
        os.environ.setdefault("REPRO_RESULT_CACHE", "results/cache")

    t0 = time.time()
    targets = (
        [n for n in COMMANDS if n not in _NON_FIGURE]
        if args.figure == "all"
        else [args.figure]
    )
    for name in targets:
        COMMANDS[name](args)
    # progress chatter belongs on an interactive terminal only; when stderr
    # is redirected to a capture file (e.g. results/fig*.err) stay silent
    if sys.stderr.isatty():
        print(f"\n[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
