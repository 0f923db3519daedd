"""Tests for report rendering."""

from repro.experiments import figures
from repro.experiments.report import (
    format_series_chart,
    format_series_table,
    format_snapshots,
    format_tuning_surfaces,
)


def _mini_sweep():
    return figures.fig5(runs=1, workers=1, group_sizes=(5, 10), protocols=("odmrp", "mtmrp"))


def test_series_table_contains_labels_and_values():
    out = format_series_table(_mini_sweep(), "data_transmissions", title="T")
    assert out.startswith("T")
    assert "ODMRP" in out and "MTMRP" in out
    assert "5" in out and "10" in out


def test_series_chart_renders():
    out = format_series_chart(_mini_sweep(), "data_transmissions")
    assert "o=MTMRP" in out or "o=ODMRP" in out
    assert "|" in out


def test_tuning_surfaces_render():
    sweep = figures.fig7(runs=1, workers=1, ns=(3.0, 4.0), ws=(0.001, 0.01), protocols=("mtmrp",))
    out = format_tuning_surfaces(sweep)
    assert "MTMRP" in out
    assert "N\\w" in out


def test_snapshots_render_with_captions():
    snaps = figures.fig9(seed=2, protocols=("odmrp",))
    out = format_snapshots(snaps)
    assert "ODMRP:" in out
    assert "transmissions" in out
    assert "S=source" in out
