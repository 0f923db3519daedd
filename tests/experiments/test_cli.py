"""Tests for the command-line entry point."""

import json

import pytest

from repro.experiments.__main__ import main


def test_fig9_command(capsys):
    rc = main(["fig9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fig. 9" in out
    assert "MTMRP:" in out and "ODMRP:" in out
    assert "transmissions" in out


def test_fig10_with_explicit_seed(capsys):
    rc = main(["fig10", "--seed", "1011"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "MTMRP: 16 transmissions" in out  # the paper-caption round


def test_fig5_tiny(capsys, monkeypatch):
    # shrink the sweep so the CLI test stays fast
    from repro.experiments import figures

    monkeypatch.setattr(figures, "GROUP_SIZES", (10,))
    rc = main(["fig5", "--runs", "1", "--workers", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Normalized transmission overhead" in out
    assert "Average relay profit" in out


def test_unknown_figure_rejected():
    # "bench" included: the benchmark lives in bench/, not in this CLI
    for command in ("fig99", "bench"):
        with pytest.raises(SystemExit):
            main([command])


def test_obs_command(capsys, tmp_path, monkeypatch):
    """The obs CLI runs an observed campaign and writes parseable exports."""
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "obs_out"
    rc = main(["obs", "--runs", "4", "--seed", "9", "--obs-out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Observed campaign" in out
    assert "counters" in out and "protocol-phase spans" in out
    assert "delivery" in out  # sparkline labels
    # every export parses
    from repro.obs import parse_prometheus_text

    prom = parse_prometheus_text((out_dir / "counters.prom").read_text())
    assert prom["repro_tx"] > 0
    for name in ("samples.jsonl", "spans.jsonl"):
        for line in (out_dir / name).read_text().splitlines():
            if line:
                json.loads(line)
    chrome = json.loads((out_dir / "spans_chrome.json").read_text())
    assert chrome["traceEvents"]
    counters = json.loads((out_dir / "counters.json").read_text())
    assert counters["counters"]["delivers"] > 0


def test_obs_excluded_from_all():
    from repro.experiments.__main__ import _NON_FIGURE

    assert "obs" in _NON_FIGURE

