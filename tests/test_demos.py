"""Smoke checks that every narrative demo stays runnable."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_network_basics.py",
        "02_queue_mechanics.py",
        "03_sampling_paths.py",
        "04_exact_laws.py",
        "05_coupling_verification.py",
        "06_stability_scan.py",
    ],
)
def test_demo_runs(name, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out.splitlines()) > 10
