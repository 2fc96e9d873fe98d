"""Smoke tests for the scripts in scripts/: each runs on a small input."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, header",
    [
        (
            ["attack_sweep.py", "--blocks", "300", "--fractions", "0,1"],
            "p sifted qber i_ab i_ea i_eb ck_rate key reason",
        ),
        (
            ["randomness_savings.py", "--blocks", "5"],
            "n raw qubits alice block alice/qubit ratio exact bob ratio ledger/qubit",
        ),
        (
            ["leak_rank_scaling.py", "--sifted", "2000"],
            "sifted key session_s pipeline_s leak_rank_s peak_mb reason",
        ),
    ],
)
def test_script_runs(argv, header):
    script, *args = argv
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].split() == header.split()


def test_cascade_schedule_efficiencies():
    # the full script takes no arguments and runs for minutes
    spec = importlib.util.spec_from_file_location("cascade_schedule", SCRIPTS / "cascade_schedule.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    values, failed = module.efficiencies(0.05, 600, 2, 1.5)
    assert len(values) == 2
    assert all(math.isfinite(f) and f > 0 for f in values)
    assert 0 <= failed <= 2
