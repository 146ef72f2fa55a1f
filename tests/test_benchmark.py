"""benchmarks/run.py end to end: every workload's traced run stays correct."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["stacked", "grid", "deep"])
def test_benchmark_traced_run_is_correct(workload):
    # one untraced pass and one traced replay: every op checked against
    # golden.json, no op failed and the deep recursion probe passed
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"),
         "--workload", workload, "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["metrics"]["probe.failed"]["value"] == 0
