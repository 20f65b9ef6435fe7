"""The benchmark's own output checks, at its smoke size.

perfbench/run.py checks the output of every run it times against recorded
values (DELTA_F_200, DELTA_F_775, the g table).  Running it here makes a
change that moves one of those values past its check fail the test suite,
not only a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_benchmark_output_checks_pass(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "smoke",
         "--seconds", "1", "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, proc.stdout
