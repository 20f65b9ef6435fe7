"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size, end to end and traced. Fails unless
each run is correct and prints exactly the metric names and units that
BENCHMARK.json declares, and, in a git checkout, unless `git status` shows no
change under src/ or out/ afterwards. Takes about three minutes on a 2-core
x86 machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_status(paths: list) -> str:
    out = subprocess.run(["git", "status", "--porcelain", "--", *paths],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout


def result_problems(label: str, stdout: str, want: dict) -> list:
    result = json.loads(stdout.splitlines()[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    if got != want:
        problems.append(f"{label}: metrics {sorted(got.items())} "
                        f"differ from BENCHMARK.json {sorted(want.items())}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failed = [line for line in stdout.splitlines() if "FAILED" in line]
        problems.append(f"{label}: {result['failed']} of "
                        f"{result['attempted']} checks failed: {failed}")
    return problems


def main() -> int:
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = declared(kind)
        for name in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            label = f"{name} --trace {trace}"
            known = len(problems)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            else:
                problems += result_problems(label, proc.stdout, want)
            print("ok" if len(problems) == known else "FAIL", label, flush=True)
    if (ROOT / ".git").exists():
        changed = git_status(["src", "out"])
        if changed:
            problems.append(f"git status shows changes under src/ or out/:\n{changed}")
    for p in problems:
        print(p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
