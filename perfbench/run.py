"""Benchmark of the casimir-sc command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the root of a checkout; it runs the program from ./src. Every
measurement is one fresh `casimir-sc` process, started from this process with
at most one child alive at a time and CASIMIR_SC_THREADS unset. A fresh
process matters: the program's lru caches (gap curve, KK g values) would make
a repeated in-process call nearly free, which no user of the CLI sees.

--trace 0 (end to end). One discarded warm-up child, then for S seconds:
set-up probes (a fresh process that imports casimir_sc and builds the gap
curve), then the workload, repeated while the next repetition is expected
to end inside S (at least once). Prints the median of each metric:
  setup_s      wall time of a set-up probe
  wall_s       wall time of the CLI process, spawn to exit
  first_row_s  spawn until the first result line reaches the pipe
  peak_rss_mb  peak resident memory of the CLI process (ru_maxrss)
Failed checks, nonzero exits and rows the CLI marked FAILED go into the
`failed` count, and failed / attempted is the fail fraction.

--trace 1 (per layer). The workload once untraced and once in-process
under trace_child.py, which wraps each layer's entry points; prints the
per-layer metrics and trace.overhead_s, the traced minus the untraced wall
time. Spans go to .perfbench/trace-<workload>-seed<N>.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). Lines before it give the samples and the
machine and run context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WARMUP_ARGS, WORKLOADS, is_result_line  # noqa: E402

SETUP_PROBES = 3
SETUP_CODE = ("import casimir_sc; "
              "casimir_sc.default_gap(casimir_sc.LEAD.tc).ratio(0.5)")
# A run must end within 180 s; children still alive at this point are killed.
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "first_row_s": "s",
                    "peak_rss_mb": "MB"}


@dataclass
class Child:
    wall_s: float
    first_row_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CASIMIR_SC_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Unbuffered, a row reaches the pipe when the program writes it, as it
    # would reach a terminal.
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(cmd: list, deadline: float) -> Child:
    """Run one child to its end; time it from spawn and read its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    killer.start()
    first = None
    lines = []
    try:
        for raw in proc.stdout:
            line = raw.decode("utf-8", "replace")
            if first is None and is_result_line(line):
                first = time.perf_counter() - t0
            lines.append(line)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    return Child(wall_s=wall, first_row_s=wall if first is None else first,
                 rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode,
                 stdout="".join(lines),
                 stderr=b"".join(err).decode("utf-8", "replace"))


def cli_cmd(args: list) -> list:
    return [sys.executable, "-m", "casimir_sc.cli", *args]


def check_child(child: Child, check, label: str) -> list:
    results = [(f"{label}: exit code 0", child.exit_code == 0)]
    if check is not None:
        results += [(f"{label}: {name}", ok) for name, ok in check(child.stdout)]
    return results


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "CASIMIR_SC_THREADS": "unset in every child",
        "loadavg_1m": os.getloadavg()[0],
    }


def failure_lines(checks: list) -> list:
    failed = [name for name, ok in checks if not ok]
    return ([f"# {'fail_frac':<12} {len(failed) / len(checks):10.4f}     "
             f"({len(failed)} of {len(checks)} checks failed)"]
            + [f"# FAILED CHECK {name}" for name in failed])


def summary(name: str, values: list, unit: str) -> str:
    shown = ", ".join(f"{v:.4g}" for v in values)
    return f"# {name:<12} {statistics.median(values):10.4f} {unit:<3} (n={len(values)}: {shown})"


def bench(workload: str, seed: int, seconds: float, size: str, limit: float):
    """End-to-end run; returns (checks, metrics, report lines)."""
    inv = WORKLOADS[workload](seed, size)
    warm = run_child(cli_cmd(WARMUP_ARGS), limit)
    t_start = time.perf_counter()
    checks = check_child(warm, None, "warm-up")
    setups = []
    for i in range(SETUP_PROBES):
        probe = run_child([sys.executable, "-c", SETUP_CODE], limit)
        checks += check_child(probe, None, f"set-up probe {i}")
        setups.append(probe.wall_s)
    runs = []
    while True:
        child = run_child(cli_cmd(inv.args), limit)
        checks += check_child(child, inv.check, f"run {len(runs)}")
        runs.append(child)
        elapsed = time.perf_counter() - t_start
        if elapsed + child.wall_s > seconds:
            break
    samples = {
        "setup_s": setups,
        "wall_s": [r.wall_s for r in runs],
        "first_row_s": [r.first_row_s for r in runs],
        "peak_rss_mb": [r.rss_mb for r in runs],
    }
    metrics = {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]}
               for k, v in samples.items()}
    lines = [f"# {workload} seed={seed} size={size} args={' '.join(inv.args)}",
             f"# warm-up {warm.wall_s:.3f} s (discarded)"]
    lines += [summary(k, v, END_TO_END_UNITS[k]) for k, v in samples.items()]
    lines += failure_lines(checks)
    lines += [f"# stderr of run {i}: {r.stderr.strip()[-300:]}"
              for i, r in enumerate(runs) if r.exit_code != 0]
    return checks, metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or "_s_" in name:
        return "s"
    if "ratio" in name or "share" in name:
        return "ratio"
    if name.endswith("us_per_term"):
        return "us"
    return "count"


def trace(workload: str, seed: int, size: str, limit: float):
    """Traced run; returns (checks, metrics, report lines)."""
    inv = WORKLOADS[workload](seed, size)
    warm = run_child(cli_cmd(WARMUP_ARGS), limit)
    plain = run_child(cli_cmd(inv.args), limit)
    run_id = f"{workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    spans_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    traced = run_child([sys.executable, str(HERE / "trace_child.py"),
                        str(spans_file), run_id, "--", *inv.args], limit)
    out_lines = traced.stdout.splitlines(keepends=True)
    try:
        report = json.loads(out_lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"exit": None, "spans": 0, "metrics": {}}
    traced.stdout = "".join(out_lines[:-1])
    checks = check_child(warm, None, "warm-up") + check_child(plain, inv.check, "untraced")
    checks += check_child(traced, inv.check, "traced")
    checks.append(("traced: CLI exit code 0", report["exit"] == 0))
    layer = dict(report["metrics"])
    layer["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    lines = [f"# {workload} seed={seed} size={size} traced run {run_id}",
             f"# untraced wall {plain.wall_s:.3f} s, traced wall {traced.wall_s:.3f} s, "
             f"{report['spans']} spans in {spans_file.relative_to(ROOT)}"]
    lines += [f"# {k:<36} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
    lines += failure_lines(checks)
    if traced.exit_code != 0:
        lines.append(f"# stderr of traced run: {traced.stderr.strip()[-300:]}")
    return checks, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "smoke"), default="bench",
                    help="smoke: the smallest inputs, for smoke.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "casimir_sc" / "cli.py").is_file():
        sys.stderr.write(f"no casimir_sc sources under {ROOT / 'src'}; "
                         "run from the root of a casimir-sc checkout\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_checks, all_metrics = [], {}
    print("# context " + json.dumps(context()), flush=True)
    for name in names:
        limit = time.perf_counter() + RUN_LIMIT_S
        if args.trace:
            checks, metrics, lines = trace(name, args.seed, args.size, limit)
        else:
            checks, metrics, lines = bench(name, args.seed, args.seconds,
                                           args.size, limit)
        print("\n".join(lines), flush=True)
        all_checks += checks
        prefix = f"{name}." if args.workload == "all" else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    failed = sum(1 for _, ok in all_checks if not ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(all_checks),
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
