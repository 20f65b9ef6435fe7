"""Workloads of the casimir-sc benchmark and the checks on their output.

Each workload is one `casimir-sc` invocation. Its arguments are made from
the workload seed, which jitters the interior sweep points and the second
temperature of the g table; the headline rows (200 Oe at 70 nm, 775 Oe)
stay fixed on every seed, so a claim can be rechecked on a fresh seed.

Sizes: "bench" is what the benchmark times; "smoke" is the smallest input
that still carries every check (used by smoke.py).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Headline force jumps in fN at 70 nm, recorded at the benchmark's first
# commit, compared at the relative tolerance of test_criterion_7.
DELTA_F_200 = 18.5804284685916
DELTA_F_775 = 56.7767953681618
REL_HEADLINE = 1e-6
# Full free energies of the 200 Oe, 70 nm point, eV/nm^2, same commit.
F_NORMAL_200 = -3.171284885610125e-06
F_SUPER_200 = -3.1714079335482392e-06
# g(xi) against the recorded table, at the tolerance of criterion 3.
REL_G = 1e-4

G_REFERENCE = Path(__file__).with_name("g_reference.json")
# Second g-table temperature, t/Tc, picked by the seed. The range is narrow
# because the cost of a column grows with t (about 2.9 s at 0.1, 4.8 s at 0.9,
# 5.5 s at 0.95 on a 2-core x86 sandbox), and the seed should move inputs,
# not the amount of work.
G_SECOND_T = (0.88, 0.89, 0.9, 0.91, 0.92)

# Warm-up before timing (about 1 s): it imports every module and shared
# library the CLI loads, so the first timed child is not the one that pays for
# a cold page cache or for compiling bytecode.
WARMUP_ARGS = ["point", "--skip-force"]


@dataclass(frozen=True)
class Invocation:
    """CLI arguments of one run and the checks that apply to its output."""

    args: list
    check: Callable[[str], list]   # stdout -> [(check name, passed)]


def _floats_ok(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def csv_rows(stdout: str) -> list:
    """Data rows, as lists of floats, of a CSV the CLI wrote."""
    rows = []
    for line in stdout.splitlines():
        if line and not line.startswith("#"):
            try:
                rows.append([float(f) for f in line.split(",")])
            except ValueError:
                continue   # the column header
    return rows


def is_result_line(line: str) -> bool:
    """A line carrying a result, as opposed to a header or comment."""
    if not line.strip() or line.startswith("#"):
        return False
    if "=" in line:                           # `point` prints key=value lines
        return True
    try:
        float(line.split(",", 1)[0])
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# point-200


def _check_point(stdout: str) -> list:
    values = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            values[key.strip()] = val.strip()

    def near(key, want, rel):
        try:
            return _floats_ok(float(values[key]), want, rel)
        except (KeyError, ValueError):
            return False

    return [
        ("delta_f_fN at 200 Oe, 70 nm", near("delta_f_fN", DELTA_F_200, REL_HEADLINE)),
        ("f_normal_eV_nm2", near("f_normal_eV_nm2", F_NORMAL_200, REL_HEADLINE)),
        ("f_super_eV_nm2", near("f_super_eV_nm2", F_SUPER_200, REL_HEADLINE)),
    ]


def point_200(seed: int, size: str) -> Invocation:
    # The defaults are the headline point; there is nothing to jitter.
    return Invocation(["point"], _check_point)


# ---------------------------------------------------------------------------
# sweeps


def _sweep_checks(stdout: str, points: int, headline_x: float,
                  headline: float, increasing: bool) -> list:
    rows = csv_rows(stdout)
    # A row that failed is written as a comment, so it leaves a data row short.
    checks = [(f"row {i} converged", i < len(rows)) for i in range(points)]
    at = [r[2] for r in rows if r[0] == headline_x]
    checks.append((f"delta_f_fN at x={headline_x:g}",
                   len(at) == 1 and _floats_ok(at[0], headline, REL_HEADLINE)))
    df = [r[2] for r in rows]
    pairs = list(zip(df, df[1:]))
    monotone = all(b > a for a, b in pairs) if increasing else all(b < a for a, b in pairs)
    checks.append(("increasing in field" if increasing else "decreasing in gap",
                   len(rows) == points and monotone))
    return checks


def field_sweep(seed: int, size: str) -> Invocation:
    # T = T'c(H) changes on every row. The 775 Oe row needs about 18,000
    # Matsubara terms and is most of the run; the other row is jittered in
    # [25, 45] Oe in steps of 1/8 Oe. Two rows are the CLI's minimum, which
    # keeps a run short enough to be timed more than once.
    start = 25.0 + random.Random(seed).randrange(161) / 8.0
    points = 2
    args = ["sweep-field", "--no-full", "--start", repr(start),
            "--stop", "775", "--points", str(points)]
    return Invocation(args, lambda out: _sweep_checks(
        out, points, 775.0, DELTA_F_775, increasing=True))


def gap_sweep(seed: int, size: str) -> Invocation:
    # Every row shares T'c(200 Oe), so the rows repeat the g-grid build. The
    # spacing is a multiple of 1/8 nm in [28, 32], so start + spacing is
    # exactly 70 nm in binary and the headline row is always on the grid.
    step = 28.0 + random.Random(seed).randrange(33) / 8.0
    start = 70.0 - step
    points = 2 if size == "smoke" else 6
    stop = start + (points - 1) * step
    args = ["sweep-gap", "--no-full", "--field-oe", "200",
            "--start", repr(start), "--stop", repr(stop),
            "--points", str(points)]
    return Invocation(args, lambda out: _sweep_checks(
        out, points, 70.0, DELTA_F_200, increasing=False))


# ---------------------------------------------------------------------------
# g-table


def load_g_reference() -> dict:
    with open(G_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _check_g(stdout: str, temps: list) -> list:
    ref = load_g_reference()
    xi = ref["xi_over_2delta0"]
    cols = [ref["g"][repr(t)] for t in temps]
    rows = csv_rows(stdout)
    checks = []
    for i, x in enumerate(xi):
        row = rows[i] if i < len(rows) else []
        ok = (len(row) == 1 + len(temps) and row[0] == x
              and all(_floats_ok(row[1 + j], col[i], REL_G) for j, col in enumerate(cols)))
        checks.append((f"g row xi/2Delta0={x:g}", ok))
    checks.append(("row count", len(rows) == len(xi)))
    return checks


def g_table(seed: int, size: str) -> Invocation:
    # The CLI has no flag for the xi grid (81 points, 1e-2..1e2), so the seed
    # jitters the second temperature instead, among those with a recorded
    # reference. The smoke size keeps only the fixed t = 0.1 column.
    temps = [0.1] if size == "smoke" else [0.1, random.Random(seed).choice(G_SECOND_T)]
    args = ["g-function"]
    for t in temps:
        args += ["--t-over-tc", repr(t)]
    return Invocation(args, lambda out: _check_g(out, temps))


WORKLOADS = {
    "point-200": point_200,
    "field-sweep": field_sweep,
    "gap-sweep": gap_sweep,
    "g-table": g_table,
}
