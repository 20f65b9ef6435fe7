"""Record the g-table reference that the g-table workload is checked against.

Runs `casimir-sc g-function` once at t/Tc = 0.1 and at every seeded second
temperature, and writes perfbench/g_reference.json. Run it from the root of
the repository only at a commit whose g(xi) values are trusted:

    python3 perfbench/record_g_reference.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import G_REFERENCE, G_SECOND_T, csv_rows  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    temps = [0.1, *G_SECOND_T]
    args = [sys.executable, "-m", "casimir_sc.cli", "g-function"]
    for t in temps:
        args += ["--t-over-tc", repr(t)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CASIMIR_SC_THREADS", None)
    out = subprocess.run(args, env=env, cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout
    rows = csv_rows(out)
    ref = {"xi_over_2delta0": [r[0] for r in rows],
           "g": {repr(t): [r[1 + j] for r in rows] for j, t in enumerate(temps)}}
    G_REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
