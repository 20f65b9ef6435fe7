#!/usr/bin/env python3
"""Regenerate the three headline data sets into out/.

  out/g_function.csv   BCS correction g(xi) at T/Tc = 0.1 and 0.9
  out/sweep_field.csv  force jump vs applied field (R = 150 um, d = 70 nm)
  out/sweep_gap.csv    force jump vs separation at H = 200 Oe

Plotting is left to external tools; each file is plain CSV with a config
echo in '#' comments.
"""

import pathlib
import sys
import time

# Run from a checkout without installing: import the package from its src/.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from casimir_sc.cli import main  # noqa: E402


def run(label: str, argv: list[str]) -> None:
    t0 = time.time()
    code = main(argv)
    print(f"{label}: exit {code} in {time.time() - t0:.1f} s")
    if code not in (0, 2):
        sys.exit(code)


if __name__ == "__main__":
    out = pathlib.Path("out")
    out.mkdir(exist_ok=True)
    run("g-function", ["g-function", "--output", str(out / "g_function.csv")])
    run("sweep-field", ["sweep-field", "--output", str(out / "sweep_field.csv")])
    run("sweep-gap", ["sweep-gap", "--output", str(out / "sweep_gap.csv")])
