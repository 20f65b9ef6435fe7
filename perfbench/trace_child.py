"""Traced run of one `casimir-sc` invocation, in this process.

    python3 perfbench/trace_child.py SPANS_FILE RUN_ID -- <casimir-sc arguments>

Wraps the layer entry points of casimir_sc as their callers see them, runs
the CLI's main() on the arguments, writes every span (name, start, end,
parent, run id) to SPANS_FILE when the run ends, and prints the CLI's own
output followed by one JSON line of per-layer metrics. Nothing under src/
changes: the wrappers replace module attributes in this process only.

The spans assume one thread, so the caller unsets CASIMIR_SC_THREADS.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, attributes]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter() - self.t0, None, parent, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span[4] = attrs(args, out)
                return out
            finally:
                span[2] = time.perf_counter() - self.t0
                self._stack.pop()

        return traced

    def dump(self, path: Path) -> None:
        spans = [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                  "run": self.run_id, **a}
                 for i, (n, s, e, p, a) in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": spans}),
                        encoding="utf-8")


def install(tracer: Tracer):
    """Wrap each layer's entry points; returns the wrapped cli.main."""
    from casimir_sc import cli, lifshitz, materials, quadrature, sweeps

    w = tracer.wrap
    # The gap curve (247 brentq solves) is built on the first default_gap
    # call; the lru-cached builder is looked up by name inside materials.
    materials._universal_gap_curve = w("materials.gap_curve",
                                       materials._universal_gap_curve)
    lifshitz.g_on_matsubara_grid = w(
        "materials.g_grid", lifshitz.g_on_matsubara_grid,
        lambda a, out: {"entries": int(a[3])})
    sweeps.mattis_bardeen_g = w("materials.kk_g", sweeps.mattis_bardeen_g)
    quadrature.CompositeKronrod.integrate = w(
        "quadrature.composite", quadrature.CompositeKronrod.integrate)
    for module in (lifshitz, materials):
        caller = {"caller": module.__name__.rsplit(".", 1)[-1]}
        module.adaptive_quad = w("quadrature.adaptive", module.adaptive_quad,
                                 lambda a, out, c=caller: c)
    materials.exp_tail_quad = w("quadrature.adaptive", materials.exp_tail_quad,
                                lambda a, out: {"caller": "materials"})
    sweeps.delta_force_pfa = w("lifshitz.diff", sweeps.delta_force_pfa,
                               lambda a, out: {"terms": out.terms_used})
    sweeps.free_energy = w("lifshitz.full", sweeps.free_energy,
                           lambda a, out: {"terms": out.terms_used})
    sweeps._evaluate_row = w("sweeps.row", sweeps._evaluate_row,
                             lambda a, out: {"x": out.x, "failed": out.error is not None})
    cli.render_rows = w("sweeps.render", cli.render_rows)
    return w("cli.main", cli.main)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from the span list; value 0 where a layer did not run.

    The first series or row pays for the one-off gap-curve build nested in
    it. That time is reported once, as materials.gap_curve_s, and left out
    of the lifshitz and row times.
    """
    dur = [e - s for _, s, e, _, _ in spans]
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent is not None:
            child_s[parent] += dur[i]

    def ancestors(i):
        while spans[i][3] is not None:
            i = spans[i][3]
            yield i

    gap_in = defaultdict(float)
    for i in by_name["materials.gap_curve"]:
        for a in ancestors(i):
            gap_in[a] += dur[i]

    def net(i):
        return dur[i] - gap_in[i]

    def total(name):
        return sum(net(i) for i in by_name[name])

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in by_name[name])

    def count(name):
        return len(by_name[name])

    lif = set(by_name["lifshitz.diff"] + by_name["lifshitz.full"])
    terms = attr_sum("lifshitz.diff", "terms") + attr_sum("lifshitz.full", "terms")
    # The highest g index a series used is its last Matsubara index, terms - 1.
    grid_owners = {next((a for a in ancestors(i) if a in lif), None)
                   for i in by_name["materials.g_grid"]} - {None}
    used = sum(spans[i][4]["terms"] - 1 for i in grid_owners)
    entries = attr_sum("materials.g_grid", "entries")
    fallbacks = sum(1 for i in by_name["quadrature.adaptive"]
                    if spans[i][4]["caller"] == "lifshitz")
    lif_s = sum(net(i) for i in lif)
    rows = by_name["sweeps.row"]
    row_s = [net(i) for i in rows]
    share = 0.0
    if rows:
        slowest = max(rows, key=net)
        grid_s = sum(dur[i] for i in by_name["materials.g_grid"]
                     if slowest in ancestors(i))
        share = grid_s / net(slowest)

    return {
        "materials.gap_curve_s": sum(dur[i] for i in by_name["materials.gap_curve"]),
        "materials.g_grid.calls": count("materials.g_grid"),
        "materials.g_grid.s": total("materials.g_grid"),
        "materials.g_grid.entries": entries,
        "materials.g_grid.useful_ratio": used / entries if entries else 0.0,
        "materials.g_grid.share_slowest_row": share,
        "materials.kk_g.calls": count("materials.kk_g"),
        "materials.kk_g.s": total("materials.kk_g"),
        "quadrature.composite.calls": count("quadrature.composite"),
        "quadrature.composite.s": total("quadrature.composite"),
        "quadrature.adaptive.calls": count("quadrature.adaptive"),
        "quadrature.adaptive.s": total("quadrature.adaptive"),
        "quadrature.fallback_ratio": fallbacks / terms if terms else 0.0,
        "lifshitz.diff.calls": count("lifshitz.diff"),
        "lifshitz.diff.s": total("lifshitz.diff"),
        "lifshitz.diff.terms": attr_sum("lifshitz.diff", "terms"),
        "lifshitz.full.calls": count("lifshitz.full"),
        "lifshitz.full.s": total("lifshitz.full"),
        "lifshitz.full.terms": attr_sum("lifshitz.full", "terms"),
        "lifshitz.self_s": sum(dur[i] - child_s[i] for i in lif),
        "lifshitz.us_per_term": 1e6 * lif_s / terms if terms else 0.0,
        "sweeps.rows": len(rows),
        "sweeps.rows_failed": sum(1 for i in rows if spans[i][4]["failed"]),
        "sweeps.row_s_p50": statistics.median(row_s) if row_s else 0.0,
        "sweeps.row_s_max": max(row_s, default=0.0),
        "sweeps.render_s": total("sweeps.render"),
        "cli.main_s": sum(dur[i] for i in by_name["cli.main"]),
    }


def main(argv: list) -> int:
    spans_file, run_id, sep, *cli_args = argv
    if sep != "--":
        sys.stderr.write(__doc__)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(run_id)
    traced_main = install(tracer)
    cpu0 = time.process_time()
    code = traced_main(cli_args)
    cpu_s = time.process_time() - cpu0
    tracer.dump(Path(spans_file))
    metrics = layer_metrics(tracer.spans)
    metrics["cli.cpu_s"] = cpu_s
    sys.stdout.flush()
    print(json.dumps({"exit": code, "spans": len(tracer.spans), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
