"""Command-line driver.

Subcommands: sweep-field, sweep-gap, g-function, waveform, point.
Exit codes: 0 all rows converged, 1 configuration, engine or output error, 2
partial results. A sweep, CSV or JSON, writes its head, then each row as it
finishes, flushed, then its tail (the row count), to stdout or --output
PATH, so that SIGKILL loses no finished row. A sweep stopped by SIGINT,
SIGTERM or SIGHUP ends its output and exits 2; stopped by any other
exception, it ends it and re-raises.  run() is the process entry; main()
returns the exit code and may be called in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from typing import NoReturn, Optional, Sequence

# numpy's OpenBLAS starts a busy-waiting worker per CPU that the engine's small
# matrix-vector sums cannot use; unless the user chose a count, the engine
# imports below load numpy with one BLAS thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__  # noqa: E402
from .errors import ConfigError, ConvergenceError, DomainError  # noqa: E402
from .sc_state import ModulationSpec  # noqa: E402
from .sweeps import (CONFIG_KEYS, RunConfig, g_function_table, load_config,  # noqa: E402
                     point_eval, render_head, render_point, render_row, render_tail,
                     sweep_rows, waveform_samples)
# Unused here, but a module attribute that perfbench/trace_child.py wraps by name.
from .sweeps import render_rows  # noqa: E402, F401


def _add_shared(p: argparse.ArgumentParser) -> None:
    """The flags every subcommand honours, g-function included."""
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    p.add_argument("--rrr-pb", type=float, dest="rrr_pb")
    p.add_argument("--output", dest="output", help="output file (default stdout)")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_shared(p)
    p.add_argument("--gap-nm", type=float, dest="gap_nm")
    p.add_argument("--radius-um", type=float, dest="radius_um")
    p.add_argument("--field-oe", type=float, dest="field_oe")
    p.add_argument("--temperature-k", type=float, dest="temperature_k")
    p.add_argument("--rrr-au", type=float, dest="rrr_au")
    p.add_argument("--rel-tol", type=float, dest="rel_tol",
                   help="sets both quadrature and series tolerances")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="format", choices=("csv", "json"))


def _add_sweep_bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", type=float, dest="sweep_start")
    p.add_argument("--stop", type=float, dest="sweep_stop")
    p.add_argument("--points", type=int, dest="sweep_points")
    p.add_argument("--no-full", dest="compute_full", action="store_const", const=False,
                   help="skip the per-phase full free-energy columns")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="casimir-sc",
        description="Casimir force change across the field-driven "
                    "superconducting transition of a lead film",
    )
    ap.add_argument("--version", action="version", version=f"casimir-sc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, x, variable in (("sweep-field", "applied field (Oe)", "field_Oe"),
                              ("sweep-gap", "separation (nm)", "gap_nm")):
        p = sub.add_parser(name, help=f"force jump vs {x}")
        _add_common(p)
        _add_format(p)
        _add_sweep_bounds(p)
        p.set_defaults(sweep_variable=variable)

    p = sub.add_parser("g-function", help="BCS correction g(xi) table")
    _add_shared(p)
    p.add_argument("--t-over-tc", type=float, action="append", dest="t_over_tc",
                   help="reduced temperature (repeatable; default 0.1 and 0.9)")

    p = sub.add_parser("waveform", help="sample one period of the modulated force")
    _add_common(p)
    p.add_argument("--amplitude-oe", type=float, default=20.0)
    p.add_argument("--frequency-hz", type=float, default=300.0)
    p.add_argument("--samples", type=int, default=8)

    p = sub.add_parser("point", help="single (T, H, d) evaluation")
    _add_common(p)
    _add_format(p)
    p.add_argument("--skip-force", action="store_true",
                   help="report only the shifted transition temperature")
    return ap


def _open_output(path: Optional[str]):
    """A context manager for the output: PATH opened for writing in place, or
    stdout, which it leaves open."""
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _emit(text: str, path: Optional[str]) -> None:
    with _open_output(path) as out:
        out.write(text)


def _run_sweep_command(cfg: RunConfig) -> int:
    """Run the sweep, writing its head, then each row as it finishes, then its
    tail, to one stream, flushing after each, so that SIGKILL leaves every
    finished row readable and only the tail missing."""
    pending = sweep_rows(cfg)  # checks the configuration before any file is opened
    rows: list = []
    stopped = False
    with _open_output(cfg.output_path) as out:
        # SIGTERM and SIGHUP stop a sweep as SIGINT does, unless ignored or handled
        replaced = [s for s in (getattr(signal, n, None) for n in ("SIGTERM", "SIGHUP"))
                    if s is not None and signal.getsignal(s) is signal.SIG_DFL]
        for signum in replaced:
            signal.signal(signum, signal.default_int_handler)
        try:
            out.write(render_head(cfg))
            out.flush()
            for row in pending:
                rows.append(row)
                out.write(render_row(cfg, row, first=len(rows) == 1))
                out.flush()
        except KeyboardInterrupt:
            stopped = True
        except OSError:  # the output itself failed: write nothing more into it
            raise
        except Exception:
            if rows:  # a bug or a MemoryError: end the output, then report
                out.write(render_tail(cfg, rows))
                out.flush()
            raise
        finally:
            for signum in replaced:
                signal.signal(signum, signal.SIG_DFL)
        out.write(render_tail(cfg, rows))
        out.flush()
    if stopped:
        sys.stderr.write("interrupted: flushed completed rows\n")
        return 2
    return 0 if all(r.error is None for r in rows) else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # every argument whose dest is a configuration key overrides the file
        cfg = load_config(args.config,
                          {k: v for k, v in vars(args).items() if k in CONFIG_KEYS})
        if cfg.output_path and os.path.isdir(cfg.output_path):  # fail before computing
            raise IsADirectoryError(f"output {cfg.output_path} is a directory")
        if args.command in ("sweep-field", "sweep-gap"):
            return _run_sweep_command(cfg)
        if args.command == "g-function":
            text = g_function_table(cfg, args.t_over_tc or [0.1, 0.9])
        elif args.command == "waveform":
            spec = ModulationSpec(base_temperature=cfg.resolved_temperature(),
                                  h=args.amplitude_oe, frequency=args.frequency_hz)
            text = waveform_samples(cfg, spec, args.samples)
        else:  # point; argparse admits no other command
            text = render_point(cfg, point_eval(cfg, include_force=not args.skip_force))
        _emit(text, cfg.output_path)
        return 0
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except BrokenPipeError:  # the reader has gone; there is no one to tell
        return 1
    except (DomainError, ConvergenceError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> NoReturn:
    """The casimir-sc process: main(), then os._exit once the output is
    flushed, without interpreter teardown.  A flush into a closed pipe exits
    1 quietly; if main() raises or another flush fails, the usual exit
    reports it (a failed write to stdout exits 120)."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(1)
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
