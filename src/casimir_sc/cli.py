"""Command-line driver.

Subcommands: sweep-field, sweep-gap, g-function, waveform, point.
Exit codes: 0 all rows converged, 1 configuration error, 2 partial results.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .errors import ConfigError, ConvergenceError, DomainError
from .sc_state import ModulationSpec
from .sweeps import (RunConfig, g_function_table, load_config, point_eval,
                     render_point, render_rows, run_sweep, waveform_samples)


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
    p.add_argument("--no-full", action="store_true",
                   help="skip the per-phase full free-energy columns")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="casimir-sc",
        description="Casimir force change across the field-driven "
                    "superconducting transition of a lead film",
    )
    ap.add_argument("--version", action="version", version=f"casimir-sc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, x in (("sweep-field", "applied field (Oe)"), ("sweep-gap", "separation (nm)")):
        p = sub.add_parser(name, help=f"force jump vs {x}")
        _add_common(p)
        _add_format(p)
        _add_sweep_bounds(p)

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


_OVERRIDE_KEYS = ("gap_nm", "radius_um", "field_oe", "temperature_k",
                  "rrr_pb", "rrr_au", "rel_tol", "output", "format")


def _config_from_args(args: argparse.Namespace, variable: Optional[str] = None) -> RunConfig:
    overrides = {k: getattr(args, k, None) for k in _OVERRIDE_KEYS}
    for k in ("sweep_start", "sweep_stop", "sweep_points"):
        if getattr(args, k, None) is not None:
            overrides[k] = getattr(args, k)
    if variable is not None:
        overrides["sweep_variable"] = variable
    if getattr(args, "no_full", False):
        overrides["compute_full"] = False
    return load_config(getattr(args, "config", None), overrides)


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_sweep_command(args: argparse.Namespace, variable: str) -> int:
    cfg = _config_from_args(args, variable)
    rows: list = []
    interrupted = False
    try:
        run_sweep(cfg, rows=rows)
    except KeyboardInterrupt:
        interrupted = True
    text = render_rows(cfg, rows)
    _emit(text, cfg.output_path)
    if interrupted:
        sys.stderr.write("interrupted: flushed completed rows\n")
        return 2
    return 0 if all(r.error is None for r in rows) else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep-field":
            return _run_sweep_command(args, "field_Oe")
        if args.command == "sweep-gap":
            return _run_sweep_command(args, "gap_nm")
        if args.command == "g-function":
            cfg = _config_from_args(args)
            ts = args.t_over_tc if args.t_over_tc else [0.1, 0.9]
            _emit(g_function_table(cfg, ts), cfg.output_path)
            return 0
        if args.command == "waveform":
            cfg = _config_from_args(args)
            temperature = cfg.resolved_temperature()
            spec = ModulationSpec(base_temperature=temperature,
                                  h=args.amplitude_oe,
                                  frequency=args.frequency_hz)
            _emit(waveform_samples(cfg, spec, args.samples), cfg.output_path)
            return 0
        if args.command == "point":
            cfg = _config_from_args(args)
            result = point_eval(cfg, include_force=not args.skip_force)
            _emit(render_point(cfg, result), cfg.output_path)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except (DomainError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
