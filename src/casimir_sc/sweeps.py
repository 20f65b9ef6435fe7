"""Run configuration, parameter sweeps, and machine-readable output.

Sweeps evaluate the force jump row by row at T = shifted_tc(H), write a
deterministic CSV (or JSON) with a config-echo header, and keep going past
rows that fail to converge, marking them in the file.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .constants import CONST, CONSTANTS_VERSION
from .errors import ConfigError, ConvergenceError, DomainError
from .lifshitz import (EngineConfig, delta_force_pfa, free_energy,
                       free_energy_difference)
from .materials import GOLD, LEAD, MaterialParams, default_gap, mattis_bardeen_g
from .sc_state import (ModulationSpec, Phase, field_waveform, force_signal,
                       shifted_tc)

SWEEP_VARIABLES = ("field_Oe", "gap_nm", "temperature_K")
OUTPUT_FORMATS = ("csv", "json")

CSV_COLUMNS = "x,t_prime_c_K,delta_f_fN,f_normal_eV_nm2,f_super_eV_nm2,terms_used,pfa_bound"


@dataclass(frozen=True)
class SweepSpec:
    variable: str = "field_Oe"
    start: float = 25.0
    stop: float = 775.0
    points: int = 31


@dataclass(frozen=True)
class RunConfig:
    material_a: MaterialParams = GOLD
    material_b: MaterialParams = LEAD
    radius_um: float = 150.0
    gap_nm: float = 70.0
    field_oe: float = 200.0
    temperature_k: Optional[float] = None
    sweep: SweepSpec = field(default_factory=SweepSpec)
    engine: EngineConfig = field(default_factory=EngineConfig)
    output_path: Optional[str] = None
    output_format: str = "csv"
    compute_full: bool = True

    def resolved_temperature(self) -> float:
        if self.temperature_k is not None:
            return self.temperature_k
        return shifted_tc(self.material_b, self.field_oe)


@dataclass(frozen=True)
class SweepRow:
    x: float
    t_prime_c_k: float
    delta_f_fn: float
    f_normal_ev_nm2: float
    f_super_ev_nm2: float
    terms_used: int
    pfa_bound: float
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# configuration loading


_FILE_KEYS = {
    "radius_um", "gap_nm", "field_oe", "temperature_k",
    "rrr_au", "rrr_pb",
    "rel_tol", "rel_tol_quadrature", "rel_tol_series",
    "matsubara_cap_full", "matsubara_cap_diff",
    "sweep_variable", "sweep_start", "sweep_stop", "sweep_points",
    "output", "format", "compute_full",
}

_FLOAT_KEYS = {
    "radius_um", "gap_nm", "field_oe", "temperature_k", "rrr_au", "rrr_pb",
    "rel_tol", "rel_tol_quadrature", "rel_tol_series",
    "matsubara_cap_full", "matsubara_cap_diff", "sweep_start", "sweep_stop",
}


def _parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys rejected."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} needs a number, got {val!r}") from exc
        elif key == "sweep_points":
            try:
                values[key] = int(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: sweep_points needs an integer") from exc
        elif key == "compute_full":
            if val.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"{path}:{lineno}: compute_full needs true/false")
            values[key] = val.lower() in ("true", "1")
        else:
            values[key] = val
    return values


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Built-in defaults, then the config file, then explicit overrides."""
    merged: dict = {}
    if path is not None:
        merged.update(_parse_config_file(path))
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in _FILE_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = val

    mat_a = GOLD
    mat_b = LEAD
    if "rrr_au" in merged:
        _check_rrr("rrr_au", merged["rrr_au"])
        mat_a = replace(mat_a, rrr=float(merged["rrr_au"]))
    if "rrr_pb" in merged:
        _check_rrr("rrr_pb", merged["rrr_pb"])
        mat_b = replace(mat_b, rrr=float(merged["rrr_pb"]))

    engine_kwargs = {}
    if "rel_tol" in merged:
        engine_kwargs["rel_tol_quadrature"] = float(merged["rel_tol"])
        engine_kwargs["rel_tol_series"] = float(merged["rel_tol"])
    for name in ("rel_tol_quadrature", "rel_tol_series",
                 "matsubara_cap_full", "matsubara_cap_diff"):
        if name in merged:
            engine_kwargs[name] = float(merged[name])
    try:
        engine = EngineConfig(**engine_kwargs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    sweep_kwargs = {}
    if "sweep_variable" in merged:
        sweep_kwargs["variable"] = str(merged["sweep_variable"])
    if "sweep_start" in merged:
        sweep_kwargs["start"] = float(merged["sweep_start"])
    if "sweep_stop" in merged:
        sweep_kwargs["stop"] = float(merged["sweep_stop"])
    if "sweep_points" in merged:
        sweep_kwargs["points"] = int(merged["sweep_points"])
    sweep = _default_sweep(sweep_kwargs.get("variable", "field_Oe"))
    sweep = replace(sweep, **sweep_kwargs)

    cfg = RunConfig(
        material_a=mat_a,
        material_b=mat_b,
        radius_um=float(merged.get("radius_um", 150.0)),
        gap_nm=float(merged.get("gap_nm", 70.0)),
        field_oe=float(merged.get("field_oe", 200.0)),
        temperature_k=(float(merged["temperature_k"]) if "temperature_k" in merged else None),
        sweep=sweep,
        engine=engine,
        output_path=merged.get("output"),
        output_format=str(merged.get("format", "csv")),
        compute_full=bool(merged.get("compute_full", True)),
    )
    validate_config(cfg)
    return cfg


def _default_sweep(variable: str) -> SweepSpec:
    if variable == "gap_nm":
        return SweepSpec(variable="gap_nm", start=40.0, stop=300.0, points=27)
    if variable == "temperature_K":
        return SweepSpec(variable="temperature_K", start=1.0, stop=7.0, points=13)
    return SweepSpec()


def _check_rrr(name: str, value: float) -> None:
    if not 1.0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 1 (got {value})")


def validate_config(cfg: RunConfig) -> None:
    hc0 = cfg.material_b.hc0
    tc = cfg.material_b.tc
    if not 0.0 < cfg.radius_um < math.inf:
        raise ConfigError(f"radius_um must be positive and finite (got {cfg.radius_um})")
    if not 10.0 < cfg.gap_nm < math.inf:
        raise ConfigError(f"gap_nm must exceed 10 nm and be finite (got {cfg.gap_nm})")
    if not 0.0 <= cfg.field_oe < hc0:
        raise ConfigError(f"field_oe must lie in [0, {hc0}) (got {cfg.field_oe})")
    if cfg.temperature_k is not None and not 0.0 < cfg.temperature_k < tc:
        raise ConfigError(f"temperature_k must lie in (0, {tc}) (got {cfg.temperature_k})")
    if cfg.output_format not in OUTPUT_FORMATS:
        raise ConfigError(f"format must be one of {OUTPUT_FORMATS} (got {cfg.output_format!r})")
    sw = cfg.sweep
    if sw.variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep_variable must be one of {SWEEP_VARIABLES} (got {sw.variable!r})")
    if sw.points < 2:
        raise ConfigError(f"sweep_points must be >= 2 (got {sw.points})")
    if not sw.start < sw.stop < math.inf:
        raise ConfigError("sweep_stop must be finite and exceed sweep_start "
                          f"(got [{sw.start}, {sw.stop}])")
    if sw.variable == "field_Oe" and not (0.0 <= sw.start and sw.stop < hc0):
        raise ConfigError(f"field sweep must stay inside [0, {hc0}) Oe "
                          f"(got [{sw.start}, {sw.stop}])")
    if sw.variable == "gap_nm" and not sw.start > 10.0:
        raise ConfigError(f"gap sweep must stay above 10 nm (got start {sw.start})")
    if sw.variable == "temperature_K" and not (0.0 < sw.start and sw.stop < tc):
        raise ConfigError(f"temperature sweep must stay inside (0, {tc}) K "
                          f"(got [{sw.start}, {sw.stop}])")


def config_echo(cfg: RunConfig) -> dict:
    """Flat, sorted view of the resolved configuration for output headers."""
    echo = {
        "compute_full": cfg.compute_full,
        "constants_version": CONSTANTS_VERSION,
        "field_oe": cfg.field_oe,
        "format": cfg.output_format,
        "gap_nm": cfg.gap_nm,
        "matsubara_cap_diff": cfg.engine.matsubara_cap_diff,
        "matsubara_cap_full": cfg.engine.matsubara_cap_full,
        "radius_um": cfg.radius_um,
        "rel_tol_quadrature": cfg.engine.rel_tol_quadrature,
        "rel_tol_series": cfg.engine.rel_tol_series,
        "rrr_au": cfg.material_a.rrr,
        "rrr_pb": cfg.material_b.rrr,
        "sweep_points": cfg.sweep.points,
        "sweep_start": cfg.sweep.start,
        "sweep_stop": cfg.sweep.stop,
        "sweep_variable": cfg.sweep.variable,
        "temperature_k": cfg.temperature_k,
    }
    return echo


# ---------------------------------------------------------------------------
# formatting


def fmt_float(v: float) -> str:
    """Shortest round-trip scientific notation, bit-stable across runs."""
    return np.format_float_scientific(float(v), unique=True, trim="0")


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


# ---------------------------------------------------------------------------
# sweep driver


def _evaluate_row(cfg: RunConfig, variable: str, x: float) -> SweepRow:
    pb = cfg.material_b
    if variable == "field_Oe":
        t_prime = shifted_tc(pb, x)
        temperature, d = t_prime, cfg.gap_nm
    elif variable == "gap_nm":
        t_prime = shifted_tc(pb, cfg.field_oe)
        temperature, d = t_prime, x
    else:  # temperature_K
        t_prime = shifted_tc(pb, cfg.field_oe)
        temperature, d = x, cfg.gap_nm
    try:
        res = delta_force_pfa(cfg.material_a, pb, cfg.radius_um,
                              temperature, d, cfg.engine)
        if cfg.compute_full:
            f_normal = free_energy(cfg.material_a, pb, Phase.NORMAL,
                                   temperature, d, cfg.engine).value
            f_super = f_normal - res.diff_ev_nm2
        else:
            f_normal = f_super = float("nan")
        return SweepRow(x=x, t_prime_c_k=t_prime, delta_f_fn=res.delta_f_fn,
                        f_normal_ev_nm2=f_normal, f_super_ev_nm2=f_super,
                        terms_used=res.terms_used, pfa_bound=res.pfa_bound)
    except (ConvergenceError, DomainError) as exc:
        return SweepRow(x=x, t_prime_c_k=t_prime, delta_f_fn=float("nan"),
                        f_normal_ev_nm2=float("nan"), f_super_ev_nm2=float("nan"),
                        terms_used=0, pfa_bound=d / (cfg.radius_um * 1000.0),
                        error=str(exc))


def run_sweep(cfg: RunConfig, rows: Optional[list] = None) -> list[SweepRow]:
    """Evaluate all sweep rows in grid order; failures are recorded, not raised.

    Each row is appended to `rows` (a new list by default) as soon as it is
    done, so a caller that is interrupted still holds the finished rows.
    """
    if cfg.sweep.variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {cfg.sweep.variable!r}")
    rows = [] if rows is None else rows
    for x in np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.points):
        rows.append(_evaluate_row(cfg, cfg.sweep.variable, float(x)))
    return rows


# ---------------------------------------------------------------------------
# output rendering


def render_rows(cfg: RunConfig, rows: Sequence[SweepRow]) -> str:
    if cfg.output_format == "json":
        return _render_json(cfg, rows)
    return _render_csv(cfg, rows)


def _header_lines(cfg: RunConfig, rows: Sequence[SweepRow]) -> list[str]:
    lines = [f"# casimir-sc v{_pkg_version}"]
    for key, val in sorted(config_echo(cfg).items()):
        lines.append(f"# {key}={_fmt_value(val)}")
    ok = sum(1 for r in rows if r.error is None)
    lines.append(f"# rows_converged={ok}/{len(rows)}")
    return lines


def _render_csv(cfg: RunConfig, rows: Sequence[SweepRow]) -> str:
    out = io.StringIO()
    for line in _header_lines(cfg, rows):
        out.write(line + "\n")
    out.write(CSV_COLUMNS + "\n")
    for r in rows:
        if r.error is not None:
            out.write(f"# FAILED x={fmt_float(r.x)} error={r.error}\n")
            continue
        out.write(",".join([
            fmt_float(r.x),
            fmt_float(r.t_prime_c_k),
            fmt_float(r.delta_f_fn),
            fmt_float(r.f_normal_ev_nm2),
            fmt_float(r.f_super_ev_nm2),
            str(r.terms_used),
            fmt_float(r.pfa_bound),
        ]) + "\n")
    return out.getvalue()


def _json_value(v):
    """Strict JSON has no NaN or infinity; such values are written as null."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _render_json(cfg: RunConfig, rows: Sequence[SweepRow]) -> str:
    payload = {
        "tool": f"casimir-sc v{_pkg_version}",
        "config": {k: _json_value(v) for k, v in config_echo(cfg).items()},
        "rows_converged": sum(1 for r in rows if r.error is None),
        "rows": [{k: _json_value(v) for k, v in dataclasses.asdict(r).items()}
                 for r in rows],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# single-point evaluation


def point_eval(cfg: RunConfig, include_force: bool = True) -> dict:
    """One (T, H, d) evaluation; reports the shifted transition temperature.

    With include_force=False this is a sub-millisecond lookup.
    """
    t_prime = shifted_tc(cfg.material_b, cfg.field_oe)
    result = {
        "field_oe": cfg.field_oe,
        "gap_nm": cfg.gap_nm,
        "radius_um": cfg.radius_um,
        "t_prime_c_K": t_prime,
    }
    if not include_force:
        return result
    temperature = cfg.temperature_k if cfg.temperature_k is not None else t_prime
    res = delta_force_pfa(cfg.material_a, cfg.material_b, cfg.radius_um,
                          temperature, cfg.gap_nm, cfg.engine)
    result.update({
        "temperature_K": temperature,
        "delta_f_fN": res.delta_f_fn,
        "pfa_bound": res.pfa_bound,
        "terms_used": res.terms_used,
    })
    if cfg.compute_full:
        fn = free_energy(cfg.material_a, cfg.material_b, Phase.NORMAL,
                         temperature, cfg.gap_nm, cfg.engine)
        result["f_normal_eV_nm2"] = fn.value
        result["f_super_eV_nm2"] = fn.value - res.diff_ev_nm2
    return result


# ---------------------------------------------------------------------------
# g-function table (optical response diagnostic)


def g_function_table(cfg: RunConfig, t_over_tc: Sequence[float],
                     grid: Optional[Sequence[float]] = None) -> str:
    """CSV of g(xi) columns per reduced temperature, xi in units of 2*Delta(0)."""
    for t in t_over_tc:
        if not 0.0 < t < 1.0:
            raise DomainError(f"t/Tc must lie in (0, 1); got {t} "
                              "(at t/Tc = 1 the correction is identically zero)")
    pb = cfg.material_b
    gap = default_gap(pb.tc)
    if grid is None:
        grid = np.geomspace(1e-2, 1e2, 81)
    two_d0 = 2.0 * gap.delta0
    out = io.StringIO()
    out.write(f"# casimir-sc v{_pkg_version}\n")
    out.write(f"# constants_version={CONSTANTS_VERSION}\n")
    out.write(f"# material={pb.name} rrr={_fmt_value(pb.rrr)}\n")
    cols = ",".join(f"g_t{_fmt_value(float(t))}" for t in t_over_tc)
    out.write(f"xi_over_2delta0,{cols}\n")
    xi = np.asarray(grid, dtype=float) * two_d0
    columns = [mattis_bardeen_g(pb, gap, xi, t * pb.tc) for t in t_over_tc]
    for i, x in enumerate(grid):
        out.write(",".join([fmt_float(float(x))] + [fmt_float(c[i]) for c in columns]) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# modulation waveform sampling


def waveform_samples(cfg: RunConfig, spec: ModulationSpec, n_samples: int) -> str:
    """One period of (t, H, phase, F) at midpoint samples.

    F is force_signal's mean + jump * f(t) at the base temperature: the jump
    is the difference series, the mean F_n less half of it.  H and the phase
    are field_waveform's drive H_c(T) + h f(t).
    """
    if n_samples < 2 or n_samples % 2 != 0:
        raise DomainError("n_samples must be an even number >= 2")
    pb = cfg.material_b
    temperature = spec.base_temperature
    if temperature >= pb.tc:
        raise DomainError("the modulated drive needs base_temperature < tc")
    fn = free_energy(cfg.material_a, pb, Phase.NORMAL, temperature,
                     cfg.gap_nm, cfg.engine)
    diff = free_energy_difference(cfg.material_a, pb, temperature,
                                  cfg.gap_nm, cfg.engine)
    to_fn = 2.0 * math.pi * cfg.radius_um * 1000.0 * CONST.ev_per_nm_to_fn
    jump = to_fn * diff.value
    mean = to_fn * fn.value - 0.5 * jump
    signal = force_signal(mean, jump, spec)
    out = io.StringIO()
    out.write(f"# casimir-sc v{_pkg_version}\n")
    out.write(f"# base_temperature_K={_fmt_value(temperature)} h_Oe={_fmt_value(spec.h)} "
              f"frequency_Hz={_fmt_value(spec.frequency)}\n")
    out.write(f"# mean_force_fN={fmt_float(mean)} delta_f_fN={fmt_float(jump)}\n")
    out.write("t_s,H_Oe,phase,F_fN\n")
    for k in range(n_samples):
        t = (k + 0.5) * spec.period / n_samples
        state = field_waveform(spec, pb, t)
        out.write(f"{fmt_float(t)},{fmt_float(state.field)},{state.phase.value},"
                  f"{fmt_float(signal.waveform(t))}\n")
    return out.getvalue()
