"""Run configuration, parameter sweeps, and machine-readable output.

A sweep row is the single point of the configuration with the field, gap or
temperature set to x; a point runs at temperature_k if given, else at
T = shifted_tc(H).  Sweeps write a deterministic CSV (or JSON) with a
config-echo header, and keep going past rows that fail to converge, marking
them in the file.  Either format is a head, one piece per row and a tail,
so that it can be written as its rows finish.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .constants import CONST, CONSTANTS_VERSION
from .errors import ConfigError, ConvergenceError, DomainError
from .lifshitz import EngineConfig, delta_force_pfa, free_energy
from .materials import GOLD, LEAD, MaterialParams, default_gap, mattis_bardeen_g
from .sc_state import ModulationSpec, field_waveform, force_signal, shifted_tc

OUTPUT_FORMATS = ("csv", "json")

CSV_COLUMNS = "x,t_prime_c_K,delta_f_fN,f_normal_eV_nm2,f_super_eV_nm2,terms_used,pfa_bound"


@dataclass(frozen=True)
class SweepSpec:
    variable: str = "field_Oe"
    start: float = 25.0
    stop: float = 775.0
    points: int = 31


# The default sweep of each variable.
_DEFAULT_SWEEPS = {
    "field_Oe": SweepSpec(),
    "gap_nm": SweepSpec(variable="gap_nm", start=40.0, stop=300.0, points=27),
    "temperature_K": SweepSpec(variable="temperature_K", start=1.0, stop=7.0, points=13),
}
SWEEP_VARIABLES = tuple(_DEFAULT_SWEEPS)


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


def _flag(val) -> bool:
    """true/false or 1/0, as a file writes it or as a bool."""
    text = str(val).lower()
    if text not in ("true", "false", "1", "0"):
        raise ValueError(f"needs true/false (got {val!r})")
    return text in ("true", "1")


def _rrr(val) -> float:
    """A residual resistance ratio, checked here so its error names the key."""
    rrr = float(val)
    if not 1.0 <= rrr < math.inf:
        raise ValueError(f"must be finite and >= 1 (got {rrr})")
    return rrr


# Every configuration key: the type its value is read as, then the RunConfig
# fields it sets, dotted into material_a, material_b, engine or sweep.  Keys
# are applied in this order, so the two tolerances given by name override
# rel_tol.
CONFIG_KEYS = {
    "radius_um": (float, "radius_um"),
    "gap_nm": (float, "gap_nm"),
    "field_oe": (float, "field_oe"),
    "temperature_k": (float, "temperature_k"),
    "rrr_au": (_rrr, "material_a.rrr"),
    "rrr_pb": (_rrr, "material_b.rrr"),
    "rel_tol": (float, "engine.rel_tol_quadrature", "engine.rel_tol_series"),
    "rel_tol_quadrature": (float, "engine.rel_tol_quadrature"),
    "rel_tol_series": (float, "engine.rel_tol_series"),
    "matsubara_cap_full": (float, "engine.matsubara_cap_full"),
    "matsubara_cap_diff": (float, "engine.matsubara_cap_diff"),
    "sweep_variable": (str, "sweep.variable"),
    "sweep_start": (float, "sweep.start"),
    "sweep_stop": (float, "sweep.stop"),
    "sweep_points": (int, "sweep.points"),
    "output": (str, "output_path"),
    "format": (str, "output_format"),
    "compute_full": (_flag, "compute_full"),
}


def _convert(key: str, val, where: str = ""):
    """val read as key's type; where prefixes the error ("path:line: ")."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}unknown key {key!r}")
    try:
        return CONFIG_KEYS[key][0](val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{key}: {exc}") from exc


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
        values[key] = _convert(key, val.strip(), f"{path}:{lineno}: ")
    return values


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Built-in defaults, then the config file, then explicit overrides.

    An override may not change the file's sweep_variable: a sweep command
    sets it, and a file naming another variable was written for another
    sweep.
    """
    values = {} if path is None else _parse_config_file(path)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        val = _convert(key, val)
        if key == "sweep_variable" and values.get(key, val) != val:
            raise ConfigError(f"sweep_variable={values[key]} in {path} does not "
                              f"match the {val} sweep")
        values[key] = val

    # fields[part][name], in table order; part "" is RunConfig itself
    fields: dict = {}
    for key in sorted(values, key=list(CONFIG_KEYS).index):
        for target in CONFIG_KEYS[key][1:]:
            part, _, name = target.rpartition(".")
            fields.setdefault(part, {})[name] = values[key]
    variable = fields.get("sweep", {}).get("variable")
    base = RunConfig(sweep=_DEFAULT_SWEEPS.get(variable, SweepSpec()))
    try:
        parts = {part: replace(getattr(base, part), **kw)
                 for part, kw in fields.items() if part}
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = replace(base, **fields.get("", {}), **parts)
    validate_config(cfg)
    return cfg


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
    """Flat view of the resolved configuration for output headers."""
    echo = {"constants_version": CONSTANTS_VERSION}
    for key, (_, target, *_) in CONFIG_KEYS.items():
        # rel_tol's fields are echoed under their own keys, and where the
        # output goes is no part of the result
        if key not in ("rel_tol", "output"):
            echo[key] = functools.reduce(getattr, target.split("."), cfg)
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


# The RunConfig field each sweep variable sets on its row.
_SWEEP_FIELDS = dict(zip(SWEEP_VARIABLES, ("field_oe", "gap_nm", "temperature_k")))


def _evaluate(cfg: RunConfig) -> tuple:
    """(T, force jump, F_n, F_s) at cfg's resolved temperature and gap;
    F_n and F_s are NaN unless cfg.compute_full.  F_s is formed here alone,
    as F_n less the difference series of the force jump."""
    temperature = cfg.resolved_temperature()
    res = delta_force_pfa(cfg.material_a, cfg.material_b, cfg.radius_um,
                          temperature, cfg.gap_nm, cfg.engine)
    f_normal = f_super = float("nan")
    if cfg.compute_full:
        f_normal = free_energy(cfg.material_a, cfg.material_b, temperature,
                               cfg.gap_nm, cfg.engine).value
        f_super = f_normal - res.diff_ev_nm2
    return temperature, res, f_normal, f_super


def _evaluate_row(cfg: RunConfig, variable: str, x: float) -> SweepRow:
    """The point of cfg with the sweep variable set to x."""
    cfg = replace(cfg, **{_SWEEP_FIELDS[variable]: x})
    t_prime = shifted_tc(cfg.material_b, cfg.field_oe)
    try:
        _, res, f_normal, f_super = _evaluate(cfg)
        return SweepRow(x=x, t_prime_c_k=t_prime, delta_f_fn=res.delta_f_fn,
                        f_normal_ev_nm2=f_normal, f_super_ev_nm2=f_super,
                        terms_used=res.terms_used, pfa_bound=res.pfa_bound)
    except (ConvergenceError, DomainError) as exc:
        return SweepRow(x=x, t_prime_c_k=t_prime, delta_f_fn=float("nan"),
                        f_normal_ev_nm2=float("nan"), f_super_ev_nm2=float("nan"),
                        terms_used=0, pfa_bound=cfg.gap_nm / (cfg.radius_um * 1000.0),
                        error=str(exc))


def sweep_rows(cfg: RunConfig) -> Iterator[SweepRow]:
    """The sweep's rows in grid order, each evaluated as it is drawn; rows
    that fail are recorded, not raised.  The configuration is checked here,
    before the first row."""
    variable = cfg.sweep.variable
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {variable!r}")
    if cfg.temperature_k is not None and variable != "gap_nm":
        raise ConfigError(f"temperature_k cannot be set for a {variable} sweep, "
                          "whose rows each set their own temperature")
    return (_evaluate_row(cfg, variable, float(x))
            for x in np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.points))


def run_sweep(cfg: RunConfig) -> list[SweepRow]:
    """All sweep rows in grid order; failures are recorded, not raised."""
    return list(sweep_rows(cfg))


# ---------------------------------------------------------------------------
# output rendering


def render_rows(cfg: RunConfig, rows: Sequence[SweepRow]) -> str:
    """The whole output of a sweep: the bytes the CLI streams."""
    return (render_head(cfg)
            + "".join(render_row(cfg, r, first=i == 0) for i, r in enumerate(rows))
            + render_tail(cfg, rows))


def render_head(cfg: RunConfig) -> str:
    """The start of a sweep: as CSV, the config-echo header and the column
    line; as JSON, {"config":{...},"rows":[ (the object's keys are sorted,
    so every row comes before the count)."""
    if cfg.output_format == "json":
        return _json_text({"config": _json_fields(config_echo(cfg))})[:-1] + ',"rows":['
    lines = [f"# casimir-sc v{_pkg_version}"]
    for key, val in sorted(config_echo(cfg).items()):
        lines.append(f"# {key}={_fmt_value(val)}")
    lines.append(CSV_COLUMNS)
    return "".join(line + "\n" for line in lines)


def render_row(cfg: RunConfig, r: SweepRow, first: bool) -> str:
    """One finished row of a sweep: a CSV line, a failed row being a comment,
    or a JSON object, after a comma unless it is the first."""
    if cfg.output_format == "json":
        return ("" if first else ",") + _json_text(_json_fields(dataclasses.asdict(r)))
    if r.error is not None:
        return f"# FAILED x={fmt_float(r.x)} error={r.error}\n"
    return ",".join([
        fmt_float(r.x),
        fmt_float(r.t_prime_c_k),
        fmt_float(r.delta_f_fn),
        fmt_float(r.f_normal_ev_nm2),
        fmt_float(r.f_super_ev_nm2),
        str(r.terms_used),
        fmt_float(r.pfa_bound),
    ]) + "\n"


def render_tail(cfg: RunConfig, rows: Sequence[SweepRow]) -> str:
    """The end of a sweep, written once it has ended; output without it is a
    sweep that did not end."""
    ok = sum(1 for r in rows if r.error is None)
    if cfg.output_format == "json":
        return "]," + _json_text({"rows_converged": ok,
                                  "tool": f"casimir-sc v{_pkg_version}"})[1:] + "\n"
    return f"# rows_converged={ok}/{len(rows)}\n"


def _json_fields(values: dict) -> dict:
    """Strict JSON has no NaN or infinity; such values are written as null."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in values.items()}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


# ---------------------------------------------------------------------------
# single-point evaluation


def point_eval(cfg: RunConfig, include_force: bool = True) -> dict:
    """One (T, H, d) evaluation; reports the shifted transition temperature.

    With include_force=False this is a sub-millisecond lookup.
    """
    result = {
        "field_oe": cfg.field_oe,
        "gap_nm": cfg.gap_nm,
        "radius_um": cfg.radius_um,
        "t_prime_c_K": shifted_tc(cfg.material_b, cfg.field_oe),
    }
    if not include_force:
        return result
    temperature, res, f_normal, f_super = _evaluate(cfg)
    result.update({
        "temperature_K": temperature,
        "delta_f_fN": res.delta_f_fn,
        "pfa_bound": res.pfa_bound,
        "terms_used": res.terms_used,
    })
    if cfg.compute_full:
        result.update(f_normal_eV_nm2=f_normal, f_super_eV_nm2=f_super)
    return result


def render_point(cfg: RunConfig, result: dict) -> str:
    """point_eval's result as sorted key=value lines, or one JSON object."""
    if cfg.output_format == "json":
        return _json_text(_json_fields(result)) + "\n"
    return "".join(f"{key}={fmt_float(val) if isinstance(val, float) else val}\n"
                   for key, val in sorted(result.items()))


# ---------------------------------------------------------------------------
# g-function table (optical response diagnostic)


def g_function_table(cfg: RunConfig, t_over_tc: Sequence[float]) -> str:
    """CSV of g(xi) columns per reduced temperature, xi in units of 2*Delta(0)."""
    for t in t_over_tc:
        if not 0.0 < t < 1.0:
            raise DomainError(f"t/Tc must lie in (0, 1); got {t} "
                              "(at t/Tc = 1 the correction is identically zero)")
    if len(set(t_over_tc)) < len(t_over_tc):  # a repeat would name two columns alike
        raise DomainError(f"each t/Tc may be given once; got {', '.join(map(str, t_over_tc))}")
    pb = cfg.material_b
    grid = np.geomspace(1e-2, 1e2, 81)
    two_d0 = 2.0 * default_gap(pb.tc).delta0
    out = io.StringIO()
    out.write(f"# casimir-sc v{_pkg_version}\n")
    out.write(f"# constants_version={CONSTANTS_VERSION}\n")
    out.write(f"# material={pb.name} rrr={_fmt_value(pb.rrr)}\n")
    cols = ",".join(f"g_t{_fmt_value(float(t))}" for t in t_over_tc)
    out.write(f"xi_over_2delta0,{cols}\n")
    xi = grid * two_d0
    columns = [mattis_bardeen_g(pb, xi, t * pb.tc) for t in t_over_tc]
    for i, x in enumerate(grid):
        out.write(",".join([fmt_float(float(x))] + [fmt_float(c[i]) for c in columns]) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# modulation waveform sampling


def waveform_samples(cfg: RunConfig, spec: ModulationSpec, n_samples: int) -> str:
    """One period of (t, H, phase, F) at midpoint samples.

    F is force_signal's mean + jump * f(t) at the base temperature, from
    _evaluate as for a point: the jump is point's force jump, with its d/R
    warning, and the mean the PFA force of F_n less half of it.  H and the
    phase are field_waveform's drive H_c(T) + h f(t).
    """
    if n_samples < 2 or n_samples % 2 != 0:
        raise DomainError("n_samples must be an even number >= 2")
    pb = cfg.material_b
    temperature = spec.base_temperature
    if temperature >= pb.tc:
        raise DomainError("the modulated drive needs base_temperature < tc")
    _, res, f_normal, _ = _evaluate(replace(cfg, temperature_k=temperature, compute_full=True))
    jump = res.delta_f_fn
    mean = 2.0 * math.pi * (cfg.radius_um * 1000.0) * f_normal * CONST.ev_per_nm_to_fn - 0.5 * jump
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
