import argparse
import errno
import io
import json
import math
import os
import select
import signal
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import casimir_sc.cli as cli_mod
import casimir_sc.lifshitz as lifshitz_mod
import casimir_sc.materials as materials
import casimir_sc.sweeps as sweeps_mod
from casimir_sc.cli import main as cli_main
from casimir_sc.errors import ConfigError, ConvergenceError, DomainError, PfaAccuracyWarning
from casimir_sc.lifshitz import EngineConfig, free_energy_difference
from casimir_sc.materials import LEAD, mattis_bardeen_g
from casimir_sc.sc_state import ModulationSpec, shifted_tc
from casimir_sc.sweeps import (
    CONFIG_KEYS,
    CSV_COLUMNS,
    RunConfig,
    SweepSpec,
    config_echo,
    g_function_table,
    load_config,
    point_eval,
    render_rows,
    run_sweep,
    waveform_samples,
)

COARSE = EngineConfig(rel_tol_quadrature=1e-6, rel_tol_series=1e-6)


def coarse_config(**kwargs) -> RunConfig:
    base = RunConfig(engine=COARSE, compute_full=False)
    from dataclasses import replace
    return replace(base, **kwargs)


# ---------------------------------------------------------------------------
# configuration


def test_defaults_are_paper_values():
    cfg = load_config()
    assert cfg.material_a.rrr == 1.0 and cfg.material_b.rrr == 2.0
    assert cfg.radius_um == 150.0 and cfg.gap_nm == 70.0
    assert cfg.field_oe == 200.0
    assert cfg.sweep == SweepSpec("field_Oe", 25.0, 775.0, 31)
    assert cfg.engine == EngineConfig()


def test_gap_sweep_defaults():
    cfg = load_config(overrides={"sweep_variable": "gap_nm"})
    assert cfg.sweep == SweepSpec("gap_nm", 40.0, 300.0, 27)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nradius_um = 100\ngap_nm=90  # inline\nrrr_pb=3\n")
    cfg = load_config(str(path))
    assert cfg.radius_um == 100.0 and cfg.gap_nm == 90.0
    assert cfg.material_b.rrr == 3.0


def test_config_file_unknown_key_has_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("radius_um=100\nbogus_key=1\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'bogus_key'"):
        load_config(str(path))


def test_config_file_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("radius_um=100\njust words\n")
    with pytest.raises(ConfigError, match=r":2"):
        load_config(str(path))


def test_config_file_bad_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gap_nm=wide\n")
    with pytest.raises(ConfigError, match="gap_nm"):
        load_config(str(path))


def test_validation_names_the_field():
    with pytest.raises(ConfigError, match="rrr_pb"):
        load_config(overrides={"rrr_pb": 0.5})
    with pytest.raises(ConfigError, match="field sweep"):
        load_config(overrides={"sweep_stop": 900.0})
    with pytest.raises(ConfigError, match="sweep_points"):
        load_config(overrides={"sweep_points": 1})
    with pytest.raises(ConfigError, match="gap_nm"):
        load_config(overrides={"gap_nm": 5.0})
    with pytest.raises(ConfigError, match="format"):
        load_config(overrides={"format": "xml"})
    with pytest.raises(ConfigError, match="temperature_k"):
        load_config(overrides={"temperature_k": 9.0})


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["radius_um", "gap_nm", "matsubara_cap_full",
                                 "matsubara_cap_diff", "sweep_stop",
                                 "rrr_au", "rrr_pb"])
def test_non_finite_values_rejected(tmp_path, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key}={value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(str(path))


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gap_nm=90\nradius_um=100\n")
    cfg = load_config(str(path), overrides={"gap_nm": 120.0})
    assert cfg.gap_nm == 120.0 and cfg.radius_um == 100.0
    # a tolerance given by name wins over rel_tol, wherever each is given
    path.write_text("rel_tol_series=1e-8\n")
    cfg = load_config(str(path), overrides={"rel_tol": 1e-6})
    assert (cfg.engine.rel_tol_quadrature, cfg.engine.rel_tol_series) == (1e-6, 1e-8)


# A non-default value of every configuration key: as written in a file, and as
# read back.
KEY_VALUES = {
    "radius_um": ("100", 100.0),
    "gap_nm": ("90", 90.0),
    "field_oe": ("300", 300.0),
    "temperature_k": ("3", 3.0),
    "rrr_au": ("3", 3.0),
    "rrr_pb": ("4", 4.0),
    "rel_tol": ("1e-6", (1e-6, 1e-6)),
    "rel_tol_quadrature": ("1e-7", 1e-7),
    "rel_tol_series": ("1e-8", 1e-8),
    "matsubara_cap_full": ("20", 20.0),
    "matsubara_cap_diff": ("80", 80.0),
    "sweep_variable": ("gap_nm", "gap_nm"),
    "sweep_start": ("50", 50.0),
    "sweep_stop": ("500", 500.0),
    "sweep_points": ("5", 5),
    "output": ("out.csv", "out.csv"),
    "format": ("json", "json"),
    "compute_full": ("false", False),
}


def _read_back(cfg: RunConfig, key: str):
    """key's value in cfg: rel_tol and output through the fields they set,
    every other key through the output header."""
    if key == "rel_tol":
        return cfg.engine.rel_tol_quadrature, cfg.engine.rel_tol_series
    if key == "output":
        return cfg.output_path
    return config_echo(cfg)[key]


@pytest.mark.parametrize("key", sorted(KEY_VALUES))
def test_every_key_reads_back_from_a_file(tmp_path, key):
    assert sorted(KEY_VALUES) == sorted(CONFIG_KEYS)
    text, value = KEY_VALUES[key]
    path = tmp_path / "run.cfg"
    path.write_text(f"{key}={text}\n")
    cfg, default = load_config(str(path)), load_config()
    read = _read_back(cfg, key)
    assert read == value and type(read) is type(value)
    assert _read_back(default, key) != value
    # no other field moves: rel_tol sets the two tolerances, output is not
    # echoed, and sweep_variable brings its variable's default sweep
    echo, default_echo = config_echo(cfg), config_echo(default)
    moved = {k for k in echo if echo[k] != default_echo[k]}
    assert moved == {"rel_tol": {"rel_tol_quadrature", "rel_tol_series"},
                     "output": set(),
                     "sweep_variable": {"sweep_variable", "sweep_start",
                                        "sweep_stop", "sweep_points"},
                     }.get(key, {key})


def test_file_sweep_variable_must_match_the_command(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("sweep_variable=temperature_K\nsweep_start=4\nsweep_stop=6\n"
                    "sweep_points=2\n")
    for command in ("sweep-field", "sweep-gap"):
        assert cli_main([command, "--config", str(path)]) == 1
        assert "sweep_variable=temperature_K" in capsys.readouterr().err
    path.write_text("sweep_variable=gap_nm\nsweep_start=60\nsweep_stop=80\n"
                    "sweep_points=2\n")
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep-gap", "--config", str(path), "--no-full",
                     "--rel-tol", "1e-6", "--output", str(out)]) == 0
    text = out.read_text()
    assert "# sweep_variable=gap_nm" in text and "# rows_converged=2/2" in text


# Dests of command-line options that are not configuration keys.
NON_CONFIG_DESTS = {"config", "t_over_tc", "amplitude_oe", "frequency_hz",
                    "samples", "skip_force"}


def test_every_option_dest_is_a_key_or_named():
    """The CLI passes on every option whose dest is a configuration key; a
    new option is either a key or named here, never silently dropped."""
    parser = cli_mod._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in CONFIG_KEYS or action.dest in NON_CONFIG_DESTS, (
                    name, action.dest)


# ---------------------------------------------------------------------------
# free energies


def test_point_sums_each_series_once(monkeypatch):
    """F_s is F_n less the difference series: point sums those two series
    once each, and the waveform's jump is point's force jump."""
    cfg = RunConfig(engine=COARSE)
    summed = []

    def counting(real):
        def count(*args, **kwargs):
            summed.append(args[0].__name__)
            return real(*args, **kwargs)
        return count

    monkeypatch.setattr(lifshitz_mod, "_strided_sum", counting(lifshitz_mod._strided_sum))
    result = point_eval(cfg)
    assert sorted(summed) == ["_diff_log", "_pair_log"]
    temperature = result["temperature_K"]
    diff = free_energy_difference(cfg.material_a, cfg.material_b, temperature,
                                  cfg.gap_nm, cfg.engine)
    assert result["f_super_eV_nm2"] == result["f_normal_eV_nm2"] - diff.value
    spec = ModulationSpec(base_temperature=temperature, h=20.0, frequency=300.0)
    header = [ln for ln in waveform_samples(cfg, spec, 2).splitlines()
              if ln.startswith("# mean_force_fN")][0]
    assert float(header.split("delta_f_fN=")[1]) == result["delta_f_fN"]


# ---------------------------------------------------------------------------
# sweeps


def small_field_cfg(points=3):
    return coarse_config(sweep=SweepSpec("field_Oe", 150.0, 250.0, points))


def test_sweep_rows_ordered_and_converged():
    rows = run_sweep(small_field_cfg())
    assert [r.x for r in rows] == [150.0, 200.0, 250.0]
    assert all(r.error is None for r in rows)
    assert all(r.delta_f_fn > 0.0 for r in rows)
    assert rows[0].delta_f_fn < rows[1].delta_f_fn < rows[2].delta_f_fn
    assert rows[1].t_prime_c_k == pytest.approx(6.24, abs=0.01)


def test_gap_sweep_computes_each_g_once(monkeypatch):
    """The rows of a gap sweep share T, so the g memo hands _g_body each
    distinct l once over the six rows, and no more l than the series asked
    for."""
    body_l, asked_l = [], set()
    g_body, g = materials._g_body, lifshitz_mod.g_matsubara

    def record_body(l, *args):
        body_l.extend(l.tolist())
        return g_body(l, *args)

    def record_g(material, T, l):
        asked_l.update(l.tolist())
        return g(material, T, l)

    monkeypatch.setattr(materials, "_g_body", record_body)
    monkeypatch.setattr(lifshitz_mod, "g_matsubara", record_g)
    cfg = RunConfig(compute_full=False, sweep=SweepSpec("gap_nm", 40.0, 190.0, 6))
    rows = run_sweep(cfg)
    assert all(r.error is None for r in rows)
    assert len(body_l) == len(set(body_l)) == len(asked_l)
    assert sum(r.terms_used - 1 for r in rows) > 2 * len(body_l)


def test_sweep_concurrent_rows_identical():
    cfg = small_field_cfg()
    rows_first = run_sweep(cfg)
    rows_again = run_sweep(cfg)
    assert render_rows(cfg, rows_first) == render_rows(cfg, rows_again)
    materials._g_memo.cache_clear()
    materials._universal_gap_curve.cache_clear()
    rows_cold = run_sweep(cfg)
    assert render_rows(cfg, rows_first).encode() == render_rows(cfg, rows_cold).encode()


def test_sweep_cross_consistency():
    field_cfg = small_field_cfg()
    gap_cfg = coarse_config(sweep=SweepSpec("gap_nm", 60.0, 80.0, 3), field_oe=200.0)
    row_f = run_sweep(field_cfg)[1]   # H = 200 Oe at d = 70 nm
    row_g = run_sweep(gap_cfg)[1]     # d = 70 nm at H = 200 Oe
    assert row_f.delta_f_fn == pytest.approx(row_g.delta_f_fn, rel=1e-9)


def test_sweep_records_failures_and_continues(monkeypatch):
    real = sweeps_mod.delta_force_pfa

    def flaky(mat_a, mat_b, radius, temperature, d, engine, **kwargs):
        if abs(d - 70.0) < 1e-9:
            raise ConvergenceError("synthetic stall", error_estimate=1.0)
        return real(mat_a, mat_b, radius, temperature, d, engine, **kwargs)

    monkeypatch.setattr(sweeps_mod, "delta_force_pfa", flaky)
    cfg = coarse_config(sweep=SweepSpec("gap_nm", 60.0, 80.0, 3))
    rows = run_sweep(cfg)
    assert rows[1].error is not None and "synthetic stall" in rows[1].error
    assert rows[0].error is None and rows[2].error is None
    text = render_rows(cfg, rows)
    assert "# FAILED x=7.0e+01 error=synthetic stall" in text
    assert "# rows_converged=2/3" in text


def test_temperature_sweep_variable():
    cfg = coarse_config(sweep=SweepSpec("temperature_K", 4.0, 6.0, 2))
    rows = run_sweep(cfg)
    assert all(r.error is None for r in rows)
    assert rows[0].delta_f_fn > rows[1].delta_f_fn > 0.0


# ---------------------------------------------------------------------------
# output rendering


def test_csv_layout_and_determinism():
    cfg = small_field_cfg()
    rows = run_sweep(cfg)
    text = render_rows(cfg, rows)
    lines = text.splitlines()
    assert lines[0] == "# casimir-sc v0.1.0"
    assert any(line == "# constants_version=1" for line in lines)
    header_idx = lines.index(
        "x,t_prime_c_K,delta_f_fN,f_normal_eV_nm2,f_super_eV_nm2,terms_used,pfa_bound")
    data = [ln for ln in lines[header_idx + 1:] if not ln.startswith("#")]
    assert len(data) == 3
    for ln in data:
        fields = ln.split(",")
        assert len(fields) == 7
        float(fields[0]); float(fields[1]); float(fields[2])
    # a second full evaluation reproduces the exact bytes
    assert render_rows(cfg, run_sweep(cfg)) == text


def test_json_rendering():
    cfg = coarse_config(sweep=SweepSpec("field_Oe", 150.0, 250.0, 2),
                        output_format="json")
    rows = run_sweep(cfg)
    text = render_rows(cfg, rows)
    payload = json.loads(text)
    assert payload["rows_converged"] == 2
    assert payload["config"]["sweep_variable"] == "field_Oe"
    assert len(payload["rows"]) == 2
    assert render_rows(cfg, rows) == text


# ---------------------------------------------------------------------------
# point evaluation


def test_point_reports_shifted_tc_fast():
    cfg = coarse_config()
    point_eval(cfg, include_force=False)  # warm up
    t0 = time.perf_counter()
    result = point_eval(cfg, include_force=False)
    elapsed = time.perf_counter() - t0
    assert result["t_prime_c_K"] == pytest.approx(6.24, abs=0.01)
    assert elapsed < 1e-3


def test_point_with_force():
    cfg = coarse_config()
    result = point_eval(cfg)
    assert result["delta_f_fN"] == pytest.approx(18.58, rel=1e-2)
    assert result["pfa_bound"] == pytest.approx(4.67e-4, rel=1e-2)
    assert "f_normal_eV_nm2" not in result  # compute_full disabled


# ---------------------------------------------------------------------------
# g-function table


def test_g_function_table_layout_and_ordering():
    cfg = coarse_config()
    text = g_function_table(cfg, [0.1, 0.9])
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "xi_over_2delta0,g_t1.0e-01,g_t9.0e-01"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 81
    assert rows[-1][0] == 100.0
    for _, g_cold, g_warm in rows:
        assert g_cold >= g_warm >= 0.0
    # decay: by xi/2D0 = 100 both columns sit below 2.5% of the static
    # limit (the logarithmic tail reaches the 1% level near 240 * 2D0;
    # see the acceptance notes on the decay-bound criterion)
    for col, tfrac in ((1, 0.1), (2, 0.9)):
        g0 = mattis_bardeen_g(LEAD, 1e-8, tfrac * LEAD.tc)
        assert rows[-1][col] < 2.5e-2 * g0


def test_g_function_table_matches_recorded_reference():
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "g_reference.json").read_text(encoding="utf-8"))
    text = g_function_table(coarse_config(), [0.1])
    rows = [list(map(float, ln.split(","))) for ln in text.splitlines()[4:]]
    assert [r[0] for r in rows] == ref["xi_over_2delta0"]
    for (_, g), want in zip(rows, ref["g"]["0.1"]):
        assert g == pytest.approx(want, rel=1e-9, abs=0.0)


def test_g_function_rejects_tc():
    cfg = coarse_config()
    with pytest.raises(DomainError):
        g_function_table(cfg, [1.0])
    with pytest.raises(DomainError):
        g_function_table(cfg, [0.0])


def test_g_function_rejects_a_repeated_temperature(monkeypatch, capsys):
    """A t/Tc given twice would write two columns of one name, which a CSV
    reader keyed by column name merges; it is refused before any column."""
    seen = []
    monkeypatch.setattr(sweeps_mod, "mattis_bardeen_g", lambda *a: seen.append(a))
    assert cli_main(["g-function", "--t-over-tc", "0.5", "--t-over-tc", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "0.5" in line
    assert seen == []


# ---------------------------------------------------------------------------
# waveform sampling


def test_waveform_phases_and_levels():
    cfg = coarse_config()
    spec = ModulationSpec(base_temperature=shifted_tc(LEAD, 200.0), h=20.0,
                          frequency=300.0)
    text = waveform_samples(cfg, spec, 4)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "t_s,H_Oe,phase,F_fN"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[2] for r in rows] == ["normal", "normal",
                                    "superconducting", "superconducting"]
    forces = [float(r[3]) for r in rows]
    assert len(set(forces)) == 2
    header = [ln for ln in text.splitlines() if ln.startswith("# mean_force_fN")][0]
    mean_decl = float(header.split("mean_force_fN=")[1].split(" ")[0])
    jump_decl = float(header.split("delta_f_fN=")[1])
    # the levels are exactly mean +- jump/2; their difference rounds at one
    # ulp of the mean, so it is not compared with the jump
    assert forces[0] == mean_decl + 0.5 * jump_decl
    assert forces[-1] == mean_decl - 0.5 * jump_decl
    assert sum(forces) / len(forces) == pytest.approx(mean_decl, rel=1e-12)


def test_waveform_needs_even_samples():
    cfg = coarse_config()
    spec = ModulationSpec(base_temperature=5.0, h=10.0, frequency=100.0)
    with pytest.raises(DomainError):
        waveform_samples(cfg, spec, 5)


# ---------------------------------------------------------------------------
# CLI


def test_cli_point_skip_force(tmp_path, capsys):
    code = cli_main(["point", "--skip-force"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t_prime_c_K=6.235382907247958e+00" in out


def test_cli_sweep_writes_file(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep-field", "--start", "150", "--stop", "250",
                     "--points", "2", "--no-full", "--rel-tol", "1e-6",
                     "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# casimir-sc v0.1.0\n")
    assert "# rows_converged=2/2" in text


def test_cli_config_error_exit_code(capsys):
    code = cli_main(["sweep-field", "--stop", "900"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_cli_partial_exit_code(monkeypatch, tmp_path):
    real = sweeps_mod.delta_force_pfa

    def flaky(mat_a, mat_b, radius, temperature, d, engine, **kwargs):
        if abs(d - 70.0) < 1e-9:
            raise ConvergenceError("synthetic stall", error_estimate=1.0)
        return real(mat_a, mat_b, radius, temperature, d, engine, **kwargs)

    monkeypatch.setattr(sweeps_mod, "delta_force_pfa", flaky)
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep-gap", "--start", "60", "--stop", "80",
                     "--points", "3", "--no-full", "--rel-tol", "1e-6",
                     "--output", str(out)])
    assert code == 2
    assert "# FAILED" in out.read_text()


def test_cli_gfunction_and_waveform(tmp_path):
    out = tmp_path / "g.csv"
    assert cli_main(["g-function", "--t-over-tc", "0.5", "--output", str(out)]) == 0
    assert "xi_over_2delta0,g_t5.0e-01" in out.read_text()
    out2 = tmp_path / "wave.csv"
    assert cli_main(["waveform", "--samples", "4", "--rel-tol", "1e-6",
                     "--output", str(out2)]) == 0
    assert "t_s,H_Oe,phase,F_fN" in out2.read_text()


@pytest.mark.parametrize("radius_um", ["1", "150"])
def test_cli_waveform_jump_is_point_jump(radius_um, capsys):
    """waveform prints point's delta_f_fN byte for byte, both going through
    sweeps._evaluate; at d/R = 0.07 both warn that the PFA bound exceeds 1%."""
    out = {}
    for command in ("point", "waveform"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main([command, "--radius-um", radius_um]) == 0
        warned = [w for w in caught if issubclass(w.category, PfaAccuracyWarning)]
        assert len(warned) == (radius_um == "1")
        out[command] = capsys.readouterr().out
    point = [ln for ln in out["point"].splitlines() if ln.startswith("delta_f_fN=")]
    assert len(point) == 1
    assert f" {point[0]}\n" in out["waveform"]


@pytest.mark.parametrize("flag, value", [("--amplitude-oe", "nan"), ("--amplitude-oe", "inf"),
                                         ("--frequency-hz", "nan")])
def test_cli_waveform_refuses_non_finite_drive(flag, value, capsys):
    assert cli_main(["waveform", "--samples", "4", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive and finite" in captured.err


def test_cli_gfunction_near_tc(tmp_path):
    out = tmp_path / "g.csv"
    assert cli_main(["g-function", "--t-over-tc", "0.999", "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith(("#", "xi"))]
    assert len(rows) == 81
    assert all(math.isfinite(float(g)) and float(g) > 0.0 for _, g in rows)


def test_cli_point_full_output(capsys):
    code = cli_main(["point", "--rel-tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    force_line = [ln for ln in out.splitlines() if ln.startswith("delta_f_fN=")][0]
    assert float(force_line.split("=")[1]) == pytest.approx(18.58, rel=1e-2)
    assert any(ln.startswith("f_normal_eV_nm2=") for ln in out.splitlines())
    assert any(ln.startswith("f_super_eV_nm2=") for ln in out.splitlines())


def test_cli_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    code = cli_main(["sweep-field", "--start", "150", "--stop", "250",
                     "--points", "2", "--no-full", "--rel-tol", "1e-6",
                     "--format", "json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["rows_converged"] == 2
    # --no-full leaves the free-energy columns non-finite: strict null
    assert all(r["f_normal_ev_nm2"] is None for r in payload["rows"])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _canonical_json(text: str) -> str:
    """text parsed by a strict reader, then written back with sorted keys and
    no spaces, as one line."""
    payload = json.loads(text, parse_constant=_reject_constant)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_json_sweep_is_one_strict_sorted_line(monkeypatch, capsys):
    """A JSON sweep, streamed piece by piece, is the one-line object a strict
    writer makes with sorted keys: for real rows, for a failed row with NaN
    fields, and for a sweep interrupted before its first row."""
    assert cli_main(["sweep-gap", "--no-full", "--format", "json", "--start", "60",
                     "--stop", "80", "--points", "2", "--rel-tol", "1e-6"]) == 0
    text = capsys.readouterr().out
    assert text == _canonical_json(text)
    assert len(json.loads(text)["rows"]) == 2

    cfg = coarse_config(sweep=SweepSpec("field_Oe", 150.0, 250.0, 2), output_format="json")
    failed = sweeps_mod.SweepRow(x=250.0, t_prime_c_k=6.2, delta_f_fn=float("nan"),
                                 f_normal_ev_nm2=float("nan"), f_super_ev_nm2=float("nan"),
                                 terms_used=0, pfa_bound=4.7e-4, error="no quiet term")
    text = render_rows(cfg, [_fake_row(150.0), failed])
    assert text == _canonical_json(text)
    payload = json.loads(text)
    assert payload["rows_converged"] == 1
    assert payload["rows"][1]["error"] == "no quiet term"
    assert payload["rows"][1]["delta_f_fn"] is None

    def interrupt(cfg, variable, x):
        raise KeyboardInterrupt

    monkeypatch.setattr(sweeps_mod, "_evaluate_row", interrupt)
    assert cli_main(["sweep-field", "--no-full", "--format", "json", "--points", "2"]) == 2
    text = capsys.readouterr().out
    assert text == _canonical_json(text)
    assert '"rows":[],"rows_converged":0,' in text


def test_cli_point_json_format(capsys):
    assert cli_main(["point", "--rel-tol", "1e-6"]) == 0
    lines = dict(ln.split("=", 1) for ln in capsys.readouterr().out.splitlines())
    assert cli_main(["point", "--rel-tol", "1e-6", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    payload = json.loads(out, parse_constant=_reject_constant)
    assert sorted(payload) == sorted(lines)
    for key, val in payload.items():
        assert val == (int(lines[key]) if isinstance(val, int) else float(lines[key]))


@pytest.mark.parametrize("command", ["g-function", "waveform"])
def test_cli_format_only_where_honoured(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--field-oe", "700"), ("--gap-nm", "20"),
                                         ("--temperature-k", "3"), ("--radius-um", "100"),
                                         ("--rrr-au", "5"), ("--rel-tol", "1e-4")])
def test_g_function_refuses_flags_it_ignores(flag, value, capsys):
    """g-function takes only --config, --rrr-pb, --output and --t-over-tc."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["g-function", "--t-over-tc", "0.5", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_gap_sweep_row_honours_temperature(tmp_path, capsys):
    """A gap-sweep row is point at the row's gap, --temperature-k included."""
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep-gap", "--temperature-k", "3", "--start", "40",
                     "--stop", "70", "--points", "2", "--no-full",
                     "--rel-tol", "1e-6", "--output", str(out)]) == 0
    row = [ln for ln in out.read_text().splitlines() if ln.startswith("7.0e+01,")]
    assert cli_main(["point", "--temperature-k", "3", "--rel-tol", "1e-6"]) == 0
    point = dict(ln.split("=", 1) for ln in capsys.readouterr().out.splitlines())
    assert point["temperature_K"] == "3.0e+00"
    _, t_prime, delta_f, _, _, terms, bound = row[0].split(",")
    assert (t_prime, delta_f, terms, bound) == (
        point["t_prime_c_K"], point["delta_f_fN"], point["terms_used"], point["pfa_bound"])


def test_temperature_k_refused_where_rows_set_temperature(capsys):
    assert cli_main(["sweep-field", "--temperature-k", "3"]) == 1
    assert "temperature_k" in capsys.readouterr().err
    cfg = coarse_config(temperature_k=3.0, sweep=SweepSpec("temperature_K", 4.0, 6.0, 2))
    with pytest.raises(ConfigError, match="temperature_k"):
        run_sweep(cfg)


def _fake_row(x):
    return sweeps_mod.SweepRow(x=x, t_prime_c_k=6.5, delta_f_fn=12.5,
                               f_normal_ev_nm2=float("nan"),
                               f_super_ev_nm2=float("nan"),
                               terms_used=42, pfa_bound=4.5e-4)


FAKE_ROW_1 = "1.5e+02,6.5e+00,1.25e+01,nan,nan,42,4.5e-04"
FAKE_ROW_1_JSON = ('{"delta_f_fn":12.5,"error":null,"f_normal_ev_nm2":null,'
                   '"f_super_ev_nm2":null,"pfa_bound":0.00045,"t_prime_c_k":6.5,'
                   '"terms_used":42,"x":150.0}')
# The first row of the fake sweeps, as written in each format.
_FIRST_ROW = {"csv": FAKE_ROW_1 + "\n", "json": FAKE_ROW_1_JSON}


def _sweep_stopping_after_one_row(monkeypatch, tmp_path, stop, *extra):
    """cli_main on a 3-row field sweep whose second row calls stop()."""
    done = []

    def one_then_stop(cfg, variable, x):
        if done:
            stop()
        done.append(x)
        return _fake_row(x)

    monkeypatch.setattr(sweeps_mod, "_evaluate_row", one_then_stop)
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep-field", "--start", "150", "--stop", "250",
                     "--points", "3", "--no-full", "--output", str(out), *extra])
    return code, out


def test_cli_interrupt_keeps_finished_rows(monkeypatch, tmp_path, capsys):
    def interrupt():
        raise KeyboardInterrupt

    code, out = _sweep_stopping_after_one_row(monkeypatch, tmp_path, interrupt)
    assert code == 2
    text = out.read_text()
    assert "# rows_converged=1/1" in text
    assert FAKE_ROW_1 in text.splitlines()
    assert "interrupted" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["SIGTERM", "SIGHUP"])
def test_cli_stop_signal_keeps_finished_rows(name, monkeypatch, tmp_path, capsys):
    """SIGTERM and SIGHUP stop a sweep as SIGINT does, and the handler in
    place before the sweep is back after it."""
    if not hasattr(signal, name):
        pytest.skip(f"no {name} on this platform")
    signum = getattr(signal, name)

    def send_signal():
        # with the default action still in place the signal would end pytest
        assert signal.getsignal(signum) is not signal.SIG_DFL, "no handler installed"
        os.kill(os.getpid(), signum)
        time.sleep(10)  # the handler raises out of this

    before = signal.signal(signum, signal.SIG_DFL)
    try:
        code, out = _sweep_stopping_after_one_row(monkeypatch, tmp_path, send_signal)
        assert signal.getsignal(signum) is signal.SIG_DFL
    finally:
        signal.signal(signum, before)
    assert code == 2
    text = out.read_text()
    assert "# rows_converged=1/1" in text
    assert FAKE_ROW_1 in text.splitlines()
    assert "interrupted" in capsys.readouterr().err


def test_cli_sweep_leaves_an_ignored_signal_ignored(monkeypatch, tmp_path):
    """Under nohup SIGHUP is ignored, and a sweep must keep it so."""
    if not hasattr(signal, "SIGHUP"):
        pytest.skip("no SIGHUP on this platform")
    seen = []

    def record_handler(cfg, variable, x):
        seen.append(signal.getsignal(signal.SIGHUP))
        return _fake_row(x)

    monkeypatch.setattr(sweeps_mod, "_evaluate_row", record_handler)
    before = signal.signal(signal.SIGHUP, signal.SIG_IGN)
    try:
        assert cli_main(["sweep-field", "--start", "150", "--stop", "250", "--points", "2",
                         "--no-full", "--output", str(tmp_path / "s.csv")]) == 0
        assert signal.getsignal(signal.SIGHUP) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGHUP, before)
    assert seen == [signal.SIG_IGN, signal.SIG_IGN]


def test_cli_unexpected_error_keeps_finished_rows(monkeypatch, tmp_path):
    """An exception no row catches writes the finished rows, then propagates."""
    def fail():
        raise RuntimeError("synthetic bug")

    with pytest.raises(RuntimeError, match="synthetic bug"):
        _sweep_stopping_after_one_row(monkeypatch, tmp_path, fail)
    text = (tmp_path / "sweep.csv").read_text()
    assert "# rows_converged=1/1" in text
    assert FAKE_ROW_1 in text.splitlines()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_file_holds_each_finished_row(fmt, monkeypatch, tmp_path):
    """While a sweep runs, PATH itself, the only file written, holds the head
    and every finished row, without the tail, in either format."""
    out = tmp_path / "sweep.csv"
    seen = []

    def look():
        seen.append((out.read_text(), sorted(os.listdir(tmp_path))))

    code, out = _sweep_stopping_after_one_row(monkeypatch, tmp_path, look, "--format", fmt)
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["sweep.csv"]
    (first, first_files), (second, second_files) = seen
    assert first_files == second_files == ["sweep.csv"]
    cfg = _stalled_config(fmt)
    rows = [_fake_row(x) for x in (150.0, 200.0, 250.0)]
    assert first == _stalled_head(fmt) + _FIRST_ROW[fmt]
    assert second == first + sweeps_mod.render_row(cfg, rows[1], first=False)
    final = out.read_text()
    assert final == render_rows(cfg, rows)
    if fmt == "csv":
        lines = first.splitlines()
        assert lines[0].startswith("# casimir-sc v") and "# format=csv" in lines
        assert lines[-2:] == [CSV_COLUMNS, FAKE_ROW_1]
        assert final.splitlines()[-1] == "# rows_converged=3/3"
    else:
        assert first.startswith('{"config":{') and '"format":"json"' in first
        assert second[len(first)] == ","  # before every row but the first
        assert final == _canonical_json(final)


def test_sweep_output_is_written_in_place(monkeypatch, tmp_path):
    """PATH is the file it was, mode and hard links kept, not a new one."""
    monkeypatch.setattr(sweeps_mod, "_evaluate_row", lambda cfg, variable, x: _fake_row(x))
    out = tmp_path / "sweep.csv"
    out.write_text("old contents, longer than the new ones " * 50)
    out.chmod(0o640)
    os.link(out, tmp_path / "link.csv")
    before = os.stat(out)
    assert cli_main(["sweep-field", "--points", "2", "--no-full", "--output", str(out)]) == 0
    after = os.stat(out)
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert (tmp_path / "link.csv").read_text() == out.read_text()
    assert out.read_text().startswith("# casimir-sc")
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "sweep.csv"]


def test_sweep_output_to_a_pipe_gets_no_side_file(monkeypatch, tmp_path):
    """A pipe or device, such as /dev/stdout, is written as a file is, in
    either format, and nothing else is written beside it."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    monkeypatch.setattr(sweeps_mod, "_evaluate_row", lambda cfg, variable, x: _fake_row(x))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for fmt, start in (("csv", b"# casimir-sc"), ("json", b'{"config":{')):
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the writer's open needs one
        try:
            assert cli_main(["sweep-field", "--points", "2", "--no-full", "--format", fmt,
                             "--output", str(fifo)]) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert data.startswith(start)
        assert os.listdir(tmp_path) == ["fifo"]


@pytest.mark.parametrize("command", [["point", "--skip-force"],
                                     ["sweep-field", "--points", "2", "--no-full"]])
def test_unopenable_output_is_one_error_line(command, monkeypatch, tmp_path, capsys):
    """An --output in a missing directory prints one error line naming the
    path and exits 1; a sweep, whose output is opened before its first row,
    evaluates no row and writes nothing."""
    seen = []
    monkeypatch.setattr(sweeps_mod, "_evaluate_row",
                        lambda cfg, variable, x: seen.append(x) or _fake_row(x))
    out = tmp_path / "missing" / "x.csv"
    assert cli_main([*command, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(out) in line
    assert seen == [] and os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [["point"], ["sweep-field", "--points", "2", "--no-full"],
                                     ["sweep-gap", "--points", "2"], ["g-function"],
                                     ["waveform"]])
def test_directory_output_fails_before_computing(command, monkeypatch, tmp_path, capsys):
    """An --output that is an existing directory prints one error line naming
    it and exits 1 before any row, point, g column or waveform is computed,
    and writes nothing."""
    seen = []
    for name in ("_evaluate_row", "_evaluate", "mattis_bardeen_g"):
        monkeypatch.setattr(sweeps_mod, name, lambda *a, name=name: seen.append(name))
    out = tmp_path / "out"
    out.mkdir()
    assert cli_main([*command, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(out) in line and "directory" in line
    assert seen == [] and os.listdir(tmp_path) == ["out"] and os.listdir(out) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_row_write_stops_the_sweep(fmt, monkeypatch, capsys):
    """A write that fails after the first row prints one error line and
    exits 1: no further row is evaluated and nothing more is written, the
    tail included, in either format."""
    evaluated, written = [], []
    monkeypatch.setattr(sweeps_mod, "_evaluate_row",
                        lambda cfg, variable, x: evaluated.append(x) or _fake_row(x))

    class FillsAfterOneRow(io.StringIO):
        def write(self, text):
            if len(written) == 2:  # the head and the first row
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", FillsAfterOneRow())
    assert cli_main(["sweep-field", "--start", "150", "--stop", "250", "--points", "3",
                     "--no-full", "--format", fmt]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: [Errno {errno.ENOSPC}] No space left on device"
    assert evaluated == [150.0, 200.0]
    assert written == [_stalled_head(fmt), _FIRST_ROW[fmt]]


def test_missing_config_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/nonexistent/path.cfg")


def test_free_energy_columns_present_when_full(tmp_path):
    out = tmp_path / "full.csv"
    code = cli_main(["sweep-gap", "--start", "65", "--stop", "75",
                     "--points", "2", "--rel-tol", "1e-6",
                     "--output", str(out)])
    assert code == 0
    data = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith(("#", "x,"))]
    for ln in data:
        fields = ln.split(",")
        f_normal, f_super = float(fields[3]), float(fields[4])
        assert f_normal < 0.0 and f_super < 0.0
        assert f_super < f_normal  # superconducting state binds more strongly


# ---------------------------------------------------------------------------
# the casimir-sc process

ROOT = Path(__file__).resolve().parents[1]
POSIX_ONLY = pytest.mark.skipif(os.name != "posix", reason="POSIX signals")


def _child_env(*unset: str, **env: str) -> dict:
    """os.environ less the names in unset, plus env, with this checkout's
    src first on PYTHONPATH."""
    child = {k: v for k, v in os.environ.items() if k not in unset}
    child["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**child, **env}


def _cli_child(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """casimir-sc run in a process of its own, through its process entry,
    with stdout buffered as Python buffers a pipe or file by default."""
    return subprocess.run([sys.executable, "-m", "casimir_sc.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120,
                          env=_child_env("PYTHONUNBUFFERED"))


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["casimir-sc"].partition(":")
    assert module == "casimir_sc.cli"
    assert callable(getattr(cli_mod, name, None))
    assert getattr(cli_mod, name) is cli_mod.run


@pytest.mark.parametrize("args", [
    ["point", "--skip-force"],
    ["g-function", "--t-over-tc", "0.1"],
    ["sweep-gap", "--no-full", "--format", "json", "--start", "60", "--stop", "80",
     "--points", "2"],
])
def test_process_writes_what_main_writes(args, capsys):
    """The process prints main()'s bytes and exits with its code."""
    code = cli_main(args)
    want = capsys.readouterr().out.encode()
    proc = _cli_child(*args)
    assert (proc.returncode, proc.stdout) == (code, want)
    assert code == 0 and want


@pytest.mark.parametrize("args, code, message", [
    (["sweep-field", "--stop", "900"], 1, b"configuration error"),
    (["point", "--no-such-flag"], 2, b"usage: casimir-sc"),
])
def test_process_error_exit_codes(args, code, message):
    proc = _cli_child(*args)
    assert proc.returncode == code
    assert message in proc.stderr


def test_process_output_file_is_stdout_and_complete(tmp_path):
    """In either format the process writes the same bytes to stdout and to
    --output PATH, with no other file, and they are render_rows' bytes."""
    for fmt in ("csv", "json"):
        args = ["sweep-gap", "--no-full", "--start", "60", "--stop", "80", "--points", "2",
                "--format", fmt]
        (tmp_path / fmt).mkdir()
        out = tmp_path / fmt / "sweep.out"
        to_file = _cli_child(*args, "--output", str(out))
        to_stdout = _cli_child(*args)
        assert to_file.returncode == to_stdout.returncode == 0
        assert to_file.stdout == b""
        if fmt == "csv":
            assert to_stdout.stdout.splitlines()[-1] == b"# rows_converged=2/2"
        else:
            assert json.loads(to_stdout.stdout)["rows_converged"] == 2
        assert out.read_bytes() == to_stdout.stdout
        assert os.listdir(out.parent) == ["sweep.out"]  # no side file
        cfg = load_config(None, {"sweep_variable": "gap_nm", "compute_full": False,
                                 "sweep_start": 60.0, "sweep_stop": 80.0, "sweep_points": 2,
                                 "format": fmt})
        assert render_rows(cfg, run_sweep(cfg)).encode() == to_stdout.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_process_output_to_dev_stdout(capsys):
    """--output /dev/stdout writes through the pipe the process was given."""
    assert cli_main(["point", "--skip-force"]) == 0
    want = capsys.readouterr().out.encode()
    proc = _cli_child("point", "--skip-force", "--output", "/dev/stdout")
    assert (proc.returncode, proc.stdout) == (0, want)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_process_failed_write_is_no_success():
    """Buffered stdout that cannot be written ends the process as the
    interpreter's own teardown reports it: exit code 120."""
    with open("/dev/full", "wb") as full:
        proc = _cli_child("point", "--skip-force", stdout=full)
    assert proc.returncode == 120
    assert b"No space left on device" in proc.stderr


@POSIX_ONLY
@pytest.mark.parametrize("unbuffered", [False, True])
def test_process_into_a_closed_pipe_exits_quietly(unbuffered):
    """Output into a pipe whose reader has gone exits 1 with nothing on
    stderr, whether the write fails in main() (unbuffered stdout) or at the
    final flush (buffered).  A sweep, CSV or JSON, stops at its head, before
    any row: every row of this stalled sweep would wait for a signal."""
    env = _child_env("PYTHONUNBUFFERED", **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    stalled = ["-c", _STALLED_SWEEP, "sweep-field", "--start", "151", "--stop", "250",
               "--points", "3", "--no-full"]
    for args in (["-m", "casimir_sc.cli", "point", "--skip-force"],
                 stalled, [*stalled, "--format", "json"]):
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run([sys.executable, *args], stdout=writer,
                                  stderr=subprocess.PIPE, timeout=120, env=env)
        finally:
            os.close(writer)
        assert (proc.returncode, proc.stderr) == (1, b""), args


# A field sweep of fake rows through the process entry; a row past x = 150
# waits for a signal.
_STALLED_SWEEP = """
import time
import casimir_sc.sweeps as sweeps
from casimir_sc.cli import run

def row(cfg, variable, x):
    if x > 150.0:
        time.sleep(120)
    return sweeps.SweepRow(x=x, t_prime_c_k=6.5, delta_f_fn=12.5,
                           f_normal_ev_nm2=float("nan"), f_super_ev_nm2=float("nan"),
                           terms_used=42, pfa_bound=4.5e-4)

sweeps._evaluate_row = row
run()
"""


STALLED_ARGS = ["sweep-field", "--start", "150", "--stop", "250", "--points", "3",
                "--no-full"]


def _stalled_sweep(tmp_path, check, fmt="csv"):
    """Start the stalled sweep with --output PATH, wait for its first row in
    PATH, then call check(process, PATH)."""
    out = tmp_path / "sweep.csv"
    proc = subprocess.Popen(
        [sys.executable, "-c", _STALLED_SWEEP, *STALLED_ARGS, "--format", fmt,
         "--output", str(out)],
        env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not (out.exists() and _FIRST_ROW[fmt] in out.read_text()):
            assert proc.poll() is None, "the sweep ended before its first row"
            assert time.monotonic() < deadline, f"no first row in {out.name}"
            time.sleep(0.01)
        check(proc, out)
    finally:
        proc.kill()
        proc.communicate(timeout=60)


def _stalled_config(fmt="csv") -> RunConfig:
    """The configuration of the stalled sweep, and of
    _sweep_stopping_after_one_row's."""
    return load_config(None, {
        "sweep_variable": "field_Oe", "sweep_start": 150.0, "sweep_stop": 250.0,
        "sweep_points": 3, "compute_full": False, "format": fmt})


def _stalled_head(fmt="csv") -> str:
    """The head of the stalled sweep: the header echo and column line as CSV,
    or the object up to its row list's opening bracket as JSON."""
    return sweeps_mod.render_head(_stalled_config(fmt))


@POSIX_ONLY
def test_sigkill_leaves_finished_rows_in_the_output_file(tmp_path):
    def check(proc, out):
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL
        assert out.read_text() == _stalled_head() + FAKE_ROW_1 + "\n"
        assert os.listdir(tmp_path) == [out.name]

    _stalled_sweep(tmp_path, check)


@POSIX_ONLY
def test_sigkill_leaves_finished_rows_in_the_json_output_file(tmp_path):
    """SIGKILL leaves the JSON head and each finished row, a whole object,
    and no tail: a prefix that a strict reader rejects as unfinished."""
    def check(proc, out):
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL
        text = out.read_text()
        assert text == _stalled_head("json") + FAKE_ROW_1_JSON
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        assert os.listdir(tmp_path) == [out.name]

    _stalled_sweep(tmp_path, check, "json")


@POSIX_ONLY
def test_sigkill_leaves_finished_rows_on_stdout():
    """Without --output the first row reaches the stdout pipe, buffered as
    Python buffers a pipe, while the second stalls; SIGKILL then leaves the
    header echo, the column line and that row, with no row count."""
    proc = subprocess.Popen([sys.executable, "-c", _STALLED_SWEEP, *STALLED_ARGS],
                            env=_child_env("PYTHONUNBUFFERED"), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    fd = proc.stdout.fileno()
    data = b""
    try:
        deadline = time.monotonic() + 60
        while (FAKE_ROW_1 + "\n").encode() not in data:
            left = deadline - time.monotonic()
            assert left > 0, "no first row on stdout"
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                assert chunk, "the sweep ended before its first row"
                data += chunk
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL
        while chunk:
            chunk = os.read(fd, 1 << 16)
            data += chunk
    finally:
        proc.kill()
        proc.communicate(timeout=60)
    assert data.decode() == _stalled_head() + FAKE_ROW_1 + "\n"


@POSIX_ONLY
def test_sigterm_ends_the_output_file_with_the_row_count(tmp_path):
    def check(proc, out):
        proc.terminate()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert b"interrupted" in err
        assert out.read_text() == _stalled_head() + FAKE_ROW_1 + "\n# rows_converged=1/1\n"
        assert os.listdir(tmp_path) == [out.name]

    _stalled_sweep(tmp_path, check)


@POSIX_ONLY
def test_sigterm_writes_finished_rows_and_drops_the_side_file(tmp_path):
    """SIGTERM ends a JSON PATH with its tail, so that it parses, and leaves
    no other file."""
    def check(proc, out):
        proc.terminate()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert b"interrupted" in err
        text = out.read_text()
        payload = json.loads(text, parse_constant=_reject_constant)
        assert payload["rows_converged"] == 1
        assert [r["x"] for r in payload["rows"]] == [150.0]
        assert text == render_rows(_stalled_config("json"), [_fake_row(150.0)])
        assert os.listdir(tmp_path) == [out.name]

    _stalled_sweep(tmp_path, check, "json")


# ---------------------------------------------------------------------------
# benchmark tracer


def test_tracer_wraps_existing_names(tmp_path):
    """perfbench/trace_child.py wraps layer entry points by module attribute
    name; a deleted or renamed one fails its start-up."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"),
         str(tmp_path / "spans.json"), "t", "--", "point", "--skip-force"],
        capture_output=True, text=True, timeout=120, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["exit"] == 0
    assert "cli.main_s" in last["metrics"]


# ---------------------------------------------------------------------------
# BLAS threads


def _python(*args, **env) -> str:
    """stdout of a fresh interpreter run with args, OPENBLAS_NUM_THREADS set
    only if env sets it."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=_child_env("OPENBLAS_NUM_THREADS", **env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_leaves_numpy_unloaded():
    """The library import chooses no BLAS threads for its host program; the
    names the benchmark's set-up probe uses still resolve."""
    out = _python("-c", "import os, sys, casimir_sc\n"
                        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
                        "print(casimir_sc.default_gap(casimir_sc.LEAD.tc).ratio(0.5))")
    loaded, env_set, ratio = out.split()
    assert (loaded, env_set) == ("False", "False")
    assert 0.0 < float(ratio) < 1.0


@pytest.mark.parametrize("args", [["point"], ["sweep-gap", "--no-full", "--points", "2"]])
def test_runs_leave_numpy_ma_and_polynomial_unloaded(args):
    """numpy.ma and numpy.polynomial each add to every run's start-up and
    peak memory; neither is loaded by a point or a sweep."""
    out = _python("-c", "import sys\nfrom casimir_sc.cli import main\nmain(sys.argv[1:])\n"
                        "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)",
                  *args)
    assert out.splitlines()[-1] == "False False"


def test_gap_sweep_integrand_node_count(monkeypatch, capsys):
    """The benchmark's gap sweep evaluates the integrand at most 187,000
    times (169,620 seen); the rule ladder took 373,980."""
    nodes = []
    diff_log = lifshitz_mod._diff_log

    def count(y, *args):
        nodes.append(y.size)
        return diff_log(y, *args)

    monkeypatch.setattr(lifshitz_mod, "_diff_log", count)
    assert cli_main(["sweep-gap", "--no-full", "--field-oe", "200", "--start", "41",
                     "--stop", "186", "--points", "6"]) == 0
    assert "rows_converged=6/6" in capsys.readouterr().out
    assert sum(nodes) <= 187_000


@pytest.mark.parametrize("env, want", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_import_runs_blas_on_one_thread_unless_set(env, want):
    out = _python("-c", "import os, sys, casimir_sc.cli\n"
                        "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])\n"
                        "task = '/proc/self/task'\n"
                        "print(len(os.listdir(task)) if os.path.isdir(task) else 'none')", **env)
    loaded, value, threads = out.split()
    assert (loaded, value) == ("True", want)
    if want == "1" and threads != "none":  # no /proc, no thread count
        assert threads == "1"


@pytest.mark.parametrize("args", [["g-function", "--t-over-tc", "0.1"],
                                  ["point", "--skip-force"]])
def test_output_does_not_depend_on_blas_threads(args):
    one, two = (_python("-m", "casimir_sc.cli", *args, OPENBLAS_NUM_THREADS=n)
                for n in ("1", "2"))
    assert one and one == two
