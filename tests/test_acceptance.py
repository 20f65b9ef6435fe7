"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 4's final clause (the 1% decay bound at xi = 60*2Delta(0))
is asserted exactly as stated and is expected to fail: the dirty-limit
Mattis-Bardeen correction decays only logarithmically there (see
test_criterion_4_decay_bound for the measured number and the analysis).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from casimir_sc import materials
from casimir_sc.constants import CONST
from casimir_sc.lifshitz import (
    EngineConfig,
    free_energy,
    free_energy_difference,
    ideal_mirror_free_energy,
)
from casimir_sc.materials import (
    GOLD,
    LEAD,
    default_gap,
    mattis_bardeen_g,
)
from casimir_sc.sc_state import ModulationSpec, force_signal, shifted_tc
from casimir_sc.sweeps import (
    RunConfig,
    SweepSpec,
    point_eval,
    render_rows,
    run_sweep,
    waveform_samples,
)

from oracles import full_series_extent, g_from_oracle, superconducting_free_energy_direct

CFG = EngineConfig()
GAP = default_gap(LEAD.tc)
TWO_D0 = 2.0 * GAP.delta0

GOLDEN_DELTA_F_200_70 = 18.5804284685916  # fN, pinned after validation


def report(criterion: int, message: str) -> None:
    line = f"ACCEPTANCE {criterion}: PASS - {message}"
    print("\n" + line)
    from conftest import ACCEPTANCE_REPORT
    ACCEPTANCE_REPORT.append(line)


# ---------------------------------------------------------------------------


def test_criterion_1_shifted_tc_point():
    cfg = RunConfig()
    point_eval(cfg, include_force=False)  # warm-up
    t0 = time.perf_counter()
    result = point_eval(cfg, include_force=False)
    elapsed = time.perf_counter() - t0
    assert result["t_prime_c_K"] == pytest.approx(6.24, abs=0.01)
    assert elapsed < 1e-3
    report(1, f"T'_c(200 Oe) = {result['t_prime_c_K']:.4f} K in {elapsed * 1e6:.0f} us")


def test_criterion_2_ideal_mirror_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (50.0, 100.0, 200.0):
        got = ideal_mirror_free_energy(0.01, d, CFG).value
        exact = -math.pi ** 2 * CONST.hbar_c / (720.0 * d ** 3)
        worst = max(worst, abs(got / exact - 1.0))
        assert got == pytest.approx(exact, rel=1e-2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"ideal-mirror worst deviation {worst:.2e} in {elapsed:.2f} s")


def test_criterion_3_kk_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for tfrac in (0.1, 0.5, 0.9):
        temperature = tfrac * LEAD.tc
        for xfrac in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
            xi = xfrac * TWO_D0
            production = mattis_bardeen_g(LEAD, GAP, xi, temperature)
            oracle = g_from_oracle(LEAD, GAP, xi, temperature)
            rel = abs(production - oracle) / abs(oracle)
            worst = max(worst, rel)
            assert rel <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"KK oracle worst relative deviation {worst:.2e} in {elapsed:.1f} s")


def test_criterion_4_ordering_and_monotonicity():
    grid = np.array([0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0]) * TWO_D0
    g_cold = np.array([mattis_bardeen_g(LEAD, GAP, float(x), 0.1 * LEAD.tc) for x in grid])
    g_warm = np.array([mattis_bardeen_g(LEAD, GAP, float(x), 0.9 * LEAD.tc) for x in grid])
    assert np.all(g_cold >= g_warm)
    assert np.all(np.diff(g_cold) < 0.0)
    assert np.all(np.diff(g_warm) < 0.0)
    report(4, "curve ordering and monotone decay hold on the sampled grid")


def test_criterion_4_decay_bound():
    """Stated bound: g(60*2Delta0) < 1% of g(0+) at T = 0.1 Tc.

    The dirty-limit response obtained by Kramers-Kronig continuation (and
    confirmed independently by the fermionic-frequency sum) decays like
    (Delta^2/xi) log(xi/Delta) and sits near 3% of g(0+) at this frequency;
    the 1% level is reached only near xi ~ 240 * 2Delta(0).  The bound is
    asserted verbatim rather than loosened, so this test fails by design.
    """
    g0 = mattis_bardeen_g(LEAD, GAP, 1e-8, 0.1 * LEAD.tc)
    g60 = mattis_bardeen_g(LEAD, GAP, 60.0 * TWO_D0, 0.1 * LEAD.tc)
    ratio = g60 / g0
    from conftest import ACCEPTANCE_REPORT
    ACCEPTANCE_REPORT.append(
        f"ACCEPTANCE 4 (decay bound): measured g(60*2D0)/g(0+) = {ratio:.4f} "
        f"against the stated 1e-2 -> "
        f"{'PASS' if ratio < 1e-2 else 'FAIL (logarithmic tail, by design)'}")
    assert ratio < 1e-2, (
        f"g(60*2D0)/g(0+) = {ratio:.4f}: the Kramers-Kronig continuation of the "
        "dirty-limit pair-breaking spectrum decays logarithmically and does not "
        "fall below 1% until xi ~ 240*2Delta(0)")
    report(4, f"decay bound ratio {ratio:.2e}")


def test_criterion_5_difference_vs_subtraction():
    t0 = time.perf_counter()
    worst = 0.0
    for field, d in ((100.0, 70.0), (200.0, 70.0), (200.0, 50.0),
                     (400.0, 100.0), (600.0, 70.0)):
        temperature = shifted_tc(LEAD, field)
        fn = free_energy(GOLD, LEAD, temperature, d, CFG)
        fs = superconducting_free_energy_direct(GOLD, LEAD, temperature, d, CFG,
                                                full_series_extent(temperature, d))
        diff = free_energy_difference(GOLD, LEAD, temperature, d, CFG)
        rel = abs(diff.value - (fn.value - fs)) / abs(diff.value)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, f"difference vs subtraction worst {worst:.2e} in {elapsed:.1f} s")


@pytest.fixture(scope="module")
def default_field_rows():
    # delta-only: the per-phase full energies do not enter the criterion
    cfg = replace(RunConfig(), compute_full=False)
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    return rows, time.perf_counter() - t0


def test_criterion_6_field_sweep_shape(default_field_rows):
    rows, elapsed = default_field_rows
    assert elapsed < 600.0
    assert all(r.error is None for r in rows)
    values = [r.delta_f_fn for r in rows]
    assert all(b >= a for a, b in zip(values, values[1:]))      # nondecreasing
    assert values[0] < 0.1 * values[-1]                          # -> 0 as H -> 0
    at_200 = [r.delta_f_fn for r in rows if abs(r.x - 200.0) < 1e-9][0]
    assert 1.0 <= at_200 <= 300.0
    assert at_200 == pytest.approx(GOLDEN_DELTA_F_200_70, rel=1e-6)
    report(6, f"31-point field sweep in {elapsed:.0f} s; "
              f"dF(200 Oe) = {at_200:.3f} fN; range "
              f"[{values[0]:.3f}, {values[-1]:.3f}] fN")


def test_criterion_7_gap_sweep_shape(default_field_rows):
    cfg = replace(RunConfig(), compute_full=False,
                  sweep=SweepSpec("gap_nm", 40.0, 300.0, 27), field_oe=200.0)
    rows = run_sweep(cfg)
    assert all(r.error is None for r in rows)
    values = [r.delta_f_fn for r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))        # strictly decreasing
    at_70 = [r.delta_f_fn for r in rows if abs(r.x - 70.0) < 1e-9][0]
    field_rows, _ = default_field_rows
    from_field = [r.delta_f_fn for r in field_rows if abs(r.x - 200.0) < 1e-9][0]
    assert at_70 == pytest.approx(from_field, rel=1e-9)
    assert at_70 == pytest.approx(GOLDEN_DELTA_F_200_70, rel=1e-6)
    report(7, f"27-point gap sweep strictly decreasing; dF(70 nm) = {at_70:.3f} fN")


def test_criterion_8_truncation_robustness():
    base = replace(RunConfig(), compute_full=False,
                   sweep=SweepSpec("field_Oe", 100.0, 700.0, 5))
    hardened_engine = EngineConfig(
        rel_tol_quadrature=CFG.rel_tol_quadrature / 2.0,
        rel_tol_series=CFG.rel_tol_series / 2.0,
        matsubara_cap_full=2.0 * CFG.matsubara_cap_full,
        matsubara_cap_diff=2.0 * CFG.matsubara_cap_diff,
    )
    hardened = replace(base, engine=hardened_engine)
    rows_a = run_sweep(base)
    rows_b = run_sweep(hardened)
    worst = 0.0
    for a, b in zip(rows_a, rows_b):
        rel = abs(a.delta_f_fn - b.delta_f_fn) / abs(b.delta_f_fn)
        worst = max(worst, rel)
        assert rel < 1e-4
    report(8, f"doubled caps + halved tolerances shift values by at most {worst:.2e}")


def test_criterion_9_modulation_signal():
    cfg = RunConfig()
    temperature = shifted_tc(LEAD, 200.0)
    fn = free_energy(GOLD, LEAD, temperature, cfg.gap_nm, CFG).value
    fs = fn - free_energy_difference(GOLD, LEAD, temperature, cfg.gap_nm, CFG).value
    to_fn = 2.0 * math.pi * cfg.radius_um * 1000.0 * CONST.ev_per_nm_to_fn
    mean = 0.5 * to_fn * (fn + fs)
    jump = to_fn * (fn - fs)
    spec = ModulationSpec(base_temperature=temperature, h=20.0, frequency=300.0)
    sig = force_signal(mean, jump, spec)
    period = spec.period
    # the two levels are exactly mean +- jump/2; their difference is not
    # asserted, as it rounds at one ulp of the mean (~6e-11 fN here)
    assert sig.jump == jump
    assert sig.waveform(period / 4.0) == mean + 0.5 * jump
    assert sig.waveform(3.0 * period / 4.0) == mean - 0.5 * jump
    n = 2048
    samples = [sig.waveform((k + 0.5) * period / n) for k in range(n)]
    assert sum(samples) / n == pytest.approx(mean, rel=1e-12)
    # the sampled CSV exposes the same two-level structure
    text = waveform_samples(cfg, spec, 8)
    forces = [float(ln.split(",")[3]) for ln in text.splitlines()
              if ln and not ln.startswith(("#", "t_s"))]
    assert len(set(forces)) == 2
    assert max(forces) - min(forces) == pytest.approx(jump, rel=1e-9)
    report(9, f"waveform jump {jump:.3f} fN around mean {mean:.3f} fN")


def test_criterion_10_determinism():
    cfg = replace(RunConfig(), compute_full=False,
                  sweep=SweepSpec("field_Oe", 150.0, 250.0, 2))
    first = render_rows(cfg, run_sweep(cfg))
    second = render_rows(cfg, run_sweep(cfg))
    assert first.encode() == second.encode()
    third = render_rows(cfg, run_sweep(cfg))
    assert first.encode() == third.encode()
    # cold caches: the gap solves and the g runs are recomputed from scratch
    materials.g_on_matsubara_grid.cache_clear()
    materials._g_memo.cache_clear()
    materials._universal_gap_curve.cache_clear()
    cold = render_rows(cfg, run_sweep(cfg))
    assert first.encode() == cold.encode()
    report(10, "byte-identical output across repeated runs and from cold caches")
