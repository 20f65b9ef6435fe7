import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casimir_sc.lifshitz as lifshitz_mod
from casimir_sc.constants import CONST
from casimir_sc.errors import ConvergenceError, DomainError, PfaAccuracyWarning
from casimir_sc.lifshitz import (
    EngineConfig,
    delta_force_pfa,
    free_energy,
    free_energy_difference,
    fresnel_te,
    fresnel_tm,
    ideal_mirror_free_energy,
    matsubara_xi,
    zero_mode_reflections,
)
from casimir_sc.materials import GOLD, LEAD, default_gap, drude_eps, g_zero_limit
from casimir_sc.quadrature import adaptive_quad
from casimir_sc.sc_state import Phase, shifted_tc

from oracles import (
    fresnel_mpmath,
    ideal_casimir_energy,
    lifshitz_trapezoid,
    superconducting_free_energy_direct,
)

CFG = EngineConfig()
T200 = shifted_tc(LEAD, 200.0)

# Regression values pinned after the first validated run (cross-checked
# against the coarse trapezoid oracle and the ideal-mirror closed form).
GOLDEN_F_NORMAL = -3.171284885610125e-06
GOLDEN_DIFF = 1.2304789924686617e-10


# ---------------------------------------------------------------------------
# Matsubara frequencies


def test_matsubara_examples():
    assert matsubara_xi(0, 6.24) == 0.0
    xi1 = matsubara_xi(1, 6.24)
    assert xi1 == pytest.approx(2.0 * math.pi * CONST.k_b * 6.24, rel=1e-15)
    assert xi1 == pytest.approx(3.379e-3, rel=2e-4)
    assert matsubara_xi(2, 6.24) == 2.0 * xi1


def test_matsubara_domain():
    with pytest.raises(DomainError):
        matsubara_xi(1, 0.0)
    with pytest.raises(DomainError):
        matsubara_xi(-1, 1.0)


# ---------------------------------------------------------------------------
# Fresnel coefficients


def test_fresnel_vacuum_reflects_nothing():
    assert fresnel_te(1.0, 0.1, 0.01) == 0.0
    assert fresnel_tm(1.0, 0.1, 0.01) == 0.0


def test_fresnel_ideal_mirror_limit():
    te = fresnel_te(1e14, 0.1, 0.01)
    tm = fresnel_tm(1e14, 0.1, 0.01)
    assert te == pytest.approx(-1.0, abs=1e-4)
    assert tm == pytest.approx(1.0, abs=1e-4)


def test_fresnel_against_mpmath():
    eps = drude_eps(GOLD, 0.1)
    k_perp = 1.0 / 140.0
    te_ref, tm_ref = fresnel_mpmath(eps, 0.1, k_perp)
    assert fresnel_te(eps, 0.1, k_perp) == pytest.approx(te_ref, rel=1e-13)
    assert fresnel_tm(eps, 0.1, k_perp) == pytest.approx(tm_ref, rel=1e-13)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e9),
       st.floats(min_value=1e-6, max_value=50.0),
       st.floats(min_value=1e-6, max_value=1.0))
def test_fresnel_bounds(eps, xi, k_perp):
    te = fresnel_te(eps, xi, k_perp)
    tm = fresnel_tm(eps, xi, k_perp)
    assert -1.0 < te <= 0.0
    assert 0.0 <= tm < 1.0


# ---------------------------------------------------------------------------
# zero mode


def test_zero_mode_drude():
    for k in (1e-4, 1e-2, 1.0):
        pair = zero_mode_reflections(GOLD, Phase.NORMAL, 6.24, k)
        assert pair.r_te == 0.0 and pair.r_tm == 1.0
    pair = zero_mode_reflections(LEAD, Phase.NORMAL, 6.24, 0.01)
    assert pair.r_te == 0.0 and pair.r_tm == 1.0


def test_zero_mode_bcs_closed_form():
    gap = default_gap(LEAD.tc)
    g0 = g_zero_limit(LEAD, gap, 0.72)
    ks = LEAD.omega_p * math.sqrt(g0) / CONST.hbar_c
    k_perp = 1e-2
    expected = (k_perp - math.hypot(k_perp, ks)) / (k_perp + math.hypot(k_perp, ks))
    pair = zero_mode_reflections(LEAD, Phase.SUPERCONDUCTING, 0.72, k_perp, gap)
    assert pair.r_tm == 1.0
    assert pair.r_te == pytest.approx(expected, rel=1e-12)
    assert pair.r_te < 0.0


def test_zero_mode_bcs_vanishes_at_large_k():
    pair = zero_mode_reflections(LEAD, Phase.SUPERCONDUCTING, 0.72, 1e3)
    assert -1e-5 < pair.r_te < 0.0


def test_zero_mode_difference_structure():
    """The l=0 term cancels in the phase difference for a Drude-modeled
    sphere: gold has no TE zero mode and both lead phases saturate TM."""
    au = zero_mode_reflections(GOLD, Phase.NORMAL, T200, 0.01)
    pb_n = zero_mode_reflections(LEAD, Phase.NORMAL, T200, 0.01)
    pb_s = zero_mode_reflections(LEAD, Phase.SUPERCONDUCTING, T200, 0.01)
    assert au.r_te * pb_n.r_te == au.r_te * pb_s.r_te == 0.0
    assert au.r_tm * pb_n.r_tm == au.r_tm * pb_s.r_tm == 1.0
    # the superconducting TE zero mode itself is the nonzero signature
    assert pb_s.r_te < 0.0 and pb_n.r_te == 0.0


# ---------------------------------------------------------------------------
# engine config


def test_engine_config_validation():
    with pytest.raises(DomainError):
        EngineConfig(rel_tol_quadrature=0.0)
    with pytest.raises(DomainError):
        EngineConfig(rel_tol_series=1e-2)
    with pytest.raises(DomainError):
        EngineConfig(matsubara_cap_full=5.0)
    with pytest.raises(DomainError):
        EngineConfig(matsubara_cap_diff=10.0)
    for value in (math.nan, math.inf):
        with pytest.raises(DomainError, match="matsubara_cap_full"):
            EngineConfig(matsubara_cap_full=value)
        with pytest.raises(DomainError, match="matsubara_cap_diff"):
            EngineConfig(matsubara_cap_diff=value)


# ---------------------------------------------------------------------------
# ideal mirrors


def test_ideal_mirror_matches_closed_form():
    for d in (50.0, 100.0, 200.0):
        res = ideal_mirror_free_energy(0.01, d, CFG)
        assert res.value == pytest.approx(ideal_casimir_energy(d), rel=1e-2)
    assert ideal_casimir_energy(100.0) == pytest.approx(-2.705e-6, rel=1e-3)


# ---------------------------------------------------------------------------
# full free energy


def test_free_energy_domain():
    with pytest.raises(DomainError):
        free_energy(GOLD, LEAD, Phase.NORMAL, 0.0, 70.0, CFG)
    with pytest.raises(DomainError):
        free_energy(GOLD, LEAD, Phase.NORMAL, 6.24, -1.0, CFG)
    with pytest.raises(DomainError):
        free_energy(GOLD, LEAD, Phase.SUPERCONDUCTING, 7.5, 70.0, CFG)
    with pytest.raises(DomainError):
        free_energy(GOLD, GOLD, Phase.SUPERCONDUCTING, 1.0, 70.0, CFG)


@pytest.mark.parametrize("T, d", [(math.nan, 70.0), (math.inf, 70.0),
                                  (6.0, math.nan), (6.0, math.inf)])
def test_series_reject_non_finite_temperature_and_gap(T, d):
    for phase in Phase:
        with pytest.raises(DomainError, match="finite"):
            free_energy(GOLD, LEAD, phase, T, d, CFG)
    with pytest.raises(DomainError, match="finite"):
        free_energy_difference(GOLD, LEAD, T, d, CFG)
    with pytest.raises(DomainError, match="finite"):
        ideal_mirror_free_energy(T, d, CFG)


def test_free_energy_golden_and_trapezoid():
    res = free_energy(GOLD, LEAD, Phase.NORMAL, T200, 70.0, CFG)
    assert res.value < 0.0
    assert res.value == pytest.approx(GOLDEN_F_NORMAL, rel=1e-8)
    coarse = lifshitz_trapezoid(lambda xi: drude_eps(GOLD, xi),
                                lambda xi: drude_eps(LEAD, xi), T200, 70.0)
    assert res.value == pytest.approx(coarse, rel=5e-4)


def test_free_energy_decays_with_gap():
    values = [abs(free_energy(GOLD, LEAD, Phase.NORMAL, T200, d, CFG).value)
              for d in (50.0, 100.0, 200.0, 300.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_free_energy_vanishes_at_large_gap():
    res = free_energy(GOLD, LEAD, Phase.NORMAL, T200, 1e5, CFG)
    assert abs(res.value) < 1e-12


# ---------------------------------------------------------------------------
# phase difference


def test_difference_golden():
    res = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    assert res.value == pytest.approx(GOLDEN_DIFF, rel=1e-7)
    assert res.value > 0.0


def test_difference_matches_full_subtraction():
    fn = free_energy(GOLD, LEAD, Phase.NORMAL, T200, 70.0, CFG)
    fs = superconducting_free_energy_direct(GOLD, LEAD, T200, 70.0, CFG,
                                            fn.terms_used - 1)
    diff = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    assert diff.value == pytest.approx(fn.value - fs, rel=1e-6)


def test_difference_uses_far_fewer_terms():
    fn = free_energy(GOLD, LEAD, Phase.NORMAL, T200, 70.0, CFG)
    diff = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    assert diff.terms_used < fn.terms_used / 2


def test_difference_zero_at_tc():
    res = free_energy_difference(GOLD, LEAD, 7.2, 70.0, CFG)
    assert res.value == 0.0


def test_difference_truncation_robustness():
    tight = EngineConfig(rel_tol_quadrature=5e-10, rel_tol_series=5e-10,
                         matsubara_cap_full=30.0, matsubara_cap_diff=120.0)
    a = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    b = free_energy_difference(GOLD, LEAD, T200, 70.0, tight)
    assert a.value == pytest.approx(b.value, rel=1e-4)


def test_block_size_does_not_change_series(monkeypatch):
    """Terms are integrated in blocks of l, each with its own slice of g;
    the split must not move a single bit."""
    diff = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    fs = free_energy(GOLD, LEAD, Phase.SUPERCONDUCTING, T200, 200.0, CFG)
    monkeypatch.setattr(lifshitz_mod, "_BLOCK", 7)
    assert free_energy_difference(GOLD, LEAD, T200, 70.0, CFG) == diff
    assert free_energy(GOLD, LEAD, Phase.SUPERCONDUCTING, T200, 200.0, CFG) == fs


def _first_block(monkeypatch, field_oe):
    """The arguments of the first _terms call of the 70 nm difference series."""
    calls = []
    terms = lifshitz_mod._terms

    def record(*args):
        calls.append(args)
        return terms(*args)

    monkeypatch.setattr(lifshitz_mod, "_terms", record)
    free_energy_difference(GOLD, LEAD, shifted_tc(LEAD, field_oe), 70.0, CFG)
    return calls[0]


@pytest.mark.parametrize("field_oe", [200.0, 775.0])
def test_fine_pass_rows_are_accurate(monkeypatch, field_oe):
    """Every row of a block that the 6-panel rule flags is served from a finer
    rung of the ladder, the rows that used to fall back to adaptive_quad
    included, within rel 1e-9 of a 1e-14 adaptive integral and with an error
    estimate that bounds the deviation.  The other rows keep the first rung's
    bits, and the flagged rows the bisected rule accepts keep its bits."""
    integrand, yl, params, rel_tol = _first_block(monkeypatch, field_oe)
    vals, errs = lifshitz_mod._integrate(lifshitz_mod._LADDER[0], integrand, yl, params)
    flagged = ~lifshitz_mod._accepted(vals, errs, rel_tol)
    fine, fine_errs = lifshitz_mod._integrate(lifshitz_mod._LADDER[1], integrand, yl, params)
    ok1 = flagged & lifshitz_mod._accepted(fine, fine_errs, rel_tol)
    assert ok1.any()
    assert (flagged & ~ok1).any()
    served, served_errs = lifshitz_mod._terms(integrand, yl, params, rel_tol)
    assert np.array_equal(served[~flagged], vals[~flagged])
    assert np.array_equal(served_errs[~flagged], errs[~flagged])
    assert np.array_equal(served[ok1], fine[ok1])
    assert np.array_equal(served_errs[ok1], fine_errs[ok1])
    for i in np.flatnonzero(flagged):
        row = [p[i] for p in params]
        ref, _ = adaptive_quad(lambda z: integrand(yl[i] + z, yl[i], *row),
                               0.0, lifshitz_mod._Y_CUT, rel_tol=1e-14, abs_tol=1e-300,
                               breakpoints=lifshitz_mod._Y_SPLITS[1:-1], max_panels=4000)
        deviation = abs(served[i] - ref)
        assert deviation <= 1e-9 * abs(ref)
        assert served_errs[i] >= deviation


@pytest.mark.parametrize("field_oe, terms_used, delta_f_fn, fallbacks",
                         [(200.0, 4204, 18.580427126530353, 36),
                          (775.0, 18013, 56.77679086961815, 179)])
def test_fine_pass_keeps_series(monkeypatch, field_oe, terms_used, delta_f_fn,
                                fallbacks):
    """The rule ladder leaves the 70 nm series where the per-row adaptive
    refinement had it and makes no adaptive_quad call.  The rows that the
    bisected rule leaves short, and so reach the third rung, are exactly
    those that used to fall back to adaptive_quad: about a tenth of the rows
    the 6-panel rule flags (359 and 1,763)."""
    calls = []
    beyond_fine = []
    adaptive = lifshitz_mod.adaptive_quad
    integrate = lifshitz_mod._integrate

    def count(*args, **kwargs):
        calls.append(args)
        return adaptive(*args, **kwargs)

    def record(rule, integrand, yl, params):
        if rule is lifshitz_mod._LADDER[2]:
            beyond_fine.append(yl.size)
        return integrate(rule, integrand, yl, params)

    monkeypatch.setattr(lifshitz_mod, "adaptive_quad", count)
    monkeypatch.setattr(lifshitz_mod, "_integrate", record)
    res = delta_force_pfa(GOLD, LEAD, 150.0, shifted_tc(LEAD, field_oe), 70.0, CFG)
    assert not calls
    assert sum(beyond_fine) == fallbacks
    assert res.terms_used == terms_used
    assert res.delta_f_fn == pytest.approx(delta_f_fn, rel=1e-12)


@pytest.mark.parametrize("d, T, rrr_pb, terms_used, delta_f_fn",
                         [(10.5, 7.0, 1e4, 13074, 243229.5423130363),
                          (1000.0, 1.0, 1.0, 2259, 0.5115448757204183)])
def test_ladder_keeps_series_at_domain_edges(d, T, rrr_pb, terms_used, delta_f_fn):
    """Near the smallest gap and at a large one the ladder keeps the series
    that per-row adaptive refinement gave (153 and 16 rows went there)."""
    lead = replace(LEAD, rrr=rrr_pb)
    res = delta_force_pfa(GOLD, lead, 150.0, T, d, CFG)
    assert res.terms_used == terms_used
    assert res.delta_f_fn == pytest.approx(delta_f_fn, rel=1e-12)


@pytest.mark.parametrize("rel_tol", [1e-16, 1e-20])
def test_terms_meet_tolerance_to_double_resolution(monkeypatch, rel_tol):
    """Every row of the first 775 Oe block, and the y log y head at y_l = 0,
    meets a tolerance down to double resolution; a tighter one is held to it."""
    integrand, yl, params, default_tol = _first_block(monkeypatch, 775.0)
    ref, _ = lifshitz_mod._terms(integrand, yl, params, default_tol)
    vals, errs = lifshitz_mod._terms(integrand, yl, params, rel_tol)
    assert np.all(errs <= max(rel_tol, np.finfo(float).eps) * np.abs(vals))
    assert vals == pytest.approx(ref, rel=1e-12)
    head, head_err = lifshitz_mod._terms(lifshitz_mod._tm_zero_log, np.zeros(1), (), rel_tol)
    assert head_err[0] <= np.finfo(float).eps * abs(head[0])
    assert head[0] == pytest.approx(-1.2020569031595942, rel=1e-15)  # -zeta(3)


def test_terms_raise_on_unconverged_row():
    """A row that no rung of the ladder accepts raises ConvergenceError
    naming its y_l; the other rows do not hide it."""
    yl = np.array([0.5, 1.25, 2.0])

    def integrand(y, yl_col):
        return np.where(yl_col == 1.25, np.nan, y * np.exp(-y))

    with pytest.raises(ConvergenceError, match=r"y_l = 1\.25"):
        lifshitz_mod._terms(integrand, yl, (), CFG.rel_tol_quadrature)


def test_g_requested_once_per_block(monkeypatch):
    """Each block asks for g on its own l only: the requested runs climb
    from l = 1 without gap or overlap and stop within a block of the end."""
    runs = []
    g_on_grid = lifshitz_mod.g_on_matsubara_grid

    def record(*args, **kwargs):
        call = inspect.signature(g_on_grid).bind(*args, **kwargs).arguments
        first = call.get("l_first", 0)
        runs.append((first, first + call["l_count"]))
        return g_on_grid(*args, **kwargs)

    monkeypatch.setattr(lifshitz_mod, "g_on_matsubara_grid", record)
    res = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    assert runs[0][0] == 1
    for (_, last), (first, _) in zip(runs, runs[1:]):
        assert first == last + 1
    assert res.terms_used - 1 <= runs[-1][1] < res.terms_used + lifshitz_mod._BLOCK


def test_low_temperature_series_path_consistency(monkeypatch):
    exact = free_energy(GOLD, LEAD, Phase.NORMAL, 1.0, 100.0, CFG)
    monkeypatch.setattr(lifshitz_mod, "_MAX_EXACT_TERMS", 1000)
    integral_form = free_energy(GOLD, LEAD, Phase.NORMAL, 1.0, 100.0, CFG)
    assert integral_form.value == pytest.approx(exact.value, rel=1e-5)


def test_low_temperature_superconductor_matches_direct_series(monkeypatch):
    """Where F_n takes its Euler-Maclaurin integral form, F_s = F_n - diff
    still matches the directly summed superconducting series: the difference
    series is an exact sum, so only F_n's integral form is off."""
    exact = free_energy(GOLD, LEAD, Phase.NORMAL, 2.0, 150.0, CFG)
    direct = superconducting_free_energy_direct(GOLD, LEAD, 2.0, 150.0, CFG,
                                                exact.terms_used - 1)
    monkeypatch.setattr(lifshitz_mod, "_MAX_EXACT_TERMS", 1000)
    fs = free_energy(GOLD, LEAD, Phase.SUPERCONDUCTING, 2.0, 150.0, CFG)
    assert fs.value == pytest.approx(direct, rel=1e-5)


# ---------------------------------------------------------------------------
# PFA force jump


def test_delta_force_values_and_bound():
    res = delta_force_pfa(GOLD, LEAD, 150.0, T200, 70.0, CFG)
    assert res.pfa_bound == pytest.approx(70.0 / 150_000.0, rel=1e-12)
    assert res.pfa_bound == pytest.approx(4.7e-4, rel=1e-2)
    assert 1.0 <= res.delta_f_fn <= 300.0
    assert res.delta_f_fn == pytest.approx(
        2.0 * math.pi * 150_000.0 * res.diff_ev_nm2 * CONST.ev_per_nm_to_fn,
        rel=1e-14)


def test_delta_force_zero_difference():
    res = delta_force_pfa(GOLD, LEAD, 150.0, 7.2, 70.0, CFG)
    assert res.delta_f_fn == 0.0


def test_delta_force_rejects_non_finite_radius():
    for radius in (math.nan, math.inf, 0.0):
        with pytest.raises(DomainError, match="R_um"):
            delta_force_pfa(GOLD, LEAD, radius, T200, 70.0, CFG)


def test_delta_force_pfa_warning():
    with pytest.warns(PfaAccuracyWarning):
        delta_force_pfa(GOLD, LEAD, 0.005, 7.2, 70.0, CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta_force_pfa(GOLD, LEAD, 150.0, 7.2, 70.0, CFG)
