import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casimir_sc.lifshitz as lifshitz_mod
import casimir_sc.materials as materials
from casimir_sc.constants import CONST
from casimir_sc.errors import ConvergenceError, DomainError, PfaAccuracyWarning
from casimir_sc.lifshitz import (
    EngineConfig,
    delta_force_pfa,
    free_energy,
    free_energy_difference,
    ideal_mirror_free_energy,
)
from casimir_sc.materials import GOLD, LEAD, default_gap, drude_eps, eps_bcs, g_zero_limit
from casimir_sc.quadrature import adaptive_quad
from casimir_sc.sc_state import shifted_tc

from oracles import (
    ZETA3,
    difference_free_energy_exact,
    fresnel_mpmath,
    full_series_extent,
    ideal_casimir_energy,
    lifshitz_trapezoid,
    normal_free_energy_exact,
    superconducting_free_energy_direct,
)

CFG = EngineConfig()
T200 = shifted_tc(LEAD, 200.0)

# Regression values pinned after the first validated run (cross-checked
# against the coarse trapezoid oracle and the ideal-mirror closed form).
GOLDEN_F_NORMAL = -3.171284885610125e-06
GOLDEN_DIFF = 1.2304789924686617e-10


def f_super(T, d):
    """F_s = F_n - (F_n - F_s), from the two series the program sums."""
    return (free_energy(GOLD, LEAD, T, d, CFG).value
            - free_energy_difference(GOLD, LEAD, T, d, CFG).value)


# ---------------------------------------------------------------------------
# Fresnel coefficients


def fresnel(eps, xi, k_perp):
    """The engine's (r_te, r_tm) at imaginary frequency xi (eV) and k_perp
    (1/nm): _fresnel in scaled variables, y = 2 d q and y_l = 2 d xi/(hbar c),
    at d = 1/2 nm."""
    kappa = xi / CONST.hbar_c
    return lifshitz_mod._fresnel(eps, math.hypot(kappa, k_perp), kappa)


def test_fresnel_vacuum_reflects_nothing():
    assert fresnel(1.0, 0.1, 0.01) == (0.0, 0.0)


def test_fresnel_ideal_mirror_limit():
    te, tm = fresnel(1e14, 0.1, 0.01)
    assert te == pytest.approx(-1.0, abs=1e-4)
    assert tm == pytest.approx(1.0, abs=1e-4)


def test_fresnel_against_mpmath():
    eps = drude_eps(GOLD, 0.1)
    k_perp = 1.0 / 140.0
    te_ref, tm_ref = fresnel_mpmath(eps, 0.1, k_perp)
    te, tm = fresnel(eps, 0.1, k_perp)
    assert te == pytest.approx(te_ref, rel=1e-13)
    assert tm == pytest.approx(tm_ref, rel=1e-13)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e9),
       st.floats(min_value=1e-6, max_value=50.0),
       st.floats(min_value=1e-6, max_value=1.0))
def test_fresnel_bounds(eps, xi, k_perp):
    te, tm = fresnel(eps, xi, k_perp)
    assert -1.0 < te <= 0.0
    assert 0.0 <= tm < 1.0


# ---------------------------------------------------------------------------
# zero mode


def zero_mode_shift(eps_b, yl, d=70.0):
    """int _pair_log dy / -zeta(3) - 1 over the l = 0 range, for gold against
    eps_b(xi) at y_l = 2 d xi/(hbar c), on the engine's rule."""
    xi = yl * CONST.hbar_c / (2.0 * d)
    pair = lifshitz_mod._terms(lifshitz_mod._pair_log, np.array([yl]),
                               (np.array([drude_eps(GOLD, xi)]), np.array([eps_b(xi)])),
                               1e-12)[0][0]
    return pair / -ZETA3 - 1.0


def test_zero_mode_drude():
    """Drude slabs lose their TE zero mode and saturate the TM one: the l = 0
    integral -zeta(3) of one saturated polarization is the y_l -> 0+ limit
    of _pair_log, to O(y_l)."""
    for yl in (1e-4, 1e-6, 1e-8):
        assert abs(zero_mode_shift(lambda xi: drude_eps(LEAD, xi), yl)) < 100.0 * yl


def test_zero_mode_difference_structure():
    """The l = 0 term cancels in the phase difference for a Drude-modeled
    sphere: superconducting lead keeps a TE zero mode, but gold has none, so
    _pair_log tends to the same -zeta(3) in both phases of lead."""
    g0 = g_zero_limit(LEAD, default_gap(LEAD.tc), T200)
    shifts = [abs(zero_mode_shift(lambda xi: eps_bcs(LEAD, xi, g0), yl))
              for yl in (1e-4, 1e-6, 1e-8)]
    assert shifts[0] > 10.0 * shifts[1] > 100.0 * shifts[2]
    assert shifts[2] < 1e-4


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
    """At 0.01 K the thermal correction is about 5e-17 of the T = 0 value, so
    the strided series must meet the closed form to its own accuracy (8e-14;
    unit-step derivatives at strides of thousands leave it 1e-10 off)."""
    for d in (50.0, 100.0, 200.0):
        res = ideal_mirror_free_energy(0.01, d, CFG)
        assert res.value == pytest.approx(ideal_casimir_energy(d), rel=1e-12, abs=0.0)
    assert ideal_casimir_energy(100.0) == pytest.approx(-2.705e-6, rel=1e-3)


@pytest.mark.parametrize("T, d", [(300.0, 30_000.0), (100.0, 100_000.0)])
def test_zero_mode_is_classical_limit(T, d):
    """At y_1 >= 48 every term past l = 0 is below e^-48 of it, so a series
    is its l = 0 term: -kT zeta(3)/(16 pi d^2) per saturated polarization,
    two for ideal mirrors and the TM pair alone for Drude slabs."""
    assert 2.0 * d * 2.0 * math.pi * CONST.k_b * T / CONST.hbar_c >= 48.0
    classical = -CONST.k_b * T * ZETA3 / (8.0 * math.pi * d * d)
    for res, expected in ((ideal_mirror_free_energy(T, d, CFG), classical),
                          (free_energy(GOLD, LEAD, T, d, CFG), 0.5 * classical)):
        assert res.value == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert res.error_estimate < 1e-15 * abs(res.value)


# ---------------------------------------------------------------------------
# full free energy


def test_free_energy_domain():
    with pytest.raises(DomainError):
        free_energy(GOLD, LEAD, 0.0, 70.0, CFG)
    with pytest.raises(DomainError):
        free_energy(GOLD, LEAD, 6.24, -1.0, CFG)


@pytest.mark.parametrize("T, d", [(math.nan, 70.0), (math.inf, 70.0),
                                  (6.0, math.nan), (6.0, math.inf)])
def test_series_reject_non_finite_temperature_and_gap(T, d):
    with pytest.raises(DomainError, match="finite"):
        free_energy(GOLD, LEAD, T, d, CFG)
    with pytest.raises(DomainError, match="finite"):
        free_energy_difference(GOLD, LEAD, T, d, CFG)
    with pytest.raises(DomainError, match="finite"):
        ideal_mirror_free_energy(T, d, CFG)


def test_free_energy_golden_and_trapezoid():
    res = free_energy(GOLD, LEAD, T200, 70.0, CFG)
    assert res.value < 0.0
    assert res.value == pytest.approx(GOLDEN_F_NORMAL, rel=1e-8, abs=0)
    coarse = lifshitz_trapezoid(lambda xi: drude_eps(GOLD, xi),
                                lambda xi: drude_eps(LEAD, xi), T200, 70.0)
    assert res.value == pytest.approx(coarse, rel=5e-4, abs=0)


def test_free_energy_decays_with_gap():
    values = [abs(free_energy(GOLD, LEAD, T200, d, CFG).value)
              for d in (50.0, 100.0, 200.0, 300.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_free_energy_vanishes_at_large_gap():
    res = free_energy(GOLD, LEAD, T200, 1e5, CFG)
    assert abs(res.value) < 1e-12


# ---------------------------------------------------------------------------
# phase difference


def test_difference_golden():
    res = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    assert res.value == pytest.approx(GOLDEN_DIFF, rel=1e-7, abs=0)
    assert res.value > 0.0


def test_difference_matches_full_subtraction():
    fn = free_energy(GOLD, LEAD, T200, 70.0, CFG)
    fs = superconducting_free_energy_direct(GOLD, LEAD, T200, 70.0, CFG,
                                            full_series_extent(T200, 70.0))
    diff = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    assert diff.value == pytest.approx(fn.value - fs, rel=1e-6, abs=0)


@pytest.mark.parametrize("field_oe", [200.0, 775.0])
def test_full_series_uses_few_terms(field_oe):
    """The strided F_n evaluates a few hundred terms per octave of l, where
    every term up to y_l = 48 is 20,039 at 200 Oe and 98,172 at 775 Oe."""
    fn = free_energy(GOLD, LEAD, shifted_tc(LEAD, field_oe), 70.0, CFG)
    assert fn.terms_used < 2000


def test_difference_zero_at_tc():
    res = free_energy_difference(GOLD, LEAD, 7.2, 70.0, CFG)
    assert res.value == 0.0


def test_difference_truncation_robustness():
    tight = EngineConfig(rel_tol_quadrature=5e-10, rel_tol_series=5e-10,
                         matsubara_cap_full=30.0, matsubara_cap_diff=120.0)
    a = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    b = free_energy_difference(GOLD, LEAD, T200, 70.0, tight)
    assert a.value == pytest.approx(b.value, rel=1e-4, abs=0)


def test_block_size_does_not_change_series(monkeypatch):
    """The series integrate their terms, and fetch g, in blocks of l; a split
    into one-l blocks must not move a single bit."""
    diff = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    fs = f_super(T200, 200.0)
    terms, g = lifshitz_mod._terms, lifshitz_mod.g_matsubara

    def one_row_terms(integrand, yl, params, rel_tol):
        rows = [terms(integrand, yl[i:i + 1], tuple(p[i:i + 1] for p in params), rel_tol)
                for i in range(yl.size)]
        return tuple(np.concatenate(part) for part in zip(*rows))

    def one_l_g(material, gap, T, l):
        return np.concatenate([g(material, gap, T, l[i:i + 1]) for i in range(l.size)])

    monkeypatch.setattr(lifshitz_mod, "_terms", one_row_terms)
    monkeypatch.setattr(lifshitz_mod, "g_matsubara", one_l_g)
    materials._g_memo.cache_clear()
    assert free_energy_difference(GOLD, LEAD, T200, 70.0, CFG) == diff
    assert f_super(T200, 200.0) == fs


@pytest.mark.parametrize("rows", [1, 7])
def test_pass_size_does_not_change_series(monkeypatch, rows):
    """Each rung integrates its rows in passes of _PASS_NODES nodes; passes
    of one or of seven first-rung rows must not move a single bit of F_n or
    of the difference series, nor their terms_used."""
    diff = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    fn = free_energy(GOLD, LEAD, T200, 70.0, CFG)
    monkeypatch.setattr(lifshitz_mod, "_PASS_NODES",
                        rows * lifshitz_mod._LADDER[0].nodes.size)
    assert free_energy_difference(GOLD, LEAD, T200, 70.0, CFG) == diff
    assert free_energy(GOLD, LEAD, T200, 70.0, CFG) == fn


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


def _block_to_255(field_oe):
    """_terms arguments of the 70 nm difference series for l = 1 .. 255, the
    first block of a 256-term head, built as free_energy_difference builds
    its blocks."""
    T = shifted_tc(LEAD, field_oe)
    l = np.arange(1, 256)
    xi = 2.0 * math.pi * CONST.k_b * T * l
    g = lifshitz_mod.g_matsubara(LEAD, default_gap(LEAD.tc), T, l)
    params = (drude_eps(GOLD, xi), drude_eps(LEAD, xi), eps_bcs(LEAD, xi, g))
    return (lifshitz_mod._diff_log, lifshitz_mod._scaled_yl(xi, 70.0), params,
            CFG.rel_tol_quadrature)


@pytest.mark.parametrize("field_oe", [200.0, 775.0])
def test_fine_pass_rows_are_accurate(monkeypatch, field_oe):
    """Every row of a block that the 6-panel rule flags is served from a finer
    rung of the ladder, the rows that used to fall back to adaptive_quad
    included, within rel 1e-9 of a 1e-14 adaptive integral and with an error
    estimate that bounds the deviation.  The other rows keep the first rung's
    bits, and the flagged rows the bisected rule accepts keep its bits.  The
    block is l = 1 .. 255: at 775 Oe the rows that the bisected rule accepts
    lie past the head's first block, l < _HEAD."""
    integrand, yl, params, rel_tol = _block_to_255(field_oe)
    first = _first_block(monkeypatch, field_oe)
    assert np.array_equal(first[1], yl[:first[1].size])
    assert all(np.array_equal(a, b[:a.size]) for a, b in zip(first[2], params))
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
                         [(200.0, 367, 18.580427126530353, 36),
                          (775.0, 445, 56.77679086961815, 142)], ids=["200.0", "775.0"])
def test_fine_pass_keeps_series(monkeypatch, field_oe, terms_used, delta_f_fn,
                                fallbacks):
    """The rule ladder leaves the 70 nm series where the per-row adaptive
    refinement had it and makes no adaptive_quad call.  The rows that the
    bisected rule leaves short reach the third rung: at 200 Oe all 36 lie in
    the exactly summed head, at 775 Oe 127 of the 142 do."""
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
    assert res.delta_f_fn == pytest.approx(delta_f_fn, rel=1e-12, abs=0)


@pytest.mark.parametrize("d, T, rrr_pb, terms_used, delta_f_fn",
                         [(10.5, 7.0, 1e4, 408, 243229.5423130363),
                          (1000.0, 1.0, 1.0, 333, 0.5115448757204183)],
                         ids=["10.5-7.0-10000.0", "1000.0-1.0-1.0"])
def test_ladder_keeps_series_at_domain_edges(d, T, rrr_pb, terms_used, delta_f_fn):
    """Near the smallest gap and at a large one the ladder and the stride keep
    the series that per-row adaptive refinement gave, summed term by term."""
    lead = replace(LEAD, rrr=rrr_pb)
    res = delta_force_pfa(GOLD, lead, 150.0, T, d, CFG)
    assert res.terms_used == terms_used
    assert res.delta_f_fn == pytest.approx(delta_f_fn, rel=1e-12, abs=0)


@pytest.mark.parametrize("rel_tol", [1e-16, 1e-20])
def test_terms_meet_tolerance_to_double_resolution(monkeypatch, rel_tol):
    """Every row of the first 775 Oe block, and the y log y head at y_l = 0,
    meets a tolerance down to double resolution; a tighter one is held to it."""
    integrand, yl, params, default_tol = _first_block(monkeypatch, 775.0)
    ref, _ = lifshitz_mod._terms(integrand, yl, params, default_tol)
    vals, errs = lifshitz_mod._terms(integrand, yl, params, rel_tol)
    assert np.all(errs <= max(rel_tol, np.finfo(float).eps) * np.abs(vals))
    assert vals == pytest.approx(ref, rel=1e-12, abs=0)
    head, head_err = lifshitz_mod._terms(lifshitz_mod._ideal_log, np.zeros(1), (), rel_tol)
    assert head_err[0] <= np.finfo(float).eps * abs(head[0])
    assert head[0] == pytest.approx(-2.0 * ZETA3, rel=1e-14, abs=0.0)


def test_terms_raise_on_unconverged_row():
    """A row that no rung of the ladder accepts raises ConvergenceError
    naming its y_l; the other rows do not hide it."""
    yl = np.array([0.5, 1.25, 2.0])

    def integrand(y, yl_col):
        return np.where(yl_col == 1.25, np.nan, y * np.exp(-y))

    with pytest.raises(ConvergenceError, match=r"y_l = 1\.25"):
        lifshitz_mod._terms(integrand, yl, (), CFG.rel_tol_quadrature)


def test_g_requested_once_per_block(monkeypatch):
    """Each block of terms asks for g on its own l only, once: the first
    block is the head l = 1 .. _HEAD - 1, and every l's g is asked for once."""
    g_calls, term_calls = [], []
    g, terms = lifshitz_mod.g_matsubara, lifshitz_mod._terms

    def record_g(material, gap, T, l):
        g_calls.append(l.tolist())
        return g(material, gap, T, l)

    def record_terms(integrand, yl, params, rel_tol):
        term_calls.append(yl.size)
        return terms(integrand, yl, params, rel_tol)

    monkeypatch.setattr(lifshitz_mod, "g_matsubara", record_g)
    monkeypatch.setattr(lifshitz_mod, "_terms", record_terms)
    res = free_energy_difference(GOLD, LEAD, T200, 70.0, CFG)
    assert g_calls[0] == list(range(1, lifshitz_mod._HEAD))
    assert [len(c) for c in g_calls] == term_calls
    fetched = [l for c in g_calls for l in c]
    assert len(fetched) == len(set(fetched)) == res.terms_used - 1


@pytest.mark.parametrize("T, d, rrr_pb", [(shifted_tc(LEAD, 200.0), 70.0, 2.0),
                                          (shifted_tc(LEAD, 775.0), 70.0, 2.0),
                                          (7.0, 10.5, 1e4), (1.0, 1000.0, 1.0),
                                          (1.0, 10.5, 2.0), (7.0, 1e6, 2.0),
                                          (0.5, 1e6, 2.0)])
def test_difference_stops_where_ascending_sum_stops(T, d, rrr_pb):
    """The strided difference series stops at the l where the ascending sum
    stops and meets it to 1e-12: at 200 and 775 Oe, 70 nm (4,203 and 18,012
    terms), near the smallest and at a large gap, and at 10.5 nm, 1 K
    (71,056 terms).  A stop one l off would show, since every term near the
    stop is about rel_tol_series of the sum.  At 1 mm the terms past a few
    hundred l underflow to 0, and the series must neither warn nor fail;
    at 0.5 K it runs past y_l = 48 to l_cap = 486."""
    lead = replace(LEAD, rrr=rrr_pb)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diff = free_energy_difference(GOLD, lead, T, d, CFG)
    assert math.isfinite(diff.error_estimate)
    exact = difference_free_energy_exact(GOLD, lead, T, d, CFG)
    assert diff.value == pytest.approx(exact.value, rel=1e-12, abs=0.0)


def test_difference_evaluates_few_terms(monkeypatch):
    """At 775 Oe, 70 nm the ascending sum takes 18,012 terms; the strided
    series evaluates at most 1,000 distinct l, each term and each g once."""
    term_l, g_l = [], []
    terms, g = lifshitz_mod._terms, lifshitz_mod.g_matsubara
    T = shifted_tc(LEAD, 775.0)
    h = 2.0 * math.pi * CONST.k_b * T

    def record_terms(integrand, yl, params, rel_tol):
        term_l.extend(np.rint(yl * CONST.hbar_c / (2.0 * 70.0 * h)).astype(int).tolist())
        return terms(integrand, yl, params, rel_tol)

    def record_g(material, gap, T, l):
        g_l.extend(l.tolist())
        return g(material, gap, T, l)

    monkeypatch.setattr(lifshitz_mod, "_terms", record_terms)
    monkeypatch.setattr(lifshitz_mod, "g_matsubara", record_g)
    res = free_energy_difference(GOLD, LEAD, T, 70.0, CFG)
    assert len(term_l) == len(set(term_l)) == res.terms_used - 1 <= 1000
    assert sorted(g_l) == sorted(term_l)


@pytest.mark.parametrize("field_oe", [200.0, 775.0])
def test_difference_error_bounds_refinement(field_oe):
    """The difference series' error estimate, the tail past the stop
    included, bounds the shift seen when both tolerances are halved and both
    caps doubled; the halved rel_tol_series moves the stop."""
    T = shifted_tc(LEAD, field_oe)
    finer = replace(CFG, rel_tol_quadrature=CFG.rel_tol_quadrature / 2,
                    rel_tol_series=CFG.rel_tol_series / 2,
                    matsubara_cap_full=2 * CFG.matsubara_cap_full,
                    matsubara_cap_diff=2 * CFG.matsubara_cap_diff)
    diff = free_energy_difference(GOLD, LEAD, T, 70.0, CFG)
    refined = free_energy_difference(GOLD, LEAD, T, 70.0, finer)
    assert diff.error_estimate >= abs(diff.value - refined.value) > 0.0


@pytest.mark.parametrize("T", [1.0, 0.1])
def test_difference_converges_at_smallest_gap(T):
    """At 10.5 nm the ascending sum stops after 71,056 terms at 1 K and after
    526,164 at 0.1 K, about 290 and 220 times l_cap.  The strided series
    converges there on a few octaves of evaluated terms, with a finite tail."""
    res = free_energy_difference(GOLD, LEAD, T, 10.5, CFG)
    assert res.value > 0.0
    assert res.terms_used < 2000
    assert 0.0 < res.error_estimate < 1e-3 * res.value


def test_difference_raises_without_quiet_term_by_y_stop(monkeypatch):
    """The difference series gives up only when no octave edge is quiet by
    y_l = _Y_STOP; at 775 Oe, 70 nm its stop lies at y_l = 8.8."""
    monkeypatch.setattr(lifshitz_mod, "_Y_STOP", 1.0)
    with pytest.raises(ConvergenceError, match=r"no quiet term by y_l = 1, l = 2048"):
        free_energy_difference(GOLD, LEAD, shifted_tc(LEAD, 775.0), 70.0, CFG)


@pytest.mark.parametrize("field_oe", [200.0, 775.0])
def test_strided_full_series_matches_exact_sum(field_oe):
    """F_n on the graded stride against every term up to y_l = 48 summed in
    ascending order (20,039 and 98,172 terms), with an error estimate that
    bounds the deviation.  At rel_tol_series 1e-13 the stride check halves
    strides until the sum meets the exact one to 1e-14 (a stride that does
    not adapt stays 8.6e-14 off)."""
    T = shifted_tc(LEAD, field_oe)
    fn = free_energy(GOLD, LEAD, T, 70.0, CFG)
    exact = normal_free_energy_exact(GOLD, LEAD, T, 70.0, CFG)
    assert fn.value == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert fn.error_estimate >= abs(fn.value - exact)
    tight = free_energy(GOLD, LEAD, T, 70.0, replace(CFG, rel_tol_series=1e-13))
    assert tight.value == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("field_oe", [200.0, 775.0])
def test_full_series_error_bounds_refinement(field_oe):
    """F_n's error estimate bounds the shift seen when both tolerances are
    halved and matsubara_cap_full is doubled."""
    T = shifted_tc(LEAD, field_oe)
    finer = replace(CFG, rel_tol_quadrature=CFG.rel_tol_quadrature / 2,
                    rel_tol_series=CFG.rel_tol_series / 2,
                    matsubara_cap_full=2 * CFG.matsubara_cap_full)
    fn = free_energy(GOLD, LEAD, T, 70.0, CFG)
    refined = free_energy(GOLD, LEAD, T, 70.0, finer)
    assert fn.error_estimate >= abs(fn.value - refined.value)


@pytest.mark.parametrize("T, d", [(0.1, 70.0), (1.0, 10.5)])
def test_full_series_converges_at_domain_edges(T, d):
    """Far below T'c(H) and at the smallest gap the strided F_n converges, and
    a run at rel_tol_series 1e-12 lands within the default run's estimate."""
    fn = free_energy(GOLD, LEAD, T, d, CFG)
    tight = free_energy(GOLD, LEAD, T, d, replace(CFG, rel_tol_series=1e-12))
    assert fn.value < 0.0
    assert abs(fn.value - tight.value) <= fn.error_estimate


def test_low_temperature_superconductor_matches_direct_series():
    """At 2 K, 150 nm, F_s = F_n - diff, with the strided F_n, matches the
    directly summed superconducting series."""
    direct = superconducting_free_energy_direct(GOLD, LEAD, 2.0, 150.0, CFG,
                                                full_series_extent(2.0, 150.0))
    assert f_super(2.0, 150.0) == pytest.approx(direct, rel=1e-5, abs=0)


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
