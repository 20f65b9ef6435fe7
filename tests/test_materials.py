import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from casimir_sc import materials
from casimir_sc.constants import CONST
from casimir_sc.errors import ConvergenceError, DomainError
from casimir_sc.materials import (
    GOLD,
    LEAD,
    MaterialParams,
    bcs_gap,
    default_gap,
    dirty_limit_ratio,
    drude_eps,
    eps_bcs,
    g_matsubara,
    g_on_matsubara_grid,
    g_zero_limit,
    mattis_bardeen_g,
)
from casimir_sc.sc_state import shifted_tc

from oracles import (
    g_body_windowed,
    g_energy_integral_mp,
    g_from_oracle,
    g_matsubara_bruteforce,
    g_matsubara_exact_cross,
    gap_ratio_bruteforce,
    kk_oracle_sigma,
)

GAP = default_gap(LEAD.tc)
TWO_D0 = 2.0 * GAP.delta0


# ---------------------------------------------------------------------------
# parameters


def test_registry_defaults():
    assert GOLD.omega_p == 9.0 and GOLD.gamma0 == 0.035 and GOLD.rrr == 1.0
    assert LEAD.omega_p == 7.36 and LEAD.gamma0 == 0.200 and LEAD.rrr == 2.0
    assert LEAD.tc == 7.2 and LEAD.hc0 == 800.0 and LEAD.lambda0 == 35.0
    assert GOLD.gamma == 0.035 and LEAD.gamma == pytest.approx(0.1, rel=1e-15)


def test_material_validation():
    with pytest.raises(DomainError):
        MaterialParams(name="bad", omega_p=-1.0, gamma0=0.1)
    with pytest.raises(DomainError):
        MaterialParams(name="bad", omega_p=1.0, gamma0=0.1, rrr=0.5)
    with pytest.raises(DomainError):
        MaterialParams(name="bad", omega_p=1.0, gamma0=0.1, tc=5.0)  # no hc0/lambda0


# ---------------------------------------------------------------------------
# Drude


def test_drude_gold_at_gamma():
    # 1 + 81 / (0.035 * 0.070)
    val = drude_eps(GOLD, 0.035)
    assert val == pytest.approx(1.0 + 81.0 / 0.00245, rel=1e-12)
    assert val == pytest.approx(3.3062e4, rel=1e-4)


def test_drude_lead_example():
    val = drude_eps(LEAD, 0.1)
    assert val == pytest.approx(1.0 + 54.1696 / 0.02, rel=1e-12)
    assert val == pytest.approx(2709.5, rel=1e-4)


def test_drude_high_frequency_limit():
    assert abs(drude_eps(GOLD, 1e6) - 1.0) < 1e-10
    assert abs(drude_eps(LEAD, 1e6) - 1.0) < 1e-10


def test_drude_monotone_and_above_one():
    for mat in (GOLD, LEAD):
        grid = np.geomspace(1e-6, 1e2, 120)
        vals = np.array([drude_eps(mat, float(x)) for x in grid])
        assert np.all(vals > 1.0)
        assert np.all(np.diff(vals) < 0.0)
        assert np.array_equal(drude_eps(mat, grid), vals)   # the array form


def test_drude_rejects_nonpositive_xi():
    with pytest.raises(DomainError):
        drude_eps(GOLD, 0.0)
    with pytest.raises(DomainError):
        drude_eps(GOLD, -0.1)
    with pytest.raises(DomainError):
        drude_eps(GOLD, np.array([0.1, 0.0]))


def test_drude_static_limit_is_regular():
    # xi^2 (eps - 1) = Omega^2 xi/(xi+gamma) -> 0 linearly: no plasma-like
    # static response in the normal state
    for xi in (1e-4, 1e-6, 1e-8):
        val = xi * xi * (drude_eps(LEAD, xi) - 1.0)
        assert val == pytest.approx(LEAD.omega_p ** 2 * xi / (xi + LEAD.gamma),
                                    rel=1e-9)
        assert val < 1.01 * (LEAD.omega_p ** 2 / LEAD.gamma) * xi


# ---------------------------------------------------------------------------
# gap


def test_gap_zero_temperature_value():
    assert GAP.delta0 == pytest.approx(1.764 * CONST.k_b * 7.2, rel=1e-15)
    # half of the quoted 2.2 meV full gap, within the 0.1% convention window
    assert GAP.delta0 == pytest.approx(1.0946e-3, rel=1e-3)


def test_gap_endpoints_and_monotonicity():
    assert bcs_gap(GAP, 0.0, 7.2) == GAP.delta0
    assert bcs_gap(GAP, 7.2, 7.2) == 0.0
    assert GAP.ratio(1.0) == 0.0
    # flat to double precision below t = 0.06, where the solve is not run
    for t in (0.0, 1e-300, 0.01, 0.03, 0.059, 0.06 - 1e-12):
        assert GAP.ratio(t) == 1.0, t
    # dense scan: never increasing, strictly decreasing once the deviation
    # from 1 is representable in double precision
    ts = np.linspace(0.0, 1.0, 101)
    ratios = np.array([GAP.ratio(float(t)) for t in ts])
    assert np.all(np.diff(ratios) <= 0.0)
    above = ratios[ts >= 0.1]
    assert np.all(np.diff(above) < 0.0)


def test_gap_above_tc_rejected():
    with pytest.raises(DomainError):
        bcs_gap(GAP, 7.3, 7.2)


def test_gap_against_bruteforce_solver():
    """The per-t solve matches the 30-digit mpmath solver from the flat end
    to the last 1e-7 below Tc, including the field-shifted temperatures
    of the headline points, where the gap equation is worst conditioned."""
    ts = (0.06, 0.07, 0.3, 0.5, 0.7, shifted_tc(LEAD, 200.0) / LEAD.tc, 0.9,
          0.97, shifted_tc(LEAD, 25.0) / LEAD.tc, 0.988, 1.0 - 1e-5, 1.0 - 1e-7)
    for t in ts:
        assert GAP.ratio(t) == pytest.approx(gap_ratio_bruteforce(t),
                                             rel=1e-13, abs=0.0), t
    assert 0.93 <= GAP.ratio(0.5) <= 0.98


def test_gap_knots_match_bruteforce_solver():
    """On the temperature grid a gap table would use (even in t up to 0.99,
    geometric in 1 - t from 1e-2 to 1e-7), including the last points near
    t = 1 where the gap equation is worst conditioned, the per-t solve
    matches the direct solver."""
    t_grid = np.unique(np.concatenate([
        np.linspace(0.06, 0.99, 187),
        1.0 - np.geomspace(0.01, 1e-7, 60),
    ]))
    idx = sorted(set(range(0, len(t_grid), 20)) | set(range(len(t_grid) - 3, len(t_grid))))
    for i in idx:
        t = float(t_grid[i])
        assert GAP.ratio(t) == pytest.approx(gap_ratio_bruteforce(t),
                                             rel=1e-13, abs=0.0), t


def test_import_and_point_run_load_no_scipy():
    """The program needs numpy only: importing the CLI, solving the gap and
    a whole `point` run leave no scipy module in sys.modules (importing
    scipy.special alone costs a fresh process about 0.2 s).  A g-function
    run after it loads no numpy.ma either (1.7 MB of resident memory)."""
    code = """
import contextlib, io, sys
import casimir_sc.cli
casimir_sc.default_gap(7.2).ratio(0.5)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = casimir_sc.cli.main(["point"])
    code_g = casimir_sc.cli.main(["g-function", "--t-over-tc", "0.1"])
print(code, code_g, "delta_f_fN" in out.getvalue(), [
    m for m in sorted(sys.modules) if m in ("scipy", "numpy.ma")
    or m.startswith(("scipy.", "numpy.ma."))])
"""
    src = os.path.dirname(os.path.dirname(materials.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "0 0 True []"


@pytest.mark.parametrize("k", [0, 1, 2, 4, 6])
def test_psi_matches_mpmath(k):
    """The asymptotic polygamma is within 4 ulp of mpmath on its whole
    domain x >= 60.5, edge included, and psi(a + l) - psi(a) at the
    smallest wing argument is as good as the difference itself allows."""
    xs = np.geomspace(60.5, 1e7, 97)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.psi(k, mpmath.mpf(x))) for x in xs])
    got = materials._psi(k, xs)
    assert got[0] == materials._psi(k, 60.5)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    assert np.allclose(got, want, rtol=1e-15, atol=0)
    a = 61.5
    for l in 10.0 ** np.arange(7):
        with mpmath.workdps(40):
            diff = float(mpmath.psi(k, a + l) - mpmath.psi(k, a))
        assert materials._psi(k, a + l) - materials._psi(k, a) == pytest.approx(
            diff, rel=5e-14), l


# ---------------------------------------------------------------------------
# g(xi; T)


def test_g_vanishes_at_tc():
    assert mattis_bardeen_g(LEAD, GAP, 0.001, 7.2) == 0.0
    assert mattis_bardeen_g(LEAD, GAP, 0.0, 7.2) == 0.0


def test_g_rejects_above_tc():
    with pytest.raises(DomainError):
        mattis_bardeen_g(LEAD, GAP, 0.001, 7.3)
    with pytest.raises(DomainError):
        mattis_bardeen_g(LEAD, GAP, -1.0, 3.6)


def test_g_column_api():
    temperature = 3.6
    assert isinstance(mattis_bardeen_g(LEAD, GAP, TWO_D0, temperature), float)
    assert isinstance(mattis_bardeen_g(LEAD, GAP, 0.0, temperature), float)
    xi = np.array([[0.0, 0.3], [2.0, 40.0], [1e-3, 0.0]]) * TWO_D0
    col = mattis_bardeen_g(LEAD, GAP, xi, temperature)
    assert col.shape == xi.shape
    assert col[0, 0] == col[2, 1] == g_zero_limit(LEAD, GAP, temperature)
    for x, g in zip(xi.ravel(), col.ravel()):
        assert g == pytest.approx(mattis_bardeen_g(LEAD, GAP, float(x), temperature),
                                  rel=1e-9, abs=0.0)
    at_tc = mattis_bardeen_g(LEAD, GAP, xi, LEAD.tc)
    assert at_tc.shape == xi.shape and np.all(at_tc == 0.0)
    for bad in (-1e-3, math.nan, math.inf):
        with pytest.raises(DomainError):
            mattis_bardeen_g(LEAD, GAP, np.array([1e-3, bad]), temperature)


def test_g_near_tc_matches_matsubara_grid():
    """At t = 0.999, l = 56 is xi = 99.6 * 2 Delta(0), the top of the default
    g-function table.  Closer to Tc the column holds 1e-7 of the fermionic
    sum (1.7e-9 at most seen at 0.99999, 2.7e-8 at 0.999999)."""
    for t, l, rel in ((0.999, [1, 17, 56], 1e-8),
                      (0.99999, [1, 3, 10, 30, 56], 1e-7),
                      (0.999999, [1, 3, 10, 30, 56], 1e-7)):
        temperature = t * LEAD.tc
        h = 2.0 * math.pi * CONST.k_b * temperature
        grid = g_on_matsubara_grid(LEAD, GAP, temperature, 56)
        g = mattis_bardeen_g(LEAD, GAP, np.array(l) * h, temperature)
        assert g == pytest.approx(grid[l], rel=rel, abs=0.0), t


def test_g_column_reports_short_xi(monkeypatch):
    """With no bisection round allowed, the default column at t = 0.1 names
    the xi its first grid leaves short of their goal; one round settles them
    to the same values the default gives."""
    xi = np.geomspace(1e-2, 1e2, 81) * TWO_D0
    want = mattis_bardeen_g(LEAD, GAP, xi, 0.72)
    monkeypatch.setattr(materials, "_G_ROUNDS", 0)
    with pytest.raises(ConvergenceError, match=r"^g column: 3 of 81 xi short of their "
                       r"goal after 0 rounds$") as info:
        mattis_bardeen_g(LEAD, GAP, xi, 0.72)
    assert info.value.error_estimate > 0.0
    monkeypatch.setattr(materials, "_G_ROUNDS", 1)
    assert np.array_equal(mattis_bardeen_g(LEAD, GAP, xi, 0.72), want)


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 0.999])
def test_g_column_cost(t, monkeypatch):
    """The default 81-xi column takes at most 1,000 kernel evaluations per xi
    (405-420 seen)."""
    evals = []
    kernel = materials._g_kernel

    def counted(v, xi, delta, t_ev):
        evals.append(v.size)
        return kernel(v, xi, delta, t_ev)

    monkeypatch.setattr(materials, "_g_kernel", counted)
    mattis_bardeen_g(LEAD, GAP, np.geomspace(1e-2, 1e2, 81) * TWO_D0, t * LEAD.tc)
    assert 0 < sum(evals) <= 1000


def test_g_function_finishes_next_to_tc():
    """At t = 1 - 1e-6 and 1 - 1e-7 the gap is 3e-3 to 1e-3 of kT and below
    every xi of the table, the far end of the column's range.  Run as a child
    process, so a regression fails by its timeout instead of hanging."""
    src = os.path.dirname(os.path.dirname(materials.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-m", "casimir_sc.cli", "g-function",
         "--t-over-tc", "0.999999", "--t-over-tc", "0.9999999"],
        capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    rows = np.array([list(map(float, ln.split(",")))
                     for ln in out.stdout.splitlines() if ln[:1].isdigit()])
    assert rows.shape == (81, 3)
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 1:] > 0.0)
    # closer to Tc the gap, and with it g, is smaller
    assert np.all(rows[:, 2] < rows[:, 1])


def test_g_nonnegative_and_fig2_ordering():
    grid = np.array([0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0]) * TWO_D0
    g_cold = np.array([mattis_bardeen_g(LEAD, GAP, float(x), 0.72) for x in grid])
    g_warm = np.array([mattis_bardeen_g(LEAD, GAP, float(x), 6.48) for x in grid])
    assert np.all(g_cold >= 0.0) and np.all(g_warm >= 0.0)
    assert np.all(g_cold >= g_warm)          # colder curve lies above
    assert np.all(np.diff(g_cold) < 0.0)     # decreasing on the plotted range
    assert np.all(np.diff(g_warm) < 0.0)


def test_g_high_frequency_decay():
    # The correction collapses by more than an order of magnitude over the
    # plotted band and reaches the percent level of g(0+) only near
    # xi ~ 250 * 2 Delta(0); the decay is logarithmically slow, not sharp.
    g0 = mattis_bardeen_g(LEAD, GAP, 1e-8, 0.72)
    g60 = mattis_bardeen_g(LEAD, GAP, 60.0 * TWO_D0, 0.72)
    g240 = mattis_bardeen_g(LEAD, GAP, 240.0 * TWO_D0, 0.72)
    assert g60 < 0.04 * g0
    assert g240 < 0.011 * g0


def test_g_zero_limit_closed_form_and_richardson():
    for temperature in (0.72, 3.6, 6.48):
        g0 = g_zero_limit(LEAD, GAP, temperature)
        delta = bcs_gap(GAP, temperature, 7.2)
        expected = math.pi * delta * math.tanh(delta / (2 * CONST.k_b * temperature)) / LEAD.gamma
        assert g0 == pytest.approx(expected, rel=1e-14)
        # numerical limit of the column with a two-point Richardson check;
        # the approach carries a xi*log(xi) term whose coefficient grows with
        # thermal occupation toward Tc, so the linear extrapolation is a guard
        # against quadrature artifacts rather than an exact limit
        g_a = mattis_bardeen_g(LEAD, GAP, 1e-8, temperature)
        g_b = mattis_bardeen_g(LEAD, GAP, 1e-7, temperature)
        extrapolated = g_a + (g_a - g_b) / 9.0
        assert extrapolated == pytest.approx(g0, rel=1e-4)
        assert g_a == pytest.approx(g0, rel=1e-4)


def test_g_against_fermionic_sum():
    """Independent route: the raw fermionic-frequency sum at bosonic points,
    at t = 0.177 (the 775 Oe point), 0.5 and 0.9.  Its truncation bias falls
    like 1/N, 1e-6 relative at N = 1e6, so 2 S(2N) - S(N) is taken; the
    column agrees with it to 7e-12 at 0.177 and 5e-9 at 0.9, l = 30."""
    for t in (0.177, 0.5, 0.9):
        temperature = t * LEAD.tc
        h = 2.0 * math.pi * CONST.k_b * temperature
        delta = bcs_gap(GAP, temperature, LEAD.tc)
        for l in (1, 3, 30):
            s_n, s_2n = (g_matsubara_bruteforce(l * h, delta, temperature, LEAD.gamma, n)
                         for n in (500_000, 1_000_000))
            assert mattis_bardeen_g(LEAD, GAP, l * h, temperature) == pytest.approx(
                2.0 * s_2n - s_n, rel=1e-8, abs=0.0), (t, l)


def test_g_large_xi_matches_mpmath():
    """Far above the gap g stays positive and falls as xi grows, and at
    1e6 and 1e9 * 2 Delta(0) it is the 30-digit mpmath quadrature of the same
    integral to 1e-10 (7e-14 seen).  A route that adds the condensate to a
    transform of the real-axis ratio cancels the two there (1.5705e-7 for
    1.5735e-7 at 1e6, -1.08e-8 at 1e9)."""
    temperature = 0.5 * LEAD.tc
    frac = 10.0 ** np.arange(2, 10)
    g = mattis_bardeen_g(LEAD, GAP, frac * TWO_D0, temperature)
    assert np.all(g > 0.0) and np.all(np.diff(g) < 0.0)
    delta = bcs_gap(GAP, temperature, LEAD.tc)
    for i in (4, 7):
        want = g_energy_integral_mp(frac[i] * TWO_D0, delta, CONST.k_b * temperature)
        assert g[i] == pytest.approx(want / LEAD.gamma, rel=1e-10, abs=0.0), frac[i]


def test_g_grid_matches_pointwise_g():
    temperature = 6.24
    h = 2.0 * math.pi * CONST.k_b * temperature
    grid = g_on_matsubara_grid(LEAD, GAP, temperature, 12)
    assert grid[0] == pytest.approx(g_zero_limit(LEAD, GAP, temperature), rel=1e-14)
    for l in (1, 2, 5, 12):
        assert grid[l] == pytest.approx(
            mattis_bardeen_g(LEAD, GAP, l * h, temperature), rel=1e-6)


@pytest.mark.parametrize("field_oe", [200.0, 775.0])
def test_g_grid_run_is_slice_of_longer_grid(field_oe):
    temperature = shifted_tc(LEAD, field_oe)
    for k, n in ((0, 40), (1, 40), (357, 12)):
        run = g_on_matsubara_grid(LEAD, GAP, temperature, n, l_first=k)
        assert np.array_equal(run, g_on_matsubara_grid(LEAD, GAP, temperature, k + n)[k:])


@pytest.mark.parametrize("field_oe", [30.125, 200.0, 775.0])
def test_g_grid_matches_exact_cross_sum(field_oe):
    """Up to l = 2e the closed-form middle is exactly 0, so the grid and the
    oracle differ only in rounding and in their polygammas (the asymptotic
    _psi against scipy's), and every entry agrees to 1e-13; at 30.125 and
    200 Oe n = 61, so the wings start at the smallest argument _psi gets.
    Past the split the cross sum's closed-form middle stays within 1e-5 of
    summing every cross term, out to the 775 Oe series length."""
    temperature = shifted_tc(LEAD, field_oe)
    delta = bcs_gap(GAP, temperature, LEAD.tc)
    step = 2.0 * math.pi * CONST.k_b * temperature
    e = materials._CROSS_EXACT * (int(max(60.0 * delta / step, 60.0)) + 1)
    got = g_on_matsubara_grid(LEAD, GAP, temperature, 2 * e)
    want = g_matsubara_exact_cross(LEAD, GAP, temperature, 2 * e)
    assert np.allclose(got[1:], want[1:], rtol=1e-13, atol=0)
    for l in (2 * e + 1, 2 * e + 2, 5000, 18000):
        got = g_on_matsubara_grid(LEAD, GAP, temperature, 0, l_first=l)[0]
        want = g_matsubara_exact_cross(LEAD, GAP, temperature, 0, l_first=l)[0]
        assert got == pytest.approx(want, rel=1e-5), l


@pytest.mark.parametrize("field_oe", [30.0, 200.0, 775.0])
def test_g_grid_keeps_bits_of_per_pair_body(monkeypatch, field_oe):
    """g at scattered l, in shuffled order and from the per-pair body, has
    the bits of runs built on the windowed frequency tables of
    oracles.g_body_windowed: runs that start at l = 0, at 1, just below 2e
    (a chunk on both sides of 2e), at 2e and past 17,000."""
    temperature = shifted_tc(LEAD, field_oe)
    delta = bcs_gap(GAP, temperature, LEAD.tc)
    step = 2.0 * math.pi * CONST.k_b * temperature
    e = materials._CROSS_EXACT * (int(max(60.0 * delta / step, 60.0)) + 1)
    runs = [np.arange(first, first + 256) for first in (0, 1, 2 * e - 3, 2 * e, 17001)]
    every = np.concatenate(runs)
    order = np.random.default_rng(7).permutation(every.size)
    scattered = np.empty(every.size)
    scattered[order] = g_matsubara(LEAD, GAP, temperature, every[order])
    monkeypatch.setattr(materials, "_g_body", g_body_windowed)
    materials._g_memo.cache_clear()
    windowed = np.concatenate([g_matsubara(LEAD, GAP, temperature, run) for run in runs])
    assert np.array_equal(scattered, windowed)


def test_g_stays_finite_at_huge_xi():
    """The kernel's square root is taken factor by factor, so the top of the
    v grid, E ~ 1e5 xi, overflows nothing: g stays positive and falling."""
    xi = np.array([1e100, 1e150, 1e200, 1e250])
    with np.errstate(over="raise", invalid="raise"):
        g = mattis_bardeen_g(LEAD, GAP, xi, 3.6)
    assert np.all(g > 0.0)
    assert np.all(np.diff(g) < 0.0)


def test_g_memo_keeps_bits_of_uncached_call():
    """Entries served from the memo, filled by overlapping calls in any order,
    have the bits of one call on an empty memo."""
    temperature = shifted_tc(LEAD, 775.0)
    l = np.r_[0:300, 1000:1100, 17001:17050]
    for part in (l[::3], l[250:], l[::-7]):
        g_matsubara(LEAD, GAP, temperature, part)
    served = g_matsubara(LEAD, GAP, temperature, l)
    materials._g_memo.cache_clear()
    assert np.array_equal(served, g_matsubara(LEAD, GAP, temperature, l))
    assert g_matsubara(LEAD, GAP, temperature, np.int64(5)).shape == ()


def test_g_memo_keeps_its_bound_of_temperatures():
    bound = materials._g_memo.cache_info().maxsize
    for i in range(bound + 3):
        g_matsubara(LEAD, GAP, 3.0 + 0.1 * i, np.arange(1, 4))
    assert materials._g_memo.cache_info().currsize == bound


def test_g_grid_runs_are_shared_and_read_only():
    temperature = shifted_tc(LEAD, 200.0)
    run = g_on_matsubara_grid(LEAD, GAP, temperature, 255, 1)
    assert g_on_matsubara_grid(LEAD, GAP, temperature, 255, 1) is run
    with pytest.raises(ValueError):
        run[0] = 0.0


def test_g_rrr_scaling():
    # gamma enters only as a prefactor
    dirty = MaterialParams(name="lead1", omega_p=7.36, gamma0=0.2, rrr=1.0,
                           tc=7.2, hc0=800.0, lambda0=35.0)
    g1 = mattis_bardeen_g(dirty, GAP, TWO_D0, 3.6)
    g2 = mattis_bardeen_g(LEAD, GAP, TWO_D0, 3.6)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


# ---------------------------------------------------------------------------
# eps_bcs


def test_eps_bcs_short_circuits_at_tc():
    for xi in (1e-4, 0.001, 0.1):
        g = mattis_bardeen_g(LEAD, GAP, xi, 7.2)
        assert eps_bcs(LEAD, xi, g) == drude_eps(LEAD, xi)
    # elementwise on arrays: exactly Drude where g == 0, above it elsewhere
    xi = np.array([1e-4, 0.001, 0.1])
    eps = eps_bcs(LEAD, xi, np.array([0.0, 0.5, 0.0]))
    assert eps[0] == drude_eps(LEAD, 1e-4) and eps[2] == drude_eps(LEAD, 0.1)
    assert eps[1] > drude_eps(LEAD, 0.001)


def test_eps_bcs_exceeds_drude_below_tc():
    g = mattis_bardeen_g(LEAD, GAP, TWO_D0, 0.72)
    assert eps_bcs(LEAD, TWO_D0, g) > drude_eps(LEAD, TWO_D0)


def test_eps_bcs_static_limit_is_plasma_like():
    temperature = 0.72
    target = LEAD.omega_p ** 2 * g_zero_limit(LEAD, GAP, temperature)
    for xi in (1e-6, 1e-7):
        g = mattis_bardeen_g(LEAD, GAP, xi, temperature)
        val = xi * xi * (eps_bcs(LEAD, xi, g) - 1.0)
        assert val == pytest.approx(target, rel=1e-3)
    assert target > 0.0


# ---------------------------------------------------------------------------
# KK oracle


def test_oracle_is_exactly_drude_at_tc():
    pref = LEAD.omega_p ** 2 / (4.0 * math.pi)
    for xi in (0.001, 0.05, 1.0):
        assert kk_oracle_sigma(LEAD, GAP, xi, 7.2) == pref / (xi + LEAD.gamma)


def test_oracle_high_frequency_sum_rule():
    pref = LEAD.omega_p ** 2 / (4.0 * math.pi)
    for xi in (5.0, 10.0):
        drude_part = xi / (xi + LEAD.gamma)
        ratio = kk_oracle_sigma(LEAD, GAP, xi, 3.6) * xi / pref
        assert ratio == pytest.approx(1.0, abs=0.025)
        assert ratio == pytest.approx(drude_part, abs=1e-4)


def test_g_at_zero_temperature_matches_oracle():
    """At T = 0 the occupation factor is 1 and the oracle has no thermal
    part; the two agree to 9e-14 at 0.25 and 1.8e-8 at 30 * 2 Delta(0)."""
    for xfrac in (0.25, 1.0, 5.0, 30.0):
        xi = xfrac * TWO_D0
        assert mattis_bardeen_g(LEAD, GAP, xi, 0.0) == pytest.approx(
            g_from_oracle(LEAD, GAP, xi, 0.0), rel=1e-6, abs=0.0), xfrac


def test_production_g_matches_oracle_spotcheck():
    for tfrac, xfrac in ((0.1, 1.0), (0.9, 2.0)):
        temperature = tfrac * 7.2
        xi = xfrac * TWO_D0
        gk = mattis_bardeen_g(LEAD, GAP, xi, temperature)
        go = g_from_oracle(LEAD, GAP, xi, temperature)
        assert gk == pytest.approx(go, rel=1e-4)


# ---------------------------------------------------------------------------
# dirty limit


def test_dirty_limit_ratio_lead():
    val = dirty_limit_ratio(LEAD, GAP)
    assert val == pytest.approx(math.pi * TWO_D0 / 0.1, rel=1e-12)
    assert round(val, 2) == 0.07
    # explicit reference scale: the quoted rounded full gap
    assert dirty_limit_ratio(LEAD, GAP, delta_ref=2.2e-3) == pytest.approx(
        0.0691, abs=2e-4)


def test_dirty_limit_ratio_edge_cases():
    assert dirty_limit_ratio(LEAD, GAP, delta_ref=0.0) == 0.0
    with pytest.raises(DomainError):
        dirty_limit_ratio(GOLD, GAP)
