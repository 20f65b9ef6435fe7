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
    _mb_ratio,
    bcs_gap,
    default_gap,
    dirty_limit_ratio,
    drude_eps,
    eps_bcs,
    g_on_matsubara_grid,
    g_zero_limit,
    mattis_bardeen_g,
)
from casimir_sc.sc_state import shifted_tc

from oracles import (
    _mb_ratio_oracle,
    g_body_per_pair,
    g_from_oracle,
    g_matsubara_bruteforce,
    g_matsubara_exact_cross,
    gap_ratio_bruteforce,
    kk_oracle_sigma,
    mb_ratio_t0_elliptic,
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
# Mattis-Bardeen ratio on the real axis


def test_mb_ratio_matches_elliptic_at_t0():
    # 1e3 to 1e9 Delta reach the Kramers-Kronig tail, where the pair-breaking
    # integrand is two peaks of width ~ Delta at the ends of an omega-wide range.
    delta = GAP.delta0
    for frac in (2.5, 4.0, 10.0, 40.0, 120.0, 1e3, 1e6, 1e9):
        omega = frac * delta
        mine = float(_mb_ratio(np.array([omega]), delta, 0.0)[0])
        assert mine == pytest.approx(mb_ratio_t0_elliptic(omega, delta), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("t", [0.5, 0.9, 0.999])
def test_mb_ratio_matches_quadpack_oracle(t):
    """At finite T the ratio agrees with the raw-form QUADPACK oracle, which
    integrates over E with no substitution, at epsrel 1e-7; below the gap,
    at the gap edge, and from 3 to 1e6 times past it."""
    temperature = t * LEAD.tc
    delta = bcs_gap(GAP, temperature, LEAD.tc)
    t_ev = CONST.k_b * temperature
    for frac in (0.01, 1.001, 3.0, 30.0, 1e3, 1e6):
        omega = frac * 2.0 * delta
        mine = float(_mb_ratio(np.array([omega]), delta, t_ev)[0])
        assert mine == pytest.approx(_mb_ratio_oracle(omega, delta, t_ev),
                                     rel=1e-6, abs=0.0), frac


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 0.999])
def test_g_column_settles_every_ratio_by_256_nodes(t, monkeypatch):
    """Over the default g-function column no omega of the Kramers-Kronig
    grid needs more than 256 nodes per part of R, so the 512-node rule and
    beyond are never built; and the column's one octave grid keeps R to
    under 2,000 omega (930-1,575 over these t)."""
    counts = {}
    nodes = materials._mb_nodes

    def counted(omega, delta, t_ev, n):
        counts[n] = counts.get(n, 0) + omega.size
        return nodes(omega, delta, t_ev, n)

    monkeypatch.setattr(materials, "_mb_nodes", counted)
    mattis_bardeen_g(LEAD, GAP, np.geomspace(1e-2, 1e2, 81) * TWO_D0, t * LEAD.tc)
    assert 0 < counts[64] == counts[128] <= 2000, counts
    assert max(counts) <= 256, counts


def test_mb_ratio_reports_unsettled_omega(monkeypatch):
    # Node sums that move by n at every count never agree.
    monkeypatch.setattr(materials, "_mb_nodes",
                        lambda omega, delta, t_ev, n: np.full(omega.shape, float(n)))
    delta = GAP.delta0
    with pytest.raises(ConvergenceError, match=r"2 omega unsettled at 512 nodes, "
                       r"worst omega/2Delta = 3\b") as info:
        _mb_ratio(np.array([3.0, 6.0]) * 2.0 * delta, delta, CONST.k_b)
    assert info.value.error_estimate == 256.0


def test_mb_ratio_normal_state_limit():
    vals = _mb_ratio(np.array([0.01, 0.1]), 0.0, CONST.k_b)
    assert np.allclose(vals, 1.0, rtol=0, atol=0)


def test_mb_ratio_batch_matches_each_omega_alone():
    # Each omega doubles its own nodes, so a batch differs from single calls
    # only by the blocking of the node sums (<= 6e-16 seen).
    temperature = 0.9 * LEAD.tc
    delta = bcs_gap(GAP, temperature, LEAD.tc)
    omega = np.geomspace(1e-6, 1e3, 60) * delta
    batch = _mb_ratio(omega, delta, CONST.k_b * temperature)
    for om, r in zip(omega, batch):
        alone = _mb_ratio(np.array([om]), delta, CONST.k_b * temperature)[0]
        assert r == pytest.approx(alone, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("t", [0.5, 0.9, 0.999])
def test_mb_nodes_settle_near_zero_frequency(t):
    """The thermal occupation f(E) - f(E + omega) is taken without
    cancellation, so the quasiparticle sum settles down to omega = 1e-13
    Delta: 1,024 and 2,048 nodes agree to 1e-11.  The plain difference of
    two Fermi factors left them up to 6e-4 apart there."""
    temperature = t * LEAD.tc
    delta = bcs_gap(GAP, temperature, LEAD.tc)
    omega = np.geomspace(1e-13, 1e-5, 81) * delta
    coarse = materials._mb_nodes(omega, delta, CONST.k_b * temperature, 1024)
    fine = materials._mb_nodes(omega, delta, CONST.k_b * temperature, 2048)
    assert np.allclose(coarse, fine, rtol=1e-11, atol=0.0)


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
    # At t = 0.999, l = 56 is xi = 99.6 * 2 Delta(0), the top of the default
    # g-function table.
    temperature = 0.999 * LEAD.tc
    h = 2.0 * math.pi * CONST.k_b * temperature
    grid = g_on_matsubara_grid(LEAD, GAP, temperature, 56)
    l = np.array([1, 17, 56])
    g = mattis_bardeen_g(LEAD, GAP, l * h, temperature)
    assert g == pytest.approx(grid[l], rel=1e-8, abs=0.0)


def test_g_function_finishes_next_to_tc():
    """At t = 1 - 1e-6 and 1 - 1e-7 the integral of R - 1 is hundreds of
    times smaller than that of |R|, so a goal of 1e-9 of it lies below what
    R is settled to; without the floor on the goal the panel count grew
    1.6-1.8x per round and the column did not finish in a minute.  Run as a
    child process, so a regression fails by its timeout instead of hanging."""
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
        # numerical limit of the KK route with a two-point Richardson check;
        # the approach carries a xi*log(xi) term whose coefficient grows with
        # thermal occupation toward Tc, so the linear extrapolation is a guard
        # against quadrature artifacts rather than an exact limit
        g_a = mattis_bardeen_g(LEAD, GAP, 1e-8, temperature)
        g_b = mattis_bardeen_g(LEAD, GAP, 1e-7, temperature)
        extrapolated = g_a + (g_a - g_b) / 9.0
        assert extrapolated == pytest.approx(g0, rel=1e-4)
        assert g_a == pytest.approx(g0, rel=1e-4)


def test_g_against_fermionic_sum():
    # independent route: raw fermionic-frequency sum at bosonic points
    # (2e6 terms keep the brute-force truncation bias below 3e-7 relative)
    temperature = 6.24
    h = 2.0 * math.pi * CONST.k_b * temperature
    delta = bcs_gap(GAP, temperature, 7.2)
    for l in (1, 3, 10):
        brute = g_matsubara_bruteforce(l * h, delta, temperature, LEAD.gamma)
        assert mattis_bardeen_g(LEAD, GAP, l * h, temperature) == pytest.approx(
            brute, rel=2e-6)


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
    """The frequency tables of _g_body, and its dropped weights past l = 2e,
    give g the bits of the per-pair body: in blocks that start at l = 0, at
    1, just below 2e (a chunk on both sides of 2e), at 2e and past 17,000."""
    temperature = shifted_tc(LEAD, field_oe)
    delta = bcs_gap(GAP, temperature, LEAD.tc)
    step = 2.0 * math.pi * CONST.k_b * temperature
    e = materials._CROSS_EXACT * (int(max(60.0 * delta / step, 60.0)) + 1)
    runs = [(255, 0), (255, 1), (255, 2 * e - 3), (255, 2 * e), (255, 17001)]

    def grids():
        g_on_matsubara_grid.cache_clear()
        return [g_on_matsubara_grid(LEAD, GAP, temperature, *run) for run in runs]

    tabled = grids()
    monkeypatch.setattr(materials, "_g_body", g_body_per_pair)
    per_pair = grids()
    g_on_matsubara_grid.cache_clear()
    for run, a, b in zip(runs, tabled, per_pair):
        assert np.array_equal(a, b), run


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
