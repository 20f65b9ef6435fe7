"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the production code paths: different
integration variables, different libraries, different algebra.  The QUADPACK
Kramers-Kronig route shares only the gap curve and the constants with the
production g, and is a different method: it transforms the real-frequency
conductivity ratio, where production integrates over quasiparticle energy
at imaginary frequency, so criterion 3 compares two routes.
g_energy_integral_mp is production's integral in its plain form, at 30
digits in mpmath.  The exceptions share the integrands and the per-l
permittivities with production.  normal_free_energy_exact and
difference_free_energy_exact differ from it in their summation: every term
in ascending order, against the graded stride of the production series.
Their term integrals come from the rule ladder (ladder_terms), which made
the summation references, or from production's _terms when a test passes
quad=lifshitz._terms to compare summations alone.
superconducting_free_energy_direct also shares g and differs only in its
integrand: the superconducting series summed on its own, against the
production difference series.  g_body_windowed is the reverse case, the same
arithmetic as production in another layout, and must match it bit for bit.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import mpmath
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special
from scipy import integrate as _sint

from casimir_sc import lifshitz
from casimir_sc.constants import CONST
from casimir_sc.errors import ConvergenceError, DomainError
from casimir_sc.lifshitz import EngineConfig, FreeEnergyResult
from casimir_sc.materials import (MaterialParams, bcs_gap, default_gap, drude_eps, eps_bcs,
                                  g_matsubara, mattis_bardeen_g)
from casimir_sc.quadrature import CompositeKronrod

HBAR_C = 197.3269804
K_B = 8.617333262e-5
# int_0^inf y log(1 - e^-y) dy = -zeta(3): the l = 0 integral of one
# saturated polarization.
ZETA3 = float(mpmath.zeta(3))

def gap_ratio_bruteforce(t: float) -> float:
    """Solve the reduced BCS gap equation in the energy variable, 30 digits.

    log(1/d) = 2 int_0^inf dv / (e^{s cosh v} + 1), s = pi e^{-gamma} d / t,
    solved by mpmath's secant from the Ginzburg-Landau start 1.74 sqrt(1 - t).
    Near t = 1 both sides are ~log(1/d) while their difference is ~d^2, and
    an error eps in pi e^{-gamma} moves d by ~eps / (2 (1 - t)); so the
    constant too is computed at the working precision.
    """
    if t <= 0.0:
        return 1.0
    if t >= 1.0:
        return 0.0
    import mpmath as mp

    with mp.workdps(30):
        ratio = mp.pi * mp.exp(-mp.euler) / mp.mpf(t)

        def residual(d):
            s = ratio * d
            # past s cosh v = 80 the integrand is below 1e-34
            edges = [0, mp.acosh(max(1 / s, 2)), mp.acosh(max(80 / s, 4))]
            tail = mp.quad(lambda v: 1 / (mp.exp(s * mp.cosh(v)) + 1), edges)
            return mp.log(1 / d) - 2 * tail

        d0 = mp.mpf(min(1.74 * math.sqrt(1.0 - t), 1.0))
        return float(mp.findroot(residual, (d0, d0 * mp.mpf("0.999"))))


def g_energy_integral_mp(xi: float, delta: float, t_ev: float) -> float:
    """gamma g(xi) at xi > 0 from the quasiparticle-energy integral, 30 digits.

    2 int_0^inf dv tanh(E/2kT) Re[(E z + Delta^2) / sqrt(Delta^2 - z^2)],
    E = Delta cosh v, z = E + i xi: the production integral in its plain form,
    whose two parts of order E cancel to one of order Delta^2 xi/E^2.  Each
    point is evaluated with about 2 log10(E/Delta) digits more than 30,
    which that cancellation costs, and mpmath's tanh-sinh integrates the
    result at 30 digits, split at 1 and around E = xi and cut 40 units of
    v past the last split, where the integrand has fallen by e^-80.
    """
    import mpmath as mp

    with mp.workdps(30):
        d, x, kt = mp.mpf(delta), mp.mpf(xi), mp.mpf(t_ev)

        def f(v):
            with mp.extradps(int(v) + 5):
                e = d * mp.cosh(v)
                z = e + 1j * x
                occ = mp.tanh(e / (2 * kt)) if t_ev > 0.0 else 1
                return 2 * occ * mp.re((e * z + d * d) / mp.sqrt(d * d - z * z))

        v_xi = float(mp.acosh(max(x / d, 1)))
        pts = sorted({0.0, 1.0, *(p for p in (v_xi - 4, v_xi - 1, v_xi, v_xi + 1, v_xi + 4)
                                  if p > 1.0)})
        return float(mp.quad(f, pts + [pts[-1] + 40]))


def g_matsubara_bruteforce(xi_l: float, delta: float, temperature: float,
                           gamma: float, n_terms: int = 2_000_000) -> float:
    """g at a bosonic frequency from the raw fermionic sum, no tail algebra.

    xi_l must be an exact multiple of 2 pi k_B T.
    """
    t_ev = K_B * temperature
    step = 2.0 * math.pi * t_ev
    l = int(round(xi_l / step))
    if abs(xi_l - l * step) > 1e-9 * step:
        raise ValueError("xi_l is not on the Matsubara grid")
    n = np.arange(-n_terms - l, n_terms, dtype=float)
    wn = step * (n + 0.5)
    wnl = wn + xi_l
    sn = np.sqrt(wn * wn + delta * delta)
    snl = np.sqrt(wnl * wnl + delta * delta)
    terms = np.sign(wn) * np.sign(wnl) - (wn * wnl - delta * delta) / (sn * snl)
    return math.pi * t_ev / gamma * float(np.sum(terms))


def g_matsubara_exact_cross(material: MaterialParams, T: float,
                            l_count: int, l_first: int = 0) -> np.ndarray:
    """g at xi_l for l = l_first..l_first + l_count, every cross term summed.

    The same body and polygamma wings as the production grid, but all l
    cross terms of the fermionic sum are added one by one, O(l) per entry
    and two scalar polygamma calls per l.  The l = 0 entry is left at 0.
    """
    delta = bcs_gap(material, T)
    out = np.zeros(l_count + 1)
    if delta == 0.0:
        return out
    t_ev = CONST.k_b * T
    step = 2.0 * math.pi * t_ev
    n = int(max(60.0 * delta / step, 60.0)) + 1
    w = step * (np.arange(n + l_first + l_count + 1) + 0.5)
    s = np.sqrt(w * w + delta * delta)
    d2 = delta * delta
    a = n + 0.5
    psi1_a = float(special.polygamma(1, a))
    psi_a = float(special.digamma(a))
    for l in range(max(l_first, 1), l_first + l_count + 1):
        noncross = 1.0 - (w[:n] * w[l:l + n] - d2) / (s[:n] * s[l:l + n])
        cross = -1.0 + (w[:l] * w[l - 1::-1] + d2) / (s[:l] * s[l - 1::-1])
        body = 2.0 * float(np.sum(noncross)) + float(np.sum(cross))
        cross_sum = (float(special.digamma(a + l)) - psi_a) / l
        wing = (d2 / step ** 2) * (psi1_a + float(special.polygamma(1, a + l)) + 2.0 * cross_sum)
        out[l - l_first] = body + wing
    return out * (math.pi * t_ev / material.gamma)


def g_body_windowed(l: np.ndarray, n: int, e: int, delta: float, step: float) -> np.ndarray:
    """materials._g_body for a chunk of consecutive l >= 1, with every
    frequency read from one table.

    w_k = step (k + 1/2) and s_k = sqrt(w_k^2 + Delta^2) are tabled once for
    every k the chunk reaches, l[0] - e <= k < l[-1] + n.  Row i reads them at
    l_i .. l_i+n-1 and at its cross partners l_i-1 .. l_i-e as windows of
    that table.  Same expressions and reduction order as production, which
    computes each row's frequencies on its own, so the two must agree bit for
    bit.
    """
    d2 = delta * delta

    def ws(k):
        w = step * (k + 0.5)
        return w, np.sqrt(w * w + d2)

    w, s = ws(np.arange(l[0] - e, l[-1] + n))
    m = np.arange(e)
    wm, sm = ws(m)
    rows = l.size
    wl, sl = (sliding_window_view(a, n)[e:e + rows] for a in (w, s))
    noncross = np.sum(1.0 - (wm[:n] * wl - d2) / (sm[:n] * sl), axis=1)
    # Row i's partners, right to left, start at n + rows-1-i in the reversed table.
    wp, sp = (sliding_window_view(a[::-1], e)[n:n + rows][::-1] for a in (w, s))
    t = -1.0 + (wm * wp + d2) / (sm * sp)
    if l[0] >= 2 * e:
        cross = 2.0 * np.sum(t, axis=1)
    else:
        partner = l[:, None] - 1 - m
        weight = np.where(m < partner, 2.0, np.where(m == partner, 1.0, 0.0))
        cross = np.sum(weight * t, axis=1)
    return 2.0 * noncross + cross


# A full series taken to y_l = 2 d xi_l / (hbar c) = 48 leaves out terms below
# e^-48 of its first.
Y_FULL = 48.0


def full_series_extent(T: float, d: float) -> int:
    """The last l with y_l <= Y_FULL at temperature T and gap d."""
    return int(Y_FULL * HBAR_C / (2.0 * d * 2.0 * math.pi * K_B * T))


# ---------------------------------------------------------------------------
# the rule ladder: the term integrals that made tests/summation_references.json


def _ladder(edges: tuple) -> list:
    """Rung 0 is the rule on edges, rung 1 its bisection.  Rungs 2 .. 21 halve
    the first panel in turn, to 2.4e-7; rungs 22 .. 24 bisect all panels, to
    256 panels (3,840 nodes)."""
    rules = [edges]
    for k in range(24):
        e = rules[-1]
        new = (0.5 * e[1],) if 1 <= k < 21 else (0.5 * (a + b) for a, b in zip(e, e[1:]))
        rules.append(tuple(sorted({*e, *new})))
    return [CompositeKronrod(e) for e in rules]


LADDER_SPLITS = (0.0, 0.5, 2.0, 6.0, 14.0, 28.0, lifshitz._Y_CUT)
LADDER = _ladder(LADDER_SPLITS)
# The last rung: 256 panels, the first of them 2.4e-7 wide.
FINE_RULE = LADDER[-1]
_LADDER_PASS_NODES = 64 * LADDER[0].nodes.size


def ladder_integrate(rule, integrand, yl: np.ndarray, params: tuple):
    """(integral, error) arrays of rule over y in [yl, yl + Y_CUT] per row."""
    y = yl[:, None] + rule.nodes
    return rule.integrate(integrand(y, yl[:, None], *(p[:, None] for p in params)))


def _accepted(vals: np.ndarray, errs: np.ndarray, rel_tol: float) -> np.ndarray:
    return (errs <= max(rel_tol, np.finfo(float).eps) * np.abs(vals)) | (errs <= 1e-300)


def ladder_terms(integrand, yl: np.ndarray, params: tuple, rel_tol: float):
    """(integral, error) arrays of int_{yl}^{yl+Y_CUT} integrand dy per row,
    on the rule ladder.

    Every row starts on the first rung.  The rows whose summed K15 estimate
    misses rel_tol (at least double resolution) times their value move up to
    the next rung together, integrated in passes of at most 5,760 nodes.  A
    row that misses the last rung raises ConvergenceError.
    """
    vals, errs, rows = np.empty(yl.size), np.empty(yl.size), np.arange(yl.size)
    for rule in LADDER:
        step = max(1, _LADDER_PASS_NODES // rule.nodes.size)
        for first in range(0, rows.size, step):
            part = rows[first:first + step]
            vals[part], errs[part] = ladder_integrate(rule, integrand, yl[part],
                                                      tuple(p[part] for p in params))
        rows = rows[~_accepted(vals[rows], errs[rows], rel_tol)]
        if not rows.size:
            return vals, errs
    raise ConvergenceError(f"wavevector integral at y_l = {yl[rows[0]]:.6g} missed "
                           f"the tolerance on every rule", error_estimate=float(errs[rows[0]]))


# l per block of term_stream.
_BLOCK = 256


def term_stream(integrand, params, T: float, d: float, cfg: EngineConfig, l_stop: int,
                quad=ladder_terms):
    """(integral, error) of the terms l = 1 .. l_stop in order, a block at a
    time, from quad(integrand, yl, params, rel_tol): by default the rule
    ladder, on which the summation references were made.

    params(l, xi) gives the integrand's per-l parameters from the block's
    integer l and its xi_l; a block is computed only once the sum reaches it.
    """
    h = 2.0 * math.pi * CONST.k_b * T
    for first in range(1, l_stop + 1, _BLOCK):
        l = np.arange(first, min(first + _BLOCK, l_stop + 1))
        xi = h * l
        vals, errs = quad(integrand, lifshitz._scaled_yl(xi, d), params(l, xi),
                          cfg.rel_tol_quadrature)
        yield from zip(vals.tolist(), errs.tolist())


def normal_free_energy_exact(material_a: MaterialParams, material_b: MaterialParams,
                             T: float, d: float, cfg: EngineConfig,
                             quad=ladder_terms) -> float:
    """F_n summed exactly, eV/nm^2: the half-weight l = 0 term of the TM
    pair, -zeta(3)/2, then every l up to full_series_extent, on quad's
    terms, totalled by math.fsum."""

    def params(l, xi):
        return drude_eps(material_a, xi), drude_eps(material_b, xi)

    stream = term_stream(lifshitz._pair_log, params, T, d, cfg, full_series_extent(T, d), quad)
    total = math.fsum([-0.5 * ZETA3, *(sl for sl, _ in stream)])
    return CONST.k_b * T / (8.0 * math.pi * d * d) * total


def difference_free_energy_exact(material_a: MaterialParams, material_b: MaterialParams,
                                 T: float, d: float, cfg: EngineConfig,
                                 extent: int | None = None,
                                 g: str = "matsubara", quad=ladder_terms) -> FreeEnergyResult:
    """F_n - F_s summed in ascending l, eV/nm^2, on quad's terms and the
    production g, fetched a block of l at a time, and totalled by math.fsum.
    g="energy_integral" takes slab b's g from mattis_bardeen_g at the block's
    xi_l in place of the engine's g_matsubara.

    Without extent the sum stops where production does, after three quiet
    terms, |term_l| <= rel_tol_series |sum_{j<=l} term_j|, once l reaches
    l_cap = matsubara_cap_diff * 2 Delta(0) / (2 pi k_B T); it raises
    ConvergenceError if that has not happened by full_series_extent or l_cap.  With extent it adds every l up to
    extent.  The quiet test reads a running float sum.  terms_used is the
    last l summed plus one, and error_estimate the quadrature errors plus the
    last term.
    """
    h = 2.0 * math.pi * CONST.k_b * T
    l_cap = int(math.ceil(cfg.matsubara_cap_diff * (2.0 * default_gap(material_b.tc).delta0) / h))

    g_at = {"matsubara": lambda l, xi: g_matsubara(material_b, T, l),
            "energy_integral": lambda l, xi: mattis_bardeen_g(material_b, xi, T)}[g]

    def params(l, xi):
        return (drude_eps(material_a, xi), drude_eps(material_b, xi),
                eps_bcs(material_b, xi, g_at(l, xi)))

    summed = []
    running = err = 0.0
    quiet = 0
    stream = term_stream(lifshitz._diff_log, params, T, d, cfg,
                         extent or max(full_series_extent(T, d), l_cap), quad)
    for l, (sl, el) in enumerate(stream, start=1):
        summed.append(sl)
        running += sl
        err += el
        quiet = quiet + 1 if abs(sl) <= cfg.rel_tol_series * abs(running) else 0
        if extent is None and quiet >= 3 and l >= l_cap:
            break
    else:
        if extent is None:
            raise ConvergenceError(f"no stop after {l} terms", error_estimate=abs(sl))
    pref = CONST.k_b * T / (8.0 * math.pi * d * d)
    return FreeEnergyResult(value=pref * math.fsum(summed), terms_used=l + 1,
                            error_estimate=pref * (err + abs(sl)))


def superconducting_free_energy_direct(material_a: MaterialParams,
                                       material_b: MaterialParams, T: float,
                                       d: float, cfg: EngineConfig,
                                       terms: int) -> float:
    """F_s summed directly, eV/nm^2: the half-weight l = 0 term of the TM
    pair, -zeta(3)/2, then exactly `terms` terms of the pair integrand with
    slab b's BCS permittivity, g fetched per block of l, totalled by
    math.fsum.  F_n less it cancels about four digits."""

    def params(l, xi):
        return drude_eps(material_a, xi), eps_bcs(material_b, xi, g_matsubara(material_b, T, l))

    stream = term_stream(lifshitz._pair_log, params, T, d, cfg, terms)
    total = math.fsum([-0.5 * ZETA3, *(sl for sl, _ in stream)])
    return CONST.k_b * T / (8.0 * math.pi * d * d) * total


def ideal_casimir_energy(d: float) -> float:
    """Zero-temperature perfect-mirror free energy per area, eV/nm^2."""
    return -math.pi ** 2 * HBAR_C / (720.0 * d ** 3)


def fresnel_mpmath(eps: float, xi: float, k_perp: float) -> tuple[float, float]:
    """(r_te, r_tm) evaluated at 50 significant digits."""
    import mpmath as mp

    with mp.workdps(50):
        kappa = mp.mpf(xi) / mp.mpf("197.3269804")
        q = mp.sqrt(kappa ** 2 + mp.mpf(k_perp) ** 2)
        s = mp.sqrt(mp.mpf(eps) * kappa ** 2 + mp.mpf(k_perp) ** 2)
        te = (q - s) / (q + s)
        tm = (mp.mpf(eps) * q - s) / (mp.mpf(eps) * q + s)
        return float(te), float(tm)


def lifshitz_trapezoid(eps_a_fn, eps_b_fn, temperature: float, d: float,
                       nk: int = 4000, lmax: int = 40_000) -> float:
    """Coarse plain-trapezoid, plain-sum evaluation of the Lifshitz formula.

    Good to a few 1e-5 relative; used to sanity-check golden values.
    """
    h = 2.0 * math.pi * K_B * temperature
    k = np.linspace(1e-7, 48.0 / d, nk)
    total = 0.0
    for l in range(lmax):
        xi = h * l
        kap = xi / HBAR_C
        q = np.sqrt(kap ** 2 + k ** 2)
        if l == 0:
            rte_a = np.zeros_like(k)
            rtm_a = np.ones_like(k)
            rte_b = np.zeros_like(k)
            rtm_b = np.ones_like(k)
        else:
            ea = eps_a_fn(xi)
            eb = eps_b_fn(xi)
            sa = np.sqrt(ea * kap ** 2 + k ** 2)
            sb = np.sqrt(eb * kap ** 2 + k ** 2)
            rte_a = (q - sa) / (q + sa)
            rtm_a = (ea * q - sa) / (ea * q + sa)
            rte_b = (q - sb) / (q + sb)
            rtm_b = (eb * q - sb) / (eb * q + sb)
        e2 = np.exp(-2.0 * d * q)
        integrand = k * (np.log1p(-rte_a * rte_b * e2) + np.log1p(-rtm_a * rtm_b * e2))
        term = float(np.trapezoid(integrand, k))
        if l == 0:
            term *= 0.5
        total += term
        if l > 20 and abs(term) < 1e-9 * abs(total):
            break
    return K_B * temperature / (2.0 * math.pi) * total


# ---------------------------------------------------------------------------
# g(xi; T): independent QUADPACK oracle


def _fermi_scalar(x: float) -> float:
    if x > 700.0:
        return 0.0
    e = math.exp(-x)
    return e / (1.0 + e)


def _mb_ratio_oracle(omega: float, delta: float, t_ev: float) -> float:
    """Raw-form sigma1_s/sigma1_n via scipy QUADPACK, coded independently."""
    if delta == 0.0:
        return 1.0
    total = 0.0
    d2 = delta * delta
    with warnings.catch_warnings():
        # QAGS flags roundoff while extrapolating the inverse-sqrt endpoints;
        # the returned values are cross-checked against the production route.
        warnings.simplefilter("ignore", _sint.IntegrationWarning)
        if t_ev > 0.0:
            e_top = delta + 46.0 * t_ev

            def f_th(e):
                df = _fermi_scalar(e / t_ev) - _fermi_scalar((e + omega) / t_ev)
                rad = (e * e - d2) * ((e + omega) ** 2 - d2)
                if rad <= 0.0:
                    return 0.0
                return df * (e * (e + omega) + d2) / math.sqrt(rad)

            val, _ = _sint.quad(f_th, delta, e_top, epsabs=0.0, epsrel=1e-7, limit=200)
            total += 2.0 * val / omega
        if omega > 2.0 * delta:

            def f_pb(e):
                if t_ev > 0.0:
                    occ = 1.0 - 2.0 * _fermi_scalar((e + omega) / t_ev)
                else:
                    occ = 1.0
                rad = (e * e - d2) * ((e + omega) ** 2 - d2)
                if rad <= 0.0:
                    return 0.0
                return occ * (-e * (e + omega) - d2) / math.sqrt(rad)

            # Split at the midpoint so each piece has one singular endpoint,
            # and 4 Delta and 46 kT in from each edge: at omega ~ 1e6 2 Delta
            # QAGS over a whole half missed the edge peaks by up to 1e-6 of R.
            r = 0.5 * omega - delta
            steps = sorted(c for c in (4.0 * delta, 46.0 * t_ev) if 0.0 < c < r)
            cuts = [delta - omega, *(delta - omega + c for c in steps), -0.5 * omega,
                    *(-delta - c for c in reversed(steps)), -delta]
            total += sum(_sint.quad(f_pb, a, b, epsabs=0.0, epsrel=1e-7, limit=200)[0]
                         for a, b in zip(cuts[:-1], cuts[1:])) / omega
    return total


@lru_cache(maxsize=4096)
def _g_oracle_gamma_free(xi: float, delta: float, t_ev: float) -> float:
    if delta == 0.0:
        return 0.0
    if t_ev > 0.0:
        condensate = math.pi * delta * math.tanh(delta / (2.0 * t_ev))
    else:
        condensate = math.pi * delta
    if xi == 0.0:
        return condensate

    def h(om):
        return (_mb_ratio_oracle(om, delta, t_ev) - 1.0) / (om * om + xi * xi)

    edge = 2.0 * delta
    w_top = max(16.0 * edge, 4.0 * xi, 24.0 * t_ev)
    kernel_pts = [p for p in (0.25 * xi, xi, 4.0 * xi, 0.5 * edge) if 0.0 < p < edge]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _sint.IntegrationWarning)
        i1, e1 = _sint.quad(h, 0.0, edge, epsabs=0.0, epsrel=1e-6, limit=200,
                            points=kernel_pts or None)
        mid_pts = [p for p in (xi, 4.0 * xi) if edge < p < w_top]
        i2, e2 = _sint.quad(h, edge, w_top, epsabs=0.0, epsrel=1e-6, limit=200,
                            points=mid_pts or None)
        i3, e3 = _sint.quad(h, w_top, np.inf, epsabs=1e-300, epsrel=1e-6, limit=200)
    est = abs(e1) + abs(e2) + abs(e3)
    body = i1 + i2 + i3
    if abs(body) > 0.0 and est > 1e-3 * abs(body):
        raise ConvergenceError(
            f"oracle KK transform achieved only {est:.3e} on {body:.3e}",
            error_estimate=est,
        )
    return condensate + (2.0 * xi * xi / math.pi) * body


def kk_oracle_sigma(material: MaterialParams, xi: float, T: float) -> float:
    """sigma(i xi) in units of Omega^2/(4 pi) per eV, via the QUADPACK route.

    T at or above tc returns the pure Drude form exactly.
    """
    if xi <= 0.0:
        raise DomainError("kk_oracle_sigma requires xi > 0")
    delta = bcs_gap(material, T) if material.tc > 0.0 else 0.0
    pref = material.omega_p ** 2 / (4.0 * math.pi)
    if delta == 0.0:
        return pref / (xi + material.gamma)
    g = _g_oracle_gamma_free(xi, delta, CONST.k_b * T) / material.gamma
    return pref * (1.0 / (xi + material.gamma) + g / xi)


def g_from_oracle(material: MaterialParams, xi: float, T: float) -> float:
    """Extract g from the oracle sigma via the defining decomposition."""
    sigma = kk_oracle_sigma(material, xi, T)
    pref = material.omega_p ** 2 / (4.0 * math.pi)
    return xi * (sigma / pref - 1.0 / (xi + material.gamma))
