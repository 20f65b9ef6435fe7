"""Optical response of the metals along the imaginary frequency axis.

Normal state: Drude permittivity eps(i xi) = 1 + Omega^2/(xi (xi + gamma)),
with the residual relaxation gamma = gamma0/RRR.

Superconducting state (dirty limit): the conductivity picks up a correction

    sigma(i xi) = (Omega^2 / 4 pi) * [ 1/(xi + gamma) + g(xi; T)/xi ]

where g is obtained by analytic continuation of the Mattis-Bardeen
conductivity.  The production route evaluates g through a Kramers-Kronig
transform of the real-frequency conductivity ratio, with the zero-frequency
condensate delta function carried as the closed-form term
pi*Delta*tanh(Delta/2kT).  g_on_matsubara_grid evaluates the same function
at a run of the discrete thermal frequencies through a fermionic frequency
sum, which is how the Lifshitz engine consumes it, one block of l at a time;
each entry costs O(n) in the sum's body width, and runs are cached per
temperature.  The reduced BCS gap Delta(T)/Delta(0) is solved at each
temperature asked for, by bisection of the gap equation, and memoised per
temperature; the module needs scipy.special only.  The independent QUADPACK
oracle that checks the KK route lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import special as _ssp

from .constants import CONST
from .errors import DomainError
from .quadrature import adaptive_quad, exp_tail_quad, gauss_legendre_nodes


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class MaterialParams:
    """Drude and superconducting constants of one metal.

    omega_p, gamma0 in eV; tc in K; hc0 in Oe; lambda0 in nm.
    """

    name: str
    omega_p: float
    gamma0: float
    rrr: float = 1.0
    tc: float = 0.0
    hc0: float = 0.0
    lambda0: Optional[float] = None
    ell_over_xi0: Optional[float] = None

    def __post_init__(self) -> None:
        if self.omega_p <= 0.0:
            raise DomainError(f"{self.name}: plasma frequency must be positive")
        if self.gamma0 <= 0.0:
            raise DomainError(f"{self.name}: relaxation frequency must be positive")
        if self.rrr < 1.0:
            raise DomainError(f"{self.name}: rrr must be >= 1")
        if self.tc < 0.0:
            raise DomainError(f"{self.name}: tc must be >= 0")
        if self.tc > 0.0 and (self.hc0 <= 0.0 or not self.lambda0 or self.lambda0 <= 0.0):
            raise DomainError(
                f"{self.name}: superconductors need hc0 > 0 and lambda0 > 0"
            )

    @property
    def gamma(self) -> float:
        """Residual relaxation frequency gamma0/RRR (eV)."""
        return self.gamma0 / self.rrr

    def is_superconductor(self) -> bool:
        return self.tc > 0.0


GOLD = MaterialParams(name="gold", omega_p=9.0, gamma0=0.035, rrr=1.0)
LEAD = MaterialParams(
    name="lead", omega_p=7.36, gamma0=0.200, rrr=2.0,
    tc=7.2, hc0=800.0, lambda0=35.0, ell_over_xi0=0.07,
)

REGISTRY: dict[str, MaterialParams] = {
    "gold": GOLD,
    "lead": LEAD,
    "au": GOLD,
    "pb": LEAD,
}


# ---------------------------------------------------------------------------
# BCS gap


@dataclass(frozen=True)
class GapModel:
    """Zero-temperature gap; the reduced curve Delta(T)/Delta(0) is universal."""

    delta0: float                      # Delta(0), eV

    @classmethod
    def for_tc(cls, tc: float) -> "GapModel":
        if tc < 0.0:
            raise DomainError("tc must be >= 0")
        return cls(delta0=1.764 * CONST.k_b * tc)

    def ratio(self, t: float) -> float:
        """Delta(T)/Delta(0) at reduced temperature t in [0, 1]."""
        if t < 0.0 or t > 1.0:
            raise DomainError("reduced temperature outside [0, 1]")
        if t < _GAP_FLAT_BELOW:
            return 1.0
        if t == 1.0:
            return 0.0
        return _universal_gap_curve(t)


# Below this t the ratio deviates from 1 by under 1e-13, and x = BCS/(2 pi t)
# grows past where the three-order tail of _gap_sum holds.
_GAP_FLAT_BELOW = 0.06

# Weak-coupling ratio Delta(0)/(k_B Tc) = pi * exp(-Euler gamma); using it in
# the reduced gap equation closes the curve exactly at t = 1.
_BCS_RATIO = math.pi * math.exp(-0.5772156649015329)

# Terms of the gap equation's Matsubara sum taken one by one; past them the
# sum is a series in x^2 / a_n^2 < 4e-4 whose first three orders are kept.
_GAP_TERMS = 256
_GAP_A = np.arange(_GAP_TERMS) + 0.5
# sum_{n>=N} a_n^-(2k+1) = -psi^(2k)(N + 1/2) / (2k)!
_GAP_PSI2, _GAP_PSI4, _GAP_PSI6 = (float(_ssp.polygamma(k, _GAP_TERMS + 0.5))
                                   for k in (2, 4, 6))


def _gap_sum(x: float) -> float:
    """sum_{n>=0} [1/a_n - 1/sqrt(a_n^2 + x^2)], a_n = n + 1/2.

    Each term is written x^2 / (a b (a + b)) with b = sqrt(a^2 + x^2), so
    every term, and the sum, is exact to rounding however small x is.
    """
    a = _GAP_A
    y = x * x
    b = np.sqrt(a * a + y)
    body = float(np.sum(y / (a * b * (a + b))))
    return (body
            - (y / 2.0) * _GAP_PSI2 / 2.0
            + (3.0 * y * y / 8.0) * _GAP_PSI4 / 24.0
            - (5.0 * y * y * y / 16.0) * _GAP_PSI6 / 720.0)


@lru_cache(maxsize=256)
def _universal_gap_curve(t: float) -> float:
    """Delta(T)/Delta(0) at t = T/Tc in [_GAP_FLAT_BELOW, 1), solved for this t.

    Bisects d on [1e-9, 1], 60 halvings, which takes the bracket below the
    spacing of doubles at the root.  The equation is the BCS gap equation in
    Matsubara form, log(1/t) = _gap_sum(x) with x = Delta/(2 pi k_B T) =
    BCS d/(2 pi t).  It is the energy-integral form
    log(1/d) = 2 int_0^inf dv/(e^{s cosh v} + 1), s = BCS d/t, rewritten so
    that both sides are small near t = 1: there the integral form cancels
    two numbers of order log(1/d), and its rounding of ~1e-15 moves d by
    ~1e-8 at t = 1 - 1e-7, where d^2 ~ 3e-7.  One solve takes about 2 ms,
    so solves are memoised per t.
    """
    log_inv_t = -math.log(t)
    lo, hi = 1e-9, 1.0
    for _ in range(60):
        d = 0.5 * (lo + hi)
        if log_inv_t > _gap_sum(_BCS_RATIO * d / (2.0 * math.pi * t)):
            lo = d
        else:
            hi = d
    return 0.5 * (lo + hi)


def bcs_gap(gap: GapModel, T: float, tc: float) -> float:
    """Delta(T) in eV; closes at tc, equals delta0 at T = 0."""
    if T < 0.0:
        raise DomainError("temperature must be >= 0")
    if tc == 0.0:
        if T > 0.0:
            raise DomainError("gap undefined above tc")
        return 0.0
    if T > tc:
        raise DomainError("gap undefined above tc")
    return gap.delta0 * gap.ratio(T / tc)


@lru_cache(maxsize=32)
def default_gap(tc: float) -> GapModel:
    return GapModel.for_tc(tc)


# ---------------------------------------------------------------------------
# Drude


def drude_eps(material: MaterialParams, xi):
    """Normal-metal permittivity at imaginary frequency xi > 0 (eV), a
    float or an array."""
    if np.any(xi <= 0.0):
        raise DomainError("drude_eps requires xi > 0; the static limit is "
                          "handled by the zero-mode reflection formulas")
    return 1.0 + material.omega_p ** 2 / (xi * (xi + material.gamma))


# ---------------------------------------------------------------------------
# Mattis-Bardeen ratio sigma1_s / sigma1_n on the real axis (dirty limit)


def _fermi(x: np.ndarray) -> np.ndarray:
    # 1/(e^x + 1) for x >= 0 without overflow
    x = np.minimum(x, 700.0)
    e = np.exp(-x)
    return e / (1.0 + e)


def _mb_thermal(omega: np.ndarray, delta: float, t_ev: float, n_nodes: int) -> np.ndarray:
    """Quasiparticle part, all omega > 0.

    Uses E = delta + (omega/2)(cosh v - 1), which absorbs the inverse square
    root of (E - delta)(E - delta + omega) into the measure.
    """
    if t_ev == 0.0:
        return np.zeros_like(omega)
    om = omega[:, None]
    e_window = 42.0 * t_ev
    v_max = np.arccosh(1.0 + 2.0 * e_window / om)
    x, w = gauss_legendre_nodes(n_nodes)
    v = v_max * x[None, :]
    e = delta + 0.5 * om * (np.cosh(v) - 1.0)
    occ = _fermi(e / t_ev) - _fermi((e + om) / t_ev)
    coh = (e * (e + om) + delta * delta) / np.sqrt((e + delta) * (e + om + delta))
    return (2.0 / omega) * (v_max[:, 0] * np.dot(occ * coh, w))


def _mb_pair(omega: np.ndarray, delta: float, t_ev: float, n_nodes: int) -> np.ndarray:
    """Pair-breaking part, only omega > 2*delta contributes."""
    out = np.zeros_like(omega)
    sel = omega > 2.0 * delta
    if not np.any(sel):
        return out
    om = omega[sel][:, None]
    x, w = gauss_legendre_nodes(n_nodes)
    theta = math.pi * (x[None, :] - 0.5)
    e = -0.5 * om + (0.5 * om - delta) * np.sin(theta)
    if t_ev > 0.0:
        occ = 1.0 - 2.0 * _fermi((e + om) / t_ev)
    else:
        occ = np.ones_like(e)
    # case-II coherence: |E|(E+omega) - Delta^2 on the negative-E branch
    num = -(e * (e + om) + delta * delta)
    den = np.sqrt((delta - e) * (e + om + delta))
    out[sel] = (math.pi / omega[sel]) * np.dot(occ * num / den, w)
    return out


def _mb_ratio(omega: np.ndarray, delta: float, t_ev: float) -> np.ndarray:
    """sigma1_s(omega)/sigma1_n(omega) with node-doubling convergence."""
    omega = np.asarray(omega, dtype=float)
    if delta == 0.0:
        return np.ones_like(omega)
    val = _mb_thermal(omega, delta, t_ev, 64) + _mb_pair(omega, delta, t_ev, 64)
    for n in (128, 256, 512, 1024, 2048):
        new = _mb_thermal(omega, delta, t_ev, n) + _mb_pair(omega, delta, t_ev, n)
        if np.all(np.abs(new - val) <= 1e-11 * (np.abs(new) + 1e-30)):
            return new
        val = new
    return val


# ---------------------------------------------------------------------------
# g(xi; T): Kramers-Kronig route (production)


def _kk_breakpoints(xi: float, delta: float, t_ev: float) -> tuple[list, float]:
    """Interior breakpoints on (0, W) and the tail start W."""
    edge = 2.0 * delta
    w_top = max(16.0 * edge, 4.0 * xi, 24.0 * t_ev, 8.0 * edge)
    pts = set()
    # geometric chain toward omega = 0 resolves both the Lorentzian kernel
    # (width xi) and the low-frequency logarithm of the thermal ratio
    lo = max(min(xi, edge) * 1e-4, 1e-14)
    p = lo
    while p < w_top:
        pts.add(p)
        p *= 8.0
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        pts.add(c * edge)
        if xi > 0:
            pts.add(c * xi)
    return sorted(p for p in pts if 0.0 < p < w_top), w_top


def _condensate(delta: float, t_ev: float) -> float:
    """gamma * g(0+; T) = pi*Delta*tanh(Delta/2kT), the condensate weight."""
    if t_ev > 0.0:
        return math.pi * delta * math.tanh(delta / (2.0 * t_ev))
    return math.pi * delta


@lru_cache(maxsize=20000)
def _g_kk_gamma_free(xi: float, delta: float, t_ev: float) -> float:
    """gamma * g(xi; T): condensate term plus the KK integral of (R - 1)."""
    if delta == 0.0:
        return 0.0
    condensate = _condensate(delta, t_ev)
    if xi == 0.0:
        return condensate

    def integrand(om):
        return (_mb_ratio(om, delta, t_ev) - 1.0) / (om * om + xi * xi)

    pts, w_top = _kk_breakpoints(xi, delta, t_ev)
    body, be = adaptive_quad(integrand, 0.0, w_top, rel_tol=1e-9,
                             abs_tol=1e-300, breakpoints=pts, max_panels=4000)
    tail, te = exp_tail_quad(integrand, w_top, rel_tol=1e-9, abs_tol=1e-300)
    return condensate + (2.0 * xi * xi / math.pi) * (body + tail)


def mattis_bardeen_g(material: MaterialParams, gap: GapModel, xi: float, T: float) -> float:
    """BCS correction g(xi; T) in sigma(i xi); zero at and above tc."""
    if xi < 0.0:
        raise DomainError("mattis_bardeen_g requires xi >= 0")
    delta = bcs_gap(gap, T, material.tc)
    if delta == 0.0:
        return 0.0
    return _g_kk_gamma_free(xi, delta, CONST.k_b * T) / material.gamma


def g_zero_limit(material: MaterialParams, gap: GapModel, T: float) -> float:
    """g(0+; T) = pi*Delta*tanh(Delta/2kT)/gamma, the condensate weight."""
    delta = bcs_gap(gap, T, material.tc)
    if delta == 0.0:
        return 0.0
    return _condensate(delta, CONST.k_b * T) / material.gamma


def eps_bcs(material: MaterialParams, xi, g):
    """Superconducting permittivity at xi > 0 with the correction g(xi; T)
    of mattis_bardeen_g; xi and g are floats or arrays.  Equals drude_eps
    exactly where g == 0."""
    if np.any(xi <= 0.0):
        raise DomainError("eps_bcs requires xi > 0")
    eps = 1.0 + (material.omega_p ** 2 / xi) * (1.0 / (xi + material.gamma) + g / xi)
    return np.where(g == 0.0, drude_eps(material, xi), eps)[()]


# ---------------------------------------------------------------------------
# g at the discrete thermal frequencies (engine fast path)


# Cross pairs (n, l-1-n) are summed term by term while min(n, l-1-n) is below
# this many body widths; the rest of the cross sum is taken in closed form.
_CROSS_EXACT = 4
# Elements per (rows x width) temporary of one pass over a chunk of rows.
_G_CHUNK = 1 << 14


def _g_body(l: np.ndarray, n: int, e: int, delta: float, step: float) -> np.ndarray:
    """Summed-term part of gamma g(xi_l) / (pi k_B T) for a chunk of l >= 1.

    Twice the n non-cross terms of l, plus the cross terms of the pairs
    (m, l-1-m) with m < e: each pair with m < l-1-m counts twice, the
    centre m = (l-1)/2 once, and pairs past the centre not at all.
    """
    d2 = delta * delta

    def ws(k):
        w = step * (k + 0.5)
        return w, np.sqrt(w * w + d2)

    w0, s0 = ws(np.arange(n))
    wl, sl = ws(l[:, None] + np.arange(n))
    noncross = np.sum(1.0 - (w0 * wl - d2) / (s0 * sl), axis=1)
    m = np.arange(e)
    wm, sm = ws(m)
    partner = l[:, None] - 1 - m
    wp, sp = ws(partner)
    weight = np.where(m < partner, 2.0, np.where(m == partner, 1.0, 0.0))
    cross = np.sum(weight * (-1.0 + (wm * wp + d2) / (sm * sp)), axis=1)
    return 2.0 * noncross + cross


@lru_cache(maxsize=256)
def g_on_matsubara_grid(material: MaterialParams, gap: GapModel, T: float,
                        l_count: int, l_first: int = 0) -> np.ndarray:
    """g at xi_l = 2 pi k_B T l for l = l_first..l_first + l_count.

    At the discrete frequencies the analytic continuation reduces to the
    fermionic sum

        g(xi_l) = (pi kT / gamma) * sum_n [ sgn(w_n) sgn(w_n + xi_l)
                  - (w_n (w_n + xi_l) - Delta^2) / (s_n s_{n+l}) ]

    over w_n = pi kT (2n+1), s_n = sqrt(w_n^2 + Delta^2).  The terms with
    n >= 0 and n < -l are equal in pairs: a body of n of them is summed and
    the slowly converging wings past it are taken in closed form via
    polygamma functions.  The l cross terms, -l <= n < 0, pair up as
    (m, l-1-m) with m = -n-1 and fall off as -(Delta^2/2)(1/w_m - 1/w_{l-1-m})^2.
    They are summed one by one where min(m, l-1-m) < e = 4n; the middle,
    e <= m <= l-1-e, takes the wings' leading-order expansion,

        -(Delta^2/step^2) [psi1(e+1/2) - psi1(l-e+1/2)
                           - (2/l) (psi(l-e+1/2) - psi(e+1/2))],

    step = 2 pi kT, so an entry costs O(n), not O(l).  Why 4n: the wings
    carry a leading-order bias that the middle's partly cancels, so e sets
    how far the force jump moves from summing every cross term; at 775 Oe,
    70 nm the shift is 7.6e-6 at e = n, 8e-7 at 2n, 7.3e-8 at 4n, 4.8e-9
    at 8n, against the 1e-6 to which the headline values are held.

    The l = 0 entry is the condensate weight g(0+).  Each entry depends on
    its l alone, so a run of l is bit for bit the same slice of a longer
    run.  Runs are cached, since every series at one T asks for the same
    blocks of l; the returned array is read-only.
    """
    if T <= 0.0:
        raise DomainError("g_on_matsubara_grid requires T > 0")
    delta = bcs_gap(gap, T, material.tc)
    out = np.zeros(l_count + 1)
    if delta > 0.0:
        t_ev = CONST.k_b * T
        step = 2.0 * math.pi * t_ev
        n = int(max(60.0 * delta / step, 60.0)) + 1
        e = _CROSS_EXACT * n
        l = np.arange(max(l_first, 1), l_first + l_count + 1)
        # analytic wings: t_n ~ (Delta^2/2) (1/w_n + 1/w_{n+l})^2 past the body
        a = n + 0.5
        wing = (_ssp.polygamma(1, a) + _ssp.polygamma(1, a + l)
                + 2.0 * (_ssp.digamma(a + l) - _ssp.digamma(a)) / l)
        # closed-form middle of the cross sum, exactly 0 for l <= 2e
        lm = np.maximum(l, 2 * e)
        b = e + 0.5
        middle = (_ssp.polygamma(1, b) - _ssp.polygamma(1, lm - e + 0.5)
                  - 2.0 * (_ssp.digamma(lm - e + 0.5) - _ssp.digamma(b)) / lm)
        body = np.empty(l.size)
        rows = max(1, _G_CHUNK // e)
        for i in range(0, l.size, rows):
            body[i:i + rows] = _g_body(l[i:i + rows], n, e, delta, step)
        out[l - l_first] = body + (delta * delta / step ** 2) * (wing - middle)
        out *= math.pi * t_ev / material.gamma
        if l_first == 0:
            out[0] = _condensate(delta, t_ev) / material.gamma
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# dirty-limit diagnostic


def dirty_limit_ratio(material: MaterialParams, gap: GapModel,
                      delta_ref: Optional[float] = None) -> float:
    """Mean-free-path to coherence-length ratio pi*delta_ref/gamma.

    The Fermi velocity cancels between ell = v_F/gamma and
    xi0 = hbar v_F / (pi delta_ref).  delta_ref defaults to the full gap
    2*Delta(0), the convention that reproduces the quoted 0.07 for lead.
    """
    if not material.is_superconductor():
        raise DomainError("dirty_limit_ratio needs a superconductor")
    if delta_ref is None:
        delta_ref = 2.0 * gap.delta0
    return math.pi * delta_ref / material.gamma
