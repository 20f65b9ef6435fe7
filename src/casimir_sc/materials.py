"""Optical response of the metals along the imaginary frequency axis.

Normal state: Drude permittivity eps(i xi) = 1 + Omega^2/(xi (xi + gamma)),
with the residual relaxation gamma = gamma0/RRR.

Superconducting state (dirty limit): the conductivity picks up a correction

    sigma(i xi) = (Omega^2 / 4 pi) * [ 1/(xi + gamma) + g(xi; T)/xi ]

where g is the Mattis-Bardeen conductivity continued to imaginary
frequency.  mattis_bardeen_g evaluates it at any xi > 0 as one integral over
quasiparticle energy, the fermionic Matsubara sum folded onto the branch cut
from the gap edge; the zero-frequency condensate, pi*Delta*tanh(Delta/2kT),
is part of that integral.  It takes a whole column of xi at one temperature
on one composite K15 grid in the energy variable, so a table costs one pass
per temperature.
g_matsubara evaluates it at the discrete thermal frequencies through the
fermionic frequency sum itself, as the Lifshitz engine consumes it; an entry
costs O(n) in the sum's body width and is memoised for the last temperature.
The reduced BCS gap Delta(T)/Delta(0) is solved at each temperature asked
for, by bisection of the gap equation, and memoised per temperature.  The
polygammas both need come from one asymptotic series (_psi), so the module
needs numpy only.  The independent QUADPACK Kramers-Kronig oracle that checks
the column lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .constants import CONST
from .errors import ConvergenceError, DomainError
# adaptive_quad and exp_tail_quad are unused here but stay module attributes,
# which perfbench/trace_child.py wraps by name.
from .quadrature import _XK, _k15, adaptive_quad, exp_tail_quad  # noqa: F401


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
    tc=7.2, hc0=800.0, lambda0=35.0,
)


# ---------------------------------------------------------------------------
# polygamma


# Bernoulli numbers B_2, B_4, ..., B_16.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _psi(k: int, x):
    """psi(x) for k = 0, else the polygamma psi^(k)(x), for x >= 60.5.

    The Bernoulli asymptotic series

        psi(x)     ~ log x - 1/(2x) - sum_j B_2j / (2j x^2j)
        psi^(k)(x) ~ (-1)^(k+1) [(k-1)!/x^k + k!/(2 x^(k+1))
                                 + sum_j B_2j (2j+k-1)! / ((2j)! x^(2j+k))]

    with B_2 ... B_16, summed by Horner in 1/x^2.  The domain is x >= 60.5,
    which holds every argument this module passes (the smallest is 61.5).
    There the first omitted term is below 2e-26 relative for k <= 6, and the
    result is within 2 ulp of mpmath over [60.5, 1e7] for k in (0, 1, 2, 4,
    6); smaller x lose digits fast.  x may be a float or an array.
    """
    z = 1.0 / (x * x)
    series = 0.0
    for j in range(len(_BERNOULLI), 0, -1):
        b = _BERNOULLI[j - 1]
        series = series * z + (b / (2 * j) if k == 0 else b * math.perm(2 * j + k - 1, k - 1))
    series = series * z
    if k == 0:
        return np.log(x) - 0.5 / x - series
    return ((-1) ** (k + 1)
            * (math.factorial(k - 1) + math.factorial(k) / (2.0 * x) + series) / x ** k)


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
_GAP_PSI2, _GAP_PSI4, _GAP_PSI6 = (float(_psi(k, _GAP_TERMS + 0.5)) for k in (2, 4, 6))


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
                          "the Lifshitz series' analytic zero mode")
    return 1.0 + material.omega_p ** 2 / (xi * (xi + material.gamma))


# ---------------------------------------------------------------------------
# g(xi; T) at any imaginary frequency (dirty limit)


# Elements per (rows x width) temporary of one pass over a chunk of rows, in
# the Matsubara-grid g.  A g column's complex kernel takes a quarter of it:
# the whole raised the peak memory of a g-function run by 0.6 MB.
_G_CHUNK = 1 << 14


def _condensate(delta: float, t_ev: float) -> float:
    """gamma * g(0+; T) = pi*Delta*tanh(Delta/2kT), the condensate weight."""
    if t_ev > 0.0:
        return math.pi * delta * math.tanh(delta / (2.0 * t_ev))
    return math.pi * delta


# A column's goal, relative to each |gamma g|; its bisection rounds; and the
# top of its v grid, in E/max(xi, 2kT, Delta), before two more units of v.
_G_REL, _G_ROUNDS, _G_TOP = 1e-10, 60, 1e5


def _g_kernel(v: np.ndarray, xi: np.ndarray, delta: float, t_ev: float) -> np.ndarray:
    """The integrand of gamma g in v, (xi.size, v.size), xi > 0.

    The fermionic Matsubara sum of g, folded onto the branch cut from the
    gap edge, is one integral over quasiparticle energy E = Delta cosh v
    (dv = dE/sqrt(E^2 - Delta^2)).  With z = E + i xi its integrand is

        2 tanh(E/2kT) Re[(E z + Delta^2) / sqrt(Delta^2 - z^2)]
          = -2 Delta^2 tanh(E/2kT) Im[(1 + E/(z + q)) / q],

    q = sqrt(z - Delta) sqrt(z + Delta), the principal root of their product
    (both lie in the right half-plane) with no E^2 to overflow.  The first
    form's two parts of order E cancel to one of order Delta^2 xi/E^2, which
    loses about eps (E/Delta)^2 relative; the second does not cancel, and
    z - Delta = 2 Delta sinh^2(v/2) + i xi keeps q exact at the gap edge,
    where the condensate's weight sits for small xi.
    """
    e = delta * np.cosh(v)
    occ = np.tanh(0.5 * e / t_ev) if t_ev > 0.0 else 1.0
    z = e + 1j * xi[:, None]
    q = np.sqrt(2.0 * delta * np.sinh(0.5 * v) ** 2 + 1j * xi[:, None])
    w = z + delta
    q *= np.sqrt(w, out=w)
    z += q
    np.divide(e, z, out=z)
    z += 1.0
    z /= q
    return (-2.0 * delta * delta) * occ * z.imag


def _g_column(xi: np.ndarray, delta: float, t_ev: float) -> np.ndarray:
    """gamma g(xi; T) = int_0^inf _g_kernel dv for a column of xi > 0.

    One composite K15 grid in v serves the column: a doubling chain from a
    quarter of sqrt(min(xi, Delta)/Delta), the width of the condensate's
    peak, up to v = 1, then unit panels to two units past
    E = _G_TOP max(xi, 2kT, Delta).  Past that cut the integrand falls like
    e^-2v, which the K15 estimates do not see, so the cut stays far out.
    While some xi misses its goal, _G_REL |gamma g|, each panel whose error
    for such a xi exceeds that xi's goal over the panel count is bisected,
    the kernel evaluated on the new nodes only.
    """
    v_lo = 0.25 * math.sqrt(min(float(xi.min()), delta) / delta)
    v_top = math.acosh(_G_TOP * max(float(xi.max()), 2.0 * t_ev, delta) / delta) + 2.0
    edges = np.r_[0.0, np.ldexp(v_lo, np.arange(1 - math.frexp(v_lo)[1])),
                  np.arange(1.0, v_top + 1.0)]

    def panels(a, b):
        half = 0.5 * (b - a)
        v = (0.5 * (a + b))[:, None] + half[:, None] * _XK
        q = np.empty((2, xi.size, a.size))
        rows = max(1, _G_CHUNK // 4 // (xi.size * _XK.size))
        for i in range(0, a.size, rows):
            c = slice(i, i + rows)
            y = _g_kernel(v[c].ravel(), xi, delta, t_ev)
            q[:, :, c] = _k15(y.reshape(xi.size, -1, _XK.size), half[c])
        return q

    a, b = edges[:-1], edges[1:]
    q = panels(a, b)                   # (integral, error) x xi x panel
    rounds = 0
    while True:
        total, err = q.sum(axis=-1)
        goal = _G_REL * np.abs(total)
        short = ~(err <= goal)                          # NaN counts as short
        if not short.any():
            return total
        if rounds == _G_ROUNDS:
            raise ConvergenceError(f"g column: {int(short.sum())} of {xi.size} xi short of "
                                   f"their goal after {_G_ROUNDS} rounds", float(err.max()))
        rounds += 1
        split = np.any(q[1, short] > goal[short, None] / a.size, axis=0)
        mid = 0.5 * (a[split] + b[split])
        new_a, new_b = np.r_[a[split], mid], np.r_[mid, b[split]]
        q = np.concatenate([q[..., ~split], panels(new_a, new_b)], axis=-1)
        a, b = np.r_[a[~split], new_a], np.r_[b[~split], new_b]


def mattis_bardeen_g(material: MaterialParams, gap: GapModel, xi, T: float):
    """BCS correction g(xi; T) in sigma(i xi), xi >= 0 a float or an array;
    zero at and above tc.  xi = 0 gives the condensate weight g(0+)."""
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi) & (xi >= 0.0)):
        raise DomainError("mattis_bardeen_g requires finite xi >= 0")
    delta = bcs_gap(gap, T, material.tc)
    g = np.zeros(xi.shape)
    if delta > 0.0:
        t_ev = CONST.k_b * T
        g[...] = _condensate(delta, t_ev)
        if np.any(xi > 0.0):
            g[xi > 0.0] = _g_column(xi[xi > 0.0], delta, t_ev)
        g /= material.gamma
    return float(g) if g.ndim == 0 else g


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


def _g_body(l: np.ndarray, n: int, e: int, delta: float, step: float) -> np.ndarray:
    """Summed-term part of gamma g(xi_l) / (pi k_B T) per l >= 1, each row on
    its own: twice the n non-cross terms of l, plus the cross pairs (m, l-1-m),
    m < e, weighted 2 for m < l-1-m, 1 at m = (l-1)/2 and 0 past it."""
    d2 = delta * delta

    def ws(k):
        w = step * (k + 0.5)
        return w, np.sqrt(w * w + d2)

    m = np.arange(e)
    wm, sm = ws(m)
    wl, sl = ws(l[:, None] + m[:n])
    noncross = np.sum(1.0 - (wm[:n] * wl - d2) / (sm[:n] * sl), axis=1)
    partner = l[:, None] - 1 - m
    wp, sp = ws(partner)
    t = -1.0 + (wm * wp + d2) / (sm * sp)
    if l.min() >= 2 * e:
        cross = 2.0 * np.sum(t, axis=1)
    else:
        weight = np.where(m < partner, 2.0, np.where(m == partner, 1.0, 0.0))
        cross = np.sum(weight * t, axis=1)
    return 2.0 * noncross + cross


def g_matsubara(material: MaterialParams, gap: GapModel, T: float, l) -> np.ndarray:
    """g at xi_l = 2 pi k_B T l for every l of an integer array, in any order.

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

    step = 2 pi kT, so an entry costs O(n), not O(l).  Why 4n: the middle
    partly cancels the wings' leading-order bias, so e sets how far the force
    jump moves from summing every cross term, at 775 Oe, 70 nm by 7.6e-6 at
    e = n, 8e-7 at 2n, 7.3e-8 at 4n and 4.8e-9 at 8n, against the 1e-6 the
    headline values are held to.  An l = 0 entry is the condensate weight
    g(0+).  Each entry depends on its l alone, bit for bit, so _g_memo keeps
    them for the last (material, gap, T); a call computes the l it lacks.
    """
    if T <= 0.0:
        raise DomainError("g_matsubara requires T > 0")
    l = np.asarray(l, dtype=np.int64)
    delta = bcs_gap(gap, T, material.tc)
    memo = _g_memo(material, gap, T)
    new = np.array(sorted(set(l.ravel().tolist()) - memo.keys()), dtype=np.int64)
    out = np.zeros(new.shape)
    if new.size and delta > 0.0:
        t_ev = CONST.k_b * T
        step = 2.0 * math.pi * t_ev
        n = int(max(60.0 * delta / step, 60.0)) + 1
        e = _CROSS_EXACT * n
        lp = new[new > 0]
        # analytic wings: t_n ~ (Delta^2/2) (1/w_n + 1/w_{n+l})^2 past the body
        a = n + 0.5
        wing = _psi(1, a) + _psi(1, a + lp) + 2.0 * (_psi(0, a + lp) - _psi(0, a)) / lp
        # closed-form middle of the cross sum, exactly 0 for l <= 2e
        lm = np.maximum(lp, 2 * e)
        b = e + 0.5
        middle = (_psi(1, b) - _psi(1, lm - e + 0.5)
                  - 2.0 * (_psi(0, lm - e + 0.5) - _psi(0, b)) / lm)
        rows = max(1, _G_CHUNK // (2 * e))   # the body holds several (rows x e) arrays
        body = np.concatenate([np.empty(0)] + [_g_body(lp[i:i + rows], n, e, delta, step)
                                               for i in range(0, lp.size, rows)])
        scale = math.pi * t_ev / material.gamma
        out[new > 0] = (body + (delta * delta / step ** 2) * (wing - middle)) * scale
        out[new == 0] = _condensate(delta, t_ev) / material.gamma
    memo.update(zip(new.tolist(), out.tolist()))
    return np.array([memo[x] for x in l.ravel().tolist()], dtype=float).reshape(l.shape)


@lru_cache(maxsize=1)
def _g_memo(material: MaterialParams, gap: GapModel, T: float) -> dict:
    """{l: g(xi_l)} that g_matsubara computed at (material, gap, T).  Only the
    rows of a gap sweep share a T; keeping 8 T cost a field sweep 0.1 MB."""
    return {}


@lru_cache(maxsize=256)
def g_on_matsubara_grid(material: MaterialParams, gap: GapModel, T: float,
                        l_count: int, l_first: int = 0) -> np.ndarray:
    """g_matsubara on the run l_first .. l_first + l_count, both ends
    included, so l_count + 1 entries; cached and read-only."""
    out = g_matsubara(material, gap, T, np.arange(l_first, l_first + l_count + 1))
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
