"""Optical response of the metals along the imaginary frequency axis.

Normal state: Drude permittivity eps(i xi) = 1 + Omega^2/(xi (xi + gamma)),
with the residual relaxation gamma = gamma0/RRR.

Superconducting state (dirty limit): the conductivity picks up a correction

    sigma(i xi) = (Omega^2 / 4 pi) * [ 1/(xi + gamma) + g(xi; T)/xi ]

where g is obtained by analytic continuation of the Mattis-Bardeen
conductivity.  The production route evaluates g through a Kramers-Kronig
transform of the real-frequency conductivity ratio R(omega), with the
zero-frequency condensate delta function carried as the closed-form term
pi*Delta*tanh(Delta/2kT).  mattis_bardeen_g takes a whole column of xi at
one temperature: R is evaluated once per node of one composite omega grid
shared by every xi, so a table costs one pass per temperature.
g_on_matsubara_grid evaluates the same function at a run of the discrete
thermal frequencies through a fermionic frequency sum, which is how the
Lifshitz engine consumes it, one block of l at a time; each entry costs
O(n) in the sum's body width, and runs are cached per temperature.  The
reduced BCS gap Delta(T)/Delta(0) is solved at each temperature asked for,
by bisection of the gap equation, and memoised per temperature.  The
polygammas both need come from one asymptotic series (_psi), so the module
needs numpy only.  The independent QUADPACK oracle that checks the KK route
lives with the tests.
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
from .quadrature import _XK, _k15, adaptive_quad, exp_tail_quad, gauss_legendre_nodes  # noqa: F401


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
# Mattis-Bardeen ratio sigma1_s / sigma1_n on the real axis (dirty limit)


# Elements per (rows x width) temporary of one pass over a chunk of rows, in
# the ratio's node sums, the KK panels and the Matsubara-grid g.
_G_CHUNK = 1 << 14


def _fermi(x: np.ndarray) -> np.ndarray:
    # 1/(e^x + 1) for x >= 0 without overflow
    x = np.minimum(x, 700.0)
    e = np.exp(-x)
    return e / (1.0 + e)


def _mb_nodes(omega: np.ndarray, delta: float, t_ev: float, n: int) -> np.ndarray:
    """R(omega), omega > 0, on n Gauss-Legendre nodes per part.

    Quasiparticles: E = delta + (omega/2)(cosh v - 1) absorbs the inverse
    square root of (E - delta)(E - delta + omega) into the measure.  Pair
    breaking, omega > 2 delta only: E = -omega/2 + (omega/2 - delta) sin(theta).
    """
    x, w = gauss_legendre_nodes(n)
    out = np.zeros_like(omega)
    if t_ev > 0.0:
        om = omega[:, None]
        v_max = np.arccosh(1.0 + 2.0 * (42.0 * t_ev) / om)
        e = delta + 0.5 * om * (np.cosh(v_max * x) - 1.0)
        occ = _fermi(e / t_ev) - _fermi((e + om) / t_ev)
        coh = (e * (e + om) + delta * delta) / np.sqrt((e + delta) * (e + om + delta))
        out += (2.0 / omega) * (v_max[:, 0] * np.dot(occ * coh, w))
    sel = omega > 2.0 * delta
    if np.any(sel):
        om = omega[sel][:, None]
        e = -0.5 * om + (0.5 * om - delta) * np.sin(math.pi * (x - 0.5))
        occ = 1.0 - 2.0 * _fermi((e + om) / t_ev) if t_ev > 0.0 else 1.0
        # case-II coherence: |E|(E+omega) - Delta^2 on the negative-E branch
        num = -(e * (e + om) + delta * delta)
        den = np.sqrt((delta - e) * (e + om + delta))
        out[sel] += (math.pi / omega[sel]) * np.dot(occ * num / den, w)
    return out


def _mb_ratio(omega: np.ndarray, delta: float, t_ev: float) -> np.ndarray:
    """sigma1_s(omega)/sigma1_n(omega), each omega to its own node count.

    Every omega starts at 64 Gauss-Legendre nodes and doubles them until two
    counts agree to 1e-11 relative; only the unconverged omega go on, up to
    2048 nodes.  Chunks keep rows x nodes under _G_CHUNK elements.
    """
    omega = np.asarray(omega, dtype=float)
    if delta == 0.0:
        return np.ones_like(omega)

    def ratio(om, n):
        rows = max(1, _G_CHUNK // n)
        return np.concatenate([_mb_nodes(c, delta, t_ev, n)
                               for c in np.split(om, range(rows, om.size, rows))])

    flat = omega.ravel()
    out = ratio(flat, 64)
    todo = np.arange(flat.size)
    for n in (128, 256, 512, 1024, 2048):
        new = ratio(flat[todo], n)
        done = np.abs(new - out[todo]) <= 1e-11 * (np.abs(new) + 1e-30)
        out[todo] = new
        todo = todo[~done]
        if not todo.size:
            break
    return out.reshape(omega.shape)


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


# Tail: unit panels in u, omega = W e^u; past W >= 4 xi the integrand in u
# falls like (R - 1)/omega, so beyond u = _KK_TAIL it is below e^-_KK_TAIL of
# the tail's start.
_KK_TAIL, _KK_REL, _KK_ROUNDS = 32, 1e-9, 60


def _kk_column(xi: np.ndarray, delta: float, t_ev: float) -> np.ndarray:
    """(2 xi^2/pi) int_0^inf (R(omega) - 1)/(omega^2 + xi^2) domega, xi > 0.

    One composite K15 grid serves the whole column, since R does not depend
    on xi: the union of every xi's _kk_breakpoints up to W, the largest
    w_top, then the tail, all in one parameter s, omega = s up to W and
    W e^(s - W) past it.  R is evaluated once per node, every xi's panel
    integrals and errors come from one K15 pass, and while some xi misses
    _KK_REL, each panel whose error for such a xi exceeds that xi's goal
    over the panel count is bisected, R evaluated on the new nodes only.
    """
    xi2 = xi * xi
    cuts = [_kk_breakpoints(float(x), delta, t_ev) for x in np.unique(xi)]
    w_top = max(top for _, top in cuts)
    edges = np.unique(np.concatenate(
        [[0.0], *(p for p, _ in cuts), w_top + np.arange(_KK_TAIL + 1)]))

    def panels(a, b):
        half = 0.5 * (b - a)
        s = (0.5 * (a + b))[:, None] + half[:, None] * _XK
        om = np.where(s > w_top, w_top * np.exp(s - w_top), s)
        h = (_mb_ratio(om, delta, t_ev) - 1.0) * np.where(s > w_top, om, 1.0)
        q = np.empty((2, xi.size, a.size))
        rows = max(1, _G_CHUNK // (xi.size * _XK.size))
        for i in range(0, a.size, rows):
            c = slice(i, i + rows)
            q[:, :, c] = _k15(h[c] / (om[c] ** 2 + xi2[:, None, None]), half[c])
        return q

    a, b = edges[:-1], edges[1:]
    q = panels(a, b)                   # (integral, error) x xi x panel
    for _ in range(_KK_ROUNDS):
        total, err = q[0].sum(axis=1), q[1].sum(axis=1)
        short = ~(err <= _KK_REL * np.abs(total))      # NaN counts as short
        if not short.any():
            return (2.0 / math.pi) * xi2 * total
        split = np.any(q[1, short] > _KK_REL * np.abs(total[short, None]) / a.size, axis=0)
        mid = 0.5 * (a[split] + b[split])
        new_a, new_b = np.r_[a[split], mid], np.r_[mid, b[split]]
        q = np.concatenate([q[..., ~split], panels(new_a, new_b)], axis=-1)
        a, b = np.r_[a[~split], new_a], np.r_[b[~split], new_b]
    raise ConvergenceError(f"Kramers-Kronig g: {int(short.sum())} of {xi.size} xi above "
                           f"rel {_KK_REL:g} after {_KK_ROUNDS} rounds", float(err.max()))


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
            g[xi > 0.0] += _kk_column(xi[xi > 0.0], delta, t_ev)
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
        wing = _psi(1, a) + _psi(1, a + l) + 2.0 * (_psi(0, a + l) - _psi(0, a)) / l
        # closed-form middle of the cross sum, exactly 0 for l <= 2e
        lm = np.maximum(l, 2 * e)
        b = e + 0.5
        middle = (_psi(1, b) - _psi(1, lm - e + 0.5)
                  - 2.0 * (_psi(0, lm - e + 0.5) - _psi(0, b)) / lm)
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
