"""Optical response of the metals along the imaginary frequency axis.

Normal state: Drude permittivity eps(i xi) = 1 + Omega^2/(xi (xi + gamma)),
with the residual relaxation gamma = gamma0/RRR.

Superconducting state (dirty limit): the conductivity picks up a correction

    sigma(i xi) = (Omega^2 / 4 pi) * [ 1/(xi + gamma) + g(xi; T)/xi ]

where g is obtained by analytic continuation of the Mattis-Bardeen
conductivity.  The production route evaluates g through a Kramers-Kronig
transform of the real-frequency conductivity ratio R(omega), with the
zero-frequency condensate delta function carried as the closed-form term
pi*Delta*tanh(Delta/2kT).  Each part of R is substituted from its gap edges,
so every omega settles on at most 256 Gauss-Legendre nodes.
mattis_bardeen_g takes a whole column of xi at one temperature: R is
evaluated once per node of one composite omega grid shared by every xi, an
octave chain anchored at the gap edge 2 Delta and spanning the column, so
a table costs one pass per temperature.
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
from numpy.lib.stride_tricks import sliding_window_view

from .constants import CONST
from .errors import ConvergenceError, DomainError
# adaptive_quad and exp_tail_quad are unused here but stay module attributes,
# which perfbench/trace_child.py wraps by name.
from .quadrature import _WK, _XK, _k15, adaptive_quad, exp_tail_quad, gauss_legendre_nodes  # noqa: F401


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


def _fermi_drop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f(a) - f(a + b), f(x) = 1/(e^x + 1), for a, b >= 0, as
    -e^-a expm1(-b) / ((1 + e^-a)(1 + e^-a e^-b)) with a capped at 700 as in
    _fermi.  The plain difference has a relative error of about eps/b, which
    would keep the small-omega nodes of _mb_nodes from settling."""
    ea = np.exp(-np.minimum(a, 700.0))
    return ea / (1.0 + ea) * -np.expm1(-b) / (1.0 + ea * np.exp(-b))


def _mb_nodes(omega: np.ndarray, delta: float, t_ev: float, n: int) -> np.ndarray:
    """R(omega), omega > 0, on n Gauss-Legendre nodes per part.

    Quasiparticles: E = delta + (omega/2)(cosh v - 1) absorbs the inverse
    square root of (E - delta)(E - delta + omega) into the measure.  Pair
    breaking, omega > 2 delta only: [delta - omega, -delta] is split at
    -omega/2, and each half is taken from its gap edge as E = -delta - dist
    and E = delta - omega + dist, dist = 2 delta sinh^2 u, so that
    dE / sqrt(dist (dist + 2 delta)) = 2 du.  Both halves then share the
    coherence factor 2 r delta + dist (2r - dist) and the far factor
    sqrt((2r - dist)(2r - dist + 2 delta)), r = omega/2 - delta; only the
    occupation tanh((E + omega)/2kT) differs, and the two are summed.  The
    integrand grows like e^2u towards the middle, which Gauss-Legendre
    resolves in a few dozen nodes however large omega is.  asinh, sinh and
    tanh are taken through log1p, exp and _fermi: numpy's own each map
    another 64 KiB of vectorised code on first use, which raised the peak
    resident memory of a g-function run by 0.15 MB.
    """
    x, w = gauss_legendre_nodes(n)
    out = np.zeros_like(omega)
    if t_ev > 0.0:
        om = omega[:, None]
        v_max = np.arccosh(1.0 + 2.0 * (42.0 * t_ev) / om)
        e = delta + 0.5 * om * (np.cosh(v_max * x) - 1.0)
        occ = _fermi_drop(e / t_ev, om / t_ev)
        coh = (e * (e + om) + delta * delta) / np.sqrt((e + delta) * (e + om + delta))
        out += (2.0 / omega) * (v_max[:, 0] * np.dot(occ * coh, w))
        del e, occ, coh                # (rows x n) each; the next part needs as many
    sel = omega > 2.0 * delta
    if np.any(sel):
        om = omega[sel][:, None]
        two_r = om - 2.0 * delta
        q = 0.25 * two_r / delta
        u_max = np.log1p(np.sqrt(q) + q / (1.0 + np.sqrt(1.0 + q)))   # asinh(sqrt(q))
        dist = np.exp(u_max * x)
        dist = 0.5 * delta * (dist - 1.0 / dist) ** 2                   # 2 delta sinh^2 u
        far = two_r - dist
        coh = (delta * two_r + dist * far) / np.sqrt(far * (far + 2.0 * delta))
        if t_ev > 0.0:
            # tanh(z/2kT) = 1 - 2 f(z/kT) at z = E + omega of each half
            occ = _fermi((delta + dist) / t_ev)
            occ += _fermi((far + delta) / t_ev)
            coh *= 2.0 - 2.0 * occ
        else:
            coh *= 2.0
        out[sel] += (2.0 / omega[sel]) * (u_max[:, 0] * np.dot(coh, w))
    return out


# Node counts _mb_ratio tries in turn, and the agreement it asks of two
# counts, relative to max(|R|, 1).
_MB_LADDER, _MB_REL = (64, 128, 256, 512), 1e-11


def _mb_ratio(omega: np.ndarray, delta: float, t_ev: float) -> np.ndarray:
    """sigma1_s(omega)/sigma1_n(omega), each omega to its own node count.

    Every omega starts at 64 Gauss-Legendre nodes and doubles them until two
    counts agree to _MB_REL max(|R|, 1): the Kramers-Kronig transform takes
    R - 1, so 1e-11 against the 1 is the scale that matters.  Only the
    unconverged omega go on; every omega of a g column at any temperature
    settles by 256 nodes, and one still apart at 512 raises
    ConvergenceError.  Chunks keep rows x nodes under _G_CHUNK elements.
    """
    omega = np.asarray(omega, dtype=float)
    if delta == 0.0:
        return np.ones_like(omega)

    def ratio(om, n):
        rows = max(1, _G_CHUNK // n)
        return np.concatenate([_mb_nodes(c, delta, t_ev, n)
                               for c in np.split(om, range(rows, om.size, rows))])

    flat = omega.ravel()
    out = ratio(flat, _MB_LADDER[0])
    todo = np.arange(flat.size)
    for n in _MB_LADDER[1:]:
        new = ratio(flat[todo], n)
        moved = np.abs(new - out[todo])
        done = moved <= _MB_REL * np.maximum(np.abs(new), 1.0)
        out[todo] = new
        if done.all():
            return out.reshape(omega.shape)
        todo, moved = todo[~done], moved[~done]
    worst = int(np.argmax(moved))
    raise ConvergenceError(
        f"Mattis-Bardeen ratio: {todo.size} omega unsettled at {_MB_LADDER[-1]} nodes, "
        f"worst omega/2Delta = {flat[todo[worst]] / (2.0 * delta):.17g}", float(moved[worst]))


# ---------------------------------------------------------------------------
# g(xi; T): Kramers-Kronig route (production)


def _condensate(delta: float, t_ev: float) -> float:
    """gamma * g(0+; T) = pi*Delta*tanh(Delta/2kT), the condensate weight."""
    if t_ev > 0.0:
        return math.pi * delta * math.tanh(delta / (2.0 * t_ev))
    return math.pi * delta


# Tail: unit panels in u, omega = W e^u; past W >= 4 xi the integrand in u
# falls like (R - 1)/omega, so beyond u = _KK_TAIL it is below e^-_KK_TAIL of
# the tail's start.
_KK_TAIL, _KK_REL, _KK_ROUNDS = 32, 1e-9, 60


def _kk_edges(xi: np.ndarray, delta: float, t_ev: float) -> tuple[np.ndarray, float]:
    """Panel edges in s of a g column, and the tail start W.

    0, then 2 Delta 2^k from the power at or below 1e-4 of the lesser of
    min(xi) and 2 Delta (but not below 1e-14) up to W, then the tail's unit
    panels.  The ratio 2 holds the kernel 1/(omega^2 + xi^2) of any xi
    within a factor 4 across a panel, and the low-frequency logarithm of the
    thermal ratio within log 2, so no xi needs edges of its own.  The chain
    is anchored at 2 Delta so that the pair-breaking edge is a panel edge
    and every xi's chain falls on the same points.
    """
    edge = 2.0 * delta
    w_top = max(16.0 * edge, 4.0 * float(xi.max()), 24.0 * t_ev)
    lo = max(min(float(xi.min()), edge) * 1e-4, 1e-14)
    chain = np.ldexp(edge, np.arange(math.frexp(lo / edge)[1] - 1, math.frexp(w_top / edge)[1]))
    return np.r_[0.0, chain[chain < w_top], w_top + np.arange(_KK_TAIL + 1)], w_top


def _kk_column(xi: np.ndarray, delta: float, t_ev: float) -> np.ndarray:
    """(2 xi^2/pi) int_0^inf (R(omega) - 1)/(omega^2 + xi^2) domega, xi > 0.

    One composite K15 grid serves the whole column, since R does not depend
    on xi: the octave chain of _kk_edges up to W, then the tail, all in one
    parameter s, omega = s up to W and W e^(s - W) past it.  R is evaluated
    once per node, every xi's panel integrals and errors come from one K15
    pass, and while some xi misses its goal, each panel whose error for such
    a xi exceeds that xi's goal over the panel count is bisected, R
    evaluated on the new nodes only.

    The goal is _KK_REL |integral|, floored at _MB_REL times the same
    integral of max(|R|, 1) in place of R - 1, taken on the first grid: R
    itself is settled only to that, so near Tc, where the integral is
    hundreds of times smaller than that of its magnitude, a goal below the
    floor would bisect panels without end.
    """
    xi2 = xi * xi
    edges, w_top = _kk_edges(xi, delta, t_ev)

    def panels(a, b):
        half = 0.5 * (b - a)
        s = (0.5 * (a + b))[:, None] + half[:, None] * _XK
        om = np.where(s > w_top, w_top * np.exp(s - w_top), s)
        r = _mb_ratio(om, delta, t_ev)
        q = np.empty((2, xi.size, a.size))
        mag_total = np.zeros(xi.size)
        rows = max(1, _G_CHUNK // (xi.size * _XK.size))
        for i in range(0, a.size, rows):
            c = slice(i, i + rows)
            # The kernel is built twice, not kept: one more (xi x rows x 15)
            # array alive through _k15 raises the column's peak memory.
            jac = np.where(s[c] > w_top, om[c], 1.0)
            q[:, :, c] = _k15((r[c] - 1.0) * jac / (om[c] ** 2 + xi2[:, None, None]), half[c])
            mag = np.maximum(np.abs(r[c]), 1.0) * jac
            mag_total += np.sum(half[c] * ((mag / (om[c] ** 2 + xi2[:, None, None])) @ _WK),
                                axis=-1)
        return q, mag_total

    a, b = edges[:-1], edges[1:]
    q, mag_total = panels(a, b)        # (integral, error) x xi x panel
    floor = _MB_REL * mag_total
    for _ in range(_KK_ROUNDS):
        total, err = q[0].sum(axis=1), q[1].sum(axis=1)
        goal = np.maximum(_KK_REL * np.abs(total), floor)
        short = ~(err <= goal)                          # NaN counts as short
        if not short.any():
            return (2.0 / math.pi) * xi2 * total
        split = np.any(q[1, short] > goal[short, None] / a.size, axis=0)
        mid = 0.5 * (a[split] + b[split])
        new_a, new_b = np.r_[a[split], mid], np.r_[mid, b[split]]
        q = np.concatenate([q[..., ~split], panels(new_a, new_b)[0]], axis=-1)
        a, b = np.r_[a[~split], new_a], np.r_[b[~split], new_b]
    raise ConvergenceError(f"Kramers-Kronig g: {int(short.sum())} of {xi.size} xi short of "
                           f"their goal after {_KK_ROUNDS} rounds", float(err.max()))


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
    """Summed-term part of gamma g(xi_l) / (pi k_B T) for a chunk of
    consecutive l >= 1.

    Twice the n non-cross terms of l, plus the cross terms of the pairs
    (m, l-1-m) with m < e: each pair with m < l-1-m counts twice, the
    centre m = (l-1)/2 once, and pairs past the centre not at all.  So every
    weight is 2 once l >= 2e.

    w_k = step (k + 1/2) and s_k = sqrt(w_k^2 + Delta^2) are tabled once for
    every k the chunk reaches, l[0] - e <= k < l[-1] + n.  Row i reads them at
    l_i .. l_i+n-1 and at its cross partners l_i-1 .. l_i-e as windows of
    that table, so no (rows x width) array of frequencies is built.
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
