"""Finite-temperature Lifshitz free energy and the PFA force jump.

Free energy per unit area between two thick slabs at separation d:

    F(T, d) = (kT / 8 pi d^2) * sum_l (1 - delta_l0/2) *
              int_{y_l}^inf y dy sum_pol log(1 - R_a R_b e^{-y})

in the scaled variable y = 2 d q_l, y_l = 2 d xi_l / (hbar c).  Slab "a" is
the sphere coating (always normal); slab "b" carries the normal or
superconducting phase.  The l = 0 term is taken in its analytic limit: a
saturated polarization, r_a r_b = 1, gives int_0^inf y log(1 - e^-y) dy =
-zeta(3), so -zeta(3)/2 at half weight.  The Drude slab a has no TE zero
mode, so only the saturated TM pair remains, whatever the phase of slab b.

The force jump across the transition follows from the proximity force
approximation, Delta F = 2 pi R [F_normal - F_super], with error bound d/R.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .errors import ConvergenceError, DomainError, PfaAccuracyWarning
from .materials import MaterialParams, default_gap, drude_eps, eps_bcs, g_matsubara
# Unused here, but module attributes that perfbench/trace_child.py wraps by name.
from .materials import g_on_matsubara_grid  # noqa: F401
from .quadrature import CompositeKronrod, adaptive_quad  # noqa: F401


# ---------------------------------------------------------------------------
# configuration and result types


_Y_CUT = 45.0
# Panels widening with y let more rows meet the tolerance on the first rung
# (759 of the 1,143 rows of the difference series at 25, 200 and 775 Oe, 70 nm;
# 526 on edges 0, 0.5, 1.5, 4, 10, 22, 45).  The composite rule on them must give
# each row of a batch the bits of a one-row call, as not every panel layout
# does, or the series would depend on its split into blocks (test_quadrature).
_Y_SPLITS = (0.0, 0.5, 2.0, 6.0, 14.0, 28.0, _Y_CUT)


@dataclass(frozen=True)
class EngineConfig:
    rel_tol_quadrature: float = 1e-9
    rel_tol_series: float = 1e-9
    matsubara_cap_full: float = 15.0   # xi_max in units of c/d
    matsubara_cap_diff: float = 60.0   # xi_max in units of 2*Delta(0)

    def __post_init__(self) -> None:
        for name in ("rel_tol_quadrature", "rel_tol_series"):
            tol = getattr(self, name)
            if not 0.0 < tol <= 1e-3:
                raise DomainError(f"{name} must lie in (0, 1e-3]")
        for name, low in (("matsubara_cap_full", 10.0), ("matsubara_cap_diff", 20.0)):
            cap = getattr(self, name)
            if not low <= cap < math.inf:
                raise DomainError(f"{name} must be finite and >= {low:g} (got {cap})")


@dataclass(frozen=True)
class FreeEnergyResult:
    value: float          # eV / nm^2
    terms_used: int
    error_estimate: float


@dataclass(frozen=True)
class DeltaForceResult:
    delta_f_fn: float     # fN
    diff_ev_nm2: float    # eV / nm^2
    pfa_bound: float      # d / R
    terms_used: int
    error_estimate: float


# ---------------------------------------------------------------------------
# wavevector integrands
#
# Each integrand maps a node grid y (rows of l, or one row) to
# y * sum_pol log(1 - r_a r_b e^{-y}).  Its parameters broadcast against y:
# yl and the per-l permittivities are columns over a block of l, or scalars
# for one row.


def _fresnel(eps, y, yl):
    """(r_te, r_tm) in scaled variables for permittivity eps at y_l."""
    w = np.sqrt(y * y + (eps - 1.0) * yl * yl)
    return (y - w) / (y + w), (eps * y - w) / (eps * y + w)


def _pair_log(y, yl, eps_a, eps_b):
    rte_a, rtm_a = _fresnel(eps_a, y, yl)
    rte_b, rtm_b = _fresnel(eps_b, y, yl)
    damp = np.exp(-y)
    return y * (np.log1p(-rte_a * rte_b * damp) + np.log1p(-rtm_a * rtm_b * damp))


def _ideal_log(y, yl):
    """Both mirrors ideal, r_te = -1 and r_tm = 1, at every l."""
    half = np.log1p(-np.exp(-y))
    return y * (half + half)


def _diff_log(y, yl, eps_a, eps_n, eps_s):
    """Cancellation-free integrand of the (normal - superconducting) term."""
    rte_a, rtm_a = _fresnel(eps_a, y, yl)
    d_eps = eps_s - eps_n
    yl2 = yl * yl
    w_n = np.sqrt(y * y + (eps_n - 1.0) * yl2)
    w_s = np.sqrt(y * y + (eps_s - 1.0) * yl2)
    dw = d_eps * yl2 / (w_s + w_n)
    rte_s = (y - w_s) / (y + w_s)
    rtm_s = (eps_s * y - w_s) / (eps_s * y + w_s)
    d_rte = 2.0 * y * dw / ((y + w_n) * (y + w_s))            # rte_n - rte_s
    d_rtm = (2.0 * y * d_eps * (eps_n * yl2 / (w_s + w_n) - w_n)
             / ((eps_n * y + w_n) * (eps_s * y + w_s)))       # rtm_n - rtm_s
    damp = np.exp(-y)
    arg_te = rte_a * d_rte * damp / (1.0 - rte_a * rte_s * damp)
    arg_tm = rtm_a * d_rtm * damp / (1.0 - rtm_a * rtm_s * damp)
    return y * (np.log1p(-arg_te) + np.log1p(-arg_tm))


# ---------------------------------------------------------------------------
# Matsubara series


def _ladder(edges: tuple) -> list:
    """Rung 0 is the rule on edges, rung 1 its bisection.  Rungs 2 .. 21 halve
    the first panel in turn, where short rows carry their error, to 2.4e-7: there
    the steepest start, y log y at y_l = 0, estimates 5e-17 of its value.  Rungs
    22 .. 24 bisect all panels, to 256, for error a tight tolerance finds elsewhere."""
    rules = [edges]
    for k in range(24):
        e = rules[-1]
        new = (0.5 * e[1],) if 1 <= k < 21 else (0.5 * (a + b) for a, b in zip(e, e[1:]))
        rules.append(tuple(sorted({*e, *new})))
    return [CompositeKronrod(e) for e in rules]


_LADDER = _ladder(_Y_SPLITS)
# Nodes per integrand pass: 64 rows of the first rung, so each temporary of
# _diff_log holds 45 KiB and the allocator keeps it for the next pass.  From
# about 72 rows on, every pass faults its temporaries in afresh, costing more
# than the arithmetic (per 256 rows at 775 Oe, 2-core x86 VM: 800 minor faults
# and 2.5 ms in 256-row passes, none and 1.5 ms in 64-row passes).
_PASS_NODES = 64 * _LADDER[0].nodes.size


def _integrate(rule, integrand, yl: np.ndarray, params: tuple):
    """(integral, error) arrays of rule over y in [yl, yl + Y_CUT] per row."""
    y = yl[:, None] + rule.nodes
    return rule.integrate(integrand(y, yl[:, None], *(p[:, None] for p in params)))


def _accepted(vals: np.ndarray, errs: np.ndarray, rel_tol: float) -> np.ndarray:
    return (errs <= max(rel_tol, np.finfo(float).eps) * np.abs(vals)) | (errs <= 1e-300)


def _terms(integrand, yl: np.ndarray, params: tuple, rel_tol: float):
    """(integral, error) arrays of int_{yl}^{yl+Y_CUT} integrand dy, one entry per row.

    Every row starts on the first rung of _LADDER.  The rows whose summed K15
    error estimate misses rel_tol (at least double resolution) times their
    value move up to the next rung together.  Each rung integrates its rows in
    passes of at most _PASS_NODES nodes (at least one row), so a pass's
    temporaries stay small enough to reuse memory.  Every rung gives a row the
    same bits in any batch, so the split into blocks and passes cannot move a
    value.  A row that misses the last rung raises ConvergenceError, even one
    the sum never uses.
    """
    vals, errs, rows = np.empty(yl.size), np.empty(yl.size), np.arange(yl.size)
    for rule in _LADDER:
        step = max(1, _PASS_NODES // rule.nodes.size)
        for first in range(0, rows.size, step):
            part = rows[first:first + step]
            vals[part], errs[part] = _integrate(rule, integrand, yl[part],
                                                tuple(p[part] for p in params))
        rows = rows[~_accepted(vals[rows], errs[rows], rel_tol)]
        if not rows.size:
            return vals, errs
    raise ConvergenceError(f"wavevector integral at y_l = {yl[rows[0]]:.6g} missed "
                           f"the tolerance on every rule", error_estimate=float(errs[rows[0]]))


def _scaled_yl(xi, d: float):
    return 2.0 * d * xi / CONST.hbar_c


# Terms summed exactly, intervals per octave, and the y_l ending a series (e^-48).
_HEAD = 128
_NODES = 32
_Y_STOP = 48.0
# zeta(3): minus the l = 0 integral of one saturated polarization.
_ZETA3 = 1.2020569031595942


def _strided_sum(integrand, params, T: float, d: float, cfg: EngineConfig,
                 l_cap: int, head: float, quiet_stop: bool = False) -> FreeEnergyResult:
    """kT/(8 pi d^2) * [head + sum_{l>=1} term_l] on a graded stride.

    The terms l < _HEAD are summed exactly.  Each octave [A, 2A) past them is
    a trapezoid of stride k, _HEAD/_NODES at the first octave and doubling per
    octave, plus the Euler-Maclaurin terms (1 - k^2)/12 df' - (1 - k^4)/720 df'''
    that turn it into the unit-step sum.  f' and f''' come from central
    differences of step k/4 (at least 1) at the octave's edges: their error
    goes as k^6, like the first Euler-Maclaurin term left out, and the terms'
    noise (1e-11 to 1e-10 of g past l ~ 500) is not multiplied by k^4/720.
    k is halved until strides 2k and k agree to rel_tol_series times the sum,
    and S_k + (S_k - S_2k)/63 then drops the k^6 error.  k = 1 is exact.

    The full series stops at the first octave edge past both y_l = _Y_STOP
    and l_cap.  With quiet_stop it stops at the first L >= l_cap ending three
    quiet terms in a row, |term_l| <= rel_tol_series |sum_{j<=l} term_j|:
    past the head a term once quiet stays quiet, the terms being smooth and
    falling, so the octave edges are tested in turn.  The partial octave
    [A, L] keeps the octave's stride up to its last node B of stride 2k,
    [B, B + 2h), h = (L - B) // 2 >= 2, is extrapolated from strides h and
    2h, and the one to four terms left are added.  No quiet octave edge by
    y_l = _Y_STOP raises ConvergenceError.  The pieces are totalled by
    math.fsum.  error_estimate sums the |S_k - S_2k|, the quadrature errors
    and, with quiet_stop, the tail past L from the terms' decay at L taken as
    a power of l (which bounds an exponential decay too); head, an exact
    l = 0 term, adds none.  terms_used counts the evaluated terms and l = 0.
    """
    h = 2.0 * math.pi * CONST.k_b * T
    y_top = math.ceil(_Y_STOP / _scaled_yl(h, d))
    extent = max(l_cap, y_top)
    known = {}
    parts = [head]

    def terms(ls, *more) -> np.ndarray:
        """(values, errors) at ls; unknown terms of ls and more come in one batch."""
        new = np.array(sorted(set(ls).union(*more) - known.keys()), dtype=np.int64)
        if new.size:
            vals, errs = _terms(integrand, _scaled_yl(h * new, d), params(new, h * new),
                                cfg.rel_tol_quadrature)
            known.update(zip(new.tolist(), zip(vals.tolist(), errs.tolist())))
        return np.array([known[l] for l in ls]).T

    def stencil(a: int, k: int) -> range:
        p = max(1, k // 4)
        return range(a - 2 * p, a + 2 * p + 1, p)

    def edge(a: int, k: int) -> tuple:
        """(f', f''') at a for stride k."""
        p = max(1, k // 4)
        m2, m1, _, p1, p2 = terms(stencil(a, k))[0]
        return ((8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * p),
                (0.5 * (p2 - m2) - (p1 - m1)) / p ** 3)

    def span(a: int, b: int, k: int, ks: int) -> tuple:
        """(sum, quadrature error) of a <= l < b on stride k | b - a, stencils of ks."""
        vals, errs = terms(range(a, b + 1, k))
        (d1a, d3a), (d1b, d3b) = edge(a, ks), edge(b, ks)
        trapezoid = k * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        # (f(a) - f(b))/2 leaves l = b out of the span.
        return (trapezoid + 0.5 * (vals[0] - vals[-1])
                + (1 - k * k) / 12.0 * (d1b - d1a)
                - (1 - k ** 4) / 720.0 * (d3b - d3a)), k * errs.sum()

    def extrapolated(fine: float, coarse: float) -> tuple:   # strides k and 2k
        return fine + (fine - coarse) / 63.0, abs(fine - coarse)

    def settled(a: int, b: int, k: int) -> tuple:
        """(sum, error, stride) of the terms a <= l < b, 2k | b - a."""
        while True:
            terms(range(a, b + 1, k), *(stencil(x, s) for x in (a, b) for s in (k, 2 * k)))
            value, quad_err = span(a, b, k, k)
            if k == 1:
                return value, quad_err, k
            value, miss = extrapolated(value, span(a, b, 2 * k, 2 * k)[0])
            if miss <= cfg.rel_tol_series * abs(math.fsum(parts) + value):
                return value, miss + quad_err, k
            k //= 2

    def partial(a: int, l: int, k: int) -> tuple:
        """(sum, error) of the terms a <= j <= l, l <= 2a."""
        b = a + 2 * k * ((l - a) // (2 * k))
        h = (l - b) // 2
        c = b + 2 * h if h > 1 else b
        terms(range(c, l + 1), range(b, c + 1, max(h, 1)), stencil(c, k), stencil(b, k),
              stencil(b, 2 * k))
        value, err, _ = settled(a, b, k) if b > a else (0.0, 0.0, k)
        if c > b:
            fine, quad_err = span(b, c, h, k)
            rest, miss = extrapolated(fine, span(b, c, 2 * h, k)[0])
            value, err = value + rest, err + miss + quad_err
        vals, errs = terms(range(c, l + 1))
        return value + vals.sum(), err + errs.sum()

    def quiet(l: int, total: float) -> bool:
        return abs(terms([l])[0][0]) <= cfg.rel_tol_series * abs(total)

    def first_quiet(a: int, k: int) -> int:
        """Start of the run of quiet terms that reaches 2a, the octave settled on
        stride k: interpolated in log |term|/sum on the nodes' trapezoid sums,
        walked to on the strided sums, and at l = _HEAD taken back over the head."""
        v = terms(range(a, 2 * a + 1, k))[0]
        rough = math.fsum(parts) + k * (np.cumsum(v) - 0.5 * (v[0] + v)) + 0.5 * (v[0] + v)
        f = np.log(np.maximum(np.abs(v), 1e-300) / (cfg.rel_tol_series * np.abs(rough)))
        j = next((i for i, x in enumerate(f) if x <= 0.0), f.size - 1)
        l = a if j == 0 else min(2 * a, a + (j - 1) * k
                                 + math.ceil(k * f[j - 1] / (f[j - 1] - f[j])))
        total = math.fsum(parts) + partial(a, l, k)[0]
        while not quiet(l, total):
            l += 1
            total += terms([l])[0][0]
        while l > _HEAD and quiet(l - 1, total - known[l][0]):
            total -= known[l][0]
            l -= 1
        return l - run if l == _HEAD else l

    def result(err: float, stop=None) -> FreeEnergyResult:
        if stop is not None:
            before, last = terms([stop - 1, stop])[0]
            rate = math.log(before / last) - 1.0 / stop if last and before / last > 0 else 0.0
            err += abs(last) / rate if rate > 0.0 else (math.inf if last else 0.0)
        pref = CONST.k_b * T / (8.0 * math.pi * d * d)
        return FreeEnergyResult(value=float(pref * math.fsum(parts)), terms_used=len(known) + 1,
                                error_estimate=float(pref * err))

    vals, errs = terms(range(1, (_HEAD - 1 if quiet_stop else min(_HEAD - 1, extent)) + 1))
    run = 0
    for l, value in enumerate(vals.tolist(), start=1):
        parts.append(value)
        run = run + 1 if abs(value) <= cfg.rel_tol_series * abs(math.fsum(parts)) else 0
        if quiet_stop and run >= 3 and l >= l_cap:
            return result(errs[:l].sum(), l)
    err = errs.sum()
    a, k, stop = _HEAD, _HEAD // _NODES, None
    while (stop is None or stop >= 2 * a) if quiet_stop else a <= extent:
        value, miss, k = settled(a, 2 * a, k)
        if quiet_stop and stop is None and quiet(2 * a, math.fsum(parts) + value
                                                 + known[2 * a][0]):
            stop = max(l_cap, first_quiet(a, k) + 2)
            if stop < 2 * a:
                break
        elif quiet_stop and stop is None and 2 * a > y_top:
            raise ConvergenceError(f"Matsubara series: no quiet term by y_l = {_Y_STOP:g}, "
                                   f"l = {2 * a}", abs(known[2 * a][0]))
        parts.append(value)
        err += miss
        a, k = 2 * a, 2 * k
    if stop is not None:
        value, miss = partial(a, stop, k)
        parts.append(value)
        err += miss
    return result(err, stop)


def _full_free_energy(integrand, params, saturated: int, T: float, d: float,
                      cfg: EngineConfig) -> FreeEnergyResult:
    """Full series: the l = 0 term at half weight, -zeta(3)/2 for each of its
    saturated polarizations, then l >= 1 on a graded stride to the first
    octave edge past y_l = _Y_STOP and matsubara_cap_full * c/d."""
    xi_cap = cfg.matsubara_cap_full * (CONST.hbar_c / d)
    l_cap = int(math.ceil(xi_cap / (2.0 * math.pi * CONST.k_b * T)))
    return _strided_sum(integrand, params, T, d, cfg, l_cap, head=-0.5 * saturated * _ZETA3)


# ---------------------------------------------------------------------------
# public free energies


def free_energy(material_a: MaterialParams, material_b: MaterialParams,
                T: float, d: float, cfg: EngineConfig) -> FreeEnergyResult:
    """Lifshitz free energy F_n per unit area (eV/nm^2) of two normal Drude
    slabs; negative for metals.

    This is the normal series only.  The superconducting value is
    F_s = F_n - (F_n - F_s), formed in sweeps._evaluate from this and the
    cancellation-free difference series, so no series is summed in the
    superconducting phase itself.
    """
    if not (0.0 < T < math.inf and 0.0 < d < math.inf):
        raise DomainError("free_energy requires finite T > 0 and d > 0")
    return _full_free_energy(
        _pair_log, lambda l, xi: (drude_eps(material_a, xi), drude_eps(material_b, xi)),
        1, T, d, cfg)


def ideal_mirror_free_energy(T: float, d: float, cfg: EngineConfig) -> FreeEnergyResult:
    """Free energy with both reflections forced to unit magnitude.

    Approaches -pi^2 hbar c / (720 d^3) as T -> 0.
    """
    if not (0.0 < T < math.inf and 0.0 < d < math.inf):
        raise DomainError("ideal_mirror_free_energy requires finite T > 0 and d > 0")
    return _full_free_energy(_ideal_log, lambda l, xi: (), 2, T, d, cfg)


def free_energy_difference(material_a: MaterialParams, material_b: MaterialParams,
                           T: float, d: float, cfg: EngineConfig) -> FreeEnergyResult:
    """F_normal - F_super computed term by term in one Matsubara series.

    The l = 0 term vanishes identically for a Drude-modeled slab a: its TE
    zero-mode reflection is zero and both phases of slab b saturate the TM
    reflection at unity.  The terms l >= 1 are summed on the graded stride to
    the stop of the ascending sum, three quiet terms past matsubara_cap_diff
    * 2 Delta(0), kept as summing on would move the recorded headline values;
    error_estimate holds the tail it leaves (1.6e-6 at 775 Oe, 70 nm), and
    terms_used counts the terms evaluated (367 at 200 Oe, 70 nm).
    """
    if not (0.0 < T < math.inf and 0.0 < d < math.inf):
        raise DomainError("free_energy_difference requires finite T > 0 and d > 0")
    if not material_b.is_superconductor():
        raise DomainError(f"{material_b.name} has no superconducting phase")
    if T >= material_b.tc:
        return FreeEnergyResult(value=0.0, terms_used=0, error_estimate=0.0)
    gap_b = default_gap(material_b.tc)
    h = 2.0 * math.pi * CONST.k_b * T
    l_cap = int(math.ceil(cfg.matsubara_cap_diff * (2.0 * gap_b.delta0) / h))

    def params(l, xi):
        return (drude_eps(material_a, xi), drude_eps(material_b, xi),
                eps_bcs(material_b, xi, g_matsubara(material_b, gap_b, T, l)))

    return _strided_sum(_diff_log, params, T, d, cfg, l_cap, head=0.0, quiet_stop=True)


def delta_force_pfa(material_a: MaterialParams, material_b: MaterialParams,
                    R_um: float, T: float, d: float, cfg: EngineConfig) -> DeltaForceResult:
    """Sphere-plate force jump 2 pi R [F_n - F_s] in fN, with the d/R bound."""
    if not 0.0 < R_um < math.inf:
        raise DomainError(f"sphere radius R_um must be positive and finite (got {R_um})")
    r_nm = R_um * 1000.0
    bound = d / r_nm
    if bound >= 1e-2:
        warnings.warn(
            f"d/R = {bound:.3e}: proximity-force error bound is larger than 1%",
            PfaAccuracyWarning,
        )
    diff = free_energy_difference(material_a, material_b, T, d, cfg)
    force_ev_nm = 2.0 * math.pi * r_nm * diff.value
    return DeltaForceResult(
        delta_f_fn=force_ev_nm * CONST.ev_per_nm_to_fn,
        diff_ev_nm2=diff.value,
        pfa_bound=bound,
        terms_used=diff.terms_used,
        error_estimate=diff.error_estimate * 2.0 * math.pi * r_nm * CONST.ev_per_nm_to_fn,
    )
