"""Finite-temperature Lifshitz free energy and the PFA force jump.

Free energy per unit area between two thick slabs at separation d:

    F(T, d) = (kT / 8 pi d^2) * sum_l (1 - delta_l0/2) *
              int_{y_l}^inf y dy sum_pol log(1 - R_a R_b e^{-y})

in the scaled variable y = 2 d q_l, y_l = 2 d xi_l / (hbar c).  Slab "a" is
the sphere coating (always normal); slab "b" carries the normal or
superconducting phase.  The l = 0 term is taken in its analytic limit: the
Drude slab a has no TE zero mode, so only the saturated TM pair remains,
whatever the phase of slab b.

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
from .materials import (
    MaterialParams,
    default_gap,
    drude_eps,
    eps_bcs,
    g_on_matsubara_grid,
)
# adaptive_quad is unused here but stays a module attribute, which
# perfbench/trace_child.py wraps by name.
from .quadrature import CompositeKronrod, NeumaierSum, adaptive_quad  # noqa: F401
from .sc_state import Phase


# ---------------------------------------------------------------------------
# configuration and result types


_Y_CUT = 45.0
# The series may not depend on its split into blocks of l: the composite rule
# on these panels must give each row of a batch the bits of a one-row call,
# which not every panel layout does (test_quadrature checks every rung).
_Y_SPLITS = (0.0, 0.5, 1.5, 4.0, 10.0, 22.0, _Y_CUT)


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
    """Both mirrors ideal, r_te = -1 and r_tm = 1, at every l including 0."""
    half = np.log1p(-np.exp(-y))
    return y * (half + half)


def _tm_zero_log(y, yl):
    """l = 0 with a Drude slab a: its TE zero mode vanishes, so only the
    saturated TM pair remains, whatever the phase of slab b."""
    return y * np.log1p(-np.exp(-y))


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
# l per term-stream block, per g fetch and per cached g run.
_BLOCK = 256
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


def _term_stream(integrand, params, T: float, d: float, cfg: EngineConfig,
                 l_stop: int):
    """(integral, error) of the terms l = 1 .. l_stop in order, a block at a time.

    params(l, xi) gives the integrand's per-l parameters from the block's
    integer l and its xi_l, so the difference series fetches g for its own block;
    a block is computed only once the sum reaches it.
    """
    h = 2.0 * math.pi * CONST.k_b * T
    for first in range(1, l_stop + 1, _BLOCK):
        l = np.arange(first, min(first + _BLOCK, l_stop + 1))
        xi = h * l
        vals, errs = _terms(integrand, _scaled_yl(xi, d), params(l, xi),
                            cfg.rel_tol_quadrature)
        yield from zip(vals.tolist(), errs.tolist())


def _matsubara_sum(integrand, params, T: float, d: float, cfg: EngineConfig,
                   l_cap: int, l_stop: int) -> FreeEnergyResult:
    """kT/(8 pi d^2) * sum_{l>=1} term_l, summed in ascending l.

    Stops after three quiet terms past l_cap.
    """
    acc = NeumaierSum()
    err_acc = 0.0
    quiet = 0
    l = 0
    sl = 0.0
    for l, (sl, el) in enumerate(_term_stream(integrand, params, T, d, cfg, l_stop),
                                 start=1):
        acc.add(sl)
        err_acc += el
        if abs(sl) <= cfg.rel_tol_series * abs(acc.value):
            quiet += 1
            if quiet >= 3 and l >= l_cap:
                break
        else:
            quiet = 0
    else:
        raise ConvergenceError(
            f"Matsubara series not converged after {l} terms "
            f"(last term {sl:.3e} against {acc.value:.3e})",
            error_estimate=abs(sl),
        )
    pref = CONST.k_b * T / (8.0 * math.pi * d * d)
    return FreeEnergyResult(value=pref * acc.value, terms_used=l + 1,
                            error_estimate=pref * (err_acc + abs(sl)))


# A full series sums its first _HEAD terms exactly, starts its octaves at
# _NODES intervals and stops past y_l = _Y_STOP, where a term is below e^-48
# of the first.
_HEAD = 256
_NODES = 64
_Y_STOP = 48.0


def _strided_sum(integrand, params, T: float, d: float, cfg: EngineConfig,
                 l_cap: int, head: tuple) -> FreeEnergyResult:
    """kT/(8 pi d^2) * [head + sum_{l>=1} term_l] on a graded stride.

    The terms l < _HEAD are summed exactly.  Each octave [A, 2A) past them is
    a trapezoid of stride k, _HEAD/_NODES at the first octave and doubling per
    octave, plus the Euler-Maclaurin terms (1 - k^2)/12 df' - (1 - k^4)/720 df'''
    that turn it into the unit-step sum.  f' and f''' come from central
    differences of the integer-l terms at the octave's edges: of unit step up
    to k = 16, of step k/16 beyond, where a unit step would multiply the
    terms' rounding by k^4/720.  The stride is halved until strides 2k and k
    agree to rel_tol_series times the sum; k = 1 is the exact sum.  The sum
    stops at the first octave edge past both y_l = _Y_STOP and l_cap.
    error_estimate is the strides' disagreements plus the quadrature errors,
    and terms_used counts the terms evaluated, l = 0 included.
    """
    h = 2.0 * math.pi * CONST.k_b * T
    extent = max(l_cap, math.ceil(_Y_STOP / _scaled_yl(h, d)))
    known = {}

    def terms(ls: range) -> np.ndarray:
        """(values, errors) of the terms at ls, each evaluated once."""
        new = np.array([l for l in ls if l not in known], dtype=np.int64)
        if new.size:
            xi = h * new
            vals, errs = _terms(integrand, _scaled_yl(xi, d), params(new, xi),
                                cfg.rel_tol_quadrature)
            known.update(zip(new.tolist(), zip(vals.tolist(), errs.tolist())))
        return np.array([known[l] for l in ls]).T

    def edge(a: int, k: int) -> tuple:
        """(f', f''') at a for stride k."""
        p = max(1, k // 16)
        m2, m1, _, p1, p2 = terms(range(a - 2 * p, a + 2 * p + 1, p))[0]
        return ((8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * p),
                (0.5 * (p2 - m2) - (p1 - m1)) / p ** 3)

    def octave(a: int, k: int) -> tuple:
        """(sum, quadrature error) of the terms a <= l < 2a from stride k."""
        vals, errs = terms(range(a, 2 * a + 1, k))
        (d1a, d3a), (d1b, d3b) = edge(a, k), edge(2 * a, k)
        trapezoid = k * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        # (f(a) - f(2a))/2 leaves l = 2a out of the octave.
        return (trapezoid + 0.5 * (vals[0] - vals[-1])
                + (1 - k * k) / 12.0 * (d1b - d1a)
                - (1 - k ** 4) / 720.0 * (d3b - d3a)), k * errs.sum()

    acc = NeumaierSum()
    acc.add(head[0])
    vals, errs = terms(range(1, min(_HEAD - 1, extent) + 1))
    for value in vals.tolist():
        acc.add(value)
    err = head[1] + errs.sum()
    a, k = _HEAD, _HEAD // _NODES
    while a <= extent:
        while True:
            value, quad_err = octave(a, k)
            miss = 0.0 if k == 1 else abs(value - octave(a, 2 * k)[0])
            if miss <= cfg.rel_tol_series * abs(acc.value + value):
                break
            k //= 2
        acc.add(value)
        err += miss + quad_err
        a, k = 2 * a, 2 * k
    pref = CONST.k_b * T / (8.0 * math.pi * d * d)
    return FreeEnergyResult(value=float(pref * acc.value), terms_used=len(known) + 1,
                            error_estimate=float(pref * err))


def _full_free_energy(integrand, params, zero_integrand, T: float, d: float,
                      cfg: EngineConfig) -> FreeEnergyResult:
    """Full series: the l = 0 term at half weight, then l >= 1 on a graded
    stride to past matsubara_cap_full * c/d."""
    xi_cap = cfg.matsubara_cap_full * (CONST.hbar_c / d)
    l_cap = int(math.ceil(xi_cap / (2.0 * math.pi * CONST.k_b * T)))
    s0, e0 = (float(a[0]) for a in _terms(zero_integrand, np.zeros(1), (),
                                         cfg.rel_tol_quadrature))
    return _strided_sum(integrand, params, T, d, cfg, l_cap, head=(0.5 * s0, 0.5 * e0))


# ---------------------------------------------------------------------------
# public free energies


def free_energy(material_a: MaterialParams, material_b: MaterialParams,
                phase_b: Phase, T: float, d: float, cfg: EngineConfig) -> FreeEnergyResult:
    """Lifshitz free energy per unit area (eV/nm^2); negative for metals.

    Slab a is treated as a normal Drude metal.  With slab b normal this is
    the full Matsubara series.  The superconducting value is
    F_s = F_n - (F_n - F_s): the normal series less the cancellation-free
    difference series, so no series is summed in the superconducting phase
    itself.  Its terms_used is that of F_n and its error estimate the sum
    of the two.
    """
    if not (0.0 < T < math.inf and 0.0 < d < math.inf):
        raise DomainError("free_energy requires finite T > 0 and d > 0")
    superconducting = phase_b is Phase.SUPERCONDUCTING
    if superconducting and not material_b.is_superconductor():
        raise DomainError(f"{material_b.name} has no superconducting phase")
    if superconducting and T >= material_b.tc:
        raise DomainError("superconducting phase requires T < tc")
    fn = _full_free_energy(
        _pair_log, lambda l, xi: (drude_eps(material_a, xi), drude_eps(material_b, xi)),
        _tm_zero_log, T, d, cfg)
    if not superconducting:
        return fn
    diff = free_energy_difference(material_a, material_b, T, d, cfg)
    return FreeEnergyResult(value=fn.value - diff.value, terms_used=fn.terms_used,
                            error_estimate=fn.error_estimate + diff.error_estimate)


def ideal_mirror_free_energy(T: float, d: float, cfg: EngineConfig) -> FreeEnergyResult:
    """Free energy with both reflections forced to unit magnitude.

    Approaches -pi^2 hbar c / (720 d^3) as T -> 0.
    """
    if not (0.0 < T < math.inf and 0.0 < d < math.inf):
        raise DomainError("ideal_mirror_free_energy requires finite T > 0 and d > 0")
    return _full_free_energy(_ideal_log, lambda l, xi: (), _ideal_log, T, d, cfg)


def free_energy_difference(material_a: MaterialParams, material_b: MaterialParams,
                           T: float, d: float, cfg: EngineConfig) -> FreeEnergyResult:
    """F_normal - F_super computed term by term in one Matsubara series.

    The l = 0 term vanishes identically for a Drude-modeled slab a: its TE
    zero-mode reflection is zero and both phases of slab b saturate the TM
    reflection at unity.
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
        g = g_on_matsubara_grid(material_b, gap_b, T, l.size - 1, int(l[0]))
        return (drude_eps(material_a, xi), drude_eps(material_b, xi),
                eps_bcs(material_b, xi, g))

    return _matsubara_sum(_diff_log, params, T, d, cfg, l_cap, 200 * l_cap + 10000)


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
