"""Finite-temperature Lifshitz free energy and the PFA force jump.

Free energy per unit area between two thick slabs at separation d:

    F(T, d) = (kT / 8 pi d^2) * sum_l (1 - delta_l0/2) *
              int_{y_l}^inf y dy sum_pol log(1 - R_a R_b e^{-y})

in the scaled variable y = 2 d q_l, y_l = 2 d xi_l / (hbar c).  Slab "a" is
the sphere coating (always normal); slab "b" carries the normal or
superconducting phase.  The l = 0 limits are taken analytically: a Drude
metal loses its TE reflection while a superconductor keeps a plasma-like one
with effective wavenumber Omega sqrt(g(0+;T)) / (hbar c).

The force jump across the transition follows from the proximity force
approximation, Delta F = 2 pi R [F_normal - F_super], with error bound d/R.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import CONST
from .errors import ConvergenceError, DomainError, PfaAccuracyWarning
from .materials import (
    GapModel,
    MaterialParams,
    default_gap,
    drude_eps,
    eps_bcs,
    g_on_matsubara_grid,
    g_zero_limit,
)
from .quadrature import CompositeKronrod, NeumaierSum, adaptive_quad
from .sc_state import Phase


# ---------------------------------------------------------------------------
# configuration and result types


# Beyond this many Matsubara terms a full series (normal or ideal mirrors) is
# evaluated in its midpoint Euler-Maclaurin integral form (far below 1 K).
_MAX_EXACT_TERMS = 200_000

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
class ReflectionPair:
    r_te: float
    r_tm: float


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
# elementary operations


def matsubara_xi(l: int, T: float) -> float:
    """xi_l = 2 pi l k_B T in eV."""
    if T <= 0.0:
        raise DomainError("matsubara_xi requires T > 0")
    if l < 0:
        raise DomainError("matsubara_xi requires l >= 0")
    return 2.0 * math.pi * l * CONST.k_b * T


def fresnel_te(eps: float, xi: float, k_perp: float) -> float:
    """TE reflection (q - s)/(q + s) on the imaginary axis."""
    kappa = xi / CONST.hbar_c
    q = math.sqrt(kappa * kappa + k_perp * k_perp)
    s = math.sqrt(eps * kappa * kappa + k_perp * k_perp)
    return (q - s) / (q + s)


def fresnel_tm(eps: float, xi: float, k_perp: float) -> float:
    """TM reflection (eps q - s)/(eps q + s) on the imaginary axis."""
    kappa = xi / CONST.hbar_c
    q = math.sqrt(kappa * kappa + k_perp * k_perp)
    s = math.sqrt(eps * kappa * kappa + k_perp * k_perp)
    return (eps * q - s) / (eps * q + s)


def zero_mode_reflections(material: MaterialParams, phase: Phase, T: float,
                          k_perp: float, gap: Optional[GapModel] = None) -> ReflectionPair:
    """Analytic l = 0 limits; never evaluated by plugging xi = 0 numerically.

    Drude metals: (0, 1).  Superconductors keep a plasma-like TE reflection
    built from the condensate weight g(0+; T).
    """
    if k_perp <= 0.0:
        raise DomainError("zero_mode_reflections requires k_perp > 0")
    if phase is Phase.SUPERCONDUCTING:
        if gap is None:
            gap = default_gap(material.tc)
        g0 = g_zero_limit(material, gap, T)
        ks = material.omega_p * math.sqrt(g0) / CONST.hbar_c
        root = math.sqrt(k_perp * k_perp + ks * ks)
        return ReflectionPair(r_te=(k_perp - root) / (k_perp + root), r_tm=1.0)
    return ReflectionPair(r_te=0.0, r_tm=1.0)


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
_BLOCK = 256


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
    value move up to the next rung together, in passes of no more nodes than
    a block on the first rung.  Every rung gives a row the same bits in any
    batch, so the split into blocks and passes cannot move a value.  A row that
    misses the last rung raises ConvergenceError, even one the sum never uses.
    """
    vals, errs, rows = np.empty(yl.size), np.empty(yl.size), np.arange(yl.size)
    for rule in _LADDER:
        step = _BLOCK * _LADDER[0].nodes.size // rule.nodes.size
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
                   l_cap: int, l_stop: int, head: tuple = (0.0, 0.0)) -> FreeEnergyResult:
    """kT/(8 pi d^2) * [head + sum_{l>=1} term_l], summed in ascending l.

    Stops after three quiet terms past l_cap.
    """
    acc = NeumaierSum()
    acc.add(head[0])
    err_acc = head[1]
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


def _full_free_energy(integrand, params, zero_integrand, T: float, d: float,
                      cfg: EngineConfig) -> FreeEnergyResult:
    """Full series: the l = 0 term at half weight, then l >= 1 up to
    matsubara_cap_full * c/d."""
    xi_cap = cfg.matsubara_cap_full * (CONST.hbar_c / d)
    l_cap = int(math.ceil(xi_cap / (2.0 * math.pi * CONST.k_b * T)))
    s0, e0 = (float(a[0]) for a in _terms(zero_integrand, np.zeros(1), (),
                                         cfg.rel_tol_quadrature))
    if l_cap > _MAX_EXACT_TERMS:
        return _free_energy_low_t(integrand, params, s0, e0, T, d, cfg, l_cap)
    return _matsubara_sum(integrand, params, T, d, cfg, l_cap, 10 * l_cap + 1000,
                          head=(0.5 * s0, 0.5 * e0))


def _free_energy_low_t(integrand, params, s0: float, e0: float, T: float,
                       d: float, cfg: EngineConfig, l_cap: int) -> FreeEnergyResult:
    """Midpoint Euler-Maclaurin form of the Matsubara sum for tiny T.

    sum_{l>=1} S(l h) = (1/h) int_{h/2}^inf S + O(h) corrections; used only
    when the exact ascending sum would exceed the term budget.
    """
    h = 2.0 * math.pi * CONST.k_b * T
    pref = CONST.k_b * T / (8.0 * math.pi * d * d)

    def s_of_xi(xi: np.ndarray) -> np.ndarray:
        return _terms(integrand, _scaled_yl(xi, d), params(None, xi),
                      cfg.rel_tol_quadrature)[0]

    xi_top = 2.0 * cfg.matsubara_cap_full * CONST.hbar_c / d
    pts = list(np.geomspace(h, xi_top / 2.0, 24))
    body, berr = adaptive_quad(s_of_xi, h / 2.0, xi_top,
                               rel_tol=cfg.rel_tol_series, abs_tol=1e-300,
                               breakpoints=pts, max_panels=4000)
    step = h / 4.0
    above, below = s_of_xi(np.array([h / 2.0 + step, h / 2.0 - step]))
    sprime = (above - below) / (2.0 * step)
    series = body / h - (h / 24.0) * sprime
    value = pref * (0.5 * s0 + series)
    return FreeEnergyResult(value=value, terms_used=l_cap,
                            error_estimate=abs(pref) * (0.5 * e0 + berr / h))


# ---------------------------------------------------------------------------
# public free energies


def free_energy(material_a: MaterialParams, material_b: MaterialParams,
                phase_b: Phase, T: float, d: float, cfg: EngineConfig,
                gap_b: Optional[GapModel] = None) -> FreeEnergyResult:
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
    diff = free_energy_difference(material_a, material_b, T, d, cfg, gap_b=gap_b)
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
                           T: float, d: float, cfg: EngineConfig,
                           gap_b: Optional[GapModel] = None) -> FreeEnergyResult:
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
    if gap_b is None:
        gap_b = default_gap(material_b.tc)
    h = 2.0 * math.pi * CONST.k_b * T
    l_cap = int(math.ceil(cfg.matsubara_cap_diff * (2.0 * gap_b.delta0) / h))

    def params(l, xi):
        g = g_on_matsubara_grid(material_b, gap_b, T, l.size - 1, int(l[0]))
        return (drude_eps(material_a, xi), drude_eps(material_b, xi),
                eps_bcs(material_b, xi, g))

    return _matsubara_sum(_diff_log, params, T, d, cfg, l_cap, 200 * l_cap + 10000)


def delta_force_pfa(material_a: MaterialParams, material_b: MaterialParams,
                    R_um: float, T: float, d: float, cfg: EngineConfig,
                    gap_b: Optional[GapModel] = None) -> DeltaForceResult:
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
    diff = free_energy_difference(material_a, material_b, T, d, cfg, gap_b=gap_b)
    force_ev_nm = 2.0 * math.pi * r_nm * diff.value
    return DeltaForceResult(
        delta_f_fn=force_ev_nm * CONST.ev_per_nm_to_fn,
        diff_ev_nm2=diff.value,
        pfa_bound=bound,
        terms_used=diff.terms_used,
        error_estimate=diff.error_estimate * 2.0 * math.pi * r_nm * CONST.ev_per_nm_to_fn,
    )
