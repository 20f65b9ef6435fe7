"""Gauss-Kronrod (G7/K15) quadrature for vectorized integrands.

The program uses the panel rules _k15 (the g column, on its own panels) and
_k15_null (the Lifshitz terms, through k15_panels and bisect_rows).
CompositeKronrod, kronrod_panel, adaptive_quad and exp_tail_quad
(semi-infinite tails by the substitution x = a*e^u) serve the tests and the
benchmark's tracer, which wraps them by name.  Integrands take an ndarray of abscissae and return an ndarray of
values.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

# K15 abscissae on [-1, 1] and weights; odd-index nodes carry the embedded G7 rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G_IDX = np.arange(1, 15, 2)


def _k15(y: np.ndarray, halves) -> tuple[np.ndarray, np.ndarray]:
    """K15 integrals and QUADPACK-style scaled error estimates of panels.

    The last axis of y holds each panel's values on the K15 nodes (a 1-D y,
    one panel, gives scalars); halves, the panel half-widths, broadcast
    against the leading axes.
    """
    ik = halves * (y @ _WK)
    ig = halves * (y[..., _G_IDX] @ _WG)
    resasc = halves * (abs(y - y.sum(-1, keepdims=True) / _XK.size) @ _WK)
    err = abs(ik - ig)
    # A constant y has resasc == 0 and keeps its raw err: there the scaled
    # term divides by 1 instead of 0, vanishes, and err is added back.
    flat = resasc == 0.0
    return ik, resasc * np.minimum(1.0, (200.0 * err / (resasc + flat)) ** 1.5) + err * flat


# Null rules N_9 .. N_14 on the K15 nodes (Berntsen and Espelid, ACM TOMS 17,
# 1991).  N_k = sqrt(2) w p_k(x), with p_k the degree-k polynomial orthonormal
# under the K15 weights w on the K15 nodes x, gives 0 on every polynomial of
# degree below k and has the K15 rule's norm, sum N_k^2/w = sum w = 2.  The
# values come from Stieltjes' recurrence; test_quadrature rebuilds them.  A
# table, not the recurrence, keeps numpy work out of the import.
_RULE_NULL = np.array([
    _WK.tolist(),
    [-0.06500433752539404, 0.0762837705464769, 0.08325155892448158, -0.19257802549158667,
     0.06750777575778681, 0.16630538007727472, -0.21277290446878774, 0.0,
     0.21277290446878774, -0.16630538007727472, -0.06750777575778681, 0.19257802549158667,
     -0.08325155892448158, -0.0762837705464769, 0.06500433752539404],
    [0.061132914279868104, -0.10436085581603145, 0.0006961682486029897,
     0.15515729226746755, -0.20218028232723756, 0.07044536652702008, 0.13723043080569616,
     -0.2362420679707714, 0.13723043080569616, 0.07044536652702008, -0.20218028232723756,
     0.15515729226746755, 0.0006961682486029897, -0.10436085581603145,
     0.061132914279868104],
    [-0.056077345744298644, 0.12159431461780763, -0.08447260066175562,
     -0.03725020011325171, 0.16922315776771207, -0.22346226549231155, 0.1558492813062053,
     -0.0, -0.1558492813062053, 0.22346226549231155, -0.16922315776771207,
     0.03725020011325171, 0.08447260066175562, -0.12159431461780763, 0.056077345744298644],
    [0.04919438518258887, -0.12430722566566853, 0.1430742038362807, -0.0984606402882604,
     0.003965449691284733, 0.10907718079695913, -0.19888095526837635, 0.2326752034303838,
     -0.19888095526837635, 0.10907718079695913, 0.003965449691284733, -0.0984606402882604,
     0.1430742038362807, -0.12430722566566853, 0.04919438518258887],
    [-0.03910952399164146, 0.10837811119872681, -0.15587355266997888, 0.17734199506206857,
     -0.17035921572608617, 0.13365558230166744, -0.0730582880637013, 0.0,
     0.0730582880637013, -0.13365558230166744, 0.17035921572608617, -0.17734199506206857,
     0.15587355266997888, -0.10837811119872681, 0.03910952399164146],
    [0.022879882406197195, -0.06623238768925759, 0.10453671033773, -0.13871601287541913,
     0.16859620587941965, -0.19101662538787423, 0.20393878170660582, -0.20797310875480288,
     0.20393878170660582, -0.19101662538787423, 0.16859620587941965, -0.13871601287541913,
     0.10453671033773, -0.06623238768925759, 0.022879882406197195],
])
# A null-rule pair at or below this multiple of eps |panel integral| reads only
# rounding; and the estimate's constants: its factor, the decay ratio that
# starts its asymptotic branch, and the power of the ratio there.
_NOISE, _SAFETY, _R_CRIT, _ALPHA = 50.0, 10.0, 0.5, 4.75


def _k15_null(y: np.ndarray, halves) -> tuple[np.ndarray, np.ndarray]:
    """K15 integrals and null-rule error estimates of panels.

    The last axis of y holds each panel's values on the K15 nodes; halves,
    the panel half-widths, broadcast against the leading axes.  The
    null-rule pairs E3 = |N_9, N_10|, E2 = |N_11, N_12| and E1 = |N_13, N_14|
    measure the values' polynomial content at degrees 9 to 14, and
    r = max(E2/E3, E1/E2) how fast it falls per two degrees.  Past r = 1
    nothing falls, and the error is the largest pair; up to it, r E1.  K15
    is exact to degree 22, so once r <= _R_CRIT the error falls as
    E1 r^_ALPHA, _ALPHA = (23 - 13.5)/2 pairs of degrees past E1, scaled to
    meet r E1 there.  Each branch is multiplied by _SAFETY, a pair at
    rounding level counts as 0, and a NaN or infinite integral has a NaN
    estimate.  einsum, not BLAS, forms the sums: each panel gets the same
    bits in any call, and no BLAS buffer is mapped.
    """
    m = np.einsum("...k,jk->j...", y, _RULE_NULL) * halves
    ik = m[0]
    e = np.sqrt((m[1:] ** 2).reshape(3, 2, *ik.shape).sum(axis=1))   # E3, E2, E1
    e *= e > _NOISE * np.finfo(float).eps * np.abs(ik)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.fmax(np.fmax.reduce(e[1:] / e[:-1]), 0.0)     # all pairs 0: 0/0, r = 0
    err = np.where(r > 1.0, e.max(axis=0),
                   e[2] * r * np.minimum(1.0, (r / _R_CRIT) ** (_ALPHA - 1.0)))
    return ik, _SAFETY * err + 0.0 * ik


def kronrod_panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """One K15 panel on [a, b]; returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    ik, err = _k15(np.asarray(f(0.5 * (a + b) + half * _XK), dtype=float), half)
    return float(ik), float(err)


def panel_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K15 nodes of the panels [a, b], one row per panel."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _XK


class CompositeKronrod:
    """Fixed composite K15 rule over preset panels, one integrand call.

    Integrates every row of a (rows x nodes) array in one vectorized pass and
    reports each row's summed QUADPACK-style error estimate.  The tests'
    reference quadrature (a ladder of these rules) and the benchmark's
    tracer use it; the Lifshitz terms use k15_panels.
    """

    def __init__(self, edges: Sequence[float]):
        edges = np.asarray(edges, dtype=float)
        self._halves = 0.5 * np.diff(edges)
        self.nodes = panel_nodes(edges[:-1], edges[1:]).ravel()

    def integrate(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(integral, error estimate) of each row of values on self.nodes."""
        y = values.reshape(values.shape[0], self._halves.size, _XK.size)
        ik, err = _k15(y, self._halves)
        return ik.sum(axis=-1), err.sum(axis=-1)


def k15_panels(f: Callable, row: np.ndarray, a: np.ndarray, b: np.ndarray,
               pass_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(integrals, null-rule estimates) of the panels [a, b] of rows row.

    f(r, u) gives the integrand of rows r (a column) at nodes u (a row of
    K15 nodes per panel); it is called on passes of at most pass_nodes
    nodes (at least one panel).  Each panel's values depend only on its own
    row and edges.
    """
    q, err = np.empty(a.size), np.empty(a.size)
    step = max(1, pass_nodes // _XK.size)
    for first in range(0, a.size, step):
        c = slice(first, first + step)
        q[c], err[c] = _k15_null(f(row[c, None], panel_nodes(a[c], b[c])), 0.5 * (b[c] - a[c]))
    return q, err


def _short(vals: np.ndarray, errs: np.ndarray, tol: float) -> np.ndarray:
    """Rows whose estimate misses tol times their value (NaN counts)."""
    return ~((errs <= tol * np.abs(vals)) | (errs <= 1e-300))


def bisect_rows(f: Callable, tol: float, vals: np.ndarray, errs: np.ndarray,
                panels: tuple, pass_nodes: int, rounds: int):
    """Bisect the panels of rows that miss tol until each row meets it.

    panels holds (row, a, b, integral, estimate) arrays of the panels of
    those rows; f and pass_nodes are as for k15_panels.  Each round bisects
    every panel whose estimate exceeds its row's goal, tol |value|, over
    its panel count, as the g column does, integrates the new panels only,
    and writes each row's sums over its panels into vals and errs.  A row's
    panels keep the order of its own bisections, so its sums do not depend
    on the other rows.  Returns None, or a row that is not finite or still
    misses tol after the last round.
    """
    row, a, b, q, err = panels
    for _ in range(rounds):
        bad = row[~np.isfinite(vals[row] + errs[row])]
        if bad.size:
            return bad[0]
        count = np.bincount(row, minlength=vals.size)
        split = err > tol * np.abs(vals[row]) / count[row]
        keep, mid = ~split, 0.5 * (a[split] + b[split])
        new_row = np.concatenate([row[split], row[split]])
        new_a, new_b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        new_q, new_err = k15_panels(f, new_row, new_a, new_b, pass_nodes)
        row, a, b = (np.concatenate([x[keep], y]) for x, y in
                     ((row, new_row), (a, new_a), (b, new_b)))
        q, err = np.concatenate([q[keep], new_q]), np.concatenate([err[keep], new_err])
        rows = count > 0
        vals[rows] = np.bincount(row, q, vals.size)[rows]
        errs[rows] = np.bincount(row, err, vals.size)[rows]
        live = _short(vals, errs, tol)[row]
        row, a, b, q, err = row[live], a[live], b[live], q[live], err[live]
        if not row.size:
            return None
    return row[0]


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    breakpoints: Sequence[float] = (),
    max_panels: int = 2000,
) -> tuple[float, float]:
    """Adaptive bisection on [a, b] with optional interior breakpoints.

    Returns (integral, error estimate); raises ConvergenceError if the panel
    budget is exhausted before the tolerance is met.
    """
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError("adaptive_quad requires b >= a")
    pts = [a] + sorted(float(p) for p in set(breakpoints) if a < p < b) + [b]
    heap = []
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = kronrod_panel(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val))
    n_panels = len(heap)
    while True:
        goal = max(rel_tol * abs(total), abs_tol)
        if total_err <= goal or total_err == 0.0:
            return total, total_err
        if n_panels >= max_panels:
            raise ConvergenceError(
                f"adaptive quadrature stalled at {n_panels} panels "
                f"(error estimate {total_err:.3e}, goal {goal:.3e})",
                error_estimate=total_err,
            )
        neg_err, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel is at floating-point resolution; accept its estimate.
            heapq.heappush(heap, (0.0, lo, hi, val))
            total_err += neg_err  # neg_err is negative: removes this panel's error
            continue
        v1, e1 = kronrod_panel(f, lo, mid)
        v2, e2 = kronrod_panel(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n_panels += 1


def exp_tail_quad(
    f: Callable,
    a: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    u_panel: float = 1.0,
    max_octaves: int = 60,
) -> tuple[float, float]:
    """Integrate f over [a, inf) via x = a*e^u, panel by panel in u.

    Stops once three consecutive u-panels contribute below tolerance.
    Requires a > 0 and an integrand decaying faster than 1/x.
    """
    if a <= 0.0:
        raise ValueError("exp_tail_quad requires a positive lower limit")

    def g(u):
        x = a * np.exp(u)
        return np.asarray(f(x), dtype=float) * x

    total = 0.0
    total_err = 0.0
    quiet = 0
    for k in range(max_octaves):
        floor = max(abs_tol, 0.05 * rel_tol * abs(total))
        val, err = adaptive_quad(
            g, k * u_panel, (k + 1) * u_panel,
            rel_tol=rel_tol, abs_tol=floor, max_panels=200,
        )
        total += val
        total_err += err
        goal = max(rel_tol * abs(total), abs_tol)
        if abs(val) <= goal:
            quiet += 1
            if quiet >= 3:
                return total, total_err
        else:
            quiet = 0
    raise ConvergenceError(
        f"semi-infinite tail did not settle within {max_octaves} octaves "
        f"(error estimate {total_err:.3e})",
        error_estimate=total_err,
    )
