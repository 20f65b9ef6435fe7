"""Gauss-Kronrod (G7/K15) quadrature for vectorized integrands.

The program uses the panel rule _k15 and CompositeKronrod (the Lifshitz
terms); the g column calls _k15 on its own panels.  kronrod_panel,
adaptive_quad and exp_tail_quad (semi-infinite tails by the substitution
x = a*e^u) serve the tests and the benchmark's tracer, which wraps them by
name.  Integrands take an ndarray of abscissae and return an ndarray of
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


def kronrod_panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """One K15 panel on [a, b]; returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    ik, err = _k15(np.asarray(f(0.5 * (a + b) + half * _XK), dtype=float), half)
    return float(ik), float(err)


class CompositeKronrod:
    """Fixed composite K15 rule over preset panels, one integrand call.

    Integrates every row of a (rows x nodes) array in one vectorized pass and
    reports each row's summed QUADPACK-style error estimate.  The Lifshitz
    terms are integrated on a ladder of these rules; nothing in the program
    falls back to adaptive_quad.
    """

    def __init__(self, edges: Sequence[float]):
        edges = np.asarray(edges, dtype=float)
        self._halves = 0.5 * np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        self.nodes = (mids[:, None] + self._halves[:, None] * _XK[None, :]).ravel()

    def integrate(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(integral, error estimate) of each row of values on self.nodes."""
        y = values.reshape(values.shape[0], self._halves.size, _XK.size)
        ik, err = _k15(y, self._halves)
        return ik.sum(axis=-1), err.sum(axis=-1)


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
