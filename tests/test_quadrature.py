import math

import numpy as np
import pytest

from casimir_sc import lifshitz
from casimir_sc.errors import ConvergenceError
from casimir_sc.quadrature import (
    _RULE_NULL,
    _WK,
    _XK,
    CompositeKronrod,
    _k15_null,
    adaptive_quad,
    exp_tail_quad,
    kronrod_panel,
)

from oracles import LADDER


def test_kronrod_exact_on_polynomial():
    val, err = kronrod_panel(lambda x: 3.0 * x ** 2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14)
    assert err < 1e-12


def test_composite_integrates_each_row():
    rule = CompositeKronrod((0.0, 0.5, 1.5, 4.0))
    scales = np.array([1e-6, 1.0, 3.0, 1e4])
    vals, errs = rule.integrate(scales[:, None] * np.exp(-rule.nodes))
    assert vals == pytest.approx(scales * (1.0 - math.exp(-4.0)), rel=1e-13)
    assert np.all(errs <= 1e-10 * scales)


def test_null_rules_vanish_below_their_degree():
    """Row k of the null rules, N_{8+k}, is sqrt(2) w p_{8+k}(x) from
    Stieltjes' recurrence for the polynomials orthonormal under the K15
    weights w on the K15 nodes x (up to sign), gives 0 on x^j for j < 8 + k
    and not on x^{8+k}; a polynomial of degree 8 has a zero estimate."""
    p_prev, p, b = np.zeros(_XK.size), np.ones(_XK.size) / math.sqrt(_WK.sum()), 0.0
    for k in range(1, 15):
        q = _XK * p - b * p_prev      # symmetric nodes: the recurrence has no shift
        b = math.sqrt((_WK * q * q).sum())
        p_prev, p = p, q / b
        if k >= 9:
            rule = math.sqrt(2.0) * _WK * p
            assert np.allclose(_RULE_NULL[k - 8], rule * np.sign(rule @ _RULE_NULL[k - 8]),
                               rtol=0.0, atol=1e-15)
    for k in range(1, 7):
        powers = _XK[:, None] ** np.arange(9 + k)
        moments = _RULE_NULL[k] @ powers
        assert np.all(np.abs(moments[:-1]) < 1e-15)
        assert abs(moments[-1]) > 1e-4
    coeffs = np.arange(1.0, 10.0)
    y = (_XK[:, None] ** np.arange(coeffs.size)) @ coeffs
    val, err = _k15_null(np.vstack([y, y]), np.ones(2))
    assert err[0] == err[1] == 0.0
    assert val[0] == pytest.approx(sum(2.0 * c / (j + 1) for j, c in enumerate(coeffs)
                                       if j % 2 == 0), rel=1e-14)


# The least and the greatest y_l of each engine layout drawn here.
_LAYOUT_BANDS = [(2.0, 40.0), (0.5, 2.0), (0.09, 0.5), (0.01, 0.09), (0.0025, 0.01),
                 (1e-5, 0.0025)]
_LADDER_IDS = ["", "fine-"] + [f"rung{k}-" for k in range(2, len(LADDER))]


@pytest.mark.parametrize("rule, batch", [
    *(pytest.param(k, batch, id=f"layout{k}-{batch}") for k in range(len(_LAYOUT_BANDS))
      for batch in (1, 2, 3, 7, 128, 255, 256, 300)),
    *(pytest.param(rule, batch, id=f"{prefix}{batch}") for prefix, rule in zip(_LADDER_IDS, LADDER)
      for batch in (1, 2, 3, 7, 128, 255, 256, 300))])
def test_engine_composite_is_batch_invariant(rule, batch):
    """Each row of a batch gets the bits of a one-row call: the engine's term
    integrals on each of its layouts, first pass and bisection included,
    and the composite rule on every rung of the reference ladder
    (oracles.LADDER).  So neither the Matsubara series nor the summation
    references can depend on how their terms are split into blocks and
    passes."""
    rng = np.random.default_rng(batch)
    if isinstance(rule, int):
        yl = rng.uniform(*_LAYOUT_BANDS[rule], batch)
        eps = 10.0 ** rng.uniform(1.0, 8.0, (2, batch))
        vals, errs = lifshitz._terms(lifshitz._pair_log, yl, tuple(eps), 1e-9)
        assert np.all(lifshitz._layout(yl) == rule)
        for i in range(batch):
            val, err = lifshitz._terms(lifshitz._pair_log, yl[i:i + 1], tuple(eps[:, i:i + 1]),
                                       1e-9)
            assert vals[i] == val[0] and errs[i] == err[0]
        return
    rows = rng.standard_normal((batch, rule.nodes.size))
    vals, errs = rule.integrate(rows)
    for i in range(batch):
        val, err = rule.integrate(rows[i:i + 1])
        assert vals[i] == val[0] and errs[i] == err[0]


@pytest.mark.parametrize("batch", [2, 3, 7, 128, 384])
def test_bisected_panels_are_batch_invariant(batch):
    """Each panel of a pass of bisected panels gets the bits of a one-panel
    call."""
    y = np.random.default_rng(batch).standard_normal((batch, _XK.size))
    halves = np.linspace(0.5, 2.0, batch)
    vals, errs = _k15_null(y, halves)
    for i in range(batch):
        val, err = _k15_null(y[i], halves[i])
        assert vals[i] == val and errs[i] == err


def test_adaptive_smooth():
    val, err = adaptive_quad(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_adaptive_sqrt_endpoint_singularity():
    val, _ = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                           rel_tol=1e-9, max_panels=2000)
    assert val == pytest.approx(2.0, rel=1e-8)


def test_adaptive_log_endpoint_singularity():
    val, _ = adaptive_quad(lambda x: np.log(x), 1e-300, 1.0,
                           rel_tol=1e-9, max_panels=2000)
    assert val == pytest.approx(-1.0, rel=1e-8)


def test_adaptive_narrow_lorentzian_with_breakpoints():
    xi = 1e-8

    def f(x):
        return 1.0 / (x * x + xi * xi)

    pts = [xi * 10.0 ** k for k in range(0, 9)]
    val, _ = adaptive_quad(f, 0.0, 1.0, rel_tol=1e-10, breakpoints=pts,
                           max_panels=4000)
    exact = math.atan(1.0 / xi) / xi
    assert val == pytest.approx(exact, rel=1e-9)


def test_adaptive_panel_budget_error():
    xi = 1e-9

    def f(x):
        return 1.0 / (x * x + xi * xi)

    with pytest.raises(ConvergenceError) as exc:
        adaptive_quad(f, 0.0, 1.0, rel_tol=1e-12, max_panels=8)
    assert exc.value.error_estimate > 0.0


def test_exp_tail_exponential_decay():
    val, _ = exp_tail_quad(lambda x: np.exp(-x), 1.0, rel_tol=1e-11)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-10)


def test_exp_tail_algebraic_decay():
    val, _ = exp_tail_quad(lambda x: x ** -3.0, 2.0, rel_tol=1e-11)
    assert val == pytest.approx(1.0 / 8.0, rel=1e-10)

