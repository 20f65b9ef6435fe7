import math

import numpy as np
import pytest

from casimir_sc import lifshitz
from casimir_sc.errors import ConvergenceError
from casimir_sc.quadrature import (
    CompositeKronrod,
    adaptive_quad,
    exp_tail_quad,
    kronrod_panel,
)


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


_RUNG_IDS = ["", "fine-"] + [f"rung{k}-" for k in range(2, len(lifshitz._LADDER))]


@pytest.mark.parametrize("rule, batch", [
    pytest.param(rule, batch, id=f"{prefix}{batch}")
    for prefix, rule in zip(_RUNG_IDS, lifshitz._LADDER)
    for batch in (1, 2, 3, 7, 128, 255, 256, 300)])
def test_engine_composite_is_batch_invariant(rule, batch):
    """Each row of a batch gets the bits of a one-row call, on every rung of
    the engine's rule ladder, so the Matsubara series cannot depend on how
    its terms are split into blocks and refinement passes."""
    rows = np.random.default_rng(batch).standard_normal((batch, rule.nodes.size))
    vals, errs = rule.integrate(rows)
    for i in range(batch):
        val, err = rule.integrate(rows[i:i + 1])
        assert vals[i] == val[0] and errs[i] == err[0]


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

