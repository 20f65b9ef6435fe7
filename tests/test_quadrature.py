import math

import mpmath
import numpy as np
import pytest

from casimir_sc import lifshitz
from casimir_sc.errors import ConvergenceError
from casimir_sc.quadrature import (
    CompositeKronrod,
    NeumaierSum,
    adaptive_quad,
    exp_tail_quad,
    gauss_legendre_nodes,
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


@pytest.mark.parametrize("batch", [1, 2, 3, 7, 255, 256, 300])
def test_engine_composite_is_batch_invariant(batch):
    """Each row of a batch gets the bits of a one-row call, so the Matsubara
    series cannot depend on how its terms are split into blocks."""
    rule = lifshitz._COMPOSITE
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


def test_neumaier_recovers_cancelled_sum():
    acc = NeumaierSum()
    acc.add(1.0)
    for _ in range(10):
        acc.add(1e-17)
    acc.add(-1.0)
    assert acc.value == pytest.approx(1e-16, rel=1e-6)


def test_neumaier_matches_fsum_on_series():
    rng = np.random.default_rng(7)
    xs = list(rng.normal(size=2000) * 10.0 ** rng.integers(-8, 8, size=2000))
    acc = NeumaierSum()
    for x in xs:
        acc.add(float(x))
    assert acc.value == pytest.approx(math.fsum(xs), rel=1e-14)


def _mp_gauss_legendre(n: int, k: int) -> tuple[float, float]:
    """k-th node (ascending on [0, 1]) and weight of the n-point rule, from
    Newton on the Legendre recurrence at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.cos(mpmath.pi * (k + mpmath.mpf(3) / 4) / (n + mpmath.mpf(1) / 2))
        for _ in range(60):
            p0, p1 = mpmath.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (p0 - x * p1) / (1 - x * x)
            x -= p1 / dp
            if abs(p1 / dp) < mpmath.mpf(10) ** -36:
                break
        return float((1 - x) / 2), float(1 / ((1 - x * x) * dp * dp))


@pytest.mark.parametrize("n", [512, 2048])
def test_gauss_legendre_nodes_match_mpmath(n):
    """The end weights are where an eigenvalue-based rule goes wrong: numpy's
    leggauss is off by 6.3e-8 relative at n = 2048."""
    x, w = gauss_legendre_nodes(n)
    assert x.shape == w.shape == (n,)
    assert 0.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0.0)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    for k in (0, 1, 2, 3, n // 3, n - 1):
        node, weight = _mp_gauss_legendre(n, k)
        assert abs(x[k] - node) <= 1e-15, k
        assert w[k] == pytest.approx(weight, rel=1e-10, abs=0.0), k
