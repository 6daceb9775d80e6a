import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardrop import Edge, Game, LatencyFunction
from wardrop.model import _horner
from wardrop.oracle import finite_difference, riemann_check

coeff_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=7
)
nonneg_x = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def banks(fn: LatencyFunction) -> dict[str, np.ndarray]:
    """The banks of a one-edge game on fn: the rows the solver evaluates."""
    return Game((Edge("e", fn),), ())._arrays.banks


def row_at(bank: np.ndarray, row: int, x: float) -> float:
    """_horner of one row of a one-edge bank at load x."""
    return float(_horner(bank[:, row], np.array([x]))[0])


def derivative(fn: LatencyFunction, x: float, mode: str = "original") -> float:
    return row_at(banks(fn)[mode], 1, x)


def integral(fn: LatencyFunction, x: float, mode: str = "original") -> float:
    """The edge's potential term x * I(x), which is the integral of its
    mode's latency from 0 to x."""
    return x * row_at(banks(fn)[mode], 2, x)


def test_eval_constant():
    assert LatencyFunction((1.0,))(0.7) == 1.0


def test_eval_linear():
    assert LatencyFunction((0.0, 1.0))(0.5) == 0.5


def test_eval_full_polynomial():
    # 1 + 2*2 + 3*4 = 17
    assert LatencyFunction((1.0, 2.0, 3.0))(2.0) == 17.0


def test_eval_rejects_negative_argument():
    with pytest.raises(ValueError):
        LatencyFunction((1.0,))(-0.1)


def test_derivative_quadratic():
    fn = LatencyFunction((0.0, 0.0, 1.0))
    assert derivative(fn, 1.5) == 3.0
    # The marginal latency is 3x^2.
    assert derivative(fn, 1.5, "marginal") == 9.0


def test_derivative_constant_is_zero():
    for mode in ("original", "marginal"):
        assert derivative(LatencyFunction((4.2,)), 3.0, mode) == 0.0


def test_marginal_linear():
    assert LatencyFunction((0.0, 1.0)).marginal().coeffs == (0.0, 2.0)


def test_marginal_quadratic():
    assert LatencyFunction((0.0, 0.0, 1.0)).marginal().coeffs == (0.0, 0.0, 3.0)


def test_marginal_constant_fixed_point():
    assert LatencyFunction((5.0,)).marginal().coeffs == (5.0,)


def test_marginal_keeps_degree_and_sign():
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs = tuple(float(c) for c in rng.uniform(0.0, 5.0, size=int(rng.integers(1, 8))))
        marginal = LatencyFunction(coeffs).marginal()
        assert len(marginal.coeffs) == len(coeffs)
        assert all(c >= 0 for c in marginal.coeffs)


def test_marginal_is_linear_in_coefficients():
    rng = np.random.default_rng(4)
    for _ in range(50):
        size = int(rng.integers(1, 8))
        a = rng.uniform(0.0, 5.0, size=size)
        b = rng.uniform(0.0, 5.0, size=size)
        combined = LatencyFunction(tuple(a + 2.0 * b)).marginal().coeffs
        separate = [
            ma + 2.0 * mb
            for ma, mb in zip(
                LatencyFunction(tuple(a)).marginal().coeffs,
                LatencyFunction(tuple(b)).marginal().coeffs,
            )
        ]
        assert combined == pytest.approx(separate, rel=1e-12)


def test_integral_linear():
    assert integral(LatencyFunction((0.0, 1.0)), 1.0) == 0.5


def test_integral_affine():
    # integral of 1 + x from 0 to 2 is 2 + 2
    assert integral(LatencyFunction((1.0, 1.0)), 2.0) == 4.0


def test_integral_at_zero():
    for mode in ("original", "marginal"):
        assert integral(LatencyFunction((3.0, 1.0, 2.0)), 0.0, mode) == 0.0


@given(coeffs=coeff_lists, x=nonneg_x)
def test_integral_matches_numpy_polyint(coeffs, x):
    fn = LatencyFunction(tuple(coeffs))
    exact = riemann_check(fn, x, 1)[1]
    assert math.isclose(integral(fn, x), exact, rel_tol=1e-12, abs_tol=1e-12)


def test_bank_width_follows_degree():
    # (width, 2 + width, edges): width is the degree plus one.
    for coeffs in ((1.0,), (0.0, 0.0, 1.0)):
        for bank in banks(LatencyFunction(coeffs)).values():
            assert bank.shape == (len(coeffs), 2 + len(coeffs), 1)


@given(coeffs=coeff_lists, x=nonneg_x)
def test_marginal_integral_identity(coeffs, x):
    # The marginal function's antiderivative is l(x) * x exactly, so the
    # bank's potential term must agree with it to float accuracy.
    fn = LatencyFunction(tuple(coeffs))
    assert math.isclose(integral(fn, x, "marginal"), fn(x) * x, rel_tol=1e-12, abs_tol=1e-12)


def test_marginal_integral_identity_on_coefficients():
    # Symbolic version: the marginal integral bank reproduces the
    # original coefficients shifted up one power.
    rng = np.random.default_rng(5)
    for _ in range(50):
        coeffs = tuple(float(c) for c in rng.uniform(0.0, 5.0, size=int(rng.integers(1, 8))))
        recovered = banks(LatencyFunction(coeffs))["marginal"][:, 2, 0]
        assert tuple(recovered) == pytest.approx(coeffs, rel=1e-15)


@given(coeffs=coeff_lists, x1=nonneg_x, x2=nonneg_x)
def test_eval_nondecreasing(coeffs, x1, x2):
    fn = LatencyFunction(tuple(coeffs))
    lo, hi = min(x1, x2), max(x1, x2)
    assert fn(lo) <= fn(hi) + 1e-9 * max(1.0, abs(fn(hi)))


def test_marginal_dominates_latency():
    # lhat(x) = l(x) + l'(x) x >= l(x) on x >= 0.
    rng = np.random.default_rng(6)
    for _ in range(50):
        coeffs = tuple(float(c) for c in rng.uniform(0.0, 5.0, size=int(rng.integers(1, 8))))
        fn = LatencyFunction(coeffs)
        marginal = fn.marginal()
        for x in rng.uniform(0.0, 10.0, size=5):
            assert marginal(float(x)) >= fn(float(x)) - 1e-12


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(8)
    for _ in range(100):
        coeffs = tuple(float(c) for c in rng.uniform(0.0, 10.0, size=int(rng.integers(1, 8))))
        fn = LatencyFunction(coeffs)
        x = float(rng.uniform(0.01, 10.0))
        for mode, poly in (("original", fn), ("marginal", fn.marginal())):
            approx = finite_difference(poly, x, 1e-5 * max(1.0, x))
            exact = derivative(fn, x, mode)
            assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))
