"""Polynomial latency functions.

Latencies are polynomials with nonnegative coefficients. On x >= 0 that
makes them nonnegative, nondecreasing, convex and continuously
differentiable. Their derivatives, marginal-cost transforms and
integrals are exact coefficient operations, done once per game in the
vector view's banks (model._GameArrays), so no quadrature is needed
anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

# Degree cap: keeps the (j+1) coefficient transforms and Horner evaluation
# well inside float range at the load magnitudes this package targets.
MAX_DEGREE = 16


@dataclass(frozen=True)
class LatencyFunction:
    """Latency polynomial l(x) = sum_j coeffs[j] * x**j, lowest power first.

    Structurally bad coefficient lists (empty, negative entries, degree
    above MAX_DEGREE) are deliberately constructible so that game
    validation can report them all at once; see model.validate_game.

    The package evaluates latencies only through the view's banks. The
    scalar __call__ and marginal stay for perfbench/workloads.py, whose
    Riemann check prices each edge independently of those banks.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __call__(self, x: float) -> float:
        """Evaluate l(x) by Horner's rule. Requires x >= 0."""
        _require_nonnegative(x)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def marginal(self) -> LatencyFunction:
        """Return the marginal-cost latency l(x) + l'(x) * x.

        For polynomials this is the coefficient map a_j -> (j+1) * a_j, so
        the result stays inside the same nonnegative-coefficient family.
        """
        return LatencyFunction(tuple((j + 1) * c for j, c in enumerate(self.coeffs)))


def _require_nonnegative(x: float) -> None:
    if x < 0:
        raise ValueError(f"latency argument must be nonnegative, got {x}")
