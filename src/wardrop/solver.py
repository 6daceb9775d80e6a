"""Wardrop equilibrium and social optimum solver.

Equilibria are minimizers of the convex edge-integral potential over the
product of per-type demand simplices, so the solver is a conditional
gradient loop: all-or-nothing best response, exact line search by
bisection, stop on the relative potential gap. Each iteration also
rebalances every player type by shifting mass from its costliest used
strategy onto its cheapest one (again with exact line search), which
removes the sublinear tail of the plain method. Every step is a descent
step, so the potential decreases monotonically.

Mode "original" prices edges by their latency and yields a Wardrop
equilibrium; mode "marginal" prices them by the marginal-cost transform,
whose potential is the social cost itself, so the result is a social
optimum.

The loop, the potential and the equilibrium gap all read the game's
vector view, model._GameArrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Flow,
    Game,
    GameValidationError,
    _GameArrays,
    is_feasible,
    social_cost,
    validate_game,
)

MODES = ("original", "marginal")

# Floor for the relative-gap denominator, so near-zero potentials do not
# blow up the stopping rule.
EPS_DENOM = 1e-12

# A strategy counts as used when it carries more than this much mass.
EPS_USE = 1e-9


@dataclass(frozen=True)
class SolverParams:
    max_iterations: int = 10000
    relative_gap_tol: float = 1e-9
    line_search_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        for tol in (self.relative_gap_tol, self.line_search_tol):
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"tolerances must be positive and finite, got {tol}")


@dataclass(frozen=True)
class SolveResult:
    flow: Flow
    iterations: int
    relative_gap: float
    potential_value: float
    social_cost_original: float
    equilibrium_violation: float


class ConvergenceError(RuntimeError):
    def __init__(self, iterations: int, relative_gap: float):
        super().__init__(
            f"no convergence after {iterations} iterations, relative gap {relative_gap:.3e}"
        )
        self.iterations = iterations
        self.relative_gap = relative_gap


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got '{mode}'")


def _bisect_gamma(
    arrays: _GameArrays,
    x_current: np.ndarray,
    x_target: np.ndarray,
    mode: str,
    tol: float,
) -> float:
    """Minimize the potential along loads (1-g) * current + g * target.

    The directional derivative g -> sum_e l_e(x_e(g)) * delta_e is
    nondecreasing (convex potential), so bisection on its sign finds the
    minimizer. Returns 0 when the derivative at 0 is already nonnegative
    and 1 when it is still negative at 1.
    """
    coeff_lists = arrays.coeff_tuples[mode]
    active = [k for k in range(len(x_current)) if x_target[k] != x_current[k]]
    base = [float(x_current[k]) for k in active]
    delta = [float(x_target[k] - x_current[k]) for k in active]
    coeffs = [coeff_lists[k] for k in active]

    def slope(gamma: float) -> float:
        total = 0.0
        for b, d, cs in zip(base, delta, coeffs):
            x = b + gamma * d
            acc = 0.0
            for c in reversed(cs):
                acc = acc * x + c
            total += acc * d
        return total

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d_mid = slope(mid)
        if d_mid == 0.0:
            return mid
        if d_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _descend(
    arrays: _GameArrays, f: np.ndarray, target: np.ndarray, mode: str, tol: float
) -> np.ndarray:
    gamma = _bisect_gamma(arrays, arrays.loads(f), arrays.loads(target), mode, tol)
    if gamma == 0.0:
        return f
    return f + gamma * (target - f)


def potential(game: Game, flow: Flow, mode: str) -> float:
    """Beckmann-style objective: sum over edges of the mode latency
    integral from 0 to the edge load. In marginal mode this equals the
    social cost of the flow."""
    _check_mode(mode)
    view = game._arrays
    return view.potential(view.loads(view.flow_vector(flow)), mode)


def solve(
    game: Game,
    mode: str,
    params: SolverParams | None = None,
    *,
    initial_flow: Flow | None = None,
) -> SolveResult:
    """Minimize the mode potential; return the flow and convergence data.

    Starts from the all-or-nothing flow at zero loads unless initial_flow
    (any feasible flow) is given. Stops when the linearized improvement,
    relative to the potential magnitude, drops to relative_gap_tol.
    Raises ConvergenceError if the budget runs out first.
    """
    _check_mode(mode)
    if params is None:
        params = SolverParams()
    report = validate_game(game)
    if report:
        raise GameValidationError(report)
    arrays = game._arrays
    if initial_flow is None:
        zero = np.zeros(len(game.edges))
        f = arrays.all_or_nothing(arrays.strategy_costs(zero, mode))
    else:
        if not is_feasible(game, initial_flow):
            raise ValueError("initial flow is infeasible")
        f = arrays.flow_vector(initial_flow)

    iterations = 0
    relative_gap = float("inf")
    phi = 0.0
    for iteration in range(params.max_iterations + 1):
        x = arrays.loads(f)
        costs = arrays.strategy_costs(x, mode)
        target = arrays.all_or_nothing(costs)
        gap = float(costs @ (f - target))
        phi = arrays.potential(x, mode)
        relative_gap = gap / max(abs(phi), EPS_DENOM)
        if relative_gap <= params.relative_gap_tol:
            iterations = iteration
            break
        if iteration == params.max_iterations:
            raise ConvergenceError(iteration, relative_gap)
        f = _descend(arrays, f, target, mode, params.line_search_tol)
        # Rebalance each type: drain the costliest used strategy into the
        # cheapest until no profitable pair remains this round.
        for start, stop in arrays.spans.values():
            for _ in range(stop - start):
                x = arrays.loads(f)
                seg_costs = arrays.strategy_costs(x, mode)[start:stop]
                seg_flow = f[start:stop]
                used = np.flatnonzero(seg_flow > 0.0)
                if used.size == 0:
                    break
                worst = int(used[np.argmax(seg_costs[used])])
                best = int(np.argmin(seg_costs))
                if worst == best or seg_costs[worst] <= seg_costs[best]:
                    break
                swapped = f.copy()
                swapped[start + best] += swapped[start + worst]
                swapped[start + worst] = 0.0
                f = _descend(arrays, f, swapped, mode, params.line_search_tol)

    flow = arrays.to_flow(f)
    return SolveResult(
        flow=flow,
        iterations=iterations,
        relative_gap=relative_gap,
        potential_value=phi,
        social_cost_original=social_cost(game, flow),
        equilibrium_violation=wardrop_gap(game, flow, mode),
    )


def wardrop_gap(game: Game, flow: Flow, mode: str, eps_use: float = EPS_USE) -> float:
    """Worst excess of a used strategy's latency over its type's cheapest.

    Zero (up to eps_use mass filtering) characterizes a Wardrop
    equilibrium in the given mode. Requires a feasible flow.
    """
    _check_mode(mode)
    if not is_feasible(game, flow):
        raise ValueError("infeasible flow")
    view = game._arrays
    f = view.flow_vector(flow)
    costs = view.strategy_costs(view.loads(f), mode)
    worst = 0.0
    for start, stop in view.spans.values():
        used = f[start:stop] > eps_use
        if used.any():
            span_costs = costs[start:stop]
            worst = max(worst, float(span_costs[used].max() - span_costs.min()))
    return worst


def price_of_anarchy(game: Game, params: SolverParams | None = None) -> float:
    """Equilibrium social cost over optimal social cost.

    Raises ValueError when the optimal social cost is zero, where the
    ratio is undefined.
    """
    selfish = solve(game, "original", params)
    optimal = solve(game, "marginal", params)
    if optimal.social_cost_original <= 0.0:
        raise ValueError("price of anarchy undefined: optimal social cost is zero")
    return selfish.social_cost_original / optimal.social_cost_original
