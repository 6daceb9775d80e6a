"""Wardrop equilibrium and social optimum solver.

Equilibria are minimizers of the convex edge-integral potential over the
product of per-type demand simplices. The solver takes projected Newton
steps on the strategy flows, after Bertsekas and Gafni (1983), with
player types as commodities and strategies as paths, along Bertsekas's
projection arc (1982):

- In each type with a choice, the strategy with the most mass is basic
  and absorbs the type's change. The other strategies that carry mass
  or cost less than the basic one are free.
- A free strategy that costs more than its basic one and carries less
  mass than the diagonal of the Newton model would move off it is
  eps-active: its direction is minus its mass, so the full step empties
  it.
- The other free strategies take the direction d that solves the
  reduced Newton system H d = -g: g is their cost minus their basic
  strategy's cost, and H = D diag(l') D^T is the Hessian of the
  potential along the edge-set differences D, with l' the derivative of
  the mode latency at the current loads. The step tries its directions
  in one order (_directions): the Newton direction, when the Cholesky
  probe finds H positive definite and the direction descends, then that
  of H shifted by a small multiple of the identity (Nocedal and Wright
  2006, 3.4). Constant latencies make H singular, so the probe fails;
  a nearly singular H can pass it with a direction whose predicted fall
  is lost to rounding, so the shifted one follows. When H vanishes, the
  model is linear and -g is the only direction.
- The arc sets each free strategy to max(0, f + alpha d), and the basic
  strategies absorb the change; an alpha that drives a basic strategy
  below zero is rejected. The step takes the first of alpha = 1, 1/2,
  1/4, ... at which the potential falls by at least ARMIJO times the
  fall alpha g.d that the model predicts. The fall is summed edge by
  edge from divided differences (_GameArrays.potential_change), because
  near the optimum the difference of two potentials is lost to rounding.
  Once alpha is so small that the step moves no mass, the next direction
  is tried. When none is left, or a direction does not descend, the flow
  stays, and so would every later step from it.

Every step is a descent step, so the potential decreases monotonically.
The loop stops on the relative gap sum f * (cost - cheapest cost of its
type) over |potential|, summed over all strategies: a sum of
nonnegative terms, equal to the linearized improvement over the
all-or-nothing flow. Otherwise the loop ends, and the solve fails with
ConvergenceError, when the budget runs out, a step moves no mass, or
the gap or the potential stops being finite.

Mode "original" prices edges by their latency and yields a Wardrop
equilibrium; mode "marginal" prices them by the marginal-cost transform,
whose potential is the social cost itself, so the result is a social
optimum.

The loop, the potential and the equilibrium gap all read the game's
vector view, model._GameArrays, which also owns the per-type layout of
the flow vector and its per-type reductions. Each iterate makes one
Horner pass of its loads (model._horner) through the rows of the mode's
bank, banks[mode]: the latency, its derivative, and the integral shifted
down 0, 1, 2, ... powers. Its values give the strategy costs (row 0),
the Hessian's l' (row 1) and the potential (row 2). Rows 2: of the
values are Horner's partial sums of the integral at the loads, a bank in
that same layout: the quotient that every Armijo trial of the step
evaluates, so a trial costs one Horner pass.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .model import EPS_USE, VERIFY_TOL, Flow, Game, _GameArrays, _count, _horner, _real

MODES = ("original", "marginal")

# Floor for the relative-gap denominator, so near-zero potentials do not
# blow up the stopping rule.
EPS_DENOM = 1e-12

# Shift of a singular reduced Hessian, as a fraction of its largest diagonal entry.
HESSIAN_SHIFT = 1e-10

# An arc step is taken once the potential falls by at least this share of
# the decrease that the step's first-order model predicts (Armijo's rule).
ARMIJO = 1e-4


@dataclass(frozen=True)
class SolverParams:
    max_iterations: int = 10000
    relative_gap_tol: float = 1e-9

    def __post_init__(self) -> None:
        # Stored as an int: a float budget would fail inside the solve loop.
        budget = _count(self.max_iterations, "max_iterations")
        object.__setattr__(self, "max_iterations", budget)
        _real(self.relative_gap_tol, "relative_gap_tol")


@dataclass(frozen=True)
class SolveResult:
    flow: Flow
    iterations: int
    relative_gap: float
    potential_value: float
    social_cost_original: float
    equilibrium_violation: float


class ConvergenceError(RuntimeError):
    """The solve ran out of iterations, stalled or left the finite numbers.

    gaps holds the relative gap of every iterate from the first to the
    failing one, so iterations is one less than its length and
    relative_gap is its last entry. flow is the last iterate. reason
    says why the solve stopped: "budget" (the iterations ran out),
    "stalled" (a step moved no mass) or "non-finite" (the potential or
    the gap stopped being finite).
    """

    def __init__(self, gaps: Sequence[float], flow: Flow, reason: str):
        self.gaps = tuple(gaps)
        self.iterations = len(self.gaps) - 1
        self.relative_gap = self.gaps[-1]
        self.flow = flow
        self.reason = reason
        super().__init__(
            f"no convergence after {self.iterations} iterations, "
            f"relative gap {self.relative_gap:.3e}"
        )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got '{mode}'")


def _free(
    arrays: _GameArrays, f: np.ndarray, costs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The free rows, the basic row of each, and the mask of rows that
    carry mass.

    A type's basic row carries its most mass, ties toward the lowest
    index. Its free rows carry mass or cost less than the basic row.
    Types without mass, or with one strategy, have no free rows.
    """
    pick = arrays.by_type(f, -1.0).argmax(axis=1)
    base = arrays.slots[arrays.type_range, pick][arrays.owner]
    used = f > 0.0
    free = (arrays.row_range != base) & used[base] & (used | (costs < costs[base]))
    return np.flatnonzero(free), base[free], used


def _directions(hessian: np.ndarray, g: np.ndarray, reach: np.ndarray) -> Iterator[np.ndarray]:
    """The directions d that a step may try for the model g.d + d.H.d / 2,
    best first, each solved for only once the one before it has failed.

    H = D diag(l') D^T is positive semidefinite, so it vanishes exactly
    when its largest diagonal entry does. Then the model is linear, and
    the only direction is -g scaled so that its largest component has the
    size of its entry of reach. Otherwise the first is the Newton
    direction -H^-1 g, when the Cholesky probe finds H positive definite
    and that direction descends, and the last is -(H + tau I)^-1 g, with
    tau HESSIAN_SHIFT times the largest diagonal entry. A non-finite H
    has a non-finite tau, so H + tau I has no zero pivot.
    """
    top = hessian.diagonal().max()
    if top == 0.0:
        largest = np.abs(g).max()
        yield -g * (reach / largest) if largest > 0.0 else np.zeros_like(g)
        return
    try:
        np.linalg.cholesky(hessian)  # raises unless H is positive definite
        d = -np.linalg.solve(hessian, g)
        if np.isfinite(d).all() and g @ d < 0.0:
            yield d
    except np.linalg.LinAlgError:
        pass
    yield -np.linalg.solve(hessian + HESSIAN_SHIFT * top * np.eye(len(g)), g)


def _newton_step(
    arrays: _GameArrays, f: np.ndarray, x: np.ndarray, costs: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """One projected Newton step along the projection arc from the flow
    vector f, at loads x, with strategy costs costs and bank values
    _horner(arrays.banks[mode], x) in the mode: l' is values[1] and the
    Armijo quotient values[2:].

    The step tries the directions of _directions in turn and returns the
    first arc flow that passes Armijo's test. It returns f itself, having
    moved no mass, when a direction does not descend or when the arc of
    every direction stops moving mass before it passes.
    """
    rows, base, used = _free(arrays, f, costs)
    mass = f[rows]
    g = costs[rows] - costs[base]
    diff = arrays.incidence[rows] - arrays.incidence[base]
    curved = diff * values[1]
    # The eps-active rows cost more than their basic row and carry less
    # mass than the diagonal of the Newton model would move off them.
    # They leave the Newton system, and the full step empties them.
    active = (g > 0.0) & (mass * (curved * diff).sum(axis=1) <= g)
    d = -mass
    newton = np.flatnonzero(~active)
    # Without Newton rows, the only direction is the eps-active one.
    directions = (
        _directions(curved[newton] @ diff[newton].T, g[newton], f[base[newton]])
        if newton.size
        else [d[newton]]
    )
    quotient = values[2:]
    floor = -mass
    for direction in directions:
        d[newton] = direction
        descent = float(g @ d)
        if not -math.inf < descent < 0.0:  # no descent, or d is not finite
            return f
        alpha = 1.0
        while True:
            change = np.maximum(alpha * d, floor)
            # No free row is basic, so each row's entry is its own change
            # or minus the changes its free rows make.
            step = np.bincount(rows, change, len(f)) - np.bincount(base, change, len(f))
            stepped = f + step
            if not (stepped != f)[used].any():
                break  # the step no longer moves any mass: it is below rounding
            if stepped.min() >= 0.0 and (
                arrays.potential_change(x, arrays.loads(step), quotient)
                <= ARMIJO * alpha * descent
            ):
                return stepped
            alpha *= 0.5
    return f


def potential(game: Game, flow: Flow, mode: str) -> float:
    """Beckmann-style objective: sum over edges of the mode latency
    integral from 0 to the edge load, at a feasible flow. In marginal
    mode this equals the social cost of the flow."""
    _check_mode(mode)
    view = game._arrays
    x = view.loads(view.feasible_vector(flow))
    return float(x @ _horner(view.banks[mode][:, 2], x))


def solve(
    game: Game,
    mode: str,
    params: SolverParams | None = None,
    *,
    initial_flow: Flow | None = None,
) -> SolveResult:
    """Minimize the mode potential; return the flow and convergence data.

    Starts from the all-or-nothing flow at zero loads unless initial_flow
    (any feasible flow) is given. Stops when the flow-weighted excess of
    each strategy's cost over its type's cheapest, relative to the
    potential magnitude, drops to relative_gap_tol, and no strategy that
    carries more than EPS_USE mass costs more than VERIFY_TOL above its
    type's cheapest, so that verify accepts the flow.
    Raises ConvergenceError, carrying the last iterate and the relative
    gap of every iterate, if the budget runs out first, or as soon as a
    step moves no mass or the potential or the gap is not finite.
    """
    _check_mode(mode)
    if params is None:
        params = SolverParams()
    arrays = game._arrays
    if initial_flow is None:
        f = arrays.cold_start
    else:
        try:
            f = arrays.feasible_vector(initial_flow)
        except ValueError:
            raise ValueError("initial flow is infeasible") from None

    gaps: list[float] = []
    for iteration in range(params.max_iterations + 1):
        x = arrays.loads(f)
        values = _horner(arrays.banks[mode], x)
        costs = arrays.incidence @ values[0]
        excess = arrays.excess(costs)
        gap = float(f @ excess)
        phi = float(x @ values[2])
        relative_gap = gap / max(abs(phi), EPS_DENOM)
        gaps.append(relative_gap)
        if not (math.isfinite(phi) and math.isfinite(gap)):
            reason = "non-finite"
            break
        if relative_gap <= params.relative_gap_tol:
            violation = _worst_excess(f, excess)
            if violation <= VERIFY_TOL:
                return SolveResult(
                    flow=arrays.to_flow(f),
                    iterations=iteration,
                    relative_gap=relative_gap,
                    potential_value=phi,
                    social_cost_original=float(arrays.edge_costs(x).sum()),
                    equilibrium_violation=violation,
                )
        if iteration == params.max_iterations:
            reason = "budget"
            break
        stepped = _newton_step(arrays, f, x, costs, values)
        if stepped is f:  # no mass moved, so no later step would move any
            reason = "stalled"
            break
        f = stepped
    raise ConvergenceError(gaps, arrays.to_flow(f), reason)


def _worst_excess(f: np.ndarray, excess: np.ndarray) -> float:
    """Largest excess over the rows that carry more than EPS_USE mass."""
    return float(excess[f > EPS_USE].max(initial=0.0))


def wardrop_gap(game: Game, flow: Flow, mode: str) -> float:
    """Worst excess of a used strategy's latency over its type's cheapest.

    Zero (over the strategies that carry more than EPS_USE mass)
    characterizes a Wardrop equilibrium in the given mode. Requires a
    feasible flow.
    """
    _check_mode(mode)
    view = game._arrays
    f = view.feasible_vector(flow)
    return _worst_excess(f, view.excess(view.strategy_costs(view.loads(f), mode)))


def _solve_pair(
    game: Game, params: SolverParams | None
) -> tuple[SolveResult, SolveResult, float | None]:
    """The social optimum, the Wardrop equilibrium and the price of
    anarchy, the ratio of their social costs.

    The optimum is solved first. Both solves start cold, so each result
    equals a separate solve call bit for bit. The ratio is None unless
    the optimal social cost is positive.
    """
    optimal = solve(game, "marginal", params)
    selfish = solve(game, "original", params)
    cost = optimal.social_cost_original
    ratio = selfish.social_cost_original / cost if cost > 0.0 else None
    return optimal, selfish, ratio


def price_of_anarchy(game: Game, params: SolverParams | None = None) -> float:
    """Equilibrium social cost over optimal social cost.

    Raises ValueError when the optimal social cost is zero, where the
    ratio is undefined.
    """
    _, _, ratio = _solve_pair(game, params)
    if ratio is None:
        raise ValueError("price of anarchy undefined: optimal social cost is zero")
    return ratio
