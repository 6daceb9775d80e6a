"""Brute-force cross-checks for the solver and the batch mechanism.

Everything here goes through numpy's polynomial routines (polyval,
polyder, polymul, polyint on highest-first coefficients) instead of the
package's own latency calculus, and enumerates instead of optimizing, so
agreement with the fast paths is evidence rather than tautology. Guards
keep the enumeration sizes at desk scale.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

from .batch import BatchSystem
from .latency import LatencyFunction
from .model import Flow, Game, is_feasible

# Enumeration guards.
MAX_GRID_POINTS = 10**7
MAX_GRID_STRATEGIES = 4
MAX_BATCH_ASSIGNMENTS = 10**6

_CHUNK_ROWS = 1 << 16


def _high_first(fn: LatencyFunction) -> np.ndarray:
    return np.array(fn.coeffs[::-1], dtype=float)


def _marginal_high_first(fn: LatencyFunction) -> np.ndarray:
    # lhat = l + l' * x, assembled with numpy's polynomial algebra.
    p = _high_first(fn)
    return np.polyadd(p, np.polymul(np.polyder(p), np.array([1.0, 0.0])))


def finite_difference(fn: LatencyFunction, x: float, h: float) -> float:
    """Central difference of the latency at x, one-sided at the boundary.

    The lower sample is clamped to 0 so the polynomial is never evaluated
    at negative flow.
    """
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    upper = x + h
    lower = max(0.0, x - h)
    p = _high_first(fn)
    return float((np.polyval(p, upper) - np.polyval(p, lower)) / (upper - lower))


def riemann_check(fn: LatencyFunction, x: float, n: int) -> tuple[float, float, float]:
    """Right-endpoint Riemann sum of fn over [0, x] with n pieces, the
    exact integral, and their difference (sum, integral, gap)."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if n != int(n) or int(n) < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    n = int(n)
    p = _high_first(fn)
    z = (np.arange(1, n + 1, dtype=float) / n) * x
    right_sum = float(x / n * np.polyval(p, z).sum())
    integral = float(np.polyval(np.polyint(p), x))
    return right_sum, integral, right_sum - integral


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length parts summing to total,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _count_compositions(total: int, parts: int) -> int:
    from math import comb

    return comb(total + parts - 1, parts - 1)


def _incidence(game: Game, keys: list[tuple[str, int]]) -> np.ndarray:
    """0/1 matrix of the given (type, strategy) rows by game edges, built
    here rather than taken from the game's vector view."""
    edge_pos = {e.id: k for k, e in enumerate(game.edges)}
    incidence = np.zeros((len(keys), len(game.edges)))
    for r, (type_id, s) in enumerate(keys):
        for edge_id in game.player_type(type_id).strategies[s]:
            incidence[r, edge_pos[edge_id]] = 1.0
    return incidence


def grid_search_equilibrium(game: Game, resolution: float, mode: str) -> Flow:
    """Minimize the mode potential over a per-type simplex grid.

    Each type's demand is split in multiples of resolution * d_i (shares
    k / M with M = round(1 / resolution)). Returns the lexicographically
    first minimizer in enumeration order. Guarded to MAX_GRID_POINTS
    total points and MAX_GRID_STRATEGIES strategies per type. Raises
    ValueError when the potential overflows at every grid point.
    """
    if mode not in ("original", "marginal"):
        raise ValueError(f"mode must be 'original' or 'marginal', got '{mode}'")
    if resolution <= 0 or resolution > 1:
        raise ValueError(f"resolution must be in (0, 1], got {resolution}")
    steps = max(1, round(1.0 / resolution))

    keys: list[tuple[str, int]] = []
    per_type_points: list[list[tuple[float, ...]]] = []
    total_points = 1
    for ptype in game.player_types:
        n_strategies = len(ptype.strategies)
        if n_strategies == 0:
            if ptype.demand > 0:
                raise ValueError(
                    f"player type '{ptype.id}' has positive demand but no strategies"
                )
            continue
        if n_strategies > MAX_GRID_STRATEGIES:
            raise ValueError(
                f"player type '{ptype.id}' has {n_strategies} strategies, "
                f"grid search supports at most {MAX_GRID_STRATEGIES}"
            )
        keys.extend((ptype.id, s) for s in range(n_strategies))
        if ptype.demand == 0:
            points = [(0.0,) * n_strategies]
        else:
            # Check the budget before materializing the composition list.
            total_points *= _count_compositions(steps, n_strategies)
            if total_points > MAX_GRID_POINTS:
                raise ValueError(
                    f"grid would have more than {MAX_GRID_POINTS} points "
                    f"at resolution {resolution}"
                )
            points = [
                tuple(k / steps * ptype.demand for k in split)
                for split in _compositions(steps, n_strategies)
            ]
        per_type_points.append(points)

    if not keys:
        return Flow({})

    incidence = _incidence(game, keys)
    integral_polys = []
    for e in game.edges:
        p = _high_first(e.latency) if mode == "original" else _marginal_high_first(e.latency)
        integral_polys.append(np.polyint(p))

    best_value = np.inf
    best_row: np.ndarray | None = None
    buffer: list[tuple[float, ...]] = []

    def flush() -> None:
        nonlocal best_value, best_row
        if not buffer:
            return
        rows = np.array(buffer)
        loads = rows @ incidence
        values = np.zeros(len(rows))
        for k, poly in enumerate(integral_polys):
            values += np.polyval(poly, loads[:, k])
        local = int(np.argmin(values))
        if values[local] < best_value:
            best_value = float(values[local])
            best_row = rows[local].copy()
        buffer.clear()

    for combo in itertools.product(*per_type_points):
        buffer.append(tuple(itertools.chain.from_iterable(combo)))
        if len(buffer) >= _CHUNK_ROWS:
            flush()
    flush()

    if best_row is None:
        # Every potential overflowed to inf or NaN.
        raise ValueError(f"the {mode} potential is not finite at any grid point")
    return Flow({key: float(v) for key, v in zip(keys, best_row)})


def exhaustive_batch_verify(
    game: Game,
    flow: Flow,
    batch_system: BatchSystem,
    tol: float = 1e-6,
) -> bool:
    """Check the batch equilibrium condition over every batch assignment.

    For each used strategy (more than 1e-9 mass), enumerates all
    combinations of batch indices on its edges and requires each
    resulting cost to stay within tol of every alternative strategy's
    full-load cost. Guarded to MAX_BATCH_ASSIGNMENTS combinations per
    used strategy.
    """
    if not is_feasible(game, flow):
        raise ValueError("infeasible flow")
    keys = [(t.id, s) for t in game.player_types for s in range(len(t.strategies))]
    amounts = np.array([flow.amount(*key) for key in keys])
    loads = dict(zip(game.edge_ids, (amounts @ _incidence(game, keys)).tolist()))
    marginal_polys = {e.id: _marginal_high_first(e.latency) for e in game.edges}

    for ptype in game.player_types:
        if not ptype.strategies:
            continue
        alternatives = [
            sum(
                float(np.polyval(marginal_polys[edge_id], loads[edge_id]))
                for edge_id in sorted(strategy)
            )
            for strategy in ptype.strategies
        ]
        for s, strategy in enumerate(ptype.strategies):
            if flow.amount(ptype.id, s) <= 1e-9:
                continue
            edges = sorted(strategy)
            counts = [batch_system.counts[edge_id] for edge_id in edges]
            size = 1
            for c in counts:
                size *= c
            if size > MAX_BATCH_ASSIGNMENTS:
                raise ValueError(
                    f"strategy {s} of type '{ptype.id}' has {size} batch assignments, "
                    f"limit is {MAX_BATCH_ASSIGNMENTS}"
                )
            per_edge_values = [
                np.polyval(
                    marginal_polys[edge_id],
                    (np.arange(1, count + 1, dtype=float) / count) * loads[edge_id],
                )
                for edge_id, count in zip(edges, counts)
            ]
            if per_edge_values:
                costs = reduce(np.add.outer, per_edge_values).ravel()
            else:
                costs = np.zeros(1)
            for other in alternatives:
                if np.any(costs > other + tol):
                    return False
    return True
