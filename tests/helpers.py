"""Shared generators for the test suite.

Random games stay at desk scale: at most 6 edges, 3 player types, degree
3, and 3 strategies per type, so every instance is cheap to solve and
small enough for the brute-force oracles.
"""

from __future__ import annotations

import numpy as np

from wardrop import BatchSystem, Edge, Flow, Game, LatencyFunction, PlayerType
from wardrop.model import FEASIBILITY_TOL


def random_game(
    rng: np.random.Generator,
    max_edges: int = 6,
    max_types: int = 3,
    max_degree: int = 3,
) -> Game:
    n_edges = int(rng.integers(1, max_edges + 1))
    edges = []
    for k in range(n_edges):
        degree = int(rng.integers(0, max_degree + 1))
        coeffs = tuple(float(c) for c in rng.uniform(0.0, 1.5, size=degree + 1))
        edges.append(Edge(f"e{k}", LatencyFunction(coeffs)))
    edge_ids = [e.id for e in edges]
    types = []
    for t in range(int(rng.integers(1, max_types + 1))):
        strategies = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, min(3, n_edges) + 1))
            members = rng.choice(n_edges, size=size, replace=False)
            strategies.append(frozenset(edge_ids[int(i)] for i in members))
        demand = float(rng.uniform(0.1, 1.5))
        types.append(PlayerType(f"t{t}", demand, tuple(strategies)))
    return Game(tuple(edges), tuple(types))


def large_game(
    seed: int, n_edges: int = 300, n_types: int = 60, n_strategies: int = 10
) -> Game:
    """A seeded game, by default at the largest benchmark scale: 300 edges
    of degree 1 to 4 with positive constant terms, and 60 player types of
    10 strategies with 2 to 6 edges each."""
    rng = np.random.default_rng(seed)
    edges = []
    for k in range(n_edges):
        higher = rng.uniform(0.0, 1.5, size=int(rng.integers(1, 5)))
        coeffs = (float(rng.uniform(0.1, 1.5)), *(float(c) for c in higher))
        edges.append(Edge(f"e{k}", LatencyFunction(coeffs)))
    types = []
    for t in range(n_types):
        strategies = []
        for _ in range(n_strategies):
            members = rng.choice(n_edges, size=int(rng.integers(2, 7)), replace=False)
            strategies.append(frozenset(f"e{int(i)}" for i in members))
        types.append(PlayerType(f"t{t}", float(rng.uniform(0.5, 1.5)), tuple(strategies)))
    return Game(tuple(edges), tuple(types))


def random_feasible_flow(game: Game, rng: np.random.Generator) -> Flow:
    amounts: dict[tuple[str, int], float] = {}
    for ptype in game.player_types:
        if not ptype.strategies:
            continue
        weights = rng.random(len(ptype.strategies))
        weights = weights / weights.sum() * ptype.demand
        for s, value in enumerate(weights):
            amounts[(ptype.id, s)] = float(value)
    return Flow(amounts)


def random_batch_system(game: Game, rng: np.random.Generator, max_count: int = 8) -> BatchSystem:
    return BatchSystem({e.id: int(rng.integers(1, max_count + 1)) for e in game.edges})


def last_strategy_flow(game: Game) -> Flow:
    """All-or-nothing flow on each type's highest-index strategy; a
    second solver initialization distinct from the default one."""
    amounts: dict[tuple[str, int], float] = {}
    for ptype in game.player_types:
        last = len(ptype.strategies) - 1
        for s in range(len(ptype.strategies)):
            amounts[(ptype.id, s)] = ptype.demand if s == last else 0.0
    return Flow(amounts)


def hard_game() -> Game:
    """A seeded instance that needs well over one solver iteration; used
    to exercise the non-convergence path deterministically."""
    rng = np.random.default_rng(7)
    game = random_game(rng)
    for _ in range(26):
        game = random_game(rng)
    return game


def loads_by_edge(game: Game, flow: Flow) -> dict[str, float]:
    """Total load per edge id, read from the game's vector view."""
    view = game._arrays
    return dict(zip(game.edge_ids, view.loads(view.flow_vector(flow)).tolist()))


def reference_is_feasible(game: Game, flow: Flow) -> bool:
    """The dict loop that is_feasible ran before it went through the
    vector view. One difference: each type's amounts are summed in
    strategy order, as the view sums its rows, where the loop summed them
    in the flow's insertion order; the two can round apart by an ulp."""
    for (type_id, index), amount in flow.amounts.items():
        if amount < 0:
            return False
        ptype = next((t for t in game.player_types if t.id == type_id), None)
        if ptype is None or not 0 <= index < len(ptype.strategies):
            return False
    for ptype in game.player_types:
        total = 0.0
        for s in range(len(ptype.strategies)):
            if (ptype.id, s) in flow.amounts:
                total += flow.amounts[(ptype.id, s)]
        if not abs(total - ptype.demand) <= FEASIBILITY_TOL:
            return False
    return True
