"""Seeded generator of congestion games for the benchmark.

Games come out as JSON documents in the format `wardrop` reads, so the
program under test sees only files. Every random draw comes from one
`random.Random`, whose stream is fixed across Python versions, so a seed
names the same game on every machine.

Latency degrees and strategy lengths are dealt out evenly over their
ranges and then shuffled, instead of drawn independently. Two seeds then
give games with the same mix of polynomial degrees and strategy sizes,
which keeps the work per game, and with it the benchmark's timings,
from swinging with the seed more than the game structure demands.
"""

from __future__ import annotations

import random
from typing import Any

# Ranges of the constant and of the higher latency coefficients.
BASE = (0.1, 1.5)
COEFF = (0.0, 1.5)


def _dealt(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """count integers covering low..high as evenly as possible, shuffled."""
    span = high - low + 1
    values = [low + k % span for k in range(count)]
    rng.shuffle(values)
    return values


def generate_game(
    rng: random.Random,
    *,
    n_edges: int,
    n_types: int,
    n_strategies: int,
    degree: tuple[int, int] = (1, 4),
    strategy_len: tuple[int, int] = (2, 6),
    demand: tuple[float, float] = (0.5, 1.5),
) -> dict[str, Any]:
    """One game document.

    Edge k has a latency of a degree in `degree`; its constant term is
    drawn from BASE (positive, so every cost is positive) and the higher
    coefficients from COEFF. Each of the `n_types` player types gets a
    demand from `demand` and `n_strategies` strategies of distinct edges,
    with lengths in `strategy_len` capped at `n_edges`. Duplicate
    strategies are allowed; the program collapses them.
    """
    if n_edges < 1 or n_types < 1 or n_strategies < 1:
        raise ValueError("a game needs at least one edge, type and strategy")
    edges = []
    for k, deg in enumerate(_dealt(rng, n_edges, *degree)):
        coeffs = [rng.uniform(*BASE)] + [rng.uniform(*COEFF) for _ in range(deg)]
        edges.append({"id": f"e{k}", "latency": {"coeffs": coeffs}})
    edge_ids = [e["id"] for e in edges]
    low, high = min(strategy_len[0], n_edges), min(strategy_len[1], n_edges)
    lengths = iter(_dealt(rng, n_types * n_strategies, low, high))
    player_types = []
    for t in range(n_types):
        strategies = [sorted(rng.sample(edge_ids, next(lengths))) for _ in range(n_strategies)]
        player_types.append(
            {"id": f"t{t}", "demand": rng.uniform(*demand), "strategies": strategies}
        )
    return {"edges": edges, "player_types": player_types}
