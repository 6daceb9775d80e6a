#!/usr/bin/env python3
"""Checking the fast paths against brute force.

The oracle module reimplements everything the slow way: equilibria by
grid enumeration over the demand simplices, calculus through numpy's
polynomial routines, batch equilibria by enumerating every batch
assignment. This script runs both sides on the bundled fixtures and
prints the disagreements (there should be none beyond grid resolution).
"""

from pathlib import Path

from wardrop import LatencyFunction, load_game, social_cost, solve
from wardrop.oracle import grid_search_equilibrium, riemann_check

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def compare_solver(name: str, resolution: float) -> None:
    game = load_game(FIXTURES / name)
    print(f"{name} at grid resolution {resolution}:")
    for mode in ("original", "marginal"):
        fast = solve(game, mode).social_cost_original
        brute = social_cost(game, grid_search_equilibrium(game, resolution, mode))
        print(f"  {mode:<9} solver {fast:.6f}  grid {brute:.6f}  "
              f"difference {abs(fast - brute):.2e}")


def calculus_spot_checks() -> None:
    fn = LatencyFunction((1.0, 0.5, 0.0, 2.0))
    print("\ncubic latency 1 + 0.5x + 2x^3:")
    marginal = fn.marginal()
    for n in (4, 64, 1024):
        right_sum, integral, gap = riemann_check(marginal, 2.0, n)
        print(f"  right sum of the marginal on [0,2], n={n:<5} "
              f"overshoot {gap:.8f}")
    print(f"  exact integral {integral:.8f} equals l(2)*2 = {fn(2.0) * 2.0:.8f}")


def main() -> None:
    for name in ("pigou.json", "mono.json", "twotype.json"):
        compare_solver(name, 1e-3)
    calculus_spot_checks()


if __name__ == "__main__":
    main()
