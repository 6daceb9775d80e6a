#!/usr/bin/env python3
"""Batch pricing as a mechanism with a tunable efficiency loss.

Pick a budget epsilon, and the pipeline solves for the social optimum,
chooses per-edge batch counts so the batch cost overshoots the optimum
by at most epsilon, and verifies that the optimum is an equilibrium of
the batch-priced game. Players end up at the social optimum on their
own, at an overhead the operator chose in advance.
"""

from pathlib import Path

from wardrop import load_game, mechanism_pipeline

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run(name: str) -> None:
    game = load_game(FIXTURES / name)
    print(f"{name}:")
    for epsilon in (0.5, 0.05, 0.005):
        outcome = mechanism_pipeline(game, epsilon)
        counts = ", ".join(
            f"{edge_id}={count}" for edge_id, count in sorted(outcome.batch_system.counts.items())
        )
        print(f"  epsilon {epsilon:<6}  batch counts: {counts}")
        print(f"    optimal cost  {outcome.optimal_cost:.6f}")
        print(f"    batch cost    {outcome.batch_report.total_batch_cost:.6f}"
              f"  (overshoot {outcome.batch_report.total_gap:.6f} <= {epsilon})")
        # The pipeline raises unless the optimum is a batch equilibrium.
        print(f"    verified equilibrium: worst used excess "
              f"{outcome.optimum.equilibrium_violation:.1e}")
        if outcome.price_of_anarchy is not None:
            saved = outcome.selfish_cost - outcome.batch_report.total_batch_cost
            print(f"    selfish cost  {outcome.selfish_cost:.6f}"
                  f"  (net saving {saved:.6f})")
    print()


def main() -> None:
    run("pigou.json")
    run("twotype.json")


if __name__ == "__main__":
    main()
