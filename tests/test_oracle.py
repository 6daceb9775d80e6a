import numpy as np
import pytest

from helpers import random_feasible_flow, random_game
from wardrop import (
    BatchSystem,
    Edge,
    Flow,
    Game,
    LatencyFunction,
    PlayerType,
    batch_social_cost,
    social_cost,
    solve,
    verify_batch_equilibrium,
)
from wardrop.oracle import (
    exhaustive_batch_verify,
    finite_difference,
    grid_search_equilibrium,
    riemann_check,
)


def test_finite_difference_linear_is_exact():
    fn = LatencyFunction((1.0, 3.0))
    assert finite_difference(fn, 2.0, 1e-5) == pytest.approx(3.0, abs=1e-9)


def test_finite_difference_quadratic_central():
    # The central stencil is exact for quadratics up to roundoff.
    fn = LatencyFunction((0.0, 0.0, 1.0))
    assert finite_difference(fn, 1.0, 1e-5) == pytest.approx(2.0, abs=1e-9)


def test_finite_difference_constant_is_zero():
    assert finite_difference(LatencyFunction((7.0,)), 0.0, 1e-5) == pytest.approx(0.0, abs=1e-12)


def test_finite_difference_clamps_at_zero():
    # Below h the lower sample clamps to 0 and the stencil averages l'
    # over [0, x + h]; for 1 + x + x**2 that value is exactly 1 + (x + h).
    fn = LatencyFunction((1.0, 1.0, 1.0))
    h = 1e-4
    assert finite_difference(fn, 0.0, h) == pytest.approx(1.0 + h, rel=1e-9)


def test_finite_difference_rejects_bad_arguments():
    fn = LatencyFunction((1.0,))
    with pytest.raises(ValueError):
        finite_difference(fn, -1.0, 1e-5)
    with pytest.raises(ValueError):
        finite_difference(fn, 1.0, 0.0)


def test_riemann_check_linear_example():
    right_sum, integral, gap = riemann_check(LatencyFunction((0.0, 2.0)), 0.5, 10)
    assert right_sum == pytest.approx(0.275, abs=1e-15)
    assert integral == pytest.approx(0.25, abs=1e-15)
    assert gap == pytest.approx(0.025, abs=1e-12)


def test_riemann_check_constant_has_no_gap():
    right_sum, integral, gap = riemann_check(LatencyFunction((3.0,)), 2.0, 7)
    assert right_sum == pytest.approx(integral, rel=1e-12)
    assert abs(gap) <= 1e-12


def test_riemann_gap_nonnegative_and_dyadically_decreasing():
    rng = np.random.default_rng(21)
    for _ in range(20):
        coeffs = tuple(float(c) for c in rng.uniform(0.0, 2.0, size=int(rng.integers(1, 5))))
        fn = LatencyFunction(coeffs)
        x = float(rng.uniform(0.0, 3.0))
        previous = None
        n = 1
        while n <= 1024:
            _, _, gap = riemann_check(fn, x, n)
            assert gap >= -1e-12
            if previous is not None:
                assert gap <= previous + 1e-12
            previous = gap
            n *= 2


def test_riemann_check_rejects_bad_arguments():
    fn = LatencyFunction((1.0,))
    with pytest.raises(ValueError):
        riemann_check(fn, -1.0, 4)
    with pytest.raises(ValueError):
        riemann_check(fn, 1.0, 0)


def test_riemann_check_agrees_with_batch_edge_cost(pigou, mono):
    # Same formula, independent polynomial code path.
    for game, flow in [
        (pigou, Flow({("t1", 0): 0.25, ("t1", 1): 0.75})),
        (mono, Flow({("t1", 0): 1.0})),
    ]:
        for count in (1, 3, 10, 64):
            report = batch_social_cost(game, flow, BatchSystem.uniform(game, count))
            for edge in game.edges:
                row = report.per_edge[edge.id]
                right_sum, integral, gap = riemann_check(edge.latency.marginal(), row.load, count)
                base = edge.latency(row.load) * row.load
                assert row.batch_cost == pytest.approx(right_sum, rel=1e-12, abs=1e-15)
                assert integral == pytest.approx(base, rel=1e-12, abs=1e-15)
                assert row.batch_cost - base == pytest.approx(gap, rel=1e-9, abs=1e-12)


def test_grid_search_pigou_original(pigou):
    flow = grid_search_equilibrium(pigou, 1e-3, "original")
    assert flow.amounts[("t1", 0)] == 0.0
    assert flow.amounts[("t1", 1)] == 1.0


def test_grid_search_pigou_marginal(pigou):
    flow = grid_search_equilibrium(pigou, 1e-3, "marginal")
    assert flow.amounts[("t1", 0)] == pytest.approx(0.5, abs=1e-12)
    assert social_cost(pigou, flow) == pytest.approx(0.75, abs=1e-9)


def test_grid_search_single_strategy(mono):
    flow = grid_search_equilibrium(mono, 1e-2, "original")
    assert flow.amounts == {("t1", 0): 1.0}


def test_grid_search_twotype_confirms_costs(twotype):
    selfish = grid_search_equilibrium(twotype, 1e-3, "original")
    optimal = grid_search_equilibrium(twotype, 1e-3, "marginal")
    assert social_cost(twotype, selfish) == pytest.approx(1.0, abs=5e-3)
    assert social_cost(twotype, optimal) == pytest.approx(0.75, abs=5e-3)


def test_grid_search_matches_solver_on_fixtures(pigou, mono, twotype):
    for game in (pigou, mono, twotype):
        for mode in ("original", "marginal"):
            brute = grid_search_equilibrium(game, 1e-3, mode)
            fast = solve(game, mode)
            assert social_cost(game, brute) == pytest.approx(
                fast.social_cost_original, abs=5e-3
            )


def test_grid_search_zero_demand_type():
    game = Game(
        edges=(Edge("e1", LatencyFunction((1.0,))),),
        player_types=(PlayerType("t1", 0.0, (frozenset({"e1"}),)),),
    )
    flow = grid_search_equilibrium(game, 1e-2, "original")
    assert flow.amounts == {("t1", 0): 0.0}


def test_grid_search_rejects_too_many_strategies():
    edges = tuple(Edge(f"e{k}", LatencyFunction((1.0,))) for k in range(5))
    game = Game(
        edges=edges,
        player_types=(
            PlayerType("t1", 1.0, tuple(frozenset({f"e{k}"}) for k in range(5))),
        ),
    )
    with pytest.raises(ValueError, match="at most 4"):
        grid_search_equilibrium(game, 0.5, "original")


def test_grid_search_rejects_oversized_grid():
    edges = tuple(Edge(f"e{k}", LatencyFunction((1.0,))) for k in range(4))
    game = Game(
        edges=edges,
        player_types=(
            PlayerType("t1", 1.0, tuple(frozenset({f"e{k}"}) for k in range(4))),
        ),
    )
    with pytest.raises(ValueError, match="points"):
        grid_search_equilibrium(game, 1e-3, "original")


def test_grid_search_rejects_bad_resolution(pigou):
    for resolution in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="resolution"):
            grid_search_equilibrium(pigou, resolution, "original")
    with pytest.raises(ValueError, match="mode"):
        grid_search_equilibrium(pigou, 0.5, "nope")


def test_exhaustive_agrees_with_verifier_on_fixture(pigou):
    optimum = Flow({("t1", 0): 0.5, ("t1", 1): 0.5})
    system = BatchSystem({"e1": 1, "e2": 10})
    assert exhaustive_batch_verify(pigou, optimum, system)
    assert verify_batch_equilibrium(pigou, optimum, system).is_equilibrium

    selfish = Flow({("t1", 0): 0.0, ("t1", 1): 1.0})
    assert not exhaustive_batch_verify(pigou, selfish, BatchSystem.uniform(pigou, 1))
    assert not verify_batch_equilibrium(
        pigou, selfish, BatchSystem.uniform(pigou, 1)
    ).is_equilibrium


def test_exhaustive_agrees_with_verifier_on_random_small_games():
    rng = np.random.default_rng(22)
    for _ in range(40):
        game = random_game(rng, max_edges=3, max_types=2)
        # One flow that should verify (the optimum) and one that mostly
        # should not; the two checkers must agree either way.
        flows = [solve(game, "marginal").flow, random_feasible_flow(game, rng)]
        system = BatchSystem({e.id: int(rng.integers(1, 4)) for e in game.edges})
        for flow in flows:
            verdict = verify_batch_equilibrium(game, flow, system).is_equilibrium
            assert exhaustive_batch_verify(game, flow, system) == verdict


def test_exhaustive_rejects_oversized_enumeration():
    edges = tuple(Edge(f"e{k}", LatencyFunction((0.0, 1.0))) for k in range(3))
    game = Game(
        edges=edges,
        player_types=(
            PlayerType("t1", 1.0, (frozenset({"e0", "e1", "e2"}),)),
        ),
    )
    flow = Flow({("t1", 0): 1.0})
    system = BatchSystem({e.id: 101 for e in game.edges})
    with pytest.raises(ValueError, match="batch assignments"):
        exhaustive_batch_verify(game, flow, system)
