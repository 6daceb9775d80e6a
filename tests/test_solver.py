import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    hard_game,
    large_game,
    last_strategy_flow,
    loads_by_edge,
    random_feasible_flow,
    random_game,
)
from wardrop import (
    ConvergenceError,
    Edge,
    Flow,
    Game,
    GameValidationError,
    LatencyFunction,
    PlayerType,
    SolverParams,
    player_cost,
    potential,
    price_of_anarchy,
    social_cost,
    solve,
    solver,
    wardrop_gap,
)
from wardrop.formats import load_game
from wardrop.model import VERIFY_TOL, _horner, is_feasible
from wardrop.oracle import grid_search_equilibrium
from wardrop.solver import HESSIAN_SHIFT, MODES, _directions, _newton_step

DATA = Path(__file__).resolve().parent / "data"


def view_loads(game, flow):
    view = game._arrays
    return view.loads(view.flow_vector(flow))


def best_response_flow(game, flow, mode):
    """All-or-nothing flow against the loads of `flow`, as the solver
    builds it from the game's vector view."""
    view = game._arrays
    return view.to_flow(view.all_or_nothing(view.strategy_costs(view_loads(game, flow), mode)))


def assert_same_edge_costs(game, first, second):
    """Edge costs are unique at an equilibrium, whatever the start."""
    loads_a = loads_by_edge(game, first.flow)
    loads_b = loads_by_edge(game, second.flow)
    for e in game.edges:
        cost_a = e.latency(loads_a[e.id]) * loads_a[e.id]
        cost_b = e.latency(loads_b[e.id]) * loads_b[e.id]
        assert abs(cost_a - cost_b) <= 1e-6


def newton_step(game, flow, mode):
    """One projected Newton step of the solver from `flow`."""
    view = game._arrays
    f = view.flow_vector(flow)
    x = view.loads(f)
    sweep = _horner(view.banks[mode], x)
    return view.to_flow(_newton_step(view, f, x, view.strategy_costs(x, mode), sweep))


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(max_iterations=0)
    for value in (2.5, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverParams(max_iterations=value)
    with pytest.raises(ValueError):
        SolverParams(relative_gap_tol=0.0)


def test_solver_params_reject_non_finite_tolerances():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverParams(relative_gap_tol=value)


def test_strategy_latency_twotype(twotype):
    view = twotype._arrays
    x = view_loads(twotype, Flow({("t1", 0): 0.5, ("t2", 0): 0.5}))
    original = view.strategy_costs(x, "original")
    marginal = view.strategy_costs(x, "marginal")
    assert original[view.row_index[("t1", 0)]] == 1.0
    assert original[view.row_index[("t1", 1)]] == 1.0
    assert marginal[view.row_index[("t1", 0)]] == 2.0


def test_best_response_at_zero_loads(pigou):
    flow = best_response_flow(pigou, Flow({}), "original")
    assert flow.amounts == {("t1", 0): 0.0, ("t1", 1): 1.0}


def test_best_response_tie_breaks_low_index(pigou):
    flow = best_response_flow(pigou, Flow({("t1", 0): 0.0, ("t1", 1): 1.0}), "original")
    assert flow.amounts == {("t1", 0): 1.0, ("t1", 1): 0.0}


def test_best_response_single_strategy(mono):
    flow = best_response_flow(mono, Flow({}), "marginal")
    assert flow.amounts == {("t1", 0): 1.0}


def test_best_response_rejects_demand_without_strategies():
    # The all-or-nothing flow has no row for such a type's demand, so
    # solve rejects the game before it builds one.
    game = Game(
        edges=(Edge("e1", LatencyFunction((1.0,))),),
        player_types=(PlayerType("t1", 1.0, ()),),
    )
    with pytest.raises(GameValidationError) as info:
        solve(game, "original")
    assert [v.path for v in info.value.report] == ["player_types[0].strategies"]
    assert "no strategies for positive demand" in str(info.value)


def test_line_search_boundary(pigou):
    all_e1 = Flow({("t1", 0): 1.0, ("t1", 1): 0.0})
    all_e2 = Flow({("t1", 0): 0.0, ("t1", 1): 1.0})
    # Potential (1 - g) + g^2 / 2 decreases over the whole interval.
    assert newton_step(pigou, all_e1, "original").amounts == all_e2.amounts


def test_line_search_interior(pigou):
    all_e1 = Flow({("t1", 0): 1.0, ("t1", 1): 0.0})
    all_e2 = Flow({("t1", 0): 0.0, ("t1", 1): 1.0})
    # Marginal potential g + (1 - g)^2 has its minimum at g = 1/2.
    stepped = newton_step(pigou, all_e2, "marginal")
    assert stepped.amount("t1", 0) == pytest.approx(0.5, abs=1e-9)
    assert stepped.amount("t1", 1) == pytest.approx(0.5, abs=1e-9)


def test_line_search_identical_flows(pigou):
    # The equilibrium of each mode is a fixed point of its step.
    selfish = Flow({("t1", 0): 0.0, ("t1", 1): 1.0})
    optimum = Flow({("t1", 0): 0.5, ("t1", 1): 0.5})
    assert newton_step(pigou, selfish, "original").amounts == selfish.amounts
    assert newton_step(pigou, optimum, "marginal").amounts == optimum.amounts


def test_potential_values(pigou):
    flow = Flow({("t1", 0): 0.0, ("t1", 1): 1.0})
    assert potential(pigou, flow, "original") == 0.5
    assert potential(pigou, flow, "marginal") == 1.0


def test_marginal_potential_equals_social_cost():
    rng = np.random.default_rng(31)
    for _ in range(30):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        assert potential(game, flow, "marginal") == pytest.approx(
            social_cost(game, flow), rel=1e-12, abs=1e-12
        )


def test_solve_pigou_equilibrium(pigou):
    result = solve(pigou, "original")
    assert result.flow.amount("t1", 1) == pytest.approx(1.0, abs=1e-9)
    assert result.social_cost_original == pytest.approx(1.0, abs=1e-9)
    assert result.potential_value == pytest.approx(0.5, abs=1e-9)
    assert result.relative_gap <= 1e-9
    assert result.equilibrium_violation <= 1e-6


def test_solve_pigou_optimum(pigou):
    result = solve(pigou, "marginal")
    assert result.flow.amount("t1", 0) == pytest.approx(0.5, abs=1e-9)
    assert result.flow.amount("t1", 1) == pytest.approx(0.5, abs=1e-9)
    assert result.social_cost_original == pytest.approx(0.75, abs=1e-9)


def test_solve_twotype_both_modes(twotype):
    selfish = solve(twotype, "original")
    assert selfish.social_cost_original == pytest.approx(1.0, abs=1e-9)
    assert player_cost(twotype, selfish.flow, "t1") == pytest.approx(0.5, abs=1e-9)
    optimal = solve(twotype, "marginal")
    assert optimal.social_cost_original == pytest.approx(0.75, abs=1e-9)


def test_solve_accepts_initial_flow(pigou):
    result = solve(pigou, "original", initial_flow=last_strategy_flow(pigou))
    assert result.social_cost_original == pytest.approx(1.0, abs=1e-9)


def test_solve_starts_from_initial_flow_rather_than_the_cold_start():
    # Two roads of constant cost 1: every split is an equilibrium and an
    # optimum, so a solve returns its start unchanged.
    game = Game(
        edges=(Edge("a", LatencyFunction((1.0,))), Edge("b", LatencyFunction((1.0,)))),
        player_types=(PlayerType("t", 1.0, (frozenset({"a"}), frozenset({"b"}))),),
    )
    cold = Flow({("t", 0): 1.0, ("t", 1): 0.0})
    split = Flow({("t", 0): 0.25, ("t", 1): 0.75})
    for mode in MODES:
        assert solve(game, mode).flow == cold
        result = solve(game, mode, initial_flow=split)
        assert (result.iterations, result.flow) == (0, split)
        assert solve(game, mode).flow == cold


def test_solve_rejects_infeasible_initial_flow(pigou):
    with pytest.raises(ValueError, match="infeasible"):
        solve(pigou, "original", initial_flow=Flow({("t1", 0): 0.2}))


def test_solve_rejects_invalid_game():
    game = Game(
        edges=(Edge("e1", LatencyFunction((-1.0,))),),
        player_types=(PlayerType("t1", 1.0, (frozenset({"e1"}),)),),
    )
    with pytest.raises(GameValidationError, match="negative coefficient"):
        solve(game, "original")


def test_solve_rejects_bad_mode(pigou):
    with pytest.raises(ValueError, match="mode"):
        solve(pigou, "anything")


def test_solve_raises_on_iteration_budget():
    game = hard_game()
    assert solve(game, "original").iterations > 1
    with pytest.raises(ConvergenceError) as info:
        solve(game, "original", SolverParams(max_iterations=1))
    assert info.value.iterations == 1
    assert info.value.relative_gap > 1e-9
    assert is_feasible(game, info.value.flow)


def test_convergence_error_keeps_the_gap_history():
    game = hard_game()
    assert solve(game, "original").iterations > 2
    with pytest.raises(ConvergenceError) as info:
        solve(game, "original", SolverParams(max_iterations=2))
    error = info.value
    assert len(error.gaps) == 3
    assert error.gaps[-1] == error.relative_gap
    assert all(gap > 1e-9 and math.isfinite(gap) for gap in error.gaps)
    assert str(error) == (
        f"no convergence after 2 iterations, relative gap {error.relative_gap:.3e}"
    )


def test_solve_stops_on_non_finite_iterate():
    # x^16 at a load of 1e25 overflows: the first potential is infinite.
    game = Game(
        edges=(
            Edge("c", LatencyFunction((1.0,))),
            Edge("p", LatencyFunction((0.0,) * 16 + (1.0,))),
        ),
        player_types=(PlayerType("t", 1e25, (frozenset({"c"}), frozenset({"p"}))),),
    )
    # numpy warns of the overflow, and of the NaN that inf - inf makes.
    with pytest.warns(RuntimeWarning), pytest.raises(ConvergenceError) as info:
        solve(game, "original")
    assert info.value.iterations == 0
    assert math.isnan(info.value.relative_gap)
    assert len(info.value.gaps) == 1 and math.isnan(info.value.gaps[0])
    assert info.value.flow.amounts == {("t", 0): 0.0, ("t", 1): 1e25}


def test_solve_stops_when_a_step_cannot_move_the_flow():
    # No iterate of this game reaches a relative gap of 1e-17. Once a
    # step is too small to move any mass, every later iterate is the
    # same flow, so the solve fails there instead of using its budget.
    game = load_game(DATA / "gen_mid_seed41_game01.json")
    with pytest.raises(ConvergenceError) as info:
        solve(game, "marginal", SolverParams(relative_gap_tol=1e-17))
    error = info.value
    assert error.iterations < 100
    assert len(error.gaps) == error.iterations + 1
    assert is_feasible(game, error.flow)


def parallel_roads(demand, *latencies):
    """One type of the given demand choosing among one-edge roads."""
    edges = tuple(Edge(f"r{k}", LatencyFunction(c)) for k, c in enumerate(latencies))
    return Game(edges, (PlayerType("t", demand, tuple(frozenset({e.id}) for e in edges)),))


@pytest.mark.parametrize(
    "game,params,reason",
    [
        (hard_game(), SolverParams(max_iterations=1), "budget"),
        # At demand 1e4 an ulp of a cost exceeds VERIFY_TOL, so the stop
        # is out of reach and the steps stop moving mass.
        (
            parallel_roads(1e4, (1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 2.0), (0.5, 1.0, 0.0, 1.5)),
            SolverParams(),
            "stalled",
        ),
        # x^16 at a load of 1e20 overflows: the first potential is infinite.
        (
            parallel_roads(1e20, (0.0,) * 16 + (1.0,), (0.0,) * 16 + (1.0,)),
            SolverParams(),
            "non-finite",
        ),
    ],
    ids=["budget", "stalled", "non-finite"],
)
def test_convergence_error_names_its_reason(game, params, reason):
    for mode in MODES:
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as info:
            solve(game, mode, params)
        assert info.value.reason == reason


def test_solve_linear_game_from_split_flow():
    # Only constant latencies: the reduced Hessian vanishes, and one step
    # moves all mass onto the cheaper strategy. The drained strategy
    # blocks the step and lands on exactly zero, where rounding alone
    # would leave 1.1e-16.
    game = Game(
        edges=(Edge("c1", LatencyFunction((2.0,))), Edge("c2", LatencyFunction((1.0,)))),
        player_types=(PlayerType("t", 1.2, (frozenset({"c1"}), frozenset({"c2"}))),),
    )
    split = Flow({("t", 0): 0.9, ("t", 1): 0.3})
    result = solve(game, "original", initial_flow=split)
    assert result.iterations == 1
    assert result.flow.amount("t", 0) == 0.0
    assert result.flow.amount("t", 1) == pytest.approx(1.2, rel=1e-15)


def test_one_step_empties_several_strategies():
    # From 0.8 on the linear road and 0.15 and 0.05 on two constant roads
    # of cost 5, one step drains both constant roads onto the linear one.
    game = Game(
        edges=(
            Edge("x", LatencyFunction((0.0, 1.0))),
            Edge("c1", LatencyFunction((5.0,))),
            Edge("c2", LatencyFunction((5.0,))),
        ),
        player_types=(
            PlayerType("t", 1.0, (frozenset({"x"}), frozenset({"c1"}), frozenset({"c2"}))),
        ),
    )
    start = Flow({("t", 0): 0.8, ("t", 1): 0.15, ("t", 2): 0.05})
    stepped = newton_step(game, start, "original")
    assert stepped.amount("t", 1) == 0.0
    assert stepped.amount("t", 2) == 0.0
    assert stepped.amount("t", 0) == pytest.approx(1.0, rel=1e-15)
    assert potential(game, stepped, "original") < potential(game, start, "original")


def test_step_empties_an_eps_active_strategy_outside_the_newton_system():
    # Strategy 2 costs 5 against its basic's 0.6 and holds only 0.01, so
    # the step empties it and solves the Newton system of strategy 1
    # alone: 0.21 of cost gap over curvature 2 moves 0.105 onto it. Left
    # in the system, strategy 2's Newton component (-9.01) would bend the
    # whole step.
    game = Game(
        edges=(
            Edge("a", LatencyFunction((0.0, 1.0))),
            Edge("b", LatencyFunction((0.0, 1.0))),
            Edge("c", LatencyFunction((5.0,))),
        ),
        player_types=(
            PlayerType("t", 1.0, (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))),
        ),
    )
    start = Flow({("t", 0): 0.6, ("t", 1): 0.39, ("t", 2): 0.01})
    stepped = newton_step(game, start, "original")
    assert stepped.amount("t", 2) == 0.0
    assert stepped.amount("t", 1) == pytest.approx(0.495, rel=1e-12)
    assert stepped.amount("t", 0) == pytest.approx(0.505, rel=1e-12)


def even_split_flow(game):
    return Flow({
        (t.id, s): t.demand / len(t.strategies)
        for t in game.player_types
        for s in range(len(t.strategies))
    })


@pytest.mark.parametrize("mode", MODES)
def test_even_split_start_takes_few_more_steps(mode):
    # The arc drops every strategy the step drives negative at once, so
    # an interior start is not much slower than the all-or-nothing one.
    game = large_game(1, 100, 20, 10)
    cold = solve(game, mode)
    split = solve(game, mode, initial_flow=even_split_flow(game))
    assert split.iterations <= 3 * cold.iterations
    assert split.social_cost_original == pytest.approx(cold.social_cost_original, rel=1e-6)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_from_random_interior_flow_reaches_the_same_costs(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng)
    start = random_feasible_flow(game, rng)
    for mode in MODES:
        assert_same_edge_costs(game, solve(game, mode), solve(game, mode, initial_flow=start))


@pytest.mark.parametrize(
    "seed, mode", [(109, "original"), (18172, "marginal"), (314395, "marginal")]
)
def test_default_solve_passes_verify(seed, mode):
    # On these games the relative gap drops below its default tolerance
    # while a used strategy still costs more than 1e-6 above its type's
    # cheapest; the solve goes on until verify's check holds as well.
    game = random_game(np.random.default_rng(seed))
    assert wardrop_gap(game, solve(game, mode).flow, mode) <= VERIFY_TOL


@pytest.mark.parametrize("name", ["gen_mid_seed41_game01", "gen_mid_seed41_game11"])
@pytest.mark.parametrize("mode", MODES)
def test_generated_game_converges_to_tight_tolerance(name, mode):
    # Near the optimum the potential falls by less than its own rounding;
    # the step's Armijo test still reads the fall, so the solve reaches
    # 1e-12 instead of stalling.
    game = load_game(DATA / f"{name}.json")
    result = solve(game, mode, SolverParams(relative_gap_tol=1e-12, max_iterations=100))
    assert result.relative_gap <= 1e-12


@pytest.mark.parametrize("name", ["gen_mid_seed41_game01", "gen_mid_seed41_game11"])
@pytest.mark.parametrize("mode", MODES)
def test_generated_game_solve_is_pinned_bit_for_bit(name, mode):
    # tests/data/solver_pins.json holds the step count and the exact
    # floats (as float.hex) of these solves. A change that only makes the
    # solver faster must reproduce them to the last bit.
    pin = json.loads((DATA / "solver_pins.json").read_text())[f"{name}.{mode}"]
    game = load_game(DATA / f"{name}.json")
    result = solve(game, mode, SolverParams(relative_gap_tol=1e-12))
    assert result.iterations == pin["iterations"]
    for field in ("relative_gap", "potential_value", "social_cost_original",
                  "equilibrium_violation"):
        assert getattr(result, field).hex() == pin[field], field
    assert result.flow.amounts == {
        (type_id, index): float.fromhex(amount) for type_id, index, amount in pin["amounts"]
    }


# Solves large_game(1) in the mode argv[1] and prints what the pin
# records: the step count, the exact scalars and the sha256 of the
# amounts as "type index float.hex" lines in sorted key order.
LARGE_GAME_SOLVE = """
import hashlib, json, sys
from helpers import large_game
from wardrop import SolverParams, solve
result = solve(large_game(1), sys.argv[1], SolverParams(relative_gap_tol=1e-12))
record = {"iterations": result.iterations}
for field in ("relative_gap", "potential_value", "social_cost_original",
              "equilibrium_violation"):
    record[field] = getattr(result, field).hex()
lines = "\\n".join(f"{t} {s} {x.hex()}" for (t, s), x in sorted(result.flow.amounts.items()))
record["amounts_sha256"] = hashlib.sha256(lines.encode()).hexdigest()
print(json.dumps(record))
"""


@pytest.mark.parametrize("mode", MODES)
def test_large_game_solve_is_pinned_bit_for_bit(mode):
    # The 300/60/10 game has 600 rows. Its steps scatter many free rows
    # onto one basic row and empty eps-active rows, which the 24-row
    # gen-mid pins above seldom reach. Its 600 x 300 products are large
    # enough for a threaded BLAS to split them, which moves their last
    # bits, so the solve runs in a child process held to one BLAS thread.
    pin = json.loads((DATA / "solver_pins.json").read_text())[f"large_game1.{mode}"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    paths = [str(DATA.parents[1] / "src"), str(DATA.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", LARGE_GAME_SOLVE, mode],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == pin


@pytest.mark.parametrize("mode", MODES)
def test_each_step_solves_one_newton_system(monkeypatch, mode):
    # Every step of these solves passes Armijo's test along the Newton
    # direction, so the shifted system, tried only after the Newton arc
    # stops moving mass, is never solved.
    game = load_game(DATA / "gen_mid_seed41_game01.json")
    solves = []
    unpatched = np.linalg.solve

    def counted(a, b):
        solves.append(len(b))
        return unpatched(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    result = solve(game, mode, SolverParams(relative_gap_tol=1e-12))
    assert result.iterations == 7
    assert len(solves) == result.iterations


@pytest.mark.parametrize("mode", MODES)
def test_solve_singular_reduced_hessian(mode):
    # The constant edges e1 and e3 make the reduced Hessian singular.
    game = load_game(DATA / "singular_hessian.json")
    result = solve(game, mode, SolverParams(relative_gap_tol=1e-12))
    assert result.relative_gap <= 1e-12
    assert wardrop_gap(game, result.flow, mode) <= 1e-9


def shifted_direction(hessian, g):
    """The direction of H + tau I, tau = HESSIAN_SHIFT * max diag H."""
    shift = HESSIAN_SHIFT * hessian.diagonal().max()
    return -np.linalg.solve(hessian + shift * np.eye(len(g)), g)


def recorded_directions(monkeypatch):
    """The directions that _directions yields, as (H, g, d), from here on."""
    calls = []

    def record(hessian, g, reach):
        for d in _directions(hessian, g, reach):
            calls.append((hessian.copy(), g.copy(), d))
            yield d

    monkeypatch.setattr(solver, "_directions", record)
    return calls


def test_newton_direction_solves_a_positive_definite_hessian():
    hessian = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    g = np.array([-1.0, 0.5, -2.0])
    newton, shifted = _directions(hessian, g, np.ones(3))
    assert np.array_equal(newton, -np.linalg.solve(hessian, g))
    assert np.array_equal(shifted, shifted_direction(hessian, g))


def test_newton_direction_shifts_a_singular_hessian():
    # D repeats its first row, so H = D diag(l') D^T has rank 2 of 3, and
    # the Cholesky probe meets an exact zero pivot.
    diff = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    hessian = (diff * np.array([1.0, 3.0, 5.0])) @ diff.T
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(hessian)
    g = np.array([-1.0, -2.0, 0.5])
    [d] = _directions(hessian, g, np.ones(3))
    assert np.array_equal(d, shifted_direction(hessian, g))
    assert np.isfinite(d).all() and g @ d < 0.0


def test_newton_direction_follows_minus_g_when_the_hessian_vanishes():
    # The model is linear: -g, scaled so that its largest component, the
    # second, has the size of its entry of reach.
    g = np.array([2.0, -4.0, 1.0])
    [d] = _directions(np.zeros((3, 3)), g, np.array([1.0, 3.0, 8.0]))
    assert np.array_equal(d, [-0.5, 3.0, -2.0])
    [d] = _directions(np.zeros((2, 2)), np.zeros(2), np.ones(2))
    assert np.array_equal(d, [0, 0])


@pytest.mark.parametrize(
    "hessian",
    [[[math.nan]], [[math.inf]], [[math.inf, 0.0], [0.0, 0.0]], [[math.nan, 1.0], [1.0, 2.0]]],
)
def test_newton_direction_of_a_non_finite_hessian_raises_nothing(hessian):
    # np.linalg.solve raises on [[inf, 0], [0, 0]]: its LU has a zero pivot.
    g = -np.ones(len(hessian))
    with np.errstate(all="ignore"):
        for d in _directions(np.array(hessian), g, np.ones(len(g))):
            assert d.shape == g.shape


@pytest.mark.parametrize(
    "used,cheap,demand",
    [
        # l' of u is inf at its load 0.9.
        ((0.0, 0.0, 1.5e308), (1.0,), 0.9),
        # l' of c sums inf * 0 at load 0, and is NaN. (The coefficient
        # 2 * 1.5e308 of c's derivative overflows.)
        ((0.0, 10.0), (5.0, 0.0, 1.5e308), 1.0),
    ],
    ids=["inf", "nan"],
)
def test_step_on_a_non_finite_hessian_ends_in_convergence_error(monkeypatch, used, cheap, demand):
    game = Game(
        edges=(Edge("u", LatencyFunction(used)), Edge("c", LatencyFunction(cheap))),
        player_types=(PlayerType("t", demand, (frozenset({"u"}), frozenset({"c"}))),),
    )
    calls = recorded_directions(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as info:
        solve(game, "original")
    assert info.value.iterations == 0
    assert not np.isfinite(calls[0][0]).all()


def test_singular_hessian_steps_take_shifted_descent_directions(monkeypatch):
    # Constant edges and the repeated strategy of type t0 make the reduced
    # Hessians of this game singular.
    game = load_game(DATA / "singular_hessian.json")
    calls = recorded_directions(monkeypatch)
    for mode in MODES:
        solve(game, mode, SolverParams(relative_gap_tol=1e-12))
    shifted = 0
    for hessian, g, d in calls:
        assert np.isfinite(d).all() and g @ d < 0.0
        try:
            np.linalg.cholesky(hessian)
        except np.linalg.LinAlgError:
            shifted += 1
            assert np.array_equal(d, shifted_direction(hessian, g))
    assert shifted > 0


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
# At iterate 4 of its equilibrium, the Cholesky probe accepts a reduced
# Hessian with eigenvalues from 1.8e-15 to 21.7, and no step along the
# Newton direction lowers the potential.
@example(seed=375299)
def test_solve_random_games_converge_within_100_steps(seed):
    # random_game includes degree-0 edges, so singular Hessians are common.
    game = random_game(np.random.default_rng(seed))
    for mode in MODES:
        result = solve(game, mode, SolverParams(max_iterations=100, relative_gap_tol=1e-12))
        assert result.equilibrium_violation <= 1e-6


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_result_matches_its_flow(seed):
    # The gap is a sum of nonnegative terms, and the reported cost and
    # violation are those of the returned flow.
    game = random_game(np.random.default_rng(seed))
    for mode in MODES:
        for tol in (1e-9, 1e-12):
            result = solve(game, mode, SolverParams(relative_gap_tol=tol))
            assert result.relative_gap >= 0.0
            assert result.equilibrium_violation == wardrop_gap(game, result.flow, mode)
            assert result.social_cost_original == social_cost(game, result.flow)


def test_strategyless_and_collapsed_types():
    # Type "a" chooses between the constant road e1 and the linear road
    # e2; type "empty" has no demand and no strategies; type "dup" lists
    # the constant road e3 twice, so its strategies collapse to e3 and e2.
    game = Game(
        edges=(
            Edge("e1", LatencyFunction((1.0,))),
            Edge("e2", LatencyFunction((0.0, 1.0))),
            Edge("e3", LatencyFunction((1.2,))),
        ),
        player_types=(
            PlayerType("a", 1.0, (frozenset({"e1"}), frozenset({"e2"}))),
            PlayerType("empty", 0.0, ()),
            PlayerType("dup", 0.5, (frozenset({"e3"}), frozenset({"e2"}), frozenset({"e3"}))),
        ),
    )
    assert game.player_types[2].multiplicities == (2, 1)
    # At zero loads e2 costs nothing, so both types pick it.
    assert best_response_flow(game, Flow({}), "original").amounts == {
        ("a", 0): 0.0, ("a", 1): 1.0, ("dup", 0): 0.0, ("dup", 1): 0.5,
    }
    # Loads e1 0.5, e2 0.75, e3 0.25: "a" overpays 0.25 on e1 and "dup"
    # 1.2 - 0.75 on e3.
    split = Flow({("a", 0): 0.5, ("a", 1): 0.5, ("dup", 0): 0.25, ("dup", 1): 0.25})
    assert wardrop_gap(game, split, "original") == 1.2 - 0.75
    # Equilibrium: e2 carries load 1, all of "dup" and half of "a".
    selfish = solve(game, "original")
    assert selfish.flow.amount("a", 0) == pytest.approx(0.5, abs=1e-9)
    assert selfish.flow.amount("a", 1) == pytest.approx(0.5, abs=1e-9)
    assert selfish.flow.amount("dup", 0) == pytest.approx(0.0, abs=1e-9)
    assert selfish.flow.amount("dup", 1) == pytest.approx(0.5, abs=1e-9)
    assert selfish.social_cost_original == pytest.approx(1.5, abs=1e-9)
    # Optimum: e2's marginal cost 2 x_e2 meets e1's 1 at x_e2 = 0.5,
    # which "dup" fills alone.
    optimal = solve(game, "marginal")
    assert optimal.flow.amount("a", 0) == pytest.approx(1.0, abs=1e-9)
    assert optimal.flow.amount("dup", 1) == pytest.approx(0.5, abs=1e-9)
    assert optimal.social_cost_original == pytest.approx(1.25, abs=1e-9)
    for result, mode in ((selfish, "original"), (optimal, "marginal")):
        assert result.equilibrium_violation == wardrop_gap(game, result.flow, mode)
        assert result.equilibrium_violation <= 1e-9


def test_solve_large_game_is_fast():
    game = large_game(1)
    start = time.perf_counter()
    results = [solve(game, mode) for mode in MODES]
    elapsed = time.perf_counter() - start
    for mode, result in zip(MODES, results):
        assert wardrop_gap(game, result.flow, mode) <= 1e-6
    assert elapsed < 5.0


def test_solve_random_games_converge():
    rng = np.random.default_rng(32)
    for _ in range(20):
        game = random_game(rng)
        for mode in ("original", "marginal"):
            result = solve(game, mode)
            assert result.relative_gap <= 1e-9
            assert result.equilibrium_violation <= 1e-6
            assert result.iterations <= 10000


def test_potential_monotone_under_best_response_steps():
    rng = np.random.default_rng(33)
    for _ in range(5):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        value = potential(game, flow, "original")
        for _ in range(40):
            flow = newton_step(game, flow, "original")
            stepped = potential(game, flow, "original")
            assert stepped <= value + 1e-12
            value = stepped


def test_wardrop_gap_values(pigou):
    assert wardrop_gap(pigou, Flow({("t1", 0): 0.0, ("t1", 1): 1.0}), "original") == 0.0
    assert wardrop_gap(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5}), "original") == 0.5
    assert wardrop_gap(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5}), "marginal") == 0.0


def test_wardrop_gap_ignores_trace_mass(pigou):
    flow = Flow({("t1", 0): 1e-12, ("t1", 1): 1.0 - 1e-12})
    assert wardrop_gap(pigou, flow, "original") == 0.0


def test_wardrop_gap_is_nan_when_costs_overflow():
    # Both strategies cost x^16 = inf at a load of 5e24, and inf - inf is
    # NaN: the gap must not read as 0, which passes verify.
    steep = LatencyFunction((0.0,) * 16 + (1.0,))
    game = Game(
        edges=(Edge("p", steep), Edge("q", steep)),
        player_types=(PlayerType("t", 1e25, (frozenset({"p"}), frozenset({"q"}))),),
    )
    flow = Flow({("t", 0): 5e24, ("t", 1): 5e24})
    with np.errstate(invalid="ignore", over="ignore"):
        assert math.isnan(wardrop_gap(game, flow, "original"))


def test_wardrop_gap_rejects_infeasible(pigou):
    with pytest.raises(ValueError, match="infeasible"):
        wardrop_gap(pigou, Flow({("t1", 0): 0.2}), "original")


def test_price_of_anarchy_pigou(pigou):
    assert price_of_anarchy(pigou) == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_price_of_anarchy_mono(mono):
    assert price_of_anarchy(mono) == pytest.approx(1.0, rel=1e-12)


def test_price_of_anarchy_twotype_confirmed_by_grid(twotype):
    # Cross-check both costs against brute force before pinning the ratio.
    brute_eq = grid_search_equilibrium(twotype, 1e-3, "original")
    brute_opt = grid_search_equilibrium(twotype, 1e-3, "marginal")
    assert social_cost(twotype, brute_eq) == pytest.approx(1.0, abs=5e-3)
    assert social_cost(twotype, brute_opt) == pytest.approx(0.75, abs=5e-3)
    assert price_of_anarchy(twotype) == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_price_of_anarchy_at_least_one():
    rng = np.random.default_rng(34)
    for _ in range(15):
        game = random_game(rng)
        assert price_of_anarchy(game) >= 1.0 - 1e-9


def test_price_of_anarchy_rejects_zero_optimum():
    game = Game(
        edges=(Edge("e1", LatencyFunction((0.0,))),),
        player_types=(PlayerType("t1", 1.0, (frozenset({"e1"}),)),),
    )
    with pytest.raises(ValueError, match="undefined"):
        price_of_anarchy(game)


def test_solve_cost_agreement_across_initializations(pigou, mono, twotype):
    rng = np.random.default_rng(35)
    games = [pigou, mono, twotype] + [random_game(rng) for _ in range(10)]
    for game in games:
        for mode in ("original", "marginal"):
            first = solve(game, mode)
            second = solve(game, mode, initial_flow=last_strategy_flow(game))
            assert_same_edge_costs(game, first, second)
