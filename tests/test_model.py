import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import wardrop
from helpers import loads_by_edge, random_feasible_flow, random_game, reference_is_feasible
from wardrop import (
    BatchSystem,
    Edge,
    Flow,
    Game,
    LatencyFunction,
    PlayerType,
    batch_social_cost,
    batch_sweep,
    is_feasible,
    model,
    player_cost,
    potential,
    select_batch_system,
    social_cost,
    solve,
    validate_game,
    wardrop_gap,
)
from wardrop.model import _horner
from wardrop.oracle import exhaustive_batch_verify


def pigou_variant(coeffs_e1=(1.0,), coeffs_e2=(0.0, 1.0), demand=1.0):
    return Game(
        edges=(
            Edge("e1", LatencyFunction(coeffs_e1)),
            Edge("e2", LatencyFunction(coeffs_e2)),
        ),
        player_types=(
            PlayerType("t1", demand, (frozenset({"e1"}), frozenset({"e2"}))),
        ),
    )


def test_validate_clean_fixture(pigou):
    assert validate_game(pigou) == []


def test_validate_negative_coefficient():
    game = pigou_variant(coeffs_e1=(1.0, -0.5))
    report = validate_game(game)
    assert len(report) == 1
    assert report[0].path == "edges[0].latency.coeffs[1]"
    assert "negative coefficient" in report[0].message


def test_validate_non_finite_values():
    nan, inf = float("nan"), float("inf")
    report = validate_game(pigou_variant(coeffs_e1=(nan,), coeffs_e2=(0.0, -inf), demand=inf))
    assert [(v.path, v.message) for v in report] == [
        ("edges[0].latency.coeffs[0]", "non-finite coefficient nan"),
        ("edges[1].latency.coeffs[1]", "non-finite coefficient -inf"),
        ("player_types[0].demand", "non-finite demand inf"),
    ]
    assert any("non-finite demand nan" in v.message for v in validate_game(pigou_variant(demand=nan)))


def test_validate_empty_coefficients():
    report = validate_game(pigou_variant(coeffs_e1=()))
    assert any("empty coefficient list" in v.message for v in report)


def test_validate_degree_cap():
    ok = pigou_variant(coeffs_e2=(0.0,) * 16 + (1.0,))  # degree 16
    assert validate_game(ok) == []
    over = pigou_variant(coeffs_e2=(0.0,) * 17 + (1.0,))  # degree 17
    assert any("exceeds maximum 16" in v.message for v in validate_game(over))


def unknown_edge_game():
    """One type whose only strategy runs over the missing edge e9."""
    return Game(
        edges=(Edge("e1", LatencyFunction((1.0,))),),
        player_types=(PlayerType("t1", 1.0, (frozenset({"e9"}),)),),
    )


def test_validate_unknown_edge():
    report = validate_game(unknown_edge_game())
    assert any("unknown edge id 'e9'" in v.message for v in report)
    assert any(v.path == "player_types[0].strategies[0]" for v in report)


UNKNOWN_EDGE_CALLERS = {
    "social_cost": social_cost,
    "wardrop_gap": lambda g, f: wardrop_gap(g, f, "original"),
    "potential": lambda g, f: potential(g, f, "original"),
    "player_cost": lambda g, f: player_cost(g, f, "t1"),
}


@pytest.mark.parametrize("caller", sorted(UNKNOWN_EDGE_CALLERS))
def test_evaluators_reject_a_strategy_on_an_unknown_edge(caller):
    # No vector view can be built, so the evaluator reports the game's
    # defect rather than a bare KeyError.
    with pytest.raises(model.GameValidationError, match=r"player_types\[0\]\.strategies\[0\]"):
        UNKNOWN_EDGE_CALLERS[caller](unknown_edge_game(), Flow({("t1", 0): 1.0}))


def test_is_feasible_is_false_on_a_strategy_on_an_unknown_edge():
    assert not is_feasible(unknown_edge_game(), Flow({("t1", 0): 1.0}))


def test_validate_duplicate_edge_ids():
    game = Game(
        edges=(Edge("e1", LatencyFunction((1.0,))), Edge("e1", LatencyFunction((2.0,)))),
        player_types=(),
    )
    assert any("duplicate edge id" in v.message for v in validate_game(game))


def test_validate_duplicate_type_ids():
    game = Game(
        edges=(Edge("e1", LatencyFunction((1.0,))),),
        player_types=(
            PlayerType("t1", 0.5, (frozenset({"e1"}),)),
            PlayerType("t1", 0.5, (frozenset({"e1"}),)),
        ),
    )
    assert any("duplicate player type id" in v.message for v in validate_game(game))


def test_validate_negative_demand():
    report = validate_game(pigou_variant(demand=-1.0))
    assert any("negative demand" in v.message for v in report)


def test_validate_empty_strategy():
    game = Game(
        edges=(Edge("e1", LatencyFunction((1.0,))),),
        player_types=(PlayerType("t1", 1.0, (frozenset(),)),),
    )
    assert any("empty strategy" in v.message for v in validate_game(game))


def test_validate_demand_without_strategies():
    game = Game(
        edges=(Edge("e1", LatencyFunction((1.0,))),),
        player_types=(PlayerType("t1", 1.0, ()),),
    )
    assert any("no strategies for positive demand" in v.message for v in validate_game(game))


def test_validate_reports_every_violation():
    game = Game(
        edges=(Edge("e1", LatencyFunction((-1.0,))), Edge("e1", LatencyFunction(()))),
        player_types=(PlayerType("t1", -2.0, ()),),
    )
    messages = [v.message for v in validate_game(game)]
    assert len(messages) >= 4  # negative coeff, empty coeffs, dup id, negative demand


def test_duplicate_strategies_collapse():
    ptype = PlayerType(
        "t1", 1.0, (frozenset({"e1"}), frozenset({"e1"}), frozenset({"e2"}))
    )
    assert ptype.strategies == (frozenset({"e1"}), frozenset({"e2"}))
    assert ptype.multiplicities == (2, 1)


def test_duplicate_strategies_are_inert(pigou):
    doubled = Game(
        edges=pigou.edges,
        player_types=(
            PlayerType("t1", 1.0, (frozenset({"e1"}), frozenset({"e1"}), frozenset({"e2"}))),
        ),
    )
    flow = Flow({("t1", 0): 0.25, ("t1", 1): 0.75})
    assert loads_by_edge(doubled, flow) == loads_by_edge(pigou, flow)
    assert social_cost(doubled, flow) == social_cost(pigou, flow)


def test_edge_loads_pigou(pigou):
    view = pigou._arrays
    f = view.flow_vector(Flow({("t1", 0): 0.25, ("t1", 1): 0.75}))
    assert view.loads(f).tolist() == [0.25, 0.75]


def test_edge_loads_shared_edge(twotype):
    view = twotype._arrays
    f = view.flow_vector(Flow({("t1", 0): 0.5, ("t2", 0): 0.5}))
    assert view.loads(f).tolist() == [1.0, 0.0]


def test_cold_start_is_the_all_or_nothing_flow_at_zero_loads_in_both_modes():
    rng = np.random.default_rng(15)
    for _ in range(200):
        view = random_game(rng)._arrays
        zero = np.zeros(view.incidence.shape[1])
        for mode in ("original", "marginal"):
            start = view.all_or_nothing(view.strategy_costs(zero, mode))
            assert start.tobytes() == view.cold_start.tobytes()
        assert view.cold_start is view.cold_start
        with pytest.raises(ValueError, match="read-only"):
            view.cold_start[0] = 1.0


def test_edge_loads_unknown_type(pigou):
    with pytest.raises(ValueError, match="^infeasible flow$"):
        pigou._arrays.flow_vector(Flow({("nope", 0): 1.0}))


def test_unknown_edge_id_is_a_value_error(pigou):
    with pytest.raises(ValueError, match="^unknown edge id 'nope'$"):
        pigou.edge("nope")


def test_edge_loads_bad_strategy_index(pigou):
    with pytest.raises(ValueError, match="^infeasible flow$"):
        pigou._arrays.flow_vector(Flow({("t1", 2): 1.0}))


def test_edge_loads_invariant_under_strategy_permutation(pigou):
    reordered = Game(
        edges=pigou.edges,
        player_types=(PlayerType("t1", 1.0, (frozenset({"e2"}), frozenset({"e1"}))),),
    )
    loads = loads_by_edge(pigou, Flow({("t1", 0): 0.25, ("t1", 1): 0.75}))
    swapped = loads_by_edge(reordered, Flow({("t1", 0): 0.75, ("t1", 1): 0.25}))
    for edge_id in ("e1", "e2"):
        assert loads[edge_id] == pytest.approx(swapped[edge_id], rel=1e-12)


def test_is_feasible_accepts_exact_split(pigou):
    assert is_feasible(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5}))


def test_is_feasible_rejects_negative_amount(pigou):
    assert not is_feasible(pigou, Flow({("t1", 0): -0.1, ("t1", 1): 1.1}))


def test_is_feasible_rejects_wrong_total(pigou):
    assert not is_feasible(pigou, Flow({("t1", 0): 0.5}))


def test_is_feasible_tolerance_is_absolute(pigou):
    assert is_feasible(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5 + 5e-10}))
    assert not is_feasible(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5 + 5e-9}))


def test_is_feasible_rejects_unknown_reference(pigou):
    assert not is_feasible(pigou, Flow({("t1", 0): 1.0, ("zz", 0): 0.0}))


@pytest.mark.parametrize("index", [1.7, 1.0, True, "1", None])
def test_flow_rejects_non_integer_strategy_index(index):
    message = r"flow key \('t1', .*\): strategy index must be an integer"
    with pytest.raises(ValueError, match=message):
        Flow({("t1", index): 1.0})


def test_flow_accepts_numpy_integer_index():
    flow = Flow({("t1", np.int64(1)): 1.0})
    assert flow.amounts == {("t1", 1): 1.0}
    assert type(next(iter(flow.amounts))[1]) is int


def feasibility_game(demand):
    # Two loaded types around a zero-demand type and a strategyless one.
    return Game(
        edges=(Edge("e1", LatencyFunction((1.0,))), Edge("e2", LatencyFunction((0.0, 1.0)))),
        player_types=(
            PlayerType(
                "a", demand, (frozenset({"e1"}), frozenset({"e2"}), frozenset({"e1", "e2"}))
            ),
            PlayerType("idle", 0.0, (frozenset({"e1"}), frozenset({"e2"}))),
            PlayerType("none", 0.0, ()),
            PlayerType("b", 0.3, (frozenset({"e2"}),)),
        ),
    )


@st.composite
def near_feasible_flows(draw):
    """A game and a flow: each type's demand split over its strategies,
    then perhaps nudged off demand, given a bad amount, given a key the
    game lacks, cut short, and listed in any order."""
    game = feasibility_game(draw(st.sampled_from([1.0, 2.5, 1e-12, 0.0])))
    amounts = {}
    for ptype in game.player_types:
        n = len(ptype.strategies)
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        total = sum(weights)
        for s, w in enumerate(weights):
            amounts[(ptype.id, s)] = w / total * ptype.demand if total > 0 else 0.0
        if n and total == 0:
            amounts[(ptype.id, 0)] = ptype.demand
    keys = sorted(amounts)
    nudge = draw(st.sampled_from([0.0, 5e-10, -5e-10, 5e-9, -5e-9]))
    amounts[draw(st.sampled_from(keys))] += nudge
    if draw(st.booleans()):
        bad = draw(st.sampled_from([-0.0, -1e-300, -0.5, math.nan, math.inf, -math.inf]))
        amounts[draw(st.sampled_from(keys))] = bad
    if draw(st.booleans()):
        stray = draw(st.sampled_from([("zz", 0), ("a", 3), ("a", -1), ("none", 0), ("b", 1)]))
        amounts[stray] = draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):
        del amounts[draw(st.sampled_from(keys))]
    return game, Flow(dict(draw(st.permutations(list(amounts.items())))))


@given(case=near_feasible_flows())
def test_is_feasible_matches_dict_loop(case):
    game, flow = case
    assert is_feasible(game, flow) == reference_is_feasible(game, flow)


BAD_FLOWS = {
    "negative": Flow({("t1", 0): -0.1, ("t1", 1): 1.1}),
    "nan": Flow({("t1", 0): math.nan, ("t1", 1): 1.0}),
    "inf": Flow({("t1", 0): math.inf}),
    "-inf": Flow({("t1", 0): -math.inf, ("t1", 1): 1.0}),
    "short": Flow({("t1", 0): 0.5}),
    "over": Flow({("t1", 0): 0.5, ("t1", 1): 0.5 + 5e-9}),
    "unknown type": Flow({("t1", 0): 1.0, ("zz", 0): 0.0}),
    "index out of range": Flow({("t1", 0): 1.0, ("t1", 2): 0.0}),
    "negative index": Flow({("t1", 0): 1.0, ("t1", -1): 0.0}),
}

FLOW_CALLERS = {
    "social_cost": (social_cost, "infeasible flow"),
    "player_cost": (lambda g, f: player_cost(g, f, "t1"), "infeasible flow"),
    "potential": (lambda g, f: potential(g, f, "original"), "infeasible flow"),
    "wardrop_gap": (lambda g, f: wardrop_gap(g, f, "original"), "infeasible flow"),
    "solve": (lambda g, f: solve(g, "marginal", initial_flow=f), "initial flow is infeasible"),
    "batch_social_cost": (
        lambda g, f: batch_social_cost(g, f, BatchSystem.uniform(g, 2)), "infeasible flow"
    ),
    "batch_sweep": (lambda g, f: batch_sweep(g, f, [1, 2]), "infeasible flow"),
    "select_batch_system": (lambda g, f: select_batch_system(g, f, 0.01), "infeasible flow"),
    "exhaustive_batch_verify": (
        lambda g, f: exhaustive_batch_verify(g, f, BatchSystem.uniform(g, 1)), "infeasible flow"
    ),
}


@pytest.mark.parametrize("kind", sorted(BAD_FLOWS))
@pytest.mark.parametrize("caller", sorted(FLOW_CALLERS))
def test_callers_reject_infeasible_flows(pigou, caller, kind):
    call, message = FLOW_CALLERS[caller]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(pigou, BAD_FLOWS[kind])


def test_public_names_resolve():
    assert [name for name in wardrop.__all__ if not hasattr(wardrop, name)] == []
    namespace: dict = {}
    exec("from wardrop import *", namespace)
    assert set(wardrop.__all__) <= set(namespace)


def test_social_cost_pigou(pigou):
    assert social_cost(pigou, Flow({("t1", 0): 0.0, ("t1", 1): 1.0})) == 1.0
    assert social_cost(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5})) == 0.75


def test_social_cost_mono(mono):
    assert social_cost(mono, Flow({("t1", 0): 1.0})) == 1.0


def test_social_cost_rejects_infeasible(pigou):
    with pytest.raises(ValueError, match="infeasible"):
        social_cost(pigou, Flow({("t1", 0): 0.1}))


def test_player_cost_twotype(twotype):
    flow = Flow({("t1", 0): 0.5, ("t2", 0): 0.5})
    assert player_cost(twotype, flow, "t1") == 0.5
    assert player_cost(twotype, flow, "t2") == 0.5


def test_player_cost_unknown_type(twotype):
    with pytest.raises(ValueError, match="unknown player type"):
        player_cost(twotype, Flow({("t1", 0): 0.5, ("t2", 0): 0.5}), "t9")


def test_player_costs_sum_to_social_cost():
    rng = np.random.default_rng(12)
    for _ in range(50):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        total = social_cost(game, flow)
        parts = sum(player_cost(game, flow, t.id) for t in game.player_types)
        assert parts == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_evaluators_match_independent_polynomial_path():
    # social_cost, potential and the view's loads share one vector view;
    # rebuild each from a local incidence and numpy's polynomial routines.
    rng = np.random.default_rng(13)
    for _ in range(40):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        rows = [
            (t.id, s, strategy) for t in game.player_types for s, strategy in enumerate(t.strategies)
        ]
        incidence = np.array(
            [[1.0 if e.id in strategy else 0.0 for e in game.edges] for _, _, strategy in rows]
        )
        loads = np.array([flow.amount(t, s) for t, s, _ in rows]) @ incidence
        latencies = [np.array(e.latency.coeffs[::-1]) for e in game.edges]
        marginals = [np.polyadd(p, np.polymul(np.polyder(p), [1.0, 0.0])) for p in latencies]

        assert list(loads_by_edge(game, flow).values()) == pytest.approx(
            list(loads), rel=1e-12
        )
        cost = sum(np.polyval(p, x) * x for p, x in zip(latencies, loads))
        assert social_cost(game, flow) == pytest.approx(cost, rel=1e-12)
        for mode, polys in (("original", latencies), ("marginal", marginals)):
            integral = sum(np.polyval(np.polyint(p), x) for p, x in zip(polys, loads))
            assert potential(game, flow, mode) == pytest.approx(integral, rel=1e-12)


def test_potential_change_matches_polynomial_difference():
    rng = np.random.default_rng(14)
    for _ in range(40):
        game = random_game(rng)
        view = game._arrays
        x = rng.uniform(0.0, 2.0, len(game.edges))
        dx = rng.uniform(0.0, 2.0, len(game.edges)) - x
        latencies = [np.array(e.latency.coeffs[::-1]) for e in game.edges]
        marginals = [np.polyadd(p, np.polymul(np.polyder(p), [1.0, 0.0])) for p in latencies]
        for mode, polys in (("original", latencies), ("marginal", marginals)):
            integrals = [np.polyint(p) for p in polys]
            exact = sum(
                np.polyval(p, a + d) - np.polyval(p, a) for p, a, d in zip(integrals, x, dx)
            )
            quotient = _horner(view.banks[mode], x)[2:]
            change = view.potential_change(x, dx, quotient)
            assert change == pytest.approx(exact, rel=1e-12, abs=1e-12)
            assert view.potential_change(x, np.zeros_like(x), quotient) == 0.0


def view_potential(view, x):
    """The original-mode potential at loads x, as solver.potential sums it."""
    return float(x @ _horner(view.banks["original"], x)[2])


def test_potential_change_keeps_the_sign_below_rounding(pigou):
    # Moving 1e-20 from the constant road to the linear one at loads 1/2
    # changes the potential by -1e-20 + 1e-20 / 2, far below the rounding
    # of the potential itself.
    view = pigou._arrays
    x = np.array([0.5, 0.5])
    dx = np.array([-1e-20, 1e-20])
    assert view_potential(view, x + dx) - view_potential(view, x) == 0.0
    quotient = _horner(view.banks["original"], x)[2:]
    assert view.potential_change(x, dx, quotient) == pytest.approx(-5e-21, rel=1e-12)


# Loads at which the sweep is pinned: zero, subnormals, large, and any.
SWEEP_LOADS = st.sampled_from([0.0, 5e-324, 1e-310, 1e3]) | st.floats(0.0, 1e3)


@st.composite
def sweep_cases(draw):
    """A game of 1-6 edges with latencies of degree 0-16, and loads x
    and y on its edges."""
    degrees = draw(st.lists(st.integers(0, wardrop.latency.MAX_DEGREE), min_size=1, max_size=6))
    edges = tuple(
        Edge(f"e{k}", LatencyFunction(draw(st.lists(st.floats(0.0, 1e3), min_size=d + 1,
                                                     max_size=d + 1))))
        for k, d in enumerate(degrees)
    )
    game = Game(edges, (PlayerType("t", 1.0, (frozenset(e.id for e in edges),)),))
    loads = st.lists(SWEEP_LOADS, min_size=len(edges), max_size=len(edges))
    return game, np.array(draw(loads)), np.array(draw(loads))


def quotient_by_columns(bank, x):
    """Horner's partial sums of an (edges, width) bank at x, built one
    column at a time: the reference for the stacked sweep's quotient."""
    quotient = np.empty_like(bank)
    acc = np.zeros(len(x))
    for j in range(bank.shape[1] - 1, -1, -1):
        acc = acc * x + bank[:, j]
        quotient[:, j] = acc
    return quotient


def value_by_columns(bank, x):
    """The value of an (edges, width) bank at x, as a contiguous row."""
    return quotient_by_columns(bank, x)[:, 0].copy()


def width_case(width):
    """A game of three edges of degrees width - 1, 0 and (width - 1) // 2,
    so that its banks have exactly width coefficients, with loads x and y
    that take zero, a subnormal and 1e3 between them."""
    rng = np.random.default_rng(width)
    edges = tuple(
        Edge(f"e{k}", LatencyFunction(tuple(rng.uniform(0.0, 1e3, d + 1).tolist())))
        for k, d in enumerate((width - 1, 0, (width - 1) // 2))
    )
    game = Game(edges, (PlayerType("t", 1.0, (frozenset(e.id for e in edges),)),))
    return game, np.array([1e3, 0.0, 0.7]), np.array([5e-324, 2.5, 1e3])


def at_every_width(test):
    """test with an explicit example at each bank width, 1 (constant
    latencies only) to MAX_DEGREE + 1."""
    for width in range(1, wardrop.latency.MAX_DEGREE + 2):
        test = example(case=width_case(width))(test)
    return test


@at_every_width
@given(case=sweep_cases())
def test_sweep_rows_equal_their_own_banks_bit_for_bit(case):
    game, x, y = case
    view = game._arrays
    dx = y - x
    width = max(len(e.latency.coeffs) for e in game.edges)
    original = np.zeros((len(game.edges), width))
    for k, e in enumerate(game.edges):
        original[k, : len(e.latency.coeffs)] = e.latency.coeffs
    powers = np.arange(1.0, width + 1.0)
    for mode, latency in (("original", original), ("marginal", original * powers)):
        derivative = np.zeros_like(latency)
        derivative[:, :-1] = latency[:, 1:] * powers[:-1]
        integral = latency / powers
        # The integral shifted down k powers, zeros at the top.
        shifted = [np.pad(integral[:, k:], ((0, 0), (0, k))) for k in range(width)]
        values = _horner(view.banks[mode], x)
        assert len(values) == 2 + width
        for row, bank in zip(values, (latency, derivative, *shifted)):
            assert row.flags.c_contiguous
            assert row.tobytes() == value_by_columns(bank, x).tobytes()
        quotient = quotient_by_columns(integral, x)
        assert values[2:].T.tobytes() == quotient.tobytes()
        by_columns = float(dx @ value_by_columns(quotient, x + dx))
        change = view.potential_change(x, dx, values[2:])
        assert change.hex() == by_columns.hex()


def test_validate_game_checks_once_and_returns_a_new_list(monkeypatch):
    calls = []
    check = model._check_game
    monkeypatch.setattr(model, "_check_game", lambda game: calls.append(game) or check(game))
    game = pigou_variant(demand=-1.0)
    first = validate_game(game)
    first.clear()
    second = validate_game(game)
    assert len(second) == 1 and "negative demand" in second[0].message
    assert second is not validate_game(game)
    assert calls == [game]


def test_view_arrays_are_read_only(pigou):
    view = pigou._arrays
    with pytest.raises(ValueError, match="read-only"):
        view.incidence[0, 0] = 2.0
    # Every array attribute, including the per-mode banks kept in dicts.
    values = []
    for value in vars(view).values():
        values += value.values() if isinstance(value, dict) else [value]
    arrays = [value for value in values if isinstance(value, np.ndarray)]
    assert len(arrays) >= 8
    assert not any(array.flags.writeable for array in arrays)
