import numpy as np
import pytest

from helpers import random_feasible_flow, random_game
from wardrop import (
    Edge,
    Flow,
    Game,
    LatencyFunction,
    PlayerType,
    edge_loads,
    is_feasible,
    model,
    player_cost,
    potential,
    social_cost,
    validate_game,
)


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


def test_validate_unknown_edge():
    game = Game(
        edges=(Edge("e1", LatencyFunction((1.0,))),),
        player_types=(PlayerType("t1", 1.0, (frozenset({"e9"}),)),),
    )
    report = validate_game(game)
    assert any("unknown edge id 'e9'" in v.message for v in report)
    assert any(v.path == "player_types[0].strategies[0]" for v in report)


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
    assert edge_loads(doubled, flow).total == edge_loads(pigou, flow).total
    assert social_cost(doubled, flow) == social_cost(pigou, flow)


def test_edge_loads_pigou(pigou):
    loads = edge_loads(pigou, Flow({("t1", 0): 0.25, ("t1", 1): 0.75}))
    assert loads.total == {"e1": 0.25, "e2": 0.75}
    assert loads.per_type[("e1", "t1")] == 0.25


def test_edge_loads_shared_edge(twotype):
    loads = edge_loads(twotype, Flow({("t1", 0): 0.5, ("t2", 0): 0.5}))
    assert loads.total["e1"] == 1.0
    assert loads.per_type[("e1", "t1")] == 0.5
    assert loads.per_type[("e1", "t2")] == 0.5
    assert loads.total["e2"] == 0.0


def test_edge_loads_total_is_per_type_sum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        loads = edge_loads(game, flow)
        for e in game.edges:
            parts = sum(loads.per_type[(e.id, t.id)] for t in game.player_types)
            assert loads.total[e.id] == pytest.approx(parts, rel=1e-12, abs=1e-15)


def test_edge_loads_unknown_type(pigou):
    with pytest.raises(ValueError, match="unknown player type"):
        edge_loads(pigou, Flow({("nope", 0): 1.0}))


def test_edge_loads_bad_strategy_index(pigou):
    with pytest.raises(ValueError, match="out of range"):
        edge_loads(pigou, Flow({("t1", 2): 1.0}))


def test_edge_loads_invariant_under_strategy_permutation(pigou):
    reordered = Game(
        edges=pigou.edges,
        player_types=(PlayerType("t1", 1.0, (frozenset({"e2"}), frozenset({"e1"}))),),
    )
    loads = edge_loads(pigou, Flow({("t1", 0): 0.25, ("t1", 1): 0.75}))
    swapped = edge_loads(reordered, Flow({("t1", 0): 0.75, ("t1", 1): 0.25}))
    for edge_id in ("e1", "e2"):
        assert loads.total[edge_id] == pytest.approx(swapped.total[edge_id], rel=1e-12)


def test_is_feasible_accepts_exact_split(pigou):
    assert is_feasible(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5}))


def test_is_feasible_rejects_negative_amount(pigou):
    assert not is_feasible(pigou, Flow({("t1", 0): -0.1, ("t1", 1): 1.1}))


def test_is_feasible_rejects_wrong_total(pigou):
    assert not is_feasible(pigou, Flow({("t1", 0): 0.5}))


def test_is_feasible_tolerance_is_absolute(pigou):
    assert is_feasible(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5 + 5e-10}))
    assert not is_feasible(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5 + 5e-9}))
    assert is_feasible(pigou, Flow({("t1", 0): 0.5, ("t1", 1): 0.5 + 5e-9}), 1e-8)


def test_is_feasible_rejects_unknown_reference(pigou):
    assert not is_feasible(pigou, Flow({("t1", 0): 1.0, ("zz", 0): 0.0}))


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
    # social_cost, potential and edge_loads share the game's vector view;
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

        assert list(edge_loads(game, flow).total.values()) == pytest.approx(
            list(loads), rel=1e-12
        )
        cost = sum(np.polyval(p, x) * x for p, x in zip(latencies, loads))
        assert social_cost(game, flow) == pytest.approx(cost, rel=1e-12)
        for mode, polys in (("original", latencies), ("marginal", marginals)):
            integral = sum(np.polyval(np.polyint(p), x) for p, x in zip(polys, loads))
            assert potential(game, flow, mode) == pytest.approx(integral, rel=1e-12)


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
    assert len(arrays) >= 10
    assert not any(array.flags.writeable for array in arrays)
