import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import random_feasible_flow, random_game
from wardrop import (
    BatchSystem,
    Edge,
    Flow,
    Game,
    GameValidationError,
    LatencyFunction,
    PlayerType,
    batch_social_cost,
    formats,
    model,
    solve,
)
from wardrop.formats import (
    GAME_CACHE_SIZE,
    FormatError,
    flow_to_dict,
    game_from_dict,
    game_to_dict,
    load_flow,
    load_game,
    save_batch_report_csv,
    save_flow,
    save_game,
    save_solve_result,
)
from wardrop.solver import SolveResult

OPTIMUM = Flow({("t1", 0): 0.5, ("t1", 1): 0.5})


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_load_pigou_matches_hand_built(pigou):
    expected = Game(
        edges=(
            Edge("e1", LatencyFunction((1.0,))),
            Edge("e2", LatencyFunction((0.0, 1.0))),
        ),
        player_types=(
            PlayerType("t1", 1.0, (frozenset({"e1"}), frozenset({"e2"}))),
        ),
    )
    assert pigou.edges == expected.edges
    assert pigou.player_types[0].strategies == expected.player_types[0].strategies
    assert pigou.player_types[0].demand == 1.0


def test_load_twotype_matches_hand_built(twotype):
    assert [e.id for e in twotype.edges] == ["e1", "e2"]
    assert twotype.edge("e1").latency.coeffs == (0.0, 1.0)
    assert twotype.edge("e2").latency.coeffs == (1.0,)
    t1, t2 = twotype.player_types
    assert t1.strategies == (frozenset({"e1"}), frozenset({"e2"}))
    assert t2.strategies == (frozenset({"e1"}),)
    assert t1.demand == t2.demand == 0.5


def test_game_round_trip(tmp_path):
    rng = np.random.default_rng(51)
    for k in range(10):
        game = random_game(rng)
        path = tmp_path / f"game{k}.json"
        save_game(game, path)
        loaded = load_game(path)
        assert loaded.edges == game.edges
        assert loaded.player_types == game.player_types


def test_game_round_trip_preserves_multiplicities(tmp_path):
    game = game_from_dict(
        {
            "edges": [{"id": "e1", "latency": {"coeffs": [1.0]}}],
            "player_types": [
                {"id": "t1", "demand": 1.0, "strategies": [["e1"], ["e1"]]}
            ],
        }
    )
    assert game.player_types[0].multiplicities == (2,)
    path = tmp_path / "dup.json"
    save_game(game, path)
    assert load_game(path).player_types[0].multiplicities == (2,)


def test_game_to_dict_sorts_strategy_edges():
    game = Game(
        edges=(
            Edge("a", LatencyFunction((1.0,))),
            Edge("b", LatencyFunction((1.0,))),
        ),
        player_types=(PlayerType("t1", 1.0, (frozenset({"b", "a"}),)),),
    )
    payload = game_to_dict(game)
    assert payload["player_types"][0]["strategies"] == [["a", "b"]]


def test_load_game_rejects_truncated_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"edges": [{"id": "e1", "latency": {"coeffs": [1.0')
    with pytest.raises(json.JSONDecodeError) as info:
        load_game(path)
    assert info.value.lineno == 1
    assert info.value.colno > 1


def test_load_game_rejects_missing_key(tmp_path):
    path = write_json(
        tmp_path / "nokey.json",
        {"edges": [{"id": "e1", "latency": {"coeffs": [1.0]}}]},
    )
    with pytest.raises(FormatError, match="player_types"):
        load_game(path)


def pigou_document(coeffs=(1.0,), demand=1.0, strategies=(("a",), ("b",))):
    """Pigou's game on edges "a" and "b". A tuple argument is written as
    a JSON list; anything else is written as it is."""
    def listed(value):
        return [listed(v) for v in value] if isinstance(value, tuple) else value

    return {
        "edges": [
            {"id": "a", "latency": {"coeffs": listed(coeffs)}},
            {"id": "b", "latency": {"coeffs": [0.0, 1.0]}},
        ],
        "player_types": [
            {"id": "t1", "demand": listed(demand), "strategies": listed(strategies)}
        ],
    }


def with_field(document, path, value):
    """document with the field at path, a tuple of keys and indices, set
    to value."""
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    target[last] = value
    return document


# Each of these documents used to load: "12" as the latency 1 + 2x, "ab"
# as the strategies {a} and {b} or as the strategy {a, b}, true as 1.0,
# "0.5" as 0.5, and ids or strategy members null and 7 as the strings
# 'None' and '7'; a huge integer raised an uncaught OverflowError.
@pytest.mark.parametrize(
    "document, message",
    [
        pytest.param(pigou_document(coeffs="12"),
                     "edges[0].latency.coeffs: expected a list", id="coeffs-string"),
        pytest.param(pigou_document(strategies="ab"),
                     "player_types[0].strategies: expected a list", id="strategies-string"),
        pytest.param(pigou_document(strategies=("ab",)),
                     "player_types[0].strategies[0]: expected a list", id="strategy-string"),
        pytest.param(pigou_document(coeffs=(True,)),
                     "edges[0].latency.coeffs[0]: expected a number", id="coeff-bool"),
        pytest.param(pigou_document(demand=True),
                     "player_types[0].demand: expected a number", id="demand-bool"),
        pytest.param(pigou_document(demand="0.5"),
                     "player_types[0].demand: expected a number", id="demand-string"),
        pytest.param(pigou_document(coeffs=(10**400,)),
                     "edges[0].latency.coeffs[0]: number out of float range", id="coeff-huge"),
        pytest.param(with_field(pigou_document(strategies=(("a",), (None,))),
                                ("edges", 1, "id"), None),
                     "edges[1].id: expected a string, got None", id="edge-id-null"),
        pytest.param(with_field(pigou_document(), ("edges", 0, "id"), 7),
                     "edges[0].id: expected a string, got 7", id="edge-id-int"),
        pytest.param(with_field(pigou_document(), ("player_types", 0, "id"), 7),
                     "player_types[0].id: expected a string, got 7", id="type-id-int"),
        pytest.param(with_field(pigou_document(), ("player_types", 0, "id"), None),
                     "player_types[0].id: expected a string, got None", id="type-id-null"),
        pytest.param(pigou_document(strategies=(("a",), (None,))),
                     "player_types[0].strategies[1][0]: expected a string, got None",
                     id="member-null"),
        pytest.param(pigou_document(strategies=(("a",), ("b", 7))),
                     "player_types[0].strategies[1][1]: expected a string, got 7",
                     id="member-int"),
        pytest.param(pigou_document(strategies=(("a",), (("b",),))),
                     "player_types[0].strategies[1][0]: expected a string, got ['b']",
                     id="member-list"),
    ],
)
def test_load_game_rejects_wrong_field_types(tmp_path, document, message):
    path = write_json(tmp_path / "game.json", document)
    with pytest.raises(FormatError, match=re.escape(message)):
        load_game(path)


def test_load_accepts_integral_numbers(tmp_path):
    game = load_game(write_json(tmp_path / "game.json", pigou_document(coeffs=(1,), demand=1)))
    assert game.edges[0].latency.coeffs == (1.0,)
    assert game.player_types[0].demand == 1.0
    path = write_json(
        tmp_path / "flow.json",
        {"amounts": [{"type": "t1", "strategy": 1.0, "x": 1}]},
    )
    assert load_flow(path, game).amounts == {("t1", 1): 1.0}


def test_load_game_rejects_invalid_game(tmp_path):
    path = write_json(
        tmp_path / "bad.json",
        {
            "edges": [{"id": "e1", "latency": {"coeffs": [-1.0]}}],
            "player_types": [{"id": "t1", "demand": 1.0, "strategies": [["e1"]]}],
        },
    )
    with pytest.raises(GameValidationError, match="negative coefficient"):
        load_game(path)


@pytest.fixture
def empty_game_cache(monkeypatch):
    """load_game with no texts loaded yet, and a count of view builds.
    The cache is emptied again afterwards, so no game built with the
    counting view reaches a later test."""
    formats._game_from_text.cache_clear()
    builds = []

    class CountingArrays(model._GameArrays):
        def __init__(self, game):
            builds.append(game)
            super().__init__(game)

    monkeypatch.setattr(model, "_GameArrays", CountingArrays)
    yield builds
    formats._game_from_text.cache_clear()


def test_load_game_reuses_unchanged_text(tmp_path, empty_game_cache):
    path = write_json(tmp_path / "game.json", pigou_document(demand=1.0))
    game = load_game(path)
    solve(game, "original")
    again = load_game(path)
    assert again is game
    solve(again, "marginal")
    assert empty_game_cache == [game]


def test_load_game_rereads_rewritten_file(tmp_path, empty_game_cache):
    path = write_json(tmp_path / "game.json", pigou_document(demand=1.0))
    first = load_game(path)
    write_json(path, pigou_document(demand=2.0))
    second = load_game(path)
    assert second is not first
    assert (first.player_types[0].demand, second.player_types[0].demand) == (1.0, 2.0)
    assert solve(second, "original").social_cost_original == pytest.approx(2.0)


def test_load_game_keeps_the_last_distinct_texts(tmp_path, empty_game_cache):
    paths = [
        write_json(tmp_path / f"game{k}.json", pigou_document(demand=float(k + 1)))
        for k in range(GAME_CACHE_SIZE + 1)
    ]
    games = [load_game(path) for path in paths]
    # The newest GAME_CACHE_SIZE texts are kept; the oldest was dropped.
    assert all(load_game(path) is game for path, game in zip(paths[1:], games[1:]))
    assert load_game(paths[0]) is not games[0]


def test_load_game_raises_for_a_bad_text_on_every_call(tmp_path, empty_game_cache):
    path = tmp_path / "game.json"
    path.write_text('{"edges": [')
    for _ in range(2):
        with pytest.raises(json.JSONDecodeError):
            load_game(path)
    write_json(path, pigou_document(demand=-1.0))
    for _ in range(2):
        with pytest.raises(GameValidationError, match="negative demand"):
            load_game(path)
    assert formats._game_from_text.cache_info().currsize == 0
    write_json(path, pigou_document(demand=1.0))
    assert load_game(path).player_types[0].demand == 1.0


def test_flow_round_trip(tmp_path):
    rng = np.random.default_rng(52)
    for k in range(10):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        path = tmp_path / f"flow{k}.json"
        save_flow(flow, path)
        assert load_flow(path, game).amounts == flow.amounts


def test_saved_json_layout(tmp_path):
    # Every JSON file is written the same way: two-space indent, repr
    # floats, one trailing newline.
    path = tmp_path / "flow.json"
    save_flow(Flow({("t1", 0): 0.1}), path)
    assert path.read_bytes() == (
        b'{\n  "amounts": [\n    {\n      "type": "t1",\n      "strategy": 0,\n'
        b'      "x": 0.1\n    }\n  ]\n}\n'
    )


# Type ids with non-ASCII characters, quotes, backslashes and control
# characters, and amounts at the ends of the float range.
TYPE_IDS = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f\n\t", "é", "\u2028", "\ud800", "t1"]
)
AMOUNTS = st.sampled_from([0.0, 5e-324, 1e308]) | st.floats()
FLOWS = st.dictionaries(st.tuples(TYPE_IDS, st.integers(0, 10**6)), AMOUNTS, max_size=6).map(Flow)
# Writing the same temporary file for every example is harmless.
ON_ONE_FILE = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@ON_ONE_FILE
@given(flow=FLOWS)
@example(flow=Flow({}))
@example(flow=Flow({('a"\\\x07é', 0): 0.0, ("\u00ff", 3): 5e-324, ("\U0001f600", 1): 1e308}))
@example(flow=Flow({("t", 0): math.nan, ("t", 1): math.inf, ("t", 2): -math.inf, ("u", 0): -0.0}))
def test_saved_flow_is_json_with_indent_2(tmp_path, flow):
    path = tmp_path / "flow.json"
    save_flow(flow, path)
    assert path.read_text(encoding="utf-8") == json.dumps(flow_to_dict(flow), indent=2) + "\n"


@ON_ONE_FILE
@given(
    flow=FLOWS,
    iterations=st.integers(0, 10**4),
    gap=st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(),
    cost=st.floats(),
)
def test_saved_solve_result_is_json_with_indent_2(tmp_path, flow, iterations, gap, cost):
    result = SolveResult(flow, iterations, gap, cost, cost, 0.0)
    path = tmp_path / "result.json"
    save_solve_result(result, path)
    document = flow_to_dict(flow)
    document["metadata"] = {
        "iterations": iterations,
        "relative_gap": gap,
        "social_cost_original": cost,
    }
    assert path.read_text(encoding="utf-8") == json.dumps(document, indent=2) + "\n"


def test_flow_to_dict_sorted():
    payload = flow_to_dict(Flow({("t1", 1): 0.75, ("t1", 0): 0.25}))
    assert payload["amounts"] == [
        {"type": "t1", "strategy": 0, "x": 0.25},
        {"type": "t1", "strategy": 1, "x": 0.75},
    ]


def test_load_flow_rejects_unknown_type(tmp_path, pigou):
    path = write_json(
        tmp_path / "flow.json",
        {"amounts": [{"type": "tX", "strategy": 0, "x": 1.0}]},
    )
    with pytest.raises(FormatError, match="unknown player type"):
        load_flow(path, pigou)


def test_load_flow_rejects_out_of_range_strategy(tmp_path, pigou):
    path = write_json(
        tmp_path / "flow.json",
        {"amounts": [{"type": "t1", "strategy": 7, "x": 1.0}]},
    )
    with pytest.raises(FormatError, match="out of range"):
        load_flow(path, pigou)


def test_load_flow_rejects_negative_amount(tmp_path, pigou):
    path = write_json(
        tmp_path / "flow.json",
        {"amounts": [{"type": "t1", "strategy": 0, "x": -0.5}]},
    )
    with pytest.raises(FormatError, match="negative amount"):
        load_flow(path, pigou)


def test_load_flow_rejects_non_finite_amount(tmp_path, pigou):
    for amount in (float("nan"), float("inf"), float("-inf")):
        path = write_json(
            tmp_path / "flow.json",
            {"amounts": [{"type": "t1", "strategy": 1, "x": amount}]},
        )
        with pytest.raises(FormatError, match=r"non-finite amount .* for \('t1', 1\)"):
            load_flow(path, pigou)


def test_load_flow_rejects_duplicate_entry(tmp_path, pigou):
    path = write_json(
        tmp_path / "flow.json",
        {
            "amounts": [
                {"type": "t1", "strategy": 0, "x": 0.5},
                {"type": "t1", "strategy": 0, "x": 0.5},
            ]
        },
    )
    with pytest.raises(FormatError, match="duplicate"):
        load_flow(path, pigou)


def test_load_flow_rejects_missing_amounts_key(tmp_path, pigou):
    path = write_json(tmp_path / "flow.json", {"rows": []})
    with pytest.raises(FormatError, match="malformed flow document"):
        load_flow(path, pigou)


# Each of these entries used to load: 1.7 and "1" as strategy 1, "1.0"
# as 1.0 and true as 1.0; a type 1 or null was looked up as '1' or 'None'.
@pytest.mark.parametrize(
    "entry, message",
    [
        pytest.param({"type": "t1", "strategy": 1.7, "x": 1.0},
                     "amounts[0].strategy: expected an integer", id="strategy-fraction"),
        pytest.param({"type": "t1", "strategy": "1", "x": 1.0},
                     "amounts[0].strategy: expected a number", id="strategy-string"),
        pytest.param({"type": "t1", "strategy": 1, "x": "1.0"},
                     "amounts[0].x: expected a number", id="amount-string"),
        pytest.param({"type": "t1", "strategy": 1, "x": True},
                     "amounts[0].x: expected a number", id="amount-bool"),
        pytest.param({"type": 1, "strategy": 1, "x": 1.0},
                     "amounts[0].type: expected a string, got 1", id="type-int"),
        pytest.param({"type": None, "strategy": 1, "x": 1.0},
                     "amounts[0].type: expected a string, got None", id="type-null"),
    ],
)
def test_load_flow_rejects_wrong_field_types(tmp_path, pigou, entry, message):
    path = write_json(tmp_path / "flow.json", {"amounts": [entry]})
    with pytest.raises(FormatError, match=re.escape(message)):
        load_flow(path, pigou)


def test_save_solve_result(tmp_path, pigou):
    result = solve(pigou, "marginal")
    path = tmp_path / "result.json"
    save_solve_result(result, path)
    payload = json.loads(path.read_text())
    assert payload["metadata"]["iterations"] == result.iterations
    assert payload["metadata"]["relative_gap"] == result.relative_gap
    assert payload["metadata"]["social_cost_original"] == result.social_cost_original
    assert load_flow(path, pigou).amounts == result.flow.amounts


def test_batch_report_csv_parses_back_exactly(tmp_path, pigou):
    report = batch_social_cost(pigou, OPTIMUM, BatchSystem({"e1": 1, "e2": 10}))
    path = tmp_path / "report.csv"
    save_batch_report_csv(report, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["edge_id"] for row in rows] == ["e1", "e2", "TOTAL"]
    for row, (edge_id, entry) in zip(rows, report.per_edge.items()):
        assert row["edge_id"] == edge_id
        assert int(row["N_e"]) == entry.count
        assert float(row["x_e"]) == entry.load
        assert float(row["c_e"]) == entry.base_cost
        assert float(row["batch_c_e"]) == entry.batch_cost
        assert float(row["gap"]) == entry.gap
    total = rows[-1]
    assert total["N_e"] == ""
    assert float(total["c_e"]) == report.total_original_cost
    assert float(total["batch_c_e"]) == report.total_batch_cost
    assert float(total["gap"]) == report.total_gap
