import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import hard_game
from wardrop import Edge, Flow, Game, LatencyFunction, PlayerType, cli
from wardrop.formats import save_flow, save_game

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
PIGOU = str(FIXTURES / "pigou.json")
MONO = str(FIXTURES / "mono.json")

OPTIMUM = Flow({("t1", 0): 0.5, ("t1", 1): 0.5})
SELFISH = Flow({("t1", 0): 0.0, ("t1", 1): 1.0})

# The three fixtures and two 30-edge games of the benchmark's gen-mid pool.
PAIR_GAMES = [str(FIXTURES / f"{name}.json") for name in ("pigou", "mono", "twotype")] + [
    str(ROOT / "tests" / "data" / f"gen_mid_seed41_game{k}.json") for k in ("01", "11")
]


OVERFLOW_FLOW = Flow({("t", 0): 0.0, ("t", 1): 1e25})


@pytest.fixture
def overflow_game(tmp_path):
    """Roads c (cost 1) and p (cost x^16) at demand 1e25. Costs overflow
    once p carries the demand, as in OVERFLOW_FLOW and in the solver's
    first iterate."""
    path = tmp_path / "overflow.json"
    path.write_text(
        json.dumps(
            {
                "edges": [
                    {"id": "c", "latency": {"coeffs": [1.0]}},
                    {"id": "p", "latency": {"coeffs": [0.0] * 16 + [1.0]}},
                ],
                "player_types": [{"id": "t", "demand": 1e25, "strategies": [["c"], ["p"]]}],
            }
        )
    )
    return str(path)


def run_lines(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_solve_output(capsys, tmp_path):
    out_path = tmp_path / "flow.json"
    code, lines, _ = run_lines(capsys, "solve", PIGOU, "--out", str(out_path))
    assert code == 0
    assert lines == [
        "social cost: 1.000000",
        "relative gap: 0.000000",
        "iterations: 0",
    ]
    payload = json.loads(out_path.read_text())
    assert payload["metadata"]["iterations"] == 0
    assert {entry["strategy"]: entry["x"] for entry in payload["amounts"]} == {
        0: 0.0,
        1: 1.0,
    }


def test_solve_marginal_mode(capsys):
    code, lines, _ = run_lines(capsys, "solve", PIGOU, "--mode", "marginal")
    assert code == 0
    assert lines[0] == "social cost: 0.750000"


def test_optimum_output(capsys, tmp_path):
    out_path = tmp_path / "opt.json"
    code, lines, _ = run_lines(capsys, "optimum", PIGOU, "--out", str(out_path))
    assert code == 0
    assert lines == ["optimal social cost: 0.750000"]
    payload = json.loads(out_path.read_text())
    assert {entry["strategy"]: entry["x"] for entry in payload["amounts"]} == {
        0: 0.5,
        1: 0.5,
    }


def test_poa_output(capsys):
    code, lines, _ = run_lines(capsys, "poa", PIGOU)
    assert code == 0
    assert lines == [
        "equilibrium social cost: 1.000000",
        "optimal social cost: 0.750000",
        "price of anarchy: 1.333333",
    ]


def test_batch_output(capsys, tmp_path):
    report_path = tmp_path / "report.csv"
    code, lines, _ = run_lines(
        capsys, "batch", PIGOU, "--epsilon", "0.1", "--report", str(report_path)
    )
    assert code == 0
    assert lines == [
        "edge e1: N=1 batch_cost=0.500000 gap=0.000000",
        "edge e2: N=10 batch_cost=0.275000 gap=0.025000",
        "batch social cost: 0.775000",
        "social cost: 0.750000",
        "gap: 0.025000",
        "equilibrium: true",
        "price of anarchy: 1.333333",
    ]
    rows = report_path.read_text().splitlines()
    assert rows[0] == "edge_id,N_e,x_e,c_e,batch_c_e,gap"
    assert rows[-1].startswith("TOTAL,")


def test_sweep_expands_ellipsis(capsys):
    code, lines, _ = run_lines(capsys, "sweep", PIGOU, "--n-list", "1,2,4,...,16")
    assert code == 0
    assert lines[0] == "N,batch_cost,gap"
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in parsed] == [1, 2, 4, 8, 16]
    for row in parsed:
        n = int(row[0])
        assert float(row[1]) == 0.75 + 0.25 / n
        assert float(row[2]) == 0.25 / n


def test_sweep_plain_list_sorted_unique(capsys):
    code, lines, _ = run_lines(capsys, "sweep", PIGOU, "--n-list", "4,1,4,2")
    assert code == 0
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "4"]


def test_sweep_matches_golden_output(capsys):
    # Recorded from per-count pricing; batch_sweep must reproduce it byte for byte.
    expected = (ROOT / "tests" / "data" / "pigou_sweep.csv").read_text(encoding="utf-8")
    assert cli.run(["sweep", PIGOU, "--n-list", "1,2,4,...,1024"]) == 0
    assert capsys.readouterr().out == expected


# Each command's stdout on each fixture, iteration counts included, is
# checked in as tests/data/stdout/<fixture>.<name>.txt.
GOLDEN_COMMANDS = {
    "solve": ["solve"],
    "solve-marginal": ["solve", "--mode", "marginal"],
    "optimum": ["optimum"],
    "poa": ["poa"],
    "batch-0.01": ["batch", "--epsilon", "0.01"],
    "batch-0.001": ["batch", "--epsilon", "0.001"],
}
GOLDEN_GAMES = {name: FIXTURES / f"{name}.json" for name in ("pigou", "mono", "twotype")}
# The solves of this game meet singular reduced Hessians, so they pin the
# shifted solve of solver._newton_direction.
GOLDEN_GAMES["singular_hessian"] = ROOT / "tests" / "data" / "singular_hessian.json"
GOLDEN_STDOUT = [
    (fixture, name) for fixture in ("pigou", "mono", "twotype") for name in GOLDEN_COMMANDS
] + [("singular_hessian", name) for name in ("solve", "solve-marginal", "optimum", "poa")]


@pytest.mark.parametrize(
    "fixture,name", GOLDEN_STDOUT, ids=[f"{fixture}-{name}" for fixture, name in GOLDEN_STDOUT]
)
def test_fixture_stdout_matches_golden_file(capsys, fixture, name):
    command, *options = GOLDEN_COMMANDS[name]
    golden = ROOT / "tests" / "data" / "stdout" / f"{fixture}.{name}.txt"
    assert cli.run([command, str(GOLDEN_GAMES[fixture]), *options]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


# The flow file each solving command writes with --out, byte for byte, is
# checked in as tests/data/flows/<fixture>.<name>.json.
GOLDEN_FLOW_COMMANDS = {
    name: GOLDEN_COMMANDS[name] for name in ("solve", "solve-marginal", "optimum")
}


@pytest.mark.parametrize("name", GOLDEN_FLOW_COMMANDS)
@pytest.mark.parametrize("fixture", ["pigou", "mono", "twotype"])
def test_fixture_flow_file_matches_golden_file(capsys, tmp_path, fixture, name):
    command, *options = GOLDEN_FLOW_COMMANDS[name]
    golden = ROOT / "tests" / "data" / "flows" / f"{fixture}.{name}.json"
    out = tmp_path / "flow.json"
    argv = [command, str(FIXTURES / f"{fixture}.json"), *options, "--out", str(out)]
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("game", PAIR_GAMES, ids=lambda path: Path(path).stem)
def test_poa_costs_equal_solve_and_optimum(capsys, game):
    # poa solves the same pair as solve and optimum, bit for bit.
    _, (equilibrium, *_), _ = run_lines(capsys, "solve", game)
    _, optimum, _ = run_lines(capsys, "optimum", game)
    code, lines, _ = run_lines(capsys, "poa", game)
    assert code == 0
    assert lines[:2] == ["equilibrium " + equilibrium, *optimum]


def test_sweep_progressions(capsys):
    # Geometric when the second value is a multiple >= 2 of the first,
    # arithmetic otherwise.
    for n_list, counts in (("1,3,...,9", ["1", "3", "9"]),
                           ("3,5,...,11", ["3", "5", "7", "9", "11"])):
        code, lines, _ = run_lines(capsys, "sweep", PIGOU, "--n-list", n_list)
        assert code == 0
        assert [line.split(",")[0] for line in lines[1:]] == counts


def test_sweep_rejects_bad_lists(capsys):
    for bad in ("1,2,...", "5,3,...,1", "1,2,...,9", "1,2,...,3", "0,2,...,8", "x"):
        code, _, err = run_lines(capsys, "sweep", PIGOU, "--n-list", bad)
        assert code == 2, bad
        assert "usage" in err


def test_verify_wardrop(capsys, tmp_path):
    eq_path = tmp_path / "eq.json"
    save_flow(SELFISH, eq_path)
    code, lines, _ = run_lines(capsys, "verify", PIGOU, str(eq_path))
    assert code == 0
    assert lines == ["max violation: 0.000000"]

    mixed_path = tmp_path / "mixed.json"
    save_flow(OPTIMUM, mixed_path)
    code, lines, _ = run_lines(capsys, "verify", PIGOU, str(mixed_path))
    assert code == 1
    assert lines == ["max violation: 0.500000"]


def test_verify_marginal(capsys, tmp_path):
    opt_path = tmp_path / "opt.json"
    save_flow(OPTIMUM, opt_path)
    code, lines, _ = run_lines(
        capsys, "verify", PIGOU, str(opt_path), "--mode", "marginal"
    )
    assert code == 0
    assert lines == ["max violation: 0.000000"]

    eq_path = tmp_path / "eq.json"
    save_flow(SELFISH, eq_path)
    code, lines, _ = run_lines(
        capsys, "verify", PIGOU, str(eq_path), "--mode", "marginal"
    )
    assert code == 1
    assert lines == ["max violation: 1.000000"]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("flow", ["optimum", "equilibrium", "infeasible", "overflow"])
def test_verify_batch_mode(capsys, tmp_path, overflow_game, flow):
    # The batch verdict is the marginal one, on any flow file.
    game, amounts, code, lines = {
        "optimum": (PIGOU, OPTIMUM, 0, ["max violation: 0.000000"]),
        "equilibrium": (PIGOU, SELFISH, 1, ["max violation: 1.000000"]),
        "infeasible": (PIGOU, Flow({("t1", 0): 0.5, ("t1", 1): 0.25}), 3, []),
        "overflow": (overflow_game, OVERFLOW_FLOW, 1, ["max violation: nan"]),
    }[flow]
    path = tmp_path / "flow.json"
    save_flow(amounts, path)
    batch = run_lines(capsys, "verify", game, str(path), "--mode", "batch")
    assert batch[:2] == (code, lines)
    assert batch == run_lines(capsys, "verify", game, str(path), "--mode", "marginal")


def test_verify_custom_tolerance(capsys, tmp_path):
    mixed_path = tmp_path / "mixed.json"
    save_flow(OPTIMUM, mixed_path)
    # The mixed flow's violation is exactly 0.5, so the bound is inclusive.
    for tol in ("0.6", "0.5"):
        code, _, _ = run_lines(capsys, "verify", PIGOU, str(mixed_path), "--tol", tol)
        assert code == 0, tol


@pytest.mark.parametrize("mode", ["marginal", "batch"])
@pytest.mark.parametrize("delta, expected", [(4e-7, 0), (6e-7, 1)])
def test_verify_default_tolerance_is_1e_6(capsys, tmp_path, mode, delta, expected):
    # Moving delta from the constant road to the x road leaves both used,
    # with marginal costs 1 and 1 + 2 * delta: a violation of 2 * delta.
    path = tmp_path / "near_optimum.json"
    save_flow(Flow({("t1", 0): 0.5 - delta, ("t1", 1): 0.5 + delta}), path)
    code, _, _ = run_lines(capsys, "verify", PIGOU, str(path), "--mode", mode)
    assert code == expected


def test_oracle_output(capsys):
    code, lines, _ = run_lines(capsys, "oracle", PIGOU, "--resolution", "0.5")
    assert code == 0
    assert lines == [
        "type t1 strategy 0: 0.000000",
        "type t1 strategy 1: 1.000000",
        "potential: 0.500000",
        "social cost: 1.000000",
    ]


def test_usage_errors_exit_2(capsys):
    assert cli.run([]) == 2
    capsys.readouterr()
    assert cli.run(["bogus"]) == 2
    capsys.readouterr()
    assert cli.run(["batch", PIGOU, "--epsilon", "-1"]) == 2
    capsys.readouterr()
    assert cli.run(["batch", PIGOU]) == 2
    capsys.readouterr()


# run() parses with one parser per process; no call may see what an
# earlier call parsed or printed.


def test_usage_error_then_good_solve(capsys):
    assert run_lines(capsys, "solve")[0] == 2
    code, lines, err = run_lines(capsys, "solve", PIGOU)
    assert code == 0
    assert err == ""
    assert lines == [
        "social cost: 1.000000",
        "relative gap: 0.000000",
        "iterations: 0",
    ]


def test_mode_does_not_carry_over(capsys):
    assert run_lines(capsys, "solve", PIGOU, "--mode", "marginal")[1][0] == "social cost: 0.750000"
    code, lines, _ = run_lines(capsys, "solve", PIGOU)
    assert code == 0
    assert lines[0] == "social cost: 1.000000"


def test_required_option_does_not_carry_over(capsys):
    assert run_lines(capsys, "sweep", PIGOU, "--n-list", "1,2")[0] == 0
    code, lines, err = run_lines(capsys, "sweep", PIGOU)
    assert code == 2
    assert lines == []
    assert "the following arguments are required: --n-list" in err


def test_help_twice_is_identical(capsys):
    first = run_lines(capsys, "--help")
    second = run_lines(capsys, "--help")
    assert first[0] == 0
    assert first[1][0].startswith("usage: wardrop")
    assert first == second


def test_parse_error_reaches_the_current_stderr(capsys):
    assert run_lines(capsys, "poa", PIGOU)[0] == 0
    code, lines, err = run_lines(capsys, "batch", PIGOU, "--epsilon", "0")
    assert code == 2
    assert lines == []
    assert err.startswith("usage: wardrop batch")
    assert "must be positive and finite, got 0" in err


# Help and usage errors as cli.run printed them while argparse parsed
# every argv twice, top level and subcommand: exit code, stdout, stderr.
USAGE = json.loads((ROOT / "tests" / "data" / "usage.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", USAGE, ids=[case["id"] for case in USAGE])
def test_usage_output_matches_golden(capsys, monkeypatch, case):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code = cli.run(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["out"], case["err"])


def test_file_errors_name_the_path_as_given(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run_lines(capsys, "solve", "./missing.json") == (
        3, [], "error: [Errno 2] No such file or directory: './missing.json'\n"
    )
    # A trailing slash asks for a directory, so a game file named so is not read.
    assert run_lines(capsys, "solve", PIGOU + "/") == (
        3, [], f"error: [Errno 20] Not a directory: '{PIGOU}/'\n"
    )


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))

    def wardrop(*argv):
        return subprocess.run(
            [sys.executable, "-m", "wardrop.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )

    poa = wardrop("poa", "fixtures/pigou.json")
    assert (poa.returncode, poa.stderr) == (0, "")
    assert poa.stdout.splitlines() == [
        "equilibrium social cost: 1.000000",
        "optimal social cost: 0.750000",
        "price of anarchy: 1.333333",
    ]
    usage = wardrop("--help")
    assert usage.returncode == 0
    listed = {line.split()[0] for line in usage.stdout.splitlines() if line.startswith("    ")}
    assert listed >= {"solve", "optimum", "poa", "batch", "sweep", "verify", "oracle"}


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", PIGOU, "--epsilon"],
        ["solve", PIGOU, "--gap-tol"],
        ["verify", PIGOU, PIGOU, "--tol"],
        ["oracle", PIGOU, "--resolution"],
    ],
    ids=["epsilon", "gap-tol", "tol", "resolution"],
)
def test_non_finite_option_exits_2(capsys, argv):
    for value in ("nan", "inf"):
        code, _, err = run_lines(capsys, *argv, value)
        assert code == 2, value
        assert f"must be positive and finite, got {value}" in err


MISSING = "/no/such/game.json"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", MISSING],
        ["optimum", MISSING],
        ["poa", MISSING],
        ["batch", MISSING, "--epsilon", "0.1"],
        ["sweep", MISSING, "--n-list", "1,2"],
        ["verify", MISSING, PIGOU],
        ["verify", PIGOU, "/no/such/flow.json"],
        ["oracle", MISSING],
    ],
    ids=["solve", "optimum", "poa", "batch", "sweep", "verify-game", "verify-flow", "oracle"],
)
def test_missing_file_exits_3(capsys, argv):
    code, lines, err = run_lines(capsys, *argv)
    assert (code, lines) == (3, [])
    assert len(err.splitlines()) == 1
    assert err.startswith("error: [Errno 2] No such file or directory: '/no/such/")


def test_truncated_json_exits_3(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"edges": [')
    code, _, err = run_lines(capsys, "solve", str(path))
    assert code == 3
    assert "invalid JSON" in err


def pigou_text(demand):
    document = json.loads(Path(PIGOU).read_text())
    document["player_types"][0]["demand"] = demand
    return json.dumps(document)


def test_solve_reads_a_game_rewritten_in_place(capsys, tmp_path):
    path = tmp_path / "game.json"
    path.write_text(pigou_text(1.0))
    code, lines, _ = run_lines(capsys, "solve", str(path))
    assert (code, lines[0]) == (0, "social cost: 1.000000")
    path.write_text(pigou_text(2.0))
    code, lines, _ = run_lines(capsys, "solve", str(path))
    assert (code, lines[0]) == (0, "social cost: 2.000000")


def test_malformed_game_exits_3_until_fixed(capsys, tmp_path):
    path = tmp_path / "game.json"
    path.write_text(pigou_text(1.0)[:-1])
    for _ in range(2):
        code, _, err = run_lines(capsys, "solve", str(path))
        assert code == 3
        assert "invalid JSON" in err
    path.write_text(pigou_text(1.0))
    code, lines, _ = run_lines(capsys, "solve", str(path))
    assert (code, lines[0]) == (0, "social cost: 1.000000")


def test_invalid_game_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "edges": [{"id": "e1", "latency": {"coeffs": [-2.0]}}],
                "player_types": [
                    {"id": "t1", "demand": 1.0, "strategies": [["e1"]]}
                ],
            }
        )
    )
    code, _, err = run_lines(capsys, "poa", str(path))
    assert code == 3
    assert "negative coefficient" in err


def one_edge_game(path, coeff, demand):
    # json.dumps writes NaN and Infinity, which json.loads reads back.
    path.write_text(
        json.dumps(
            {
                "edges": [{"id": "e1", "latency": {"coeffs": [coeff]}}],
                "player_types": [{"id": "t1", "demand": demand, "strategies": [["e1"]]}],
            }
        )
    )
    return str(path)


def test_nan_coefficient_exits_3(capsys, tmp_path):
    path = one_edge_game(tmp_path / "nan_coeff.json", float("nan"), 1.0)
    code, _, err = run_lines(capsys, "solve", path)
    assert code == 3
    assert "edges[0].latency.coeffs[0]: non-finite coefficient nan" in err


def test_string_coefficients_exit_3(capsys, tmp_path):
    # "12" used to load as the latency 1 + 2x, and the solve exited 0.
    path = tmp_path / "string_coeffs.json"
    path.write_text(
        json.dumps(
            {
                "edges": [{"id": "e1", "latency": {"coeffs": "12"}}],
                "player_types": [{"id": "t1", "demand": 1.0, "strategies": [["e1"]]}],
            }
        )
    )
    code, _, err = run_lines(capsys, "solve", str(path))
    assert code == 3
    assert "edges[0].latency.coeffs: expected a list, got '12'" in err


def test_null_edge_id_exits_3(capsys, tmp_path):
    # The edge id null used to load as the edge 'None', which the strategy
    # [null] then named, and the solve exited 0.
    path = tmp_path / "null_id.json"
    path.write_text(
        json.dumps(
            {
                "edges": [{"id": None, "latency": {"coeffs": [1.0]}}],
                "player_types": [{"id": "t1", "demand": 1.0, "strategies": [[None]]}],
            }
        )
    )
    code, _, err = run_lines(capsys, "solve", str(path))
    assert code == 3
    assert "edges[0].id: expected a string, got None" in err


def test_nan_demand_exits_3(capsys, tmp_path):
    path = one_edge_game(tmp_path / "nan_demand.json", 1.0, float("nan"))
    code, _, err = run_lines(capsys, "solve", path)
    assert code == 3
    assert "player_types[0].demand: non-finite demand nan" in err


def test_infinite_demand_exits_3(capsys, tmp_path):
    path = one_edge_game(tmp_path / "inf_demand.json", 1.0, float("inf"))
    code, _, err = run_lines(capsys, "solve", path)
    assert code == 3
    assert "player_types[0].demand: non-finite demand inf" in err


def test_unknown_flow_type_exits_3(capsys, tmp_path):
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(
        json.dumps({"amounts": [{"type": "tX", "strategy": 0, "x": 1.0}]})
    )
    code, _, err = run_lines(capsys, "verify", PIGOU, str(flow_path))
    assert code == 3
    assert "unknown player type" in err


def test_nan_flow_amount_exits_3(capsys, tmp_path):
    # json.dumps writes NaN, which json.loads reads back as a float.
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(
        json.dumps(
            {
                "amounts": [
                    {"type": "t1", "strategy": 0, "x": float("nan")},
                    {"type": "t1", "strategy": 1, "x": 1.0},
                ]
            }
        )
    )
    code, _, err = run_lines(capsys, "verify", PIGOU, str(flow_path))
    assert code == 3
    assert "non-finite amount nan for ('t1', 0)" in err


def test_overflowing_batch_count_exits_3(capsys):
    code, _, err = run_lines(capsys, "batch", PIGOU, "--epsilon", "1e-320")
    assert code == 3
    assert "batch count for edge 'e2' is not finite" in err


def test_batch_tight_epsilon_is_fast(capsys, tmp_path):
    # N_e2 = 10**12 batches, priced in closed form.
    report_path = tmp_path / "report.csv"
    start = time.perf_counter()
    code, lines, _ = run_lines(
        capsys, "batch", PIGOU, "--epsilon", "1e-12", "--report", str(report_path)
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert lines[1].startswith("edge e2: N=1000000000000 ")
    with report_path.open(newline="") as handle:
        total = list(csv.reader(handle))[-1]
    assert total[0] == "TOTAL"
    assert 0.0 < float(total[-1]) <= 1e-12
    assert elapsed < 1.0


def test_non_convergence_exits_4(capsys, tmp_path):
    game_path = tmp_path / "hard.json"
    save_game(hard_game(), game_path)
    code, _, err = run_lines(capsys, "solve", str(game_path), "--max-iterations", "1")
    assert code == 4
    assert "no convergence" in err


def test_pigou_large_demand_round_trip_verifies(capsys, tmp_path):
    # The equilibrium puts a load of exactly 1 on the x road and 1e12 - 1
    # on the constant road; verify checks the excess to an absolute 1e-6.
    game = json.loads(Path(PIGOU).read_text())
    game["player_types"][0]["demand"] = 1e12
    game_path = tmp_path / "pigou_1e12.json"
    game_path.write_text(json.dumps(game))
    flow_path = tmp_path / "flow.json"
    code, _, _ = run_lines(capsys, "solve", str(game_path), "--out", str(flow_path))
    assert code == 0
    code, lines, _ = run_lines(capsys, "verify", str(game_path), str(flow_path))
    assert (code, lines) == (0, ["max violation: 0.000000"])


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_overflowing_solve_exits_4_at_once(capsys, tmp_path, overflow_game):
    # Every solving command stops at the first iterate, and stderr holds
    # the error line alone; verify prints nan and fails.
    for command, *options in (["solve"], ["optimum"], ["poa"], ["batch", "--epsilon", "0.1"]):
        assert run_lines(capsys, command, overflow_game, *options) == (
            4,
            [],
            "error: no convergence after 0 iterations, relative gap nan\n",
        ), command
    path = tmp_path / "flow.json"
    save_flow(OVERFLOW_FLOW, path)
    assert run_lines(capsys, "verify", overflow_game, str(path)) == (
        1,
        ["max violation: nan"],
        "",
    )


@pytest.mark.filterwarnings("error")
def test_nan_hessian_solve_exits_4(capsys, tmp_path):
    # At load 0, the derivative of 5 + 1.5e308 x^2 is inf * 0 = NaN (its
    # coefficient 3e308 overflows), so the first step's Hessian holds NaN
    # while the costs stay finite. No LinAlgError may escape cli.run.
    path = tmp_path / "nan_hessian.json"
    save_game(
        Game(
            edges=(Edge("u", LatencyFunction((0.0, 10.0))),
                   Edge("c", LatencyFunction((5.0, 0.0, 1.5e308)))),
            player_types=(PlayerType("t", 1.0, (frozenset({"u"}), frozenset({"c"}))),),
        ),
        path,
    )
    assert run_lines(capsys, "solve", str(path)) == (
        4,
        [],
        "error: no convergence after 0 iterations, relative gap 1.000e+00\n",
    )


def test_output_is_deterministic(capsys):
    first = run_lines(capsys, "poa", PIGOU)
    second = run_lines(capsys, "poa", PIGOU)
    assert first == second
    sweep_a = run_lines(capsys, "sweep", PIGOU, "--n-list", "1,2,4,...,64")
    sweep_b = run_lines(capsys, "sweep", PIGOU, "--n-list", "1,2,4,...,64")
    assert sweep_a == sweep_b


def test_batch_poa_undefined_branch(capsys, tmp_path):
    # A game with zero latency everywhere prices every batch at zero, so
    # the ratio line must fall back to "undefined".
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps(
            {
                "edges": [{"id": "e1", "latency": {"coeffs": [0.0]}}],
                "player_types": [
                    {"id": "t1", "demand": 1.0, "strategies": [["e1"]]}
                ],
            }
        )
    )
    code, lines, _ = run_lines(capsys, "batch", str(path), "--epsilon", "0.1")
    assert code == 0
    assert lines[-1] == "price of anarchy: undefined"


def test_poa_zero_optimum_exits_3(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps(
            {
                "edges": [{"id": "e1", "latency": {"coeffs": [0.0]}}],
                "player_types": [
                    {"id": "t1", "demand": 1.0, "strategies": [["e1"]]}
                ],
            }
        )
    )
    code, _, err = run_lines(capsys, "poa", str(path))
    assert code == 3
    assert "undefined" in err


def test_gap_tol_flag_is_accepted(capsys):
    code, lines, _ = run_lines(capsys, "solve", PIGOU, "--gap-tol", "1e-6")
    assert code == 0
    assert lines[0] == "social cost: 1.000000"


def test_mono_poa(capsys):
    code, lines, _ = run_lines(capsys, "poa", MONO)
    assert code == 0
    assert lines[-1] == "price of anarchy: 1.000000"
