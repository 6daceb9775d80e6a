"""End-to-end acceptance gates.

One test per shipped guarantee; each prints a single PASS or FAIL line
(run with -s to see them) and then asserts. Tolerances and budgets are
pinned here and nowhere else, so a regression in any guarantee fails
exactly one test.
"""

import math
import time
from pathlib import Path

import numpy as np

from helpers import (
    last_strategy_flow,
    loads_by_edge,
    random_batch_system,
    random_feasible_flow,
    random_game,
)
from wardrop import (
    LatencyFunction,
    MechanismError,
    batch_social_cost,
    mechanism_pipeline,
    social_cost,
    solve,
    verify_batch_equilibrium,
    wardrop_gap,
)
from wardrop.cli import run as cli_run
from wardrop.oracle import (
    exhaustive_batch_verify,
    finite_difference,
    grid_search_equilibrium,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
PIGOU_PATH = str(FIXTURES / "pigou.json")


def _report(criterion: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {criterion}: {label}")
    assert not failures, "\n".join(failures[:10])


def test_criterion_1_pigou_price_of_anarchy(capsys, pigou):
    failures: list[str] = []
    start = time.perf_counter()
    code = cli_run(["poa", PIGOU_PATH])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"exit code {code}")
    reported = [float(line.rsplit(" ", 1)[1]) for line in out.splitlines()]
    for value, expected, label in zip(
        reported, (1.0, 0.75, 4.0 / 3.0), ("equilibrium cost", "optimal cost", "ratio")
    ):
        if abs(value - expected) > 1e-6:
            failures.append(f"{label} {value} is not {expected} within 1e-6")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget is 1s")
    # Independent confirmation: brute-force grid at resolution 1e-3.
    brute_eq = social_cost(pigou, grid_search_equilibrium(pigou, 1e-3, "original"))
    brute_opt = social_cost(pigou, grid_search_equilibrium(pigou, 1e-3, "marginal"))
    if abs(brute_eq - 1.0) > 5e-3:
        failures.append(f"grid search equilibrium cost {brute_eq} is not 1.0")
    if abs(brute_opt - 0.75) > 5e-3:
        failures.append(f"grid search optimal cost {brute_opt} is not 0.75")
    with capsys.disabled():
        _report(1, "pigou price of anarchy is 4/3, confirmed by grid search", failures)


def test_criterion_2_batch_gap_convergence(capsys):
    failures: list[str] = []
    start = time.perf_counter()
    code = cli_run(["sweep", PIGOU_PATH, "--n-list", "1,2,4,...,1024"])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    if code != 0:
        failures.append(f"exit code {code}")
    rows = [line.split(",") for line in lines[1:]]
    counts = [int(row[0]) for row in rows]
    gaps = [float(row[2]) for row in rows]
    if counts != [2**k for k in range(11)]:
        failures.append(f"count column is {counts}")
    for count, gap in zip(counts, gaps):
        if gap <= 0:
            failures.append(f"gap at N={count} is {gap}, expected positive")
    for (n_a, gap_a), (n_b, gap_b) in zip(zip(counts, gaps), zip(counts[1:], gaps[1:])):
        if gap_b > gap_a:
            failures.append(f"gap rose from {gap_a} (N={n_a}) to {gap_b} (N={n_b})")
    if gaps and gaps[-1] > 1.0 / 4096.0 + 1e-9:
        failures.append(f"final gap {gaps[-1]} exceeds 1/4096 + 1e-9")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget is 1s")
    with capsys.disabled():
        _report(2, "uniform batch sweep gap halves with N down to 1/4096", failures)


def test_criterion_3_epsilon_budget(pigou, mono, twotype):
    rng = np.random.default_rng(8103)
    games = [pigou, mono, twotype] + [random_game(rng) for _ in range(50)]
    failures: list[str] = []
    start = time.perf_counter()
    for i, game in enumerate(games):
        for epsilon in (0.1, 0.01, 0.001):
            try:
                outcome = mechanism_pipeline(game, epsilon)
            except MechanismError as exc:
                failures.append(f"game {i} epsilon {epsilon}: {exc}")
                continue
            gap = outcome.batch_report.total_gap
            if gap > epsilon:
                failures.append(f"game {i} epsilon {epsilon}: overshoot {gap}")
            if not outcome.equilibrium.is_equilibrium:
                failures.append(f"game {i} epsilon {epsilon}: equilibrium check failed")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget is 30s")
    _report(3, "mechanism meets every epsilon budget with a verified equilibrium", failures)


def test_criterion_4_batch_verdict_equivalence(pigou, mono, twotype):
    rng = np.random.default_rng(8104)
    failures: list[str] = []
    for name, game in (("pigou", pigou), ("mono", mono), ("twotype", twotype)):
        optimum = solve(game, "marginal").flow
        for k in range(200):
            # Mix in the solved optimum so both verdicts occur.
            flow = optimum if k % 20 == 0 else random_feasible_flow(game, rng)
            system = random_batch_system(game, rng, max_count=6)
            verdict = verify_batch_equilibrium(game, flow, system).is_equilibrium
            expected = wardrop_gap(game, flow, "marginal") <= 1e-6
            if verdict != expected:
                failures.append(f"{name} pair {k}: verdict {verdict}, gap says {expected}")
            if exhaustive_batch_verify(game, flow, system) != verdict:
                failures.append(f"{name} pair {k}: exhaustive search disagrees")
    _report(4, "batch verdict equals marginal gap test and exhaustive search", failures)


def test_criterion_5_batch_cost_never_undercuts():
    rng = np.random.default_rng(8105)
    failures: list[str] = []
    checked = 0
    for _ in range(50):
        game = random_game(rng)
        for _ in range(20):
            flow = random_feasible_flow(game, rng)
            report = batch_social_cost(game, flow, random_batch_system(game, rng))
            checked += 1
            if report.total_gap < -1e-12:
                failures.append(f"flow {checked}: batch cost undercuts by {-report.total_gap}")
    if checked != 1000:
        failures.append(f"only {checked} flows checked")
    _report(5, "batch pricing never undercuts the plain social cost", failures)


def test_criterion_6_per_edge_costs_unique(pigou, mono, twotype):
    rng = np.random.default_rng(8106)
    games = [pigou, mono, twotype] + [random_game(rng) for _ in range(50)]
    failures: list[str] = []
    for i, game in enumerate(games):
        for mode in ("original", "marginal"):
            first = solve(game, mode)
            second = solve(game, mode, initial_flow=last_strategy_flow(game))
            totals_a = loads_by_edge(game, first.flow)
            totals_b = loads_by_edge(game, second.flow)
            for e in game.edges:
                cost_a = e.latency(totals_a[e.id]) * totals_a[e.id]
                cost_b = e.latency(totals_b[e.id]) * totals_b[e.id]
                if abs(cost_a - cost_b) > 1e-6:
                    failures.append(
                        f"game {i} mode {mode} edge {e.id}: "
                        f"costs {cost_a} and {cost_b} differ"
                    )
    _report(6, "per-edge costs agree across solver initializations", failures)


def test_criterion_7_marginal_solve_is_optimal(pigou, mono, twotype):
    rng = np.random.default_rng(8107)
    games = [pigou, mono, twotype] + [random_game(rng) for _ in range(10)]
    failures: list[str] = []
    for i, game in enumerate(games):
        optimal = solve(game, "marginal").social_cost_original
        for k in range(1000):
            candidate = social_cost(game, random_feasible_flow(game, rng))
            if optimal > candidate + 1e-6:
                failures.append(
                    f"game {i} flow {k}: solved cost {optimal} beats {candidate}"
                )
                break
    _report(7, "marginal-mode solve undercuts every random feasible flow", failures)


def test_criterion_8_latency_calculus():
    rng = np.random.default_rng(8108)
    failures: list[str] = []
    for poly in range(300):
        degree = int(rng.integers(0, 7))
        fn = LatencyFunction(tuple(float(c) for c in rng.uniform(0.0, 10.0, degree + 1)))
        for x in rng.uniform(0.0, 10.0, 3):
            x = float(x)
            exact = fn.derivative(x)
            step = 1e-5 * max(1.0, x)
            numeric = finite_difference(fn, x, step)
            if abs(numeric - exact) > 1e-6 * max(1.0, abs(exact)):
                failures.append(
                    f"poly {poly} at x={x}: derivative {exact}, difference {numeric}"
                )
            lhs = fn.marginal().integral(x)
            rhs = fn(x) * x
            if not math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12):
                failures.append(f"poly {poly} at x={x}: integral {lhs} vs cost {rhs}")
    _report(8, "derivatives and the marginal integral identity check out", failures)
