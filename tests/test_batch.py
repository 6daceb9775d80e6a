import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import large_game, random_batch_system, random_feasible_flow, random_game
from wardrop import (
    BatchSystem,
    Edge,
    Flow,
    Game,
    LatencyFunction,
    MechanismError,
    PlayerType,
    batch_social_cost,
    batch_sweep,
    cli,
    load_game,
    mechanism_pipeline,
    price_of_anarchy,
    select_batch_system,
    social_cost,
    solve,
    wardrop_gap,
)
from wardrop.batch import _riemann_factors
from wardrop.formats import save_flow
from wardrop.model import VERIFY_TOL, _horner
from wardrop.oracle import exhaustive_batch_verify, riemann_check

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DATA = Path(__file__).resolve().parent / "data"

OPTIMUM = Flow({("t1", 0): 0.5, ("t1", 1): 0.5})
SELFISH = Flow({("t1", 0): 0.0, ("t1", 1): 1.0})


def edge_cost(game, flow, edge_id, n):
    """Batch cost of one edge split into n batches, the others into one."""
    system = BatchSystem({e.id: n if e.id == edge_id else 1 for e in game.edges})
    return batch_social_cost(game, flow, system).per_edge[edge_id].batch_cost


def test_batch_system_validation():
    with pytest.raises(ValueError, match=">= 1"):
        BatchSystem({"e1": 0})
    with pytest.raises(ValueError, match="integer"):
        BatchSystem({"e1": 1.5})
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"batch count for 'e1' .* got {bad!r}"):
            BatchSystem({"e1": bad})
    with pytest.raises(ValueError, match="batch count for 'e1' .* got '3'"):
        BatchSystem({"e1": "3"})


def test_batch_system_uniform(pigou):
    system = BatchSystem.uniform(pigou, 4)
    assert system.counts == {"e1": 4, "e2": 4}


def test_batch_latency_values(pigou):
    # Batch b of N pays the marginal latency at b/N of the load: 2x on e2
    # and the constant 1 on e1.
    view = pigou._arrays
    marginal = view.banks["marginal"][:, 0]
    x = np.array([0.5, 0.5])
    assert _horner(marginal, 1 / 1 * x)[1] == 1.0
    assert _horner(marginal, 3 / 10 * x)[1] == pytest.approx(0.3, rel=1e-12)
    assert _horner(marginal, 2 / 5 * x)[0] == 1.0
    # One batch pays the full-load latency on all of the load.
    report = batch_social_cost(pigou, OPTIMUM, BatchSystem.uniform(pigou, 1))
    assert [row.batch_cost for row in report.per_edge.values()] == [0.5 * 1.0, 0.5 * 1.0]


def test_batch_schedule_pigou(pigou):
    # Two batches of 0.25 on e2 pay 2x at 0.25 and at 0.5 of the load.
    cost = edge_cost(pigou, OPTIMUM, "e2", 2)
    assert cost == pytest.approx(0.25 * 0.5 + 0.25 * 1.0, rel=1e-12)
    assert riemann_check(pigou.edge("e2").latency.marginal(), 0.5, 2)[0] == pytest.approx(
        cost, rel=1e-12
    )


def test_batch_cost_nonincreasing_along_nested_counts():
    # Splitting every batch in two never raises the right Riemann sum of
    # a nondecreasing latency.
    game = one_edge_game((0.0, 1.0), 0.7)
    flow = Flow({("t", 0): 0.7})
    rows = batch_sweep(game, flow, [2**k for k in range(21)])
    costs = [cost for _, cost, _ in rows]
    gaps = [gap for _, _, gap in rows]
    assert costs == sorted(costs, reverse=True)
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] >= 0.0
    report = batch_social_cost(game, flow, BatchSystem({"e": 6}))
    assert report.per_edge["e"].load == pytest.approx(0.7, rel=1e-12)


def test_batch_edge_cost_values(pigou, mono):
    assert edge_cost(pigou, OPTIMUM, "e2", 1) == 0.5
    assert edge_cost(pigou, OPTIMUM, "e2", 10) == pytest.approx(0.275, rel=1e-12)
    assert edge_cost(mono, Flow({("t1", 0): 1.0}), "m1", 10) == pytest.approx(
        1.155, rel=1e-12
    )


def test_batch_edge_cost_closed_form(pigou):
    # Right Riemann sum of 2x over [0, 1/2] with N panels is 1/4 + 1/(4N).
    for n in range(1, 65):
        cost = edge_cost(pigou, OPTIMUM, "e2", n)
        assert cost == pytest.approx(0.25 + 0.25 / n, rel=1e-12)


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0 .. B_m as exact fractions, with B_1 = +1/2."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(math.comb(k + 1, i) * b[i] for i in range(k)) / (k + 1))
    b[1] = -b[1]
    return b


BERNOULLI = bernoulli_numbers(16)


def faulhaber(j: int, n: int) -> int:
    """S_j(n) = sum_{b=1..n} b^j by Faulhaber's formula."""
    total = sum(
        math.comb(j + 1, k) * BERNOULLI[k] * n ** (j + 1 - k) for k in range(j + 1)
    ) / (j + 1)
    assert total.denominator == 1
    return total.numerator


def test_faulhaber_matches_direct_power_sums():
    sums = [0] * 17
    for n in range(1, 201):
        for j in range(17):
            sums[j] += n**j
            assert faulhaber(j, n) == sums[j], (j, n)


@given(width=st.integers(min_value=1, max_value=17), n=st.integers(min_value=1, max_value=10**12))
@example(width=17, n=1)
@example(width=17, n=2)
@example(width=17, n=2**10)
@example(width=17, n=2**20)
@example(width=17, n=2**39)
def test_riemann_factors_are_exact_power_sums(width, n):
    # Each factor is the correctly rounded exact fraction, and every
    # excess is nonnegative, so a gap summed from them never cancels.
    ratio, excess = _riemann_factors(n, width)
    assert len(ratio) == len(excess) == width
    for j in range(width):
        exact = Fraction(faulhaber(j, n), n ** (j + 1))
        assert ratio[j] == float(exact), (j, n)
        assert excess[j] == float(exact - Fraction(1, j + 1)), (j, n)
        assert excess[j] >= 0


# Latencies up to degree 16, so marginal coefficient rows up to width 17.
latency_coeffs = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=17
)
loads_x = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def one_edge_game(coeffs, demand):
    return Game(
        edges=(Edge("e", LatencyFunction(tuple(coeffs))),),
        player_types=(PlayerType("t", demand, (frozenset({"e"}),)),),
    )


@given(coeffs=latency_coeffs, x=loads_x, n=st.integers(min_value=1, max_value=4096))
def test_batch_edge_cost_matches_oracle_sum(coeffs, x, n):
    # The closed form against the oracle's explicit sum over all n batches.
    game = one_edge_game(coeffs, x)
    cost = edge_cost(game, Flow({("t", 0): x}), "e", n)
    reference = riemann_check(game.edge("e").latency.marginal(), x, n)[0]
    assert cost == pytest.approx(reference, rel=1e-12, abs=1e-15)


@given(coeffs=latency_coeffs, x=loads_x, n=st.integers(min_value=1, max_value=2**50))
def test_batch_gap_nonnegative_and_falls_under_refinement(coeffs, x, n):
    # Halving every panel never raises a right Riemann sum of a
    # nondecreasing function; the direct gap keeps that without slack.
    game = one_edge_game(coeffs, x)
    flow = Flow({("t", 0): x})
    coarse = batch_social_cost(game, flow, BatchSystem({"e": n})).per_edge["e"].gap
    fine = batch_social_cost(game, flow, BatchSystem({"e": 2 * n})).per_edge["e"].gap
    assert 0.0 <= fine <= coarse


def test_batch_pricing_at_huge_counts(pigou):
    n = 10**12
    report = batch_social_cost(pigou, OPTIMUM, BatchSystem({"e1": 1, "e2": n}))
    # abs=0: approx's default absolute tolerance of 1e-12 would swamp both.
    assert report.per_edge["e2"].batch_cost == pytest.approx(0.25 + 0.25 / n, rel=1e-15, abs=0.0)
    assert report.per_edge["e2"].gap == pytest.approx(0.25 / n, rel=1e-12, abs=0.0)
    assert report.total_gap == report.per_edge["e1"].gap + report.per_edge["e2"].gap
    uniform = batch_social_cost(pigou, OPTIMUM, BatchSystem.uniform(pigou, n))
    assert uniform.per_edge["e2"] == report.per_edge["e2"]
    assert batch_sweep(pigou, OPTIMUM, [n]) == [(n, uniform.total_batch_cost, uniform.total_gap)]


def test_batch_edge_cost_rejects_bad_count(pigou):
    with pytest.raises(ValueError, match=">= 1"):
        batch_sweep(pigou, OPTIMUM, [0])
    for bad in (math.inf, math.nan, True, np.True_):
        shown = re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"batch count must be .* got {shown}"):
            batch_sweep(pigou, OPTIMUM, [bad])
        with pytest.raises(ValueError, match=f"batch count for 'e2' .* got {shown}"):
            BatchSystem({"e1": 1, "e2": bad})


def test_batch_social_cost_pigou_optimum(pigou):
    report = batch_social_cost(pigou, OPTIMUM, BatchSystem({"e1": 1, "e2": 10}))
    assert list(report.per_edge) == ["e1", "e2"]
    assert [row.count for row in report.per_edge.values()] == [1, 10]
    assert report.total_original_cost == pytest.approx(0.75, rel=1e-12)
    assert report.total_batch_cost == pytest.approx(0.775, rel=1e-12)
    assert report.total_gap == pytest.approx(0.025, rel=1e-12)
    assert report.per_edge["e1"].gap == 0.0
    assert report.per_edge["e2"].gap == pytest.approx(0.025, rel=1e-12)


def test_batch_social_cost_orders_edges(twotype):
    flow = Flow({("t1", 0): 0.5, ("t2", 0): 0.5})
    report = batch_social_cost(twotype, flow, BatchSystem.uniform(twotype, 3))
    assert list(report.per_edge) == ["e1", "e2"]
    assert report.per_edge["e1"].load == pytest.approx(1.0, rel=1e-12)
    assert report.per_edge["e2"].load == 0.0


def test_batch_social_cost_rejects_incomplete_system(pigou):
    with pytest.raises(ValueError, match="incomplete batch system"):
        batch_social_cost(pigou, OPTIMUM, BatchSystem({"e1": 1}))
    with pytest.raises(ValueError, match=r"unknown edges \['e9'\]"):
        batch_social_cost(pigou, OPTIMUM, BatchSystem({"e1": 1, "e2": 1, "e9": 1}))


def test_batch_social_cost_rejects_infeasible(pigou):
    with pytest.raises(ValueError, match="infeasible"):
        batch_social_cost(pigou, Flow({("t1", 0): 0.2}), BatchSystem.uniform(pigou, 1))


SWEEP_COUNTS = [1, 7, 1024, 2**22, 10**9]


def assert_sweep_matches_per_count_pricing(game, flow, counts):
    rows = batch_sweep(game, flow, counts)
    assert [row[0] for row in rows] == list(counts)
    for n, cost, gap in rows:
        report = batch_social_cost(game, flow, BatchSystem.uniform(game, n))
        assert (cost, gap) == (report.total_batch_cost, report.total_gap), n


def test_batch_sweep_equals_per_count_pricing_on_fixtures(pigou, mono, twotype):
    for game in (pigou, mono, twotype):
        flows = [solve(game, "marginal").flow, solve(game, "original").flow]
        for flow in flows:
            assert_sweep_matches_per_count_pricing(game, flow, SWEEP_COUNTS)


def test_batch_sweep_equals_per_count_pricing_on_random_games():
    rng = np.random.default_rng(9)
    for _ in range(20):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        assert_sweep_matches_per_count_pricing(game, flow, SWEEP_COUNTS)
    # Past 8 edges numpy's pairwise sum no longer adds left to right.
    game = large_game(9, n_edges=30, n_types=6, n_strategies=4)
    assert_sweep_matches_per_count_pricing(game, random_feasible_flow(game, rng), SWEEP_COUNTS)


def test_batch_sweep_keeps_order_and_repeats(pigou):
    rows = batch_sweep(pigou, OPTIMUM, [4, 1, 4])
    assert [row[0] for row in rows] == [4, 1, 4]
    assert rows[0] == rows[2]
    assert batch_sweep(pigou, OPTIMUM, []) == []


def test_batch_sweep_rejects_infeasible_flow_and_bad_counts(pigou):
    with pytest.raises(ValueError, match="infeasible"):
        batch_sweep(pigou, Flow({("t1", 0): 0.2}), [1, 2])
    for bad in (0, 1.5, math.inf, math.nan, True):
        with pytest.raises(ValueError, match=f"batch count must be .* got {bad!r}"):
            batch_sweep(pigou, OPTIMUM, [1, bad])


@pytest.fixture(scope="module")
def traced_long_sweep():
    # 3000 counts on a 300-edge game of degree up to 4, priced in nine
    # blocks of up to 349 counts. Tracing costs about a microsecond per
    # priced (count, edge) value, so the game is wide and the list short,
    # and the two tests below read this one traced run.
    game = large_game(3, n_types=6, n_strategies=4)
    flow = random_feasible_flow(game, np.random.default_rng(3))
    counts = range(1, 6001, 2)
    tracemalloc.start()
    try:
        rows = batch_sweep(game, flow, counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return game, flow, counts, rows, peak


def test_batch_sweep_memory_is_bounded_on_long_count_lists(traced_long_sweep):
    # The traced run peaks at about 14 MB when priced in blocks and each
    # Horner pass keeps only its values. Pricing in a single block peaks
    # at about 84 MB.
    game, flow, counts, rows, peak = traced_long_sweep
    assert peak < 21 * 2**20
    assert len(rows) == len(counts)
    for k in (0, 1, 698, 699, 2000, len(counts) - 1):
        n, cost, gap = rows[k]
        report = batch_social_cost(game, flow, BatchSystem.uniform(game, n))
        assert (n, cost, gap) == (counts[k], report.total_batch_cost, report.total_gap)


def test_batch_sweep_peak_leaves_out_horner_partial_sums(traced_long_sweep):
    # Keeping every partial sum of the (width, counts, edges) stacks that
    # each block prices raises the traced run's peak to about 25 MB.
    *_, peak = traced_long_sweep
    assert peak < 21 * 2**20


def test_select_batch_system_pigou(pigou):
    system = select_batch_system(pigou, OPTIMUM, 0.1)
    assert system.counts == {"e1": 1, "e2": 10}
    report = batch_social_cost(pigou, OPTIMUM, system)
    assert report.total_gap <= 0.1


def test_select_batch_system_mono(mono):
    flow = Flow({("t1", 0): 1.0})
    system = select_batch_system(mono, flow, 0.2)
    assert system.counts == {"m1": 15}
    assert batch_social_cost(mono, flow, system).total_gap <= 0.2


def test_select_batch_system_rejects_bad_epsilon(pigou):
    with pytest.raises(ValueError, match="epsilon"):
        select_batch_system(pigou, OPTIMUM, 0.0)


def test_select_batch_system_rejects_non_finite_epsilon(pigou):
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            select_batch_system(pigou, OPTIMUM, epsilon)


def test_select_batch_system_rejects_overflowing_count(pigou):
    # x * span / epsilon = 0.5 / 1e-320 is past the largest float.
    with pytest.raises(ValueError, match="batch count for edge 'e2' is not finite"):
        select_batch_system(pigou, OPTIMUM, 1e-320)


def test_select_batch_system_idle_edges_get_one(pigou):
    system = select_batch_system(pigou, SELFISH, 0.5)
    assert system.counts["e1"] == 1


def test_select_respects_budget_on_random_games():
    rng = np.random.default_rng(41)
    for _ in range(25):
        game = random_game(rng)
        flow = solve(game, "marginal").flow
        for epsilon in (0.5, 0.05):
            system = select_batch_system(game, flow, epsilon)
            report = batch_social_cost(game, flow, system)
            assert report.total_gap <= epsilon + 1e-12


def test_verify_batch_equilibrium_examples(pigou):
    # The batch verdict is the marginal gap's, under any batch counts.
    for system in (select_batch_system(pigou, OPTIMUM, 0.1), BatchSystem.uniform(pigou, 1)):
        assert exhaustive_batch_verify(pigou, OPTIMUM, system)
        assert not exhaustive_batch_verify(pigou, SELFISH, system)
    assert wardrop_gap(pigou, OPTIMUM, "marginal") == 0.0
    assert wardrop_gap(pigou, SELFISH, "marginal") == 1.0


def test_verify_tolerance_is_inclusive(pigou, tmp_path, capsys):
    # The selfish flow's batch violation is exactly 1.0, so tol=1.0 accepts it.
    path = tmp_path / "selfish.json"
    save_flow(SELFISH, path)
    code = cli.run(["verify", str(FIXTURES / "pigou.json"), str(path),
                    "--mode", "batch", "--tol", "1.0"])
    assert capsys.readouterr().out.splitlines() == ["max violation: 1.000000"]
    assert code == 0
    assert exhaustive_batch_verify(pigou, SELFISH, BatchSystem.uniform(pigou, 1), tol=1.0)


def test_verify_agrees_with_exhaustive_search():
    rng = np.random.default_rng(43)
    for _ in range(30):
        game = random_game(rng, max_edges=3, max_types=2)
        flow = random_feasible_flow(game, rng)
        system = random_batch_system(game, rng, max_count=3)
        verdict = wardrop_gap(game, flow, "marginal") <= VERIFY_TOL
        assert exhaustive_batch_verify(game, flow, system) == verdict


def test_mechanism_pipeline_pigou(pigou):
    report = mechanism_pipeline(pigou, 0.1)
    assert report.epsilon == 0.1
    assert report.batch_system.counts == {"e1": 1, "e2": 10}
    assert report.batch_report.total_gap == pytest.approx(0.025, rel=1e-9)
    assert report.optimum.equilibrium_violation <= VERIFY_TOL
    assert report.optimal_cost == pytest.approx(0.75, rel=1e-9)
    assert report.selfish_cost == pytest.approx(1.0, rel=1e-9)
    assert report.price_of_anarchy == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_mechanism_pipeline_tightens_with_epsilon(pigou):
    report = mechanism_pipeline(pigou, 0.01)
    assert report.batch_system.counts == {"e1": 1, "e2": 100}
    assert report.batch_report.total_gap == pytest.approx(0.0025, rel=1e-9)


def test_mechanism_pipeline_mono(mono):
    report = mechanism_pipeline(mono, 1.0)
    assert report.batch_system.counts == {"m1": 3}
    assert report.batch_report.total_gap == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert report.price_of_anarchy == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize(
    "path",
    [FIXTURES / f"{name}.json" for name in ("pigou", "mono", "twotype")]
    + [DATA / f"gen_mid_seed41_game{k}.json" for k in ("01", "11")],
    ids=lambda path: path.stem,
)
def test_pair_costs_equal_separate_solves(path):
    # The mechanism and the price of anarchy solve the same pair as two
    # solve calls, bit for bit.
    game = load_game(path)
    selfish = solve(game, "original").social_cost_original
    optimal = solve(game, "marginal").social_cost_original
    report = mechanism_pipeline(game, 0.01)
    assert (report.selfish_cost, report.optimal_cost) == (selfish, optimal)
    assert report.price_of_anarchy == price_of_anarchy(game) == selfish / optimal


def test_mechanism_pipeline_budget_on_random_games():
    rng = np.random.default_rng(44)
    for _ in range(15):
        game = random_game(rng)
        report = mechanism_pipeline(game, 0.05)
        overhead = report.batch_report.total_batch_cost - social_cost(
            game, report.optimum.flow
        )
        assert overhead <= 0.05 + 1e-12
        assert report.optimum.equilibrium_violation <= VERIFY_TOL


def test_batch_cost_never_below_original():
    rng = np.random.default_rng(45)
    for _ in range(30):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        report = batch_social_cost(game, flow, random_batch_system(game, rng))
        assert report.total_gap >= -1e-12


def test_batch_cost_refines_dyadically(pigou, mono, twotype):
    cases = [
        (pigou, OPTIMUM),
        (mono, Flow({("t1", 0): 1.0})),
        (twotype, Flow({("t1", 0): 0.5, ("t2", 0): 0.5})),
    ]
    for game, flow in cases:
        n = 1
        while n <= 64:
            coarse = batch_social_cost(game, flow, BatchSystem.uniform(game, n))
            fine = batch_social_cost(game, flow, BatchSystem.uniform(game, 2 * n))
            assert fine.total_batch_cost <= coarse.total_batch_cost + 1e-12
            n *= 2


def test_per_edge_gap_bound():
    # One panel of width x/N at slope span(l-hat) bounds the Riemann error.
    rng = np.random.default_rng(46)
    for _ in range(20):
        game = random_game(rng)
        flow = random_feasible_flow(game, rng)
        system = random_batch_system(game, rng)
        report = batch_social_cost(game, flow, system)
        assert len(report.per_edge) == len(game.edges)
        for edge_id, row in report.per_edge.items():
            marginal = game.edge(edge_id).latency.marginal()
            span = marginal(row.load) - marginal(0.0)
            bound = row.load * span / row.count
            assert row.gap <= bound + 1e-12


def test_mechanism_pipeline_rejects_bad_epsilon(pigou):
    with pytest.raises(ValueError, match="epsilon"):
        mechanism_pipeline(pigou, -0.5)
    assert issubclass(MechanismError, RuntimeError)
