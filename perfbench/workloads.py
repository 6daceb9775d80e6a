"""The benchmark's workloads: the games each one runs, the `wardrop`
commands it sends per game, and the checks on their outputs.

A workload is a list of jobs. A job is one game pushed through a fixed
script of CLI commands, in order, because later commands read the files
earlier ones wrote. Every command carries its own checks. A check gets
the exit code, the captured stdout and a dict shared by the commands of
one run of the job, and returns a list of problems, empty when the output
is right. Checks that read a written file run once per distinct command.

Why each workload exists, and which metric each layer should move on it,
is in README.md next to this file.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from gamegen import generate_game

Check = Callable[[int, str, dict], list]
FileCheck = Callable[[str], list]

# Every command that solves runs with this relative potential gap. At the
# default, 1e-9, about 1 solve in 5000 of the small games wrote a flow
# whose Wardrop gap exceeded verify's default tolerance of 1e-6 (worst
# 8.7e-4): the stopping rule bounds the potential gap, not the excess of
# a strategy that holds little mass. At 1e-12 the worst gap seen in 40000
# small and 1200 30-edge solves was 2.6e-9.
GAP_TOL = 1e-12
TOL = ["--gap-tol", repr(GAP_TOL)]


@dataclass
class Command:
    argv: list[str]
    checks: list[tuple[str, Check]]
    # Checks on files the command wrote; run once, after the timed phase,
    # on the stdout of the command's last run.
    file_checks: list[tuple[str, FileCheck]] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def writes(self) -> list[Path]:
        """The files named by --out and --report. The harness removes them
        before each run: on ext4, truncating a file that holds data costs
        more kernel time, and varies more, than creating it, and only the
        later runs of a command would pay it."""
        return [Path(self.argv[i + 1]) for i, arg in enumerate(self.argv[:-1])
                if arg in ("--out", "--report")]


@dataclass
class Workload:
    games_dir: Path
    # One job per game: its commands, in the order they must run.
    jobs: list[list[Command]]
    # The first trace_jobs jobs form the fixed set a traced run replays.
    trace_jobs: int
    # The probe parts (probe.py) whose speed this workload's speed follows.
    speed_parts: tuple[str, ...]

    def check_names(self) -> set[str]:
        return {
            name
            for job in self.jobs
            for cmd in job
            for name, _ in cmd.checks + cmd.file_checks
        }


# ---------------------------------------------------------------- parsing


def _field(out: str, label: str) -> float:
    """The number after 'label: ' on the line that starts with it."""
    for line in out.splitlines():
        if line.startswith(label + ": "):
            return float(line[len(label) + 2:])
    raise ValueError(f"no '{label}' line in output")


def _guard(fn: Callable[..., list]) -> Callable[..., list]:
    """Turn a parse failure inside a check into a reported problem."""

    def checked(*args: Any) -> list:
        try:
            return fn(*args)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return [f"unreadable output: {exc!r}"]

    return checked


# Displayed numbers have 6 decimals, so a printed value can be off by
# half a unit in the last place.
DISPLAY_TOL = 5e-7 + 1e-12


def _close(printed: float, exact: float, tol: float = DISPLAY_TOL) -> bool:
    return abs(printed - exact) <= tol + 1e-12 * abs(exact)


# ----------------------------------------------------------------- checks


def _exit_code(expected: int) -> tuple[str, Check]:
    def check(rc: int, out: str, ctx: dict) -> list:
        return [] if rc == expected else [f"exit code {rc}, expected {expected}"]

    return (f"exit_code_{expected}", check)


@_guard
def _check_solve(rc: int, out: str, ctx: dict) -> list:
    ctx["eq_cost"] = _field(out, "social cost")
    problems = []
    if _field(out, "relative gap") != 0.0:
        problems.append("relative gap above display precision")
    if _field(out, "iterations") < 0:
        problems.append("negative iteration count")
    return problems


@_guard
def _check_optimum(rc: int, out: str, ctx: dict) -> list:
    ctx["opt_cost"] = _field(out, "optimal social cost")
    eq = ctx.get("eq_cost")
    if eq is not None and ctx["opt_cost"] > eq + DISPLAY_TOL * 2:
        return [f"optimum cost {ctx['opt_cost']} above equilibrium cost {eq}"]
    return []


@_guard
def _check_poa(rc: int, out: str, ctx: dict) -> list:
    eq = _field(out, "equilibrium social cost")
    opt = _field(out, "optimal social cost")
    ratio = _field(out, "price of anarchy")
    problems = []
    if "eq_cost" in ctx and eq != ctx["eq_cost"]:
        problems.append(f"poa equilibrium cost {eq} differs from solve {ctx['eq_cost']}")
    if "opt_cost" in ctx and opt != ctx["opt_cost"]:
        problems.append(f"poa optimal cost {opt} differs from optimum {ctx['opt_cost']}")
    if ratio < 1.0 - DISPLAY_TOL:
        problems.append(f"price of anarchy {ratio} below 1")
    return problems


def _check_batch_output(epsilon: float) -> Check:
    @_guard
    def check(rc: int, out: str, ctx: dict) -> list:
        problems = []
        gap = _field(out, "gap")
        if not -DISPLAY_TOL <= gap <= epsilon + DISPLAY_TOL:
            problems.append(f"batch gap {gap} outside [0, {epsilon}]")
        if "equilibrium: true" not in out.splitlines():
            problems.append("batch equilibrium verdict is not true")
        if _field(out, "batch social cost") < _field(out, "social cost") - DISPLAY_TOL:
            problems.append("batch cost undercuts the plain cost")
        # Both numbers are displayed values, so each carries rounding.
        if "opt_cost" in ctx and not _close(_field(out, "social cost"), ctx["opt_cost"],
                                            2 * DISPLAY_TOL):
            problems.append("batch prices a flow whose cost differs from the optimum")
        return problems

    return check


@_guard
def _check_sweep(rc: int, out: str, ctx: dict) -> list:
    lines = out.splitlines()
    if not lines or lines[0] != "N,batch_cost,gap":
        return ["missing sweep header"]
    rows = [line.split(",") for line in lines[1:]]
    counts = [int(r[0]) for r in rows]
    costs = [float(r[1]) for r in rows]
    gaps = [float(r[2]) for r in rows]
    ctx["sweep_rows"] = len(rows)
    problems = []
    if counts != sorted(counts) or not counts:
        problems.append("sweep counts not ascending")
    # Refining a right Riemann sum of a nondecreasing function never raises
    # it, so with nested counts the gap falls; allow float64 rounding.
    slack = 1e-12 * max(abs(c) for c in costs)
    if min(gaps) < -slack:
        problems.append(f"negative sweep gap {min(gaps)}")
    for (n0, g0), (n1, g1) in zip(zip(counts, gaps), zip(counts[1:], gaps[1:])):
        if n1 % n0 == 0 and g1 > g0 + slack:
            problems.append(f"sweep gap rises from N={n0} to N={n1}")
    return problems


def _check_verify(expected: int) -> Check:
    @_guard
    def check(rc: int, out: str, ctx: dict) -> list:
        violation = _field(out, "max violation")
        if expected == 0 and violation > 1e-6:
            return [f"verify passed with violation {violation}"]
        if expected == 1 and violation <= 1e-6:
            return [f"verify failed with violation {violation}"]
        return []

    return check


def _flow_check(game_path: Path, flow_path: Path, mode: str, label: str) -> FileCheck:
    """Recompute the Wardrop gap of a written flow and the cost printed
    for it."""

    def check(out: str) -> list:
        from wardrop import load_flow, load_game, social_cost, wardrop_gap

        game = load_game(game_path)
        flow = load_flow(flow_path, game)
        problems = []
        gap = wardrop_gap(game, flow, mode)
        if gap > 1e-6:
            problems.append(f"{flow_path.name}: {mode} Wardrop gap {gap:.3e} above 1e-6")
        if not _close(_field(out, label), social_cost(game, flow)):
            problems.append(f"{flow_path.name}: printed cost is not the flow's cost")
        return problems

    return _guard(check)


def _riemann_report_check(game_path: Path, report_path: Path, epsilon: float,
                          max_direct: int) -> FileCheck:
    """Per-edge batch costs against `wardrop.oracle.riemann_check`.

    Edges with at most max_direct batches are summed again by the oracle;
    larger ones would need arrays of N_e floats, so their cost is held to
    the Riemann error bound around the oracle's exact integral instead.
    """

    def check(out: str) -> list:
        import csv

        from wardrop import load_game
        from wardrop.oracle import riemann_check

        game = load_game(game_path)
        problems = []
        with open(report_path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        total = rows.pop()
        gap_sum = 0.0
        for row in rows:
            edge = game.edge(row["edge_id"])
            n, x = int(row["N_e"]), float(row["x_e"])
            batch_cost, base = float(row["batch_c_e"]), float(row["c_e"])
            lhat = edge.latency.marginal()
            tol = 1e-10 * max(1.0, abs(batch_cost))
            if n <= max_direct:
                reference = riemann_check(lhat, x, n)[0]
                if abs(batch_cost - reference) > tol:
                    problems.append(f"edge {row['edge_id']}: batch cost {batch_cost!r} "
                                    f"vs oracle {reference!r}")
            else:
                integral = riemann_check(lhat, x, 1)[1]
                bound = x / n * (lhat(x) - lhat(0.0))
                if not integral - tol <= batch_cost <= integral + bound + tol:
                    problems.append(f"edge {row['edge_id']}: batch cost {batch_cost!r} "
                                    f"outside [{integral!r}, +{bound!r}]")
            if abs(base - edge.latency(x) * x) > tol:
                problems.append(f"edge {row['edge_id']}: base cost {base!r} is not l(x) x")
            gap_sum += batch_cost - base
        total_gap = float(total["gap"])
        if not 0.0 <= total_gap <= epsilon:
            problems.append(f"total gap {total_gap!r} outside [0, {epsilon!r}]")
        if abs(total_gap - gap_sum) > 1e-9 * max(1.0, float(total["batch_c_e"])):
            problems.append("total gap is not the sum of the edge gaps")
        return problems

    return _guard(check)


def _pigou_values(pigou: bool, kind: str) -> list[tuple[str, Check]]:
    """Known Pigou answers: costs 1 and 0.75, ratio 4/3, counts 1 and 100.
    Empty for any other game."""
    if not pigou:
        return []
    expected = {
        "solve": ["social cost: 1.000000"],
        "optimum": ["optimal social cost: 0.750000"],
        "poa": ["price of anarchy: 1.333333"],
        "batch": ["edge e1: N=1 ", "edge e2: N=100 "],
    }[kind]

    def check(rc: int, out: str, ctx: dict) -> list:
        missing = [s for s in expected if s not in out]
        return [f"pigou output lacks {s!r}" for s in missing]

    return [("pigou_values", check)]


# -------------------------------------------------------------- workloads


def _write_game(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _solve_commands(game: Path, work: Path, pigou: bool) -> list[Command]:
    """solve and optimum, each writing its flow, then the three verify
    modes on those flows."""
    f_path, o_path = work / f"{game.stem}.eq.json", work / f"{game.stem}.opt.json"
    return [
        Command(["solve", str(game), "--out", str(f_path), *TOL],
                [_exit_code(0), ("solve_output", _check_solve)] + _pigou_values(pigou, "solve"),
                [("flow_gap_original", _flow_check(game, f_path, "original", "social cost"))]),
        Command(["optimum", str(game), "--out", str(o_path), *TOL],
                [_exit_code(0), ("optimum_output", _check_optimum)]
                + _pigou_values(pigou, "optimum"),
                [("flow_gap_marginal",
                  _flow_check(game, o_path, "marginal", "optimal social cost"))]),
        Command(["verify", str(game), str(f_path)],
                [_exit_code(0), ("verify_wardrop", _check_verify(0))]),
        Command(["verify", str(game), str(o_path), "--mode", "marginal"],
                [_exit_code(0), ("verify_marginal", _check_verify(0))]),
        Command(["verify", str(game), str(o_path), "--mode", "batch"],
                [_exit_code(0), ("verify_batch", _check_verify(0))]),
    ]


def _full_script(game: Path, work: Path, pigou: bool = False) -> list[Command]:
    """Every subcommand but oracle, on one small game."""
    # Pigou's documented counts {e1: 1, e2: 100} belong to epsilon 0.01.
    epsilon = 1e-2 if pigou else 1e-3
    cmds = _solve_commands(game, work, pigou)
    cmds += [
        Command(["poa", str(game), *TOL],
                [_exit_code(0), ("poa_output", _check_poa)] + _pigou_values(pigou, "poa")),
        Command(["batch", str(game), "--epsilon", repr(epsilon), *TOL],
                [_exit_code(0), ("batch_output", _check_batch_output(epsilon))]
                + _pigou_values(pigou, "batch")),
        Command(["sweep", str(game), "--n-list", "1,2,4,...,1024", *TOL],
                [_exit_code(0), ("sweep_monotone", _check_sweep)]),
    ]
    if pigou:
        # Negative control: the optimum is not a Wardrop equilibrium.
        o_path = work / f"{game.stem}.opt.json"
        cmds.append(Command(["verify", str(game), str(o_path)],
                            [_exit_code(1), ("verify_negative_control", _check_verify(1))]))
    return cmds


def gen_mid(seed: int, work: Path, tiny: bool) -> Workload:
    """Solver-bound: many generated 30-edge games, solve + optimum + verify."""
    rng = random.Random(f"gen-mid/{seed}")
    games_dir = work / "games"
    pool, trace = (3, 2) if tiny else (300, 12)
    scale = dict(n_edges=6, n_types=2, n_strategies=2) if tiny else \
        dict(n_edges=30, n_types=6, n_strategies=4)
    jobs = []
    for k in range(pool):
        game = _write_game(generate_game(rng, **scale), games_dir / f"g{k:04d}.json")
        cmds = _solve_commands(game, work, pigou=False)
        if k == 0:
            # One mechanism run per pool, so that the batch layers have
            # work to time on this workload too.
            cmds.append(Command(["batch", str(game), "--epsilon", "0.001", *TOL],
                                [_exit_code(0), ("batch_output", _check_batch_output(1e-3))]))
        jobs.append(cmds)
    return Workload(games_dir, jobs, trace, speed_parts=("core", "memory"))


def batch_tight(seed: int, work: Path, tiny: bool, fixtures: Path) -> Workload:
    """Pricing-bound: Riemann sums over tens of millions of batches."""
    from wardrop import SolverParams, formats, select_batch_system, solve

    rng = random.Random(f"batch-tight/{seed}")
    games_dir = work / "games"
    pool = 2 if tiny else 6
    target = 2e4 if tiny else 6.5e7
    top = 64 if tiny else 4194304
    mono_eps = 1e-3 if tiny else 1e-7
    max_direct = 1 << 20
    mono = games_dir / "mono.json"
    shutil.copyfile(fixtures / "mono.json", mono)
    jobs = []
    for k in range(pool):
        doc = generate_game(rng, n_edges=30, n_types=6, n_strategies=4)
        game_path = _write_game(doc, games_dir / f"b{k:02d}.json")
        # Fix the work, not epsilon: the selected counts scale as 1/epsilon,
        # so pick the epsilon whose counts sum to the target. A fixed
        # epsilon (1e-5) gave sums from 6.5e7 to 3.5e8 over 12 seeds.
        game = formats.load_game(game_path)
        optimum = solve(game, "marginal", SolverParams(relative_gap_tol=GAP_TOL))
        probe = 1e-5
        total = sum(select_batch_system(game, optimum.flow, probe).counts.values())
        epsilon = probe * total / target
        o_path = work / f"b{k:02d}.opt.json"
        formats.save_flow(optimum.flow, o_path)
        report = work / f"b{k:02d}.report.csv"
        mono_report = work / f"b{k:02d}.mono.csv"
        cmds = [
            Command(["batch", str(game_path), "--epsilon", repr(epsilon),
                     "--report", str(report), *TOL],
                    [_exit_code(0), ("batch_output", _check_batch_output(epsilon))],
                    [("batch_riemann", _riemann_report_check(game_path, report, epsilon,
                                                              max_direct))]),
            Command(["sweep", str(game_path), "--n-list", f"1,2,4,...,{top}", *TOL],
                    [_exit_code(0), ("sweep_monotone", _check_sweep)]),
            Command(["batch", str(mono), "--epsilon", repr(mono_eps),
                     "--report", str(mono_report), *TOL],
                    [_exit_code(0), ("mono_batch_output", _check_batch_output(mono_eps))],
                    [("mono_riemann", _riemann_report_check(mono, mono_report, mono_eps,
                                                             max_direct))]),
            Command(["verify", str(game_path), str(o_path), "--mode", "batch"],
                    [_exit_code(0), ("verify_batch", _check_verify(0))]),
        ]
        jobs.append(cmds)
    return Workload(games_dir, jobs, 1, speed_parts=("memory",))


def small_many(seed: int, work: Path, tiny: bool, fixtures: Path) -> Workload:
    """Per-call overhead: the fixtures plus ~200 games at test scale."""
    rng = random.Random(f"small-many/{seed}")
    games_dir = work / "games"
    n_games = 4 if tiny else 200
    jobs = []
    for name in ("pigou", "mono", "twotype"):
        game = games_dir / f"{name}.json"
        shutil.copyfile(fixtures / f"{name}.json", game)
        jobs.append(_full_script(game, work, pigou=name == "pigou"))
    for k in range(n_games):
        # The scale of the test suite's random games: up to 6 edges, 3 types
        # of up to 3 strategies with up to 3 edges, degree up to 3.
        n_edges = rng.randint(1, 6)
        doc = generate_game(
            rng, n_edges=n_edges, n_types=rng.randint(1, 3), n_strategies=rng.randint(1, 3),
            degree=(0, 3), strategy_len=(1, 3), demand=(0.1, 1.5),
        )
        game = _write_game(doc, games_dir / f"s{k:04d}.json")
        jobs.append(_full_script(game, work))
    return Workload(games_dir, jobs, len(jobs), speed_parts=("core", "memory"))


NAMES = ("gen-mid", "batch-tight", "small-many")


def build(name: str, seed: int, work: Path, fixtures: Path, tiny: bool = False) -> Workload:
    (work / "games").mkdir(parents=True, exist_ok=True)
    if name == "gen-mid":
        return gen_mid(seed, work, tiny)
    if name == "batch-tight":
        return batch_tight(seed, work, tiny, fixtures)
    if name == "small-many":
        return small_many(seed, work, tiny, fixtures)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
