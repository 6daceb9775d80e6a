"""Benchmark of the `wardrop` command line, run in-process through
`wardrop.cli.run`.

    python3 perfbench/run.py --workload gen-mid --seed 1 --seconds 36 --trace 0

One client in one process, no threads, closed loop: each command is sent
only after the previous one returned. Jobs (one game through the
workload's command script) are sent until --seconds of command time
have passed; the last job started is finished. Between commands, at most
once a second, the run times probe.py to measure the machine's speed.
Outputs are checked after the timed phase.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
replays a fixed set of jobs, alternating untraced and traced passes, and
reports the per-layer metrics; their times are self times summed over
one pass, median over the traced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when an output check
failed and 2 when the benchmark could not run at all (no result line).
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before anything imports numpy, so a
# run measures the one core the closed loop uses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports no numpy)
from probe import PARTS, probe  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK_ROOT = HERE / "_work"

# Fresh interpreters started to time set-up, before and after the timed
# phase so that the median spans the run's drift in machine speed.
SETUP_REPEATS = (4, 3)
SETUP_CODE = (
    "import pathlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import wardrop\n"
    "for path in sorted(pathlib.Path(sys.argv[2]).glob('*.json')):\n"
    "    wardrop.load_game(path)\n"
)
# The probe (probe.py) runs between commands at most this often. A
# part's speed in a run is its reference time over its median time in
# the run; the machine's speed is the geometric mean of the speeds of the
# parts the workload follows. The reference times are about the parts'
# median times on the 2-core Xeon VM the benchmark was written on. Over
# 87 runs there, the commands' rate rose as the machine's speed to the
# power 0.71 to 0.94, so the rate is scaled by the speed to the power
# PROBE_ELASTICITY (README.md, "Noise").
PROBE_EVERY_S = 1.0
PROBE_REF_S = {"core": 0.005, "memory": 0.022}
PROBE_ELASTICITY = 0.75
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END_UNITS = {"setup_s": "s", "ref_cmds_per_s": "1/s"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "formats.load_game_s": "s",
    "formats.load_flow_s": "s",
    "formats.save_s": "s",
    "model.validate_game_s": "s",
    "model.edge_loads_s": "s",
    "model.is_feasible_s": "s",
    "model.social_cost_s": "s",
    "solver.solve_original_s": "s",
    "solver.solve_marginal_s": "s",
    "solver.s_per_iteration": "s",
    "solver.iterations_original": "count",
    "solver.iterations_marginal": "count",
    "solver.wardrop_gap_s": "s",
    "batch.select_s": "s",
    "batch.price_s": "s",
    "batch.verify_s": "s",
    "batch.batches_priced": "count",
    "batch.ns_per_batch": "ns",
    "tracing.overhead_s": "s",
}


@dataclass
class Run:
    """One command sent: where it came from, what it returned, its cost."""

    job: int
    cmd: int
    rc: int
    out: str
    err: str
    wall: float
    cpu: float


def run_command(cli, argv: list[str], job: int, cmd: int, tracer=None) -> Run:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.run") if tracer else contextlib.nullcontext()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            rc = cli.run(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return Run(job, cmd, rc, out.getvalue(), err.getvalue(), wall, cpu)


def run_jobs(cli, workload, indices, tracer=None, between=None) -> list[Run]:
    """Run the commands of the given jobs in order; call `between`, if
    given, after each command."""
    runs = []
    for j in indices:
        for c, command in enumerate(workload.jobs[j]):
            for path in command.writes:
                path.unlink(missing_ok=True)
            runs.append(run_command(cli, command.argv, j, c, tracer))
            if between:
                between()
    return runs


def timed_phase(cli, workload, seconds: float) -> tuple[list[Run], float, list[dict]]:
    """Send whole jobs, cycling through the pool, until the time is up.
    Between commands, at most once every PROBE_EVERY_S, time the probe.
    The time returned leaves the probes out."""
    probes = [probe()]
    start = last = time.perf_counter()
    probing = 0.0

    def between() -> None:
        nonlocal last, probing
        t0 = time.perf_counter()
        if t0 - last >= PROBE_EVERY_S:
            probes.append(probe())
            last = time.perf_counter()
            probing += last - t0

    runs: list[Run] = []
    k = 0
    while True:
        runs += run_jobs(cli, workload, [k % len(workload.jobs)], between=between)
        k += 1
        elapsed = time.perf_counter() - start - probing
        if elapsed >= seconds:
            return runs, elapsed, probes


def traced_phase(cli, workload, seconds: float) -> tuple[list[Run], dict]:
    """Pairs of one untraced and one traced pass over the fixed trace set,
    in alternating order so that a drift in machine speed cancels in the
    overhead. After the first pair, another starts only if one as long as
    the last still fits in the time."""
    indices = range(workload.trace_jobs)
    runs: list[Run] = []
    overheads, passes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        pair_start = time.perf_counter()
        walls = {}
        tracer = Tracer()
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            if traced:
                with tracer.installed():
                    runs += run_jobs(cli, workload, indices, tracer)
            else:
                runs += run_jobs(cli, workload, indices)
            walls[traced] = time.perf_counter() - t0
        overheads.append(walls[True] - walls[False])
        passes.append((tracer, walls[True]))
        now = time.perf_counter()
        if now + (now - pair_start) > deadline:
            return runs, {"overheads": overheads, "passes": passes}


def check_runs(workload, runs: list[Run]) -> tuple[int, list[str], set[str]]:
    """Run every check; return failed commands, problems and checks run."""
    failed_keys: set[int] = set()
    problems: list[str] = []
    ran: set[str] = set()
    last: dict[tuple[int, int], str] = {}
    ctx: dict = {}
    for i, run in enumerate(runs):
        if run.cmd == 0:
            ctx = {}
        command = workload.jobs[run.job][run.cmd]
        found = []
        for name, check in command.checks:
            ran.add(name)
            found += check(run.rc, run.out, ctx)
        if found:
            failed_keys.add(i)
            problems += [f"{' '.join(command.argv)}: {p} | {run.err.strip()[-300:]}"
                         for p in found]
        last[(run.job, run.cmd)] = run.out
    for (j, c), out in last.items():
        command = workload.jobs[j][c]
        found = []
        for name, check in command.file_checks:
            ran.add(name)
            found += check(out)
        if found:
            problems += [f"{' '.join(command.argv)}: {p}" for p in found]
            failed_keys.update(i for i, r in enumerate(runs) if (r.job, r.cmd) == (j, c))
    return len(failed_keys), problems, ran


def measure_setup(games_dir: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Wall and CPU time of fresh interpreters importing wardrop and
    loading every game file of the workload once."""
    walls, cpus = [], []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(games_dir)],
                       cwd=ROOT, check=True)
        walls.append(time.perf_counter() - t0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpus.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return walls, cpus


def tail(values: list[float]) -> dict:
    """Sample count, median and the highest listed percentile that has at
    least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "p50": statistics.median(ordered) if ordered else None}
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            summary[f"p{p:g}"] = ordered[max(0, math.ceil(p / 100 * n) - 1)]
            break
    return summary


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_text = "unknown"
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg(),
    }


def end_to_end(workload, runs, elapsed, probes, setup_walls) -> tuple[dict, dict]:
    jobs: dict[int, float] = {}
    job_walls: list[float] = []
    for run in runs:
        jobs[run.job] = jobs.get(run.job, 0.0) + run.wall
        if run.cmd == len(workload.jobs[run.job]) - 1:
            job_walls.append(jobs.pop(run.job))
    by_kind: dict[str, list[float]] = {}
    for run in runs:
        by_kind.setdefault(workload.jobs[run.job][run.cmd].kind, []).append(run.wall)
    rate = len(runs) / elapsed
    probe_s = {part: statistics.median(p[part] for p in probes) for part in PARTS}
    speed = statistics.geometric_mean(PROBE_REF_S[part] / probe_s[part]
                                      for part in workload.speed_parts)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "ref_cmds_per_s": rate / speed**PROBE_ELASTICITY,
    }
    details = {
        "cmds_per_s": rate,
        "machine_speed": speed,
        "probe_s": {**probe_s, "n": len(probes), "speed_parts": workload.speed_parts},
        "job_s": tail(job_walls),
        **{f"{kind}_s": tail(walls) for kind, walls in sorted(by_kind.items())},
        "setup_walls": setup_walls,
        "timed_phase_s": elapsed,
        "wall_s": sum(r.wall for r in runs),
        "cpu_s": sum(r.cpu for r in runs),
    }
    return metrics, details


def per_layer(info: dict) -> tuple[dict, dict]:
    tracers = [tracer for tracer, _ in info["passes"]]
    per_pass = [t.layer_times() for t in tracers]
    layer = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    counts = tracers[0].counts
    metrics = dict(layer)
    metrics["solver.iterations_original"] = counts["iterations_original"]
    metrics["solver.iterations_marginal"] = counts["iterations_marginal"]
    iterations = counts["iterations_original"] + counts["iterations_marginal"]
    solve_time = layer["solver.solve_original_s"] + layer["solver.solve_marginal_s"]
    metrics["solver.s_per_iteration"] = solve_time / iterations if iterations else 0.0
    metrics["batch.batches_priced"] = counts["batches_priced"]
    metrics["batch.ns_per_batch"] = (
        layer["batch.price_s"] * 1e9 / counts["batches_priced"] if counts["batches_priced"] else 0.0
    )
    metrics["tracing.overhead_s"] = statistics.median(info["overheads"])
    traced = statistics.median(wall for _, wall in info["passes"])
    details = {
        "pairs": len(tracers),
        "traced_pass_wall_s": traced,
        "overheads_s": info["overheads"],
        "share_of_traced_pass": {k: round(v / traced, 4) for k, v in layer.items()},
        "other_spans_s": {k: round(v, 6) for k, v in tracers[0].untracked_spans().items()},
        "exceptions": dict(sum((t.errors for t in tracers), Counter())),
        "counts_repeat": all(t.counts == counts for t in tracers),
    }
    return metrics, details


def report(workload: str, metrics: dict, units: dict, details: dict) -> None:
    print(f"workload {workload}")
    for name in units:
        print(f"  {name:<28} {metrics[name]!r:>24} {units[name]}")
    for name, value in details.items():
        print(f"  {name}: {json.dumps(value, default=str)}")


def run_workload(cli, name: str, seed: int, seconds: float, trace: int, tiny: bool) -> int:
    """Prepare, run and check one workload; print its table and result."""
    env = environment()
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        workload = workloads.build(name, seed, work, FIXTURES, tiny)
        prepare_s = time.perf_counter() - t0
        # Warm-up on throwaway games so that lazy imports and first-call
        # costs land before the clock starts.
        warm = workloads.build("small-many", seed, work / "warm", FIXTURES, tiny=True)
        run_jobs(cli, warm, range(len(warm.jobs)))

        if trace:
            runs, info = traced_phase(cli, workload, seconds)
            metrics, details = per_layer(info)
            units = PER_LAYER_UNITS
        else:
            setup_walls, setup_cpus = measure_setup(workload.games_dir, SETUP_REPEATS[0])
            runs, elapsed, probes = timed_phase(cli, workload, seconds)
            walls, cpus = measure_setup(workload.games_dir, SETUP_REPEATS[1])
            setup_walls, setup_cpus = setup_walls + walls, setup_cpus + cpus
            metrics, details = end_to_end(workload, runs, elapsed, probes, setup_walls)
            details["setup_cpu_s"] = setup_cpus
            units = END_TO_END_UNITS
        t0 = time.perf_counter()
        failed, problems, ran = check_runs(workload, runs)
        details["prepare_s"] = prepare_s
        details["check_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    missing = sorted(workload.check_names() - ran)
    details["fail_frac"] = failed / len(runs)
    details["checks_run"] = sorted(ran)
    details["environment"] = env
    if missing:
        problems.append(f"checks that never ran: {missing}")
    if problems:
        details["problems"] = problems[:20]
    report(name, metrics, units, details)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"),
                        help="'all' runs every workload in turn, one result line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A run stopped from outside still removes its generated inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "wardrop" / "__init__.py").is_file():
        print(f"error: no wardrop sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from wardrop import cli

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    return max([run_workload(cli, name, args.seed, args.seconds, args.trace, tiny)
                for name in names])


if __name__ == "__main__":
    sys.exit(main())
