"""Self-test of the benchmark at its smallest scale.

    python3 perfbench/selftest.py

Runs every workload with tiny games in both modes and checks the result
line against BENCHMARK.json: its keys, the metric names and units, and
that every output check of the workload ran and passed. It also checks
that the checks can fail: with a command line that only returns exit
code 3, and with wrong Pigou numbers. Last, it runs the benchmark in a
directory holding only BENCHMARK.json and the benchmark, where it must
exit nonzero without a result line. Timings are not checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # first: pins the BLAS threads before numpy loads
import workloads

HERE = Path(__file__).resolve().parent
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def run_tiny(workload: str, trace: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                       "--trace", str(trace)], tiny=True)
    return rc, out.getvalue()


def check_result(label: str, rc: int, text: str, spec: list[dict], checks: set[str]) -> None:
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    expect(rc == 0, f"{label}: exit code {rc}")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{label}: not correct: {[l for l in lines if 'problems' in l]}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted {result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    expect(set(got) == set(want), f"{label}: metrics {sorted(got)} != {sorted(want)}")
    for name, entry in got.items():
        expect(set(entry) == {"value", "unit"}, f"{label}: {name} keys {sorted(entry)}")
        expect(isinstance(entry["value"], (int, float)), f"{label}: {name} not a number")
        expect(entry["unit"] == want.get(name), f"{label}: {name} unit {entry['unit']}")
        expect(f"  {name} " in text, f"{label}: {name} missing from the printed table")
    ran = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("  checks_run: "))
    expect(set(ran) == checks, f"{label}: checks run {sorted(ran)} != {sorted(checks)}")


def check_failures_detected() -> None:
    from wardrop import cli

    original = cli.run
    cli.run = lambda argv: 3
    try:
        rc, text = run_tiny("small-many", 0)
    finally:
        cli.run = original
    result = json.loads(text.strip().splitlines()[-1])
    expect(rc == 1 and result["correct"] is False and result["failed"] == result["attempted"],
           f"failing commands not caught: rc {rc}, {result}")

    work = run.WORK_ROOT / "selftest-pigou"
    try:
        pigou = workloads.build("small-many", 0, work, run.FIXTURES, tiny=True).jobs[0]
        solve_cmd = pigou[0]
        wrong = "social cost: 0.900000\nrelative gap: 0.000000\niterations: 1\n"
        problems = [p for _, c in solve_cmd.checks for p in c(0, wrong, {})]
        expect(any("pigou" in p for p in problems), "wrong Pigou cost not caught")
        problems = [p for _, c in solve_cmd.checks for p in c(4, "", {})]
        expect(len(problems) >= 2, "missing output and exit code 4 not caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = run.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "small-many", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0, "bare directory run exited 0")
        expect('"correct"' not in proc.stdout, "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json workloads differ from the harness")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "end_to_end metrics differ from the harness")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
           "per_layer metrics differ from the harness")
    for name in workloads.NAMES:
        work = run.WORK_ROOT / f"selftest-{name}"
        try:
            checks = workloads.build(name, 3, work, run.FIXTURES, tiny=True).check_names()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, text = run_tiny(name, trace)
            check_result(f"{name} trace={trace}", rc, text, spec[key], checks)
    check_failures_detected()
    check_bare_directory()
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest ok" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
