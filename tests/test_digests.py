"""Byte-for-byte digests of the benchmark's seed-41 command pools.

Each workload's pool is built with perfbench/workloads.py, which is only
imported, and every command runs once, in order, through cli.run in a
temporary directory. A command's hash covers its argv, its exit code,
its stdout and stderr, and the bytes of every file it writes
(Command.writes), with the work directory replaced by <work>.
tests/data/digests.json holds one digest per workload and a short hash
per command, so that a mismatch names the first command that differs.

A change that moves output bits on purpose re-records the file, and says
which commands changed:

    PYTHONPATH=src python tests/test_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from wardrop import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DIGESTS = ROOT / "tests" / "data" / "digests.json"
SEED = 41
WORKLOADS = ("gen-mid", "batch-tight", "small-many")
SHORT = 12


def _workloads():
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads

    return workloads


def command_records(name: str, work: Path) -> list[tuple[list[str], str]]:
    """Each command of the workload's pool, as its argv with <work> in
    place of the work directory, and the sha256 of what it did."""
    workload = _workloads().build(name, SEED, work, ROOT / "fixtures")
    here = str(work)
    records = []
    for job in workload.jobs:
        for command in job:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(command.argv)
            files = [
                [str(path).replace(here, "<work>"),
                 hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None]
                for path in command.writes
            ]
            argv = [arg.replace(here, "<work>") for arg in command.argv]
            outcome = [argv, code, out.getvalue().replace(here, "<work>"),
                       err.getvalue().replace(here, "<work>"), files]
            records.append((argv, hashlib.sha256(json.dumps(outcome).encode()).hexdigest()))
    return records


def digest(records: list[tuple[list[str], str]]) -> str:
    return hashlib.sha256("".join(h for _, h in records).encode()).hexdigest()


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_outputs_match_recorded_digest(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"][name]
    records = command_records(name, tmp_path)
    hashes = [h[:SHORT] for _, h in records]
    changed = [i for i, (want, got) in enumerate(zip(recorded["commands"], hashes)) if want != got]
    assert not changed, (
        f"{len(changed)} of {len(hashes)} commands differ, the first is "
        f"command {changed[0]}: {' '.join(records[changed[0]][0])}"
    )
    assert len(hashes) == len(recorded["commands"]), "the pool's command count changed"
    assert digest(records) == recorded["digest"]


def main() -> None:
    import tempfile

    result = {"seed": SEED, "workloads": {}}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            records = command_records(name, Path(work))
        total = digest(records)
        result["workloads"][name] = {"digest": total, "commands": [h[:SHORT] for _, h in records]}
        print(f"{name}: {len(records)} commands, digest {total}")
    DIGESTS.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
