"""Smoke test: every narrative script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(
            os.environ,
            PYTHONPATH=src + os.pathsep + path if path else src,
            PYTHONDONTWRITEBYTECODE="1",
        ),
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
