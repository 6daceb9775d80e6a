"""The benchmark's self-test, run by the suite.

perfbench/ imports public names of the package (load_flow, social_cost,
wardrop_gap, select_batch_system, oracle.riemann_check, ...). Running its
self-test here makes a removed or renamed name fail the tests, not only a
later benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
