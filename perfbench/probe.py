"""A fixed piece of work owned by the benchmark, timed between commands
to follow the speed of the machine during a run.

The probe does not call `wardrop`, so no change to the program can make
it faster or slower. It has two parts, for the two ways a shared host
slows a process down:

- core: float arithmetic over a dict and operations on arrays of 30
  floats, all in the first-level caches, as in the solver's inner loop.
  It slows when the core itself runs slower.
- memory: Horner evaluation over arrays of 2^20 floats, a new array per
  operation, as in the Riemann sums of batch pricing. It slows when
  memory bandwidth, the shared caches or page faults get slower.

Each workload names the parts its own speed follows (`Workload.speed_parts`).
"""

from __future__ import annotations

import time

import numpy as np

PARTS = ("core", "memory")

_VALUES = {f"e{k}": 0.5 + k / 400 for k in range(400)}
_SMALL_A = np.linspace(0.1, 1.5, 30)
_SMALL_B = np.linspace(1.0, 2.0, 30)
_LARGE = np.arange(1, (1 << 20) + 1, dtype=float) / (1 << 20)
_COEFFS = (0.5, 1.25, 0.75, 2.0, 1.5)


def _core() -> float:
    total = 0.0
    for _ in range(24):
        for value in _VALUES.values():
            total += value * value + 1.0
    for _ in range(1200):
        loads = _SMALL_A * _SMALL_B + 0.25
        total += float(np.dot(loads, _SMALL_B)) + float(loads.min())
    return total


def _memory() -> float:
    acc = np.zeros_like(_LARGE)
    for c in reversed(_COEFFS):
        acc = acc * _LARGE + c
    return float(acc.sum())


_WORK = {"core": _core, "memory": _memory}


def probe() -> dict[str, float]:
    """Wall time of each part, run once."""
    times = {}
    for part in PARTS:
        t0 = time.perf_counter()
        _WORK[part]()
        times[part] = time.perf_counter() - t0
    return times
