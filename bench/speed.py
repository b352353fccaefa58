"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to 40% over tens of seconds, and a whole run can fall into a slow
phase.  Each run therefore also times a fixed probe that the program takes
no part in: a fresh interpreter, without ./src on its path, that imports
numpy and scipy.linalg.  That is the same start-up path, and the same mix
of file reads, unmarshalling and native code, that every nhzm process
takes; over windows of ten seconds or more its time follows the time of
both cold CLI runs and in-process eigensolves (correlation 0.8-0.9 on a
2-vCPU VM).

The probe runs between items, every ``PROBE_EVERY`` seconds, and every
reported time is scaled by ``NOMINAL_S`` over the time of the probe taken
last before it: it reads as seconds on a machine on which the probe takes
``NOMINAL_S``.  The probe does not change with the program, so a program
that gets slower by some share reports times slower by the same share.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = [sys.executable, "-c", "import numpy, scipy.linalg"]
NOMINAL_S = 0.5
PROBE_EVERY = 4.0


class ProbeError(RuntimeError):
    """The speed probe did not run."""


def probe() -> float:
    """Seconds from spawning the probe interpreter until it has exited."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    t0 = time.perf_counter()
    proc = subprocess.run(PROBE, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        raise ProbeError(f"speed probe failed: {proc.stderr.decode()[-500:]}")
    return elapsed


class Speed:
    """The speed probes of one run, taken between its items."""

    def __init__(self) -> None:
        self.latest = 0.0
        self._taken = float("-inf")

    def between_items(self) -> float:
        """The time of the latest probe, probing first if ``PROBE_EVERY``
        seconds have passed since the last one."""
        if time.perf_counter() - self._taken >= PROBE_EVERY:
            self.latest = probe()
            self._taken = time.perf_counter()
        return self.latest
