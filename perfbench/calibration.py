"""Host-speed calibration of the end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed for
this process drifts by up to +-40 % over seconds to minutes (other
tenants' load on the same cores and caches); CPU time drifts with wall
time, so neither is steady on its own.  A fixed task that never runs
mrsim code is therefore timed right before and right after every timed
interval, and the interval is scaled by ``reference / mean(before,
after)``: it reads as the seconds it would have taken with the host at
the reference speed.

There are two tasks, each doing the kind of work of what it calibrates:

* operations (simulation, reconstruction, fit): an interpreter loop
  over a small dict plus a loop of numpy calls on a small array,
  :func:`calibration_seconds`;
* set-up in a fresh process: a fresh interpreter that imports numpy
  and a set of standard-library packages, :func:`startup_seconds`.

Each reference is about the task's median on the machine where the
benchmark was defined (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
A change to mrsim moves the scaled times as much as the raw ones; a
change of host speed moves both the interval and the calibration and
mostly cancels.  The raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Callable

import numpy as np

REFERENCE_S = 0.25  # measured 0.24 to 0.27 s
STARTUP_REFERENCE_S = 0.33  # measured 0.30 to 0.37 s
_DICT_STEPS = 600_000
_ARRAY_STEPS = 20_000
_ARRAY = np.linspace(-1.0, 1.0, 192).reshape(64, 3)
_STARTUP_IMPORTS = (
    "numpy, json, email.parser, http.client, decimal, xml.dom.minidom, "
    "asyncio, unittest, logging, argparse"
)


def _interpreter() -> int:
    total, table = 0, {}
    for i in range(_DICT_STEPS):
        table[i & 1023] = total
        total += i * 3 % 7
    return total


def _small_arrays() -> float:
    a = _ARRAY
    for _ in range(_ARRAY_STEPS):
        a = np.sin(a * 0.999 + 0.001)
    return float(a[0, 0])


def calibration_seconds() -> float:
    """Wall time of one pass of the operations' task."""
    started = time.perf_counter()
    _interpreter()
    _small_arrays()
    return time.perf_counter() - started


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports the set-up task's packages."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {_STARTUP_IMPORTS}"], check=True, timeout=60)
    return time.perf_counter() - started


class HostSpeed:
    """Scale factors of consecutive timed intervals.

    ``task`` times one pass of a calibration task and ``reference`` is
    its time at the reference speed.  Creating the object times the
    calibration that opens the first interval; call :meth:`factor`
    right after each interval: the calibration it times closes that
    interval and opens the next.
    """

    def __init__(self, task: Callable[[], float], reference: float):
        self._task = task
        self._reference = reference
        self._before = task()

    def factor(self) -> float:
        after = self._task()
        factor = self._reference / (0.5 * (self._before + after))
        self._before = after
        return factor
