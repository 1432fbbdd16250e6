"""Calibration kernel: fixed host work whose duration tracks the machine's speed.

On a shared host the speed available to one thread drifts by tens of percent
over minutes, far more than the changes the benchmark must resolve.
``run.py`` therefore times this kernel in its own process right before and
right after every measured subprocess, and scales each measured time by
``REFERENCE_S / kernel time``: the time the run would have taken on the host
when the kernel takes ``REFERENCE_S``.  The kernel never imports the program,
so a change to the program cannot move it.

Its mix follows the program's: a sort, ``searchsorted`` and gathers over
arrays larger than the last-level cache (the replay engine build), the same
over small arrays, interpreter-bound dictionary and JSON work (runner, store,
timing model) and small-file writes replaced atomically (result store,
exports).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

#: Kernel duration on the reference host (2-vCPU Intel Xeon, Python 3.11,
#: numpy 2.4, one thread), so calibrated times read as seconds on that host.
REFERENCE_S = 0.40

_LARGE = 1_000_000
_QUERIES = 200_000
_SMALL = 100_000
_DICT_OPS = 200_000
_RECORDS = 20_000
_FILES = 40


def kernel_seconds(scratch: Path) -> float:
    """Run the kernel once and return its duration in seconds.

    ``scratch`` is a new directory for the kernel's files; the caller
    removes it once measuring is over, so deletions never overlap a timing.
    """
    import numpy as np

    rng = np.random.default_rng(2023)
    large = rng.integers(0, 1 << 24, size=_LARGE)
    small = rng.integers(0, 1 << 16, size=_SMALL)
    started = time.perf_counter()
    for values in (large, small, small, small):
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        positions = np.searchsorted(ordered, values[:_QUERIES])
        np.cumsum(positions)
        np.flatnonzero(np.diff(ordered))
    counts: dict = {}
    for i in range(_DICT_OPS):
        counts[i % 997] = counts.get(i % 997, 0) + i
    text = json.dumps([{"id": i, "value": i * 0.5, "tag": str(i)} for i in range(_RECORDS)])
    json.loads(text)
    # Small-file writes replaced atomically, as the result store and the
    # exports write them.
    scratch.mkdir(parents=True, exist_ok=True)
    chunk = text[: len(text) // _FILES]
    for i in range(_FILES):
        temporary = scratch / f".{i}.tmp"
        temporary.write_text(chunk)
        os.replace(temporary, scratch / f"{i}.json")
    return time.perf_counter() - started
