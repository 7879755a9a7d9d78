"""The host's speed at the moment, so that times taken at different moments compare.

The shared virtual machine the benchmark was sized on runs the same code
at two speeds about 1.6x apart.  It switches between them every few
seconds to minutes, on each vCPU independently, and process CPU time
follows wall time, so the program is not waiting: the CPU runs slower.
A 40 s run can fall wholly into a slow stretch, so medians over a run do
not remove it and ten runs in a row disagree by more than any bound the
benchmark may set.

A fixed loop, timed on the same CPU just before and just after a
measured step, slows down with it.  Each step is reported in seconds at
the reference speed, the speed at which the loop takes ``REFERENCE_S``:
its wall time times ``REFERENCE_S`` over the mean of the two loop times.
The loop is the benchmark's own code, so a change to the program moves
the step's time and not the loop's.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time

REFERENCE_S = 0.1
_BLOB = bytes(range(256)) * 256
_ITERATIONS = 60_000


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU, so that a
    step and the loops around it meet the same vCPU's speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Record:
    __slots__ = ("key", "value", "where")

    def __init__(self, key, value, where):
        self.key, self.value, self.where = key, value, where


def loop_seconds() -> float:
    """Wall time of one pass of the reference loop: byte slicing, dict
    updates, struct unpacking, small objects and sha256, the operations
    the program spends its time in."""
    start = time.perf_counter()
    counts: dict = {}
    records = []
    for i in range(_ITERATIONS):
        j = (i * 7919) % 60_000
        key = _BLOB[j:j + 36]
        counts[key] = counts.get(key, 0) + 1
        (value,) = struct.unpack_from("<I", _BLOB, j)
        records.append(_Record(key, value, (i, j)))
        if i % 8 == 0:
            hashlib.sha256(key).digest()
    records.sort(key=lambda r: r.value)
    return time.perf_counter() - start


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` of wall time, in seconds at the reference speed."""
    return seconds * REFERENCE_S * 2 / (loop_before + loop_after)
