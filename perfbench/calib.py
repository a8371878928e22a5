"""A fixed calibration kernel that measures how fast the machine is right now.

A shared host's speed for the same work drifts by 10-30 % over seconds to
minutes (neighbouring load, CPU time stolen by the hypervisor).  The workload
process times `unit()` between commands, outside the timed calls, about every
`CAL_EVERY_S`; `scaled_ms` multiplies each command's wall time by
`factor(median of the unit times around it)`, so the reported times read as
if the machine had run at its reference speed throughout.  The kernel uses
nothing from cyclospec, so a change to the program cannot move it; it mixes
the kinds of work cyclospec does (complex and float arithmetic in Python
loops, big-int power sums, dict updates).  It imports nothing outside the standard library,
so it can also be timed before `import cyclospec` without loading numpy.
"""

from __future__ import annotations

import bisect
import cmath
import math
import statistics
import time

# Median wall time of unit() in milliseconds on the reference machine
# (a quiet 2-vCPU x86-64 VM, CPython 3.11).
REF_MS = 6.0
# How much cyclospec's command times move with the kernel's: on a host whose
# kernel time swung between 4.5 and 16 ms, regressing log command time on log
# kernel time gave slopes of 0.70-0.90 for `l eval`, `characters` and
# `sums powers` (0.2 for `ln ratio`), so a full 1:1 scaling over-corrects.
ELASTICITY = 0.8
# Seconds between calibration samples in a workload loop, and how far either
# side of a command the samples that scale it may lie.
CAL_EVERY_S = 0.1
WINDOW_S = 1.0


def unit() -> float:
    """One fixed piece of work; returns a value so nothing is skipped."""
    z = complex(0.5, 14.134725)
    acc = 0j
    for n in range(1, 9500):
        acc += cmath.exp(-z * math.log(n)) * (1.0 if n % 4 else -1.0)
    big = 0
    for a in range(1, 1100):
        big += pow(a, 37) * (1 if a % 3 else -1)
    table = {}
    for a in range(1, 4800):
        table[a % 97] = table.get(a % 97, 0.0) + math.cos(2.0 * math.pi * a / 97.0)
    return abs(acc) + float(big % 1000003) + sum(table.values())


def sample_ms() -> float:
    """Wall time of one unit() in milliseconds."""
    t = time.perf_counter()
    unit()
    return (time.perf_counter() - t) * 1e3


def scaled_ms(ops, cal):
    """Each op's wall time in ms at reference speed.  `ops` are dicts with the
    start `t` and `latency_s`; `cal` is a time-sorted list of (t, sample_ms)."""
    ts = [t for t, _ in cal]
    overall = statistics.median(ms for _, ms in cal)
    out = []
    for op in ops:
        lo = bisect.bisect_left(ts, op["t"] - WINDOW_S)
        hi = bisect.bisect_right(ts, op["t"] + op["latency_s"] + WINDOW_S)
        local = statistics.median(ms for _, ms in cal[lo:hi]) if hi > lo else overall
        out.append(op["latency_s"] * 1e3 * factor(local))
    return out


def factor(cal_ms: float) -> float:
    """What a time measured while unit() took `cal_ms` is multiplied by."""
    return (REF_MS / cal_ms) ** ELASTICITY
