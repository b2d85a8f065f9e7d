"""How fast the machine runs right now, from a fixed reference loop.

The benchmark runs on a few vCPUs of a host shared with other tenants, and
their speed moves: the same fixed loop takes 10-30% more or less time from
one second to the next and over minutes, in wall time and in CPU time alike.
Reported as they are, the operation times of two sets of runs of the same
code differ by as much. So the loop below, a fixed mix of small numpy solves
and interpreter float work like the program's own, is timed right before
and right after every measured interval, and the interval is reported at
the reference speed: its wall time scaled by REFERENCE_MS over the loop's
mean time around it. Set-up times, taken in other processes in pauses
spread over the run, are scaled by the run's median loop time. A change to
the program moves the interval and not the loop, so it still shows in full.
"""
from __future__ import annotations

import math
import time

REFERENCE_MS = 4.5          # the loop's time at the reference speed


def loop_ms():
    """Wall time of one pass of the reference loop, in ms.

    numpy is imported here, not with this module, so that a set-up that
    does not load it (cli_session's) is not timed loading it; call this
    once before timing anything, so the import is not in the first pass."""
    import numpy as np
    a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    b = np.ones(3)
    start = time.perf_counter()
    s = 0.0
    for i in range(400):
        x = np.linalg.solve(a, b)
        s += math.sin(x[0]) * math.cos(i) + float(x @ x)
    return (time.perf_counter() - start) * 1e3


def at_reference(seconds, loop):
    """`seconds` of wall time, scaled to the reference speed by the loop's
    time (ms) measured around it."""
    return seconds * REFERENCE_MS / loop
