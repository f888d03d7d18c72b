"""A fixed piece of work that measures how fast the host runs right now.

The benchmark's host is a few cores of a machine shared with other tenants.
Their load slows every instruction stream on it, in phases of tens to
hundreds of milliseconds, typically by 1.6x to 2x; CPU time slows as much
as wall time, so it is not a matter of waiting for a core.  The worker times
this kernel right before and right after the workload, in the same process
on the same CPU, and the benchmark divides the workload's times by it.

The kernel is a single-threaded Python loop over small numpy vectors,
the same mix of interpreter and numpy call overhead as harxlab's per-step
update loop.  It never imports harxlab, so no change to the program can
move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

ROUNDS = 80_000
# Normalized times are rescaled to a host on which ROUNDS take this long:
# about the kernel's median time on the 2-core box that defined the
# benchmark, so normalized figures read like that box's wall times.
REFERENCE_S = 0.25


def kernel(rounds: int) -> float:
    w = np.zeros(9)
    x = np.linspace(0.1, 0.9, 9)
    total = 0.0
    for i in range(rounds):
        e = math.sin(i * 1e-3) - float(w @ x)
        w = w + 1e-3 * e * x
        total += e * e
    return total


def calibration_s() -> float:
    """Wall time of ``kernel(ROUNDS)``, in seconds."""
    t0 = time.perf_counter()
    kernel(ROUNDS)
    return time.perf_counter() - t0
