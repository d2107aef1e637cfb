"""How fast the host runs Python code right now, and times scaled to a fixed
reference speed.

On a shared virtual machine the same pisim pass takes from 1.8 to 3.8 CPU
seconds within a few minutes, with no page faults or system time: the host's
other tenants change how fast this one runs. A fixed loop run just before and
just after a measured interval follows much of that change, so the interval's
CPU time over the loops' mean CPU time varies less. On a 2-vCPU host the
medians of ten sweep_serial runs spread (interquartile range over median) by
20% in CPU seconds, and by 7% to 12% in four sets at reference speed.
"""

from __future__ import annotations

import time

# CPU time of reference_loop() on the host the benchmark was written on
# (a 2-vCPU Xeon VM). Scaled times are CPU seconds at that speed.
REFERENCE_LOOP_S = 0.25


def reference_loop() -> float:
    """CPU seconds of this thread for a fixed pure-Python loop. It touches no
    pisim code and allocates no object the garbage collector tracks, so what
    pisim leaves behind does not change its cost."""
    start = time.thread_time()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.thread_time() - start


def at_reference_speed(cpu_s: float, loop_before_s: float, loop_after_s: float) -> float:
    """cpu_s, measured between two reference loops, in CPU seconds at the
    speed at which reference_loop() takes REFERENCE_LOOP_S."""
    return cpu_s / ((loop_before_s + loop_after_s) / 2) * REFERENCE_LOOP_S
