"""A fixed kernel that times the host, so that run times can be put at one reference speed.

On a shared host the same code runs up to twice as slow for minutes at a
time, while other tenants load the machine.  The kernel mixes numpy array work
and interpreter work, as the workloads do, and calls no stickfrag code, so a
change to the program does not move it.  A time t measured next to a kernel
time k is reported as t * REFERENCE_S / k: what t would be on this host when
the kernel takes REFERENCE_S.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's fastest time on the 2-vCPU Intel Xeon VM the benchmark was tuned on.
REFERENCE_S = 0.035
ROWS, LOOPS = 1 << 18, 250_000


def calibrate() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    x = np.arange(ROWS, dtype=np.float64)
    table = np.repeat(x, 3).reshape(-1, 3)
    residues = np.exp(table @ np.array([-3e-6, -5e-6, -7e-6])) % 1.0
    np.unique(np.round(residues, 9))
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return perf_counter() - t0


def at_reference(seconds: float, kernel_seconds: float) -> float:
    """`seconds` measured next to a kernel time, put at the reference speed."""
    return seconds * REFERENCE_S / kernel_seconds
