"""Reference kernel: fixed work that gauges the host's current speed.

The host this benchmark runs on is shared, and the speed of plain CPU work
drifts by 20-50% over seconds to minutes, with CPU time tracking wall time.
Op times alone then spread across runs by more than any useful bound.
``run.py`` times this kernel between ops and reports each op's time as a
multiple of the mean of the kernel times before and after it, which cancels
most of that drift.

The kernel mimics the package's hot path (complex cubic splines along the
frequency axis, evaluated at shifted points, and short per-column numpy
updates) but uses only numpy and scipy, never ``vpscatter``.  A change to the
package therefore cannot move it, and the ratio moves only with the package.
Keep it fixed: changing it changes the unit of ``solve_ref`` and ``cpu_ref``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.interpolate import CubicSpline

ROUNDS = 100  # about 0.25 s on a 2-core x86-64 host at its usual speed


def reference_kernel() -> float:
    rng = np.random.default_rng(20240517)
    eta = np.linspace(-22.0, 22.0, 177)
    values = rng.standard_normal((5, 177)) + 1j * rng.standard_normal((5, 177))
    points = rng.uniform(-24.0, 24.0, 3000)
    k = np.arange(-2, 3)[:, None]
    acc = 0.0
    for r in range(ROUNDS):
        spline = CubicSpline(eta, values * (1.0 + 1e-3 * r), axis=1)
        shifted = spline(np.clip(points, -22.0, 22.0))
        acc += float(np.abs(np.exp(-0.5j * k * points) * shifted).sum())
        for s in range(40):
            v = values[:, s] * (0.5 + s) - values[:, s + 1]
            acc += float(np.vdot(v, v).real)
    return acc


def timed_reference() -> float:
    """Wall seconds of one reference kernel.

    Wall, not CPU time: OpenBLAS worker threads left spinning by the op
    before it would be charged to the kernel's process CPU time.
    """
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
