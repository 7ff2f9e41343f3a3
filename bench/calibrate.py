"""Machine-speed calibration.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes as other tenants come and go (on a 2-vCPU Xeon VM the same 40
analyses took from 230 ms to 550 ms within one minute).  Every run
therefore times a fixed kernel that does not touch rirkit, between ops
every ``INTERVAL_S`` seconds, and scales its timings by
``(NOMINAL_S / median(kernel time)) ** SLOPE``.  The kernel mimics what
rirkit's ops spend their time on: small-array numpy iterations (an
Aberth-style sweep), a scalar Python loop and one vectorised grid
evaluation.

Op times move less than the kernel's time as the host's speed changes.
On that VM, log(op time) against log(kernel time) had slope 0.69 across
twelve 20 s windows, and 0.75-0.8 across a switch between its slow and
fast states (kernel 5.7 ms -> 3.0 ms, plant ops 1.6x faster).  Over those
windows the op time's IQR was 26% of its median; scaled, it was 5%.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Kernel time on a quiet host; reported times are what they would be there.
NOMINAL_S = 4.0e-3
SLOPE = 0.75
INTERVAL_S = 0.25  # between kernel samples

_MONIC = np.poly(np.exp(1j * np.linspace(0.3, 5.9, 8))
                 * np.linspace(0.5, 1.5, 8)).real
_GRID = np.exp(1j * np.linspace(0.0, np.pi, 4097))


def kernel() -> float:
    """Seconds taken by one fixed piece of work."""
    t0 = perf_counter()
    n = len(_MONIC) - 1
    d = np.polyder(_MONIC)
    z = 1.7 * np.exp(1j * (2.0 * np.pi * (np.arange(n) + 0.354) / n + 0.618))
    for _ in range(60):
        w = np.polyval(_MONIC, z) / np.polyval(d, z)
        diff = z[:, None] - z[None, :]
        diff = np.where(np.abs(diff) < 1e-300, 1e-300, diff)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        z = z - 1e-3 * w / (1.0 - w * inv.sum(axis=1))
    acc = 0.0
    for x in range(3000):
        acc = acc * 0.999 + x * 1e-3
    np.abs(np.polyval(_MONIC, _GRID)).max()
    return perf_counter() - t0


class Calibrator:
    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def tick(self) -> None:
        """Sample the kernel if ``INTERVAL_S`` has passed since the last one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel())
            self._last = perf_counter()

    def factor(self) -> float:
        """Multiply a time measured during the run by this to get it at
        nominal speed."""
        return (NOMINAL_S / statistics.median(self.samples)) ** SLOPE
