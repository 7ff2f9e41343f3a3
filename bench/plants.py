"""Seeded random plant families for the plant workloads.

The benchmark owns this generator so that the inputs do not change when the
test suite's helpers change.  A plant is returned as plain coefficient lists
(descending powers of z), the way a user hands one to rirkit; every op builds
its own ``RationalTF`` from them, so nothing computed for one op can be
reused by the next.
"""

from __future__ import annotations

import numpy as np

# Every pole and zero keeps at least this distance from the unit circle, so
# the verdicts are well posed and the frequency grids stay at their base size.
MARGIN = 0.1
STABLE_RADIUS = (0.05, 1.0 - MARGIN)
UNSTABLE_RADIUS = (1.0 + MARGIN, 2.5)
ANGLE = (0.1, np.pi - 0.1)


def _roots(rng, count: int, radius: tuple[float, float]) -> list[complex]:
    """``count`` roots of a real polynomial: reals and conjugate pairs."""
    out: list[complex] = []
    while len(out) < count:
        r = rng.uniform(*radius)
        if count - len(out) < 2 or rng.uniform() < 0.5:
            s = -1.0 if rng.uniform() < 0.5 else 1.0
            out.append(complex(s * r))
        else:
            th = rng.uniform(*ANGLE)
            out.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
    return out


def _expand(roots: list[complex], lead: float) -> list[float]:
    return [float(c) for c in lead * np.real(np.poly(roots))] if roots \
        else [float(lead)]


def random_plant(rng, degree: int, n_unstable: int) -> dict:
    """One proper plant of the given degree with ``n_unstable`` poles
    outside the disk and a random number of zeros on either side of it."""
    poles = (_roots(rng, n_unstable, UNSTABLE_RADIUS)
             + _roots(rng, degree - n_unstable, STABLE_RADIUS))
    n_zeros = int(rng.integers(0, degree + 1))
    n_outside = int(rng.integers(0, n_zeros + 1))
    zeros = (_roots(rng, n_outside, UNSTABLE_RADIUS)
             + _roots(rng, n_zeros - n_outside, STABLE_RADIUS))
    gain = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    gain *= -1.0 if rng.uniform() < 0.5 else 1.0
    return {"num": _expand(zeros, gain), "den": _expand(poles, 1.0),
            "degree": degree,
            "min_dist_to_circle": min(abs(abs(r) - 1.0) for r in poles + zeros)}


def plant_family(seed: int, count: int, degrees: tuple[int, int]) -> list[dict]:
    """``count`` plants whose (degree, unstable count) pairs cycle through a
    fixed schedule in a seeded order.

    The schedule fixes the family's make-up, so the seed changes which
    plants are drawn but not how many of each size: that keeps the
    seed-to-seed spread of the timings about the program, not the draw.
    """
    rng = np.random.default_rng([seed, degrees[0], degrees[1]])
    cells = [(d, u) for d in range(degrees[0], degrees[1] + 1) for u in (1, 2)]
    schedule: list[tuple[int, int]] = []
    while len(schedule) < count:
        block = list(cells)
        rng.shuffle(block)
        schedule.extend(block)
    return [random_plant(rng, d, u) for d, u in schedule[:count]]
