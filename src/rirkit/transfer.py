"""Rational transfer functions on the unit circle.

Evaluation, pole/zero sets, L-infinity norm with peak refinement, log-gain
and phase rates, the parity interlacing property, and membership in the
unstable single-peak classes used by the instability-radius analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ImproperTransferError,
    NotInGClassError,
    PoleOnCircleError,
    ZeroOnCircleError,
)
from .polycore import Polynomial, _horner_bound, from_roots, poly_eval

__all__ = [
    "RationalTF",
    "DerivativeSample",
    "ClassTag",
    "LinfResult",
    "evaluate",
    "unstable_pole_count",
    "pip_check",
    "logderiv",
    "linf_norm",
    "classify",
    "G1_BOUNDARY",
    "G2_INTERIOR",
    "G1_INTERIOR",
    "GN_OTHER",
]

CANCEL_TOL = 1e-8
CIRCLE_TOL = 1e-9
UNIQUENESS_MARGIN = 1e-6
BASE_GRID = 4096

G1_BOUNDARY = "G1_boundary"
G2_INTERIOR = "G2_interior"
G1_INTERIOR = "G1_interior"
GN_OTHER = "Gn_other"


@dataclass(frozen=True)
class RationalTF:
    """Proper real-rational transfer function num/den.

    Common roots of num and den within the cancellation tolerance are
    removed at construction; improper inputs are rejected.
    """

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den, cancel_tol: float = CANCEL_TOL):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ValueError("denominator is identically zero")
        if not num.is_zero and cancel_tol > 0.0:
            num, den = _cancel_common_roots(num, den, cancel_tol)
        if not num.is_zero and num.degree > den.degree:
            raise ImproperTransferError(
                f"improper: deg(num)={num.degree} > deg(den)={den.degree}")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, z):
        return evaluate(self, z)

    def poles(self) -> tuple[complex, ...]:
        if self.den.degree == 0:
            return ()
        return self.den.roots().flat

    def zeros(self) -> tuple[complex, ...]:
        if self.num.is_zero or self.num.degree == 0:
            return ()
        return self.num.roots().flat

    @property
    def strictly_proper(self) -> bool:
        return self.num.is_zero or self.num.degree < self.den.degree

    def __mul__(self, other):
        if isinstance(other, RationalTF):
            return RationalTF(self.num * other.num, self.den * other.den)
        return RationalTF(float(other) * self.num, self.den)

    __rmul__ = __mul__

    def assert_rl_inf(self, circle_tol: float = CIRCLE_TOL) -> None:
        """Raise unless bounded on the unit circle (no pole on T)."""
        for p in self.poles():
            if abs(abs(p) - 1.0) < circle_tol:
                raise PoleOnCircleError(
                    f"pole {p} within {circle_tol} of the unit circle")


class LinfResult(NamedTuple):
    norm: float
    omega_p: float
    unique: bool


@dataclass(frozen=True)
class DerivativeSample:
    """Frequency response and its log-derivative at one frequency.

    gain_log is ln|g|, phase is the unwrapped phase referenced to omega=0,
    gain_rate/phase_rate are their frequency derivatives.
    """

    omega: float
    value: complex
    gain_log: float
    phase: float
    gain_rate: float
    phase_rate: float


@dataclass(frozen=True)
class ClassTag:
    n_unstable: int
    pip: bool
    peak_omega: float
    peak_gain: float
    peak_unique: bool
    class_name: str


def _cancel_common_roots(num: Polynomial, den: Polynomial, tol: float):
    if num.degree == 0 or den.degree == 0:
        return num, den
    nroots = list(num.roots().flat)
    droots = list(den.roots().flat)
    cancelled = False
    kept_d = []
    for dr in droots:
        hit = None
        for i, nr in enumerate(nroots):
            if abs(nr - dr) <= tol:
                hit = i
                break
        if hit is not None:
            nroots.pop(hit)
            cancelled = True
        else:
            kept_d.append(dr)
    if not cancelled:
        return num, den
    lead_n = num.coeffs[0]
    lead_d = den.coeffs[0]
    return from_roots(nroots, lead_n), from_roots(kept_d, lead_d)


def evaluate(g: RationalTF, z):
    """num(z)/den(z); raises if z hits a pole."""
    dv = poly_eval(g.den, z)
    if np.isscalar(dv) or dv.ndim == 0:
        if abs(dv) < 1e-300:
            raise ZeroDivisionError(f"evaluation at a pole: z={z}")
        return poly_eval(g.num, z) / dv
    if np.any(np.abs(dv) < 1e-300):
        bad = np.asarray(z)[np.abs(dv) < 1e-300]
        raise ZeroDivisionError(f"evaluation at a pole: z={bad[0]}")
    return poly_eval(g.num, z) / dv


def unstable_pole_count(g: RationalTF, circle_tol: float = CIRCLE_TOL) -> int:
    """Number of poles with |z| > 1, counting multiplicity."""
    count = 0
    for p in g.poles():
        if abs(abs(p) - 1.0) < circle_tol:
            raise PoleOnCircleError(f"not in RL_inf: pole {p} on the unit circle")
        if abs(p) > 1.0:
            count += 1
    return count


def _real_unstable_points(values, circle_tol: float = CIRCLE_TOL):
    """Real points with |x| > 1, as (branch, x) keys ordered along the
    extended real line 1 -> +inf = -inf -> -1."""
    out = []
    for v in values:
        if abs(v.imag) <= 1e-9 * (1.0 + abs(v)) and abs(v.real) > 1.0 + circle_tol:
            x = v.real
            out.append((0, x) if x > 0 else (2, x))
    return out


def pip_check(g: RationalTF, circle_tol: float = CIRCLE_TOL) -> bool:
    """Parity interlacing property.

    Between consecutive real unstable zeros (a zero at infinity is appended
    for strictly proper systems) the number of real unstable poles must be
    even.  The extended real line is traversed 1 -> +inf, then -inf -> -1.
    """
    g.assert_rl_inf(circle_tol)
    zeros = _real_unstable_points(g.zeros())
    if g.strictly_proper:
        zeros.append((1, 0.0))  # zero at infinity
    poles = _real_unstable_points(g.poles())
    if len(zeros) < 2:
        return True
    zeros.sort()
    poles.sort()
    for a, b in zip(zeros[:-1], zeros[1:]):
        n_between = sum(1 for q in poles if a < q < b)
        if n_between % 2 == 1:
            return False
    return True


def _dlog(g: RationalTF, omega) -> complex:
    """d/domega log g(e^{j omega}) = A'(omega) + j theta'(omega)."""
    z = np.exp(1j * np.asarray(omega, dtype=float))
    nv = poly_eval(g.num, z)
    dv = poly_eval(g.den, z)
    q = 1j * z * (poly_eval(g.num.derivative(), z) / nv
                  - poly_eval(g.den.derivative(), z) / dv)
    return q


def _unwrapped_phase(g: RationalTF, omega: float, max_depth: int = 48) -> float:
    """Continuous phase along [0, omega], referenced to arg g(1) in {0, pi}."""
    v0 = evaluate(g, 1.0 + 0.0j)
    if abs(v0) < 1e-300:
        raise ZeroOnCircleError("phase reference undefined: g(1) = 0")
    theta = float(np.angle(v0))  # 0 or pi for real-rational g
    if omega == 0.0:
        return theta
    sign = 1.0
    if omega < 0.0:
        sign, omega = -1.0, -omega
    n0 = max(64, int(math.ceil(omega / 0.05)))
    grid = np.linspace(0.0, omega, n0 + 1)
    vals = evaluate(g, np.exp(1j * grid))
    stack = [(grid[i], grid[i + 1], vals[i], vals[i + 1], 0)
             for i in range(n0)][::-1]
    acc = 0.0
    while stack:
        a, b, va, vb, depth = stack.pop()
        if min(abs(va), abs(vb)) < 1e-300:
            raise ZeroOnCircleError(f"zero on the unit circle near omega={a}")
        d = float(np.angle(vb / va))
        if abs(d) <= 0.5 * np.pi or depth >= max_depth:
            if depth >= max_depth:
                raise ZeroOnCircleError(
                    f"phase unwrap failed near omega={a} (pole/zero on T?)")
            acc += d
            continue
        m = 0.5 * (a + b)
        vm = evaluate(g, np.exp(1j * m))
        stack.append((m, b, vm, vb, depth + 1))
        stack.append((a, m, va, vm, depth + 1))
    return theta + sign * acc


def logderiv(g: RationalTF, omega: float) -> DerivativeSample:
    """Gain/phase and their rates at one frequency.

    The phase is unwrapped by an adaptive sweep from omega = 0; rates come
    from the analytic log-derivative.
    """
    z = complex(np.exp(1j * omega))
    value = evaluate(g, z)
    if abs(value) < 1e-300:
        raise ZeroOnCircleError(f"g vanishes at omega={omega}")
    q = complex(_dlog(g, omega))
    return DerivativeSample(
        omega=float(omega),
        value=value,
        gain_log=float(np.log(abs(value))),
        phase=_unwrapped_phase(g, float(omega)),
        gain_rate=float(q.real),
        phase_rate=float(q.imag),
    )


def _auto_grid(g: RationalTF, base: int) -> int:
    dists = [abs(abs(p) - 1.0) for p in g.poles() + g.zeros()]
    dmin = min((d for d in dists if d > 0.0), default=1.0)
    if dmin >= 1e-2:
        return base
    n = 16.0 * np.pi / dmin
    return int(min(max(base, 2 ** 14, 2 ** math.ceil(math.log2(n))), 2 ** 20))


def linf_norm(g: RationalTF, grid: int = BASE_GRID,
              uniqueness_margin: float = UNIQUENESS_MARGIN,
              circle_tol: float = CIRCLE_TOL) -> LinfResult:
    """Peak gain over [0, pi] with refined peak frequency.

    The grid densifies automatically when poles or zeros approach the unit
    circle; interior candidates are refined until |A'(omega_p)| is at the
    root-solver tolerance.  ``unique`` is False when a second local maximum
    comes within the relative uniqueness margin of the peak.  A response
    flat to rounding (all-pass or constant) is reported at omega 0 and not
    unique.
    """
    g.assert_rl_inf(circle_tol)
    n = _auto_grid(g, grid)
    w = np.linspace(0.0, np.pi, n + 1)
    z = np.exp(1j * w)
    anum = np.abs(poly_eval(g.num, z))
    aden = np.abs(poly_eval(g.den, z))
    gain = anum / aden
    gmax = float(np.max(gain))
    if gmax == 0.0:
        return LinfResult(0.0, 0.0, False)
    if _flat_to_rounding(g, anum, aden, gain, gmax):
        # all-pass or constant: the grid's maxima are rounding noise
        return LinfResult(gmax, 0.0, False)

    interior = np.zeros(len(w), dtype=bool)
    interior[1:-1] = (gain[1:-1] >= gain[:-2]) & (gain[1:-1] >= gain[2:])
    candidates = list(np.nonzero(interior)[0])
    if gain[0] >= gain[1]:
        candidates.append(0)
    if gain[-1] >= gain[-2]:
        candidates.append(len(w) - 1)

    refined: list[tuple[float, float]] = []  # (omega, gain)
    # generous floor: grid values of sharp secondary peaks undershoot
    floor = (1.0 - max(1e-2, 10.0 * uniqueness_margin)) * gmax
    for i in candidates:
        if gain[i] < floor:
            continue
        if i == 0 or i == len(w) - 1:
            refined.append((w[i], gain[i]))
            continue
        a, b = w[i - 1], w[i + 1]
        fa = float(np.real(_dlog(g, a)))
        fb = float(np.real(_dlog(g, b)))
        if fa > 0.0 > fb:
            wp = brentq(lambda x: float(np.real(_dlog(g, x))), a, b,
                        xtol=1e-15, rtol=8.9e-16)
        else:
            wp = _golden_max(g, a, b)
        refined.append((float(wp), float(abs(evaluate(g, np.exp(1j * wp))))))

    # merge near-coincident candidates
    refined.sort(key=lambda t: -t[1])
    merged: list[tuple[float, float]] = []
    for wp, gv in refined:
        if all(abs(wp - m[0]) > 1e-6 for m in merged):
            merged.append((wp, gv))
    norm, omega_p = merged[0][1], merged[0][0]
    unique = all(gv < (1.0 - uniqueness_margin) * norm for _, gv in merged[1:])
    return LinfResult(float(norm), float(omega_p), bool(unique))


def _flat_to_rounding(g: RationalTF, anum, aden, gain, gmax: float) -> bool:
    """True when every grid gain is within rounding of the peak gain.

    On |z| = 1 a Horner value p(z) carries relative error at most
    _horner_bound(p, 1) / |p(z)|; two gains agree to rounding when they
    differ by no more than the sum of their bounds.
    """
    cn = _horner_bound(g.num.coeffs, 1.0)
    cd = _horner_bound(g.den.coeffs, 1.0)
    with np.errstate(divide="ignore"):
        worst = cn / np.min(anum) + cd / np.min(aden)
        if gmax - np.min(gain) > 2.0 * worst * gmax:
            return False  # a real spread: skip the pointwise test
        rel = cn / anum + cd / aden
    return bool(np.all(gmax - gain <= (rel + rel[np.argmax(gain)]) * gmax))


def _golden_max(g: RationalTF, a: float, b: float) -> float:
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = abs(evaluate(g, np.exp(1j * x1)))
    f2 = abs(evaluate(g, np.exp(1j * x2)))
    for _ in range(120):
        if b - a < 1e-14:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = abs(evaluate(g, np.exp(1j * x2)))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = abs(evaluate(g, np.exp(1j * x1)))
    return 0.5 * (a + b)


def classify(g: RationalTF, grid: int = BASE_GRID,
             uniqueness_margin: float = UNIQUENESS_MARGIN,
             boundary_tol: float = 1e-8) -> ClassTag:
    """Class membership among the single-peak unstable families.

    G1_boundary: one unstable pole, unique peak at 0 or pi.
    G2_interior: two unstable poles, unique interior peak.
    G1_interior: one unstable pole, unique interior peak.
    Everything else (n >= 3, non-unique peak, PIP failure) is Gn_other.
    """
    n = unstable_pole_count(g)
    if n == 0:
        raise NotInGClassError("not in G: no unstable pole")
    pip = pip_check(g)
    norm, omega_p, unique = linf_norm(g, grid=grid,
                                      uniqueness_margin=uniqueness_margin)
    at_boundary = omega_p <= boundary_tol or omega_p >= np.pi - boundary_tol
    if not pip or not unique:
        name = GN_OTHER
    elif n == 1 and at_boundary:
        name = G1_BOUNDARY
    elif n == 2 and not at_boundary:
        name = G2_INTERIOR
    elif n == 1 and not at_boundary:
        name = G1_INTERIOR
    else:
        name = GN_OTHER
    return ClassTag(n_unstable=n, pip=pip, peak_omega=omega_p,
                    peak_gain=norm, peak_unique=unique, class_name=name)
