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
from numpy.polynomial import chebyshev as cheb

from .errors import (
    ImproperTransferError,
    NotInGClassError,
    PoleOnCircleError,
    ZeroOnCircleError,
)
from .polycore import Polynomial, from_roots, poly_eval

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
        # each factor is already reduced; a root shared across factors is a
        # closed-loop mode (a root of den - num), so it must not cancel
        if isinstance(other, RationalTF):
            return RationalTF(self.num * other.num, self.den * other.den,
                              cancel_tol=0.0)
        return RationalTF(float(other) * self.num, self.den, cancel_tol=0.0)

    __rmul__ = __mul__

    def assert_rl_inf(self) -> None:
        """Raise unless no pole lies within CIRCLE_TOL of the unit circle."""
        for p in self.poles():
            if abs(abs(p) - 1.0) < CIRCLE_TOL:
                raise PoleOnCircleError(
                    f"pole {p} within {CIRCLE_TOL} of the unit circle")


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


def unstable_pole_count(g: RationalTF) -> int:
    """Number of poles with |z| > 1, counting multiplicity."""
    count = 0
    for p in g.poles():
        if abs(abs(p) - 1.0) < CIRCLE_TOL:
            raise PoleOnCircleError(f"not in RL_inf: pole {p} on the unit circle")
        if abs(p) > 1.0:
            count += 1
    return count


def _real_unstable_points(values):
    """Real points with |x| > 1 + CIRCLE_TOL, as (branch, x) keys ordered
    along the extended real line 1 -> +inf = -inf -> -1."""
    out = []
    for v in values:
        if (abs(v.imag) <= 1e-9 * (1.0 + abs(v))
                and abs(v.real) > 1.0 + CIRCLE_TOL):
            x = v.real
            out.append((0, x) if x > 0 else (2, x))
    return out


def pip_check(g: RationalTF) -> bool:
    """Parity interlacing property.

    Between consecutive real unstable zeros (a zero at infinity is appended
    for strictly proper systems) the number of real unstable poles must be
    even.  The extended real line is traversed 1 -> +inf, then -inf -> -1.
    """
    g.assert_rl_inf()
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


def _log_slope(g: RationalTF, z):
    """d/dz log g(z) = sum 1/(z - z_i) - sum 1/(z - p_i) over the cached
    factors."""
    return (sum(1.0 / (z - r) for r in g.zeros())
            - sum(1.0 / (z - p) for p in g.poles()))


def _log_curvature(g: RationalTF, z):
    """d/dz of ``_log_slope``."""
    return (sum(1.0 / (z - p) ** 2 for p in g.poles())
            - sum(1.0 / (z - r) ** 2 for r in g.zeros()))


def _dlog(g: RationalTF, omega):
    """d/domega log g(e^{j omega}) = A'(omega) + j theta'(omega), from the
    cached factors as j z (sum 1/(z - z_i) - sum 1/(z - p_i))."""
    z = np.exp(1j * np.asarray(omega, dtype=float))
    return 1j * z * _log_slope(g, z)


def _unwrapped_phase(g: RationalTF, omega: float) -> float:
    """Continuous phase along [0, omega], referenced to arg g(1) in {0, pi}.

    Closed form over the cached factors: arg(e^{j omega} - r) continues as
    omega + Arg(1 - r e^{-j omega}) for |r| <= 1 and Arg(1 - e^{j omega}/r)
    for |r| > 1, each Arg of a number with positive real part.  arg g(1) is
    pi when the leading ratio and the factors 1 - r are negative an odd
    number of times (a conjugate pair shares its sign).  A zero on the unit
    circle within [0, omega] leaves the phase undefined.
    """
    if g.num.is_zero:
        raise ZeroOnCircleError("phase undefined: g is identically zero")
    zeros, poles = g.zeros(), g.poles()
    if any(abs(abs(r) - 1.0) < CIRCLE_TOL
           and abs(np.angle(r)) <= abs(omega) + CIRCLE_TOL for r in zeros):
        raise ZeroOnCircleError(f"zero on the unit circle within [0, {omega}]")
    r = np.array(zeros + poles, dtype=complex)
    inside = np.abs(r) <= 1.0
    u = r.copy()
    u[~inside] = 1.0 / u[~inside]
    terms = (np.angle(1.0 - u * np.exp(np.where(inside, -1j, 1j) * omega))
             - np.angle(1.0 - u) + inside * omega)
    terms[len(zeros):] *= -1.0
    flips = (g.num.coeffs[0] * g.den.coeffs[0] < 0.0) + np.sum(r.real > 1.0)
    return math.pi * (flips % 2) + float(np.sum(terms))


def logderiv(g: RationalTF, omega: float) -> DerivativeSample:
    """Gain/phase and their rates at one frequency.

    The phase and both rates come in closed form from the cached poles and
    zeros; the phase is continuous from omega = 0.
    """
    phase = _unwrapped_phase(g, float(omega))  # rejects a zero at omega
    value = evaluate(g, complex(np.exp(1j * omega)))
    q = complex(_dlog(g, omega))
    return DerivativeSample(
        omega=float(omega),
        value=value,
        gain_log=float(np.log(abs(value))),
        phase=phase,
        gain_rate=float(q.real),
        phase_rate=float(q.imag),
    )


def _u_to_t(c):
    """sum c_n U_n in T: U_n = 2 (T_n + T_{n-2} + ...), less T_0 for even n."""
    t = np.array(c, dtype=float)
    for j in range(len(t) - 3, -1, -1):
        t[j] += t[j + 2]
    t *= 2.0
    t[:1] *= 0.5
    return t


def _stationary_series(g: RationalTF):
    """S = P'Q - PQ' in x = cos omega, with P = |num|^2 and Q = |den|^2, as a
    Chebyshev series, and the same series on absolute values (its majorant).
    The autocorrelations p, q of the coefficients, scaled to unit max, are P
    and Q as Laurent series over the lags k, so sin(omega) S = P Q_omega -
    Q P_omega = 2 sum_{m>=1} c_m sin(m omega), c = (k p) * q - p * (k q)."""
    a, b = (np.asarray(c) / np.max(np.abs(c))
            for c in (g.num.coeffs, g.den.coeffs))
    ka, kb = np.arange(1 - len(a), len(a)), np.arange(1 - len(b), len(b))
    p, q, pa, qa = (np.correlate(x, x, "full")
                    for x in (a, b, np.abs(a), np.abs(b)))
    c = np.convolve(ka * p, q) - np.convolve(p, kb * q)
    ca = np.convolve(np.abs(ka) * pa, qa) + np.convolve(pa, np.abs(kb) * qa)
    return tuple(_u_to_t(2.0 * x[len(x) // 2 + 1:]) for x in (c, ca))


def _trim_to_rounding(c, majorant):
    """Drop trailing coefficients within the rounding bound of their
    majorant (the same series on absolute values, of equal length)."""
    n = len(c)
    keep = np.nonzero(np.abs(c) > 8.0 * n * np.finfo(float).eps * majorant)[0]
    return c[:keep[-1] + 1] if keep.size else c[:0]


def _partition(series):
    """0, pi and arccos of the real part of every root of ``series`` in
    (-1, 1), ascending, with the midpoints between neighbours.

    A root's real part is kept whatever its imaginary part: an extra point
    only splits an interval, so no real root near the axis is lost.
    """
    x = cheb.chebroots(series).real
    pts = np.unique(np.concatenate(
        ([0.0, np.pi], np.arccos(x[(x > -1.0) & (x < 1.0)]))))
    return pts, 0.5 * (pts[:-1] + pts[1:])


def _newton_root(f, neg: float, pos: float, x: float) -> float:
    """Root of f between neg and pos, where f(neg) <= 0 <= f(pos).

    Newton steps from x on f's (value, slope) pair, with a bisection
    whenever a step would leave the bracket or fails to halve the step
    before last (Numerical Recipes' rtsafe).  Stops once a step is within
    1e-15, or after 100 steps.
    """
    dx_old = dx = abs(pos - neg)
    fx, dfx = f(x)
    for _ in range(100):
        if fx == 0.0:
            return x
        if fx < 0.0:
            neg = x
        else:
            pos = x
        if (((x - pos) * dfx - fx) * ((x - neg) * dfx - fx) >= 0.0
                or abs(2.0 * fx) > abs(dx_old * dfx)):
            dx_old, dx = dx, 0.5 * (pos - neg)
            x = neg + dx
        else:
            dx_old, dx = dx, fx / dfx
            x -= dx
        if abs(dx) <= 1e-15:
            return x
        fx, dfx = f(x)
    return x


def _gain_rate(g: RationalTF, omega: float) -> tuple[float, float]:
    """A'(omega) and A''(omega) from the cached factors."""
    z = complex(np.exp(1j * omega))
    u = _log_slope(g, z)
    return (float((1j * z * u).real),
            float((-z * (u + z * _log_curvature(g, z))).real))


def linf_norm(g: RationalTF) -> LinfResult:
    """Peak gain over [0, pi] with refined peak frequency.

    With P = |num|^2 and Q = |den|^2 as Chebyshev series in x = cos omega,
    the interior stationary points of the gain are the roots in (-1, 1) of
    S = P'Q - PQ' (two convolutions of coefficient autocorrelations).  Those,
    0 and pi split [0, pi]; each split point whose neighbouring midpoints
    show A' falling through zero brackets a maximum, refined by Newton steps
    on A'.  ``unique`` is False when a second local maximum comes within
    UNIQUENESS_MARGIN (relative) of the peak.  A response whose S vanishes
    to rounding (all-pass or constant) is reported at omega 0, not unique.
    """
    g.assert_rl_inf()
    if g.num.is_zero:
        return LinfResult(0.0, 0.0, False)
    s = _trim_to_rounding(*_stationary_series(g))
    if not s.size:
        # all-pass or constant: no stationary point beyond rounding
        return LinfResult(float(abs(evaluate(g, 1.0 + 0.0j))), 0.0, False)

    pts, mids = _partition(s)
    rate = np.real(_dlog(g, mids))
    peaks = [_newton_root(lambda w: _gain_rate(g, w), neg=mids[i],
                          pos=mids[i - 1], x=pts[i])
             for i in range(1, len(pts) - 1)
             if rate[i - 1] >= 0.0 >= rate[i]]
    if rate[0] <= 0.0:
        peaks.append(0.0)
    if rate[-1] >= 0.0:
        peaks.append(np.pi)
    # merge near-coincident candidates
    refined = sorted(((w, abs(evaluate(g, np.exp(1j * w)))) for w in peaks),
                     key=lambda t: -t[1])
    merged: list[tuple[float, float]] = []
    for wp, gv in refined:
        if all(abs(wp - m[0]) > 1e-6 for m in merged):
            merged.append((wp, gv))
    norm, omega_p = merged[0][1], merged[0][0]
    unique = all(gv < (1.0 - UNIQUENESS_MARGIN) * norm for _, gv in merged[1:])
    return LinfResult(float(norm), float(omega_p), bool(unique))


def classify(g: RationalTF) -> ClassTag:
    """Class membership among the single-peak unstable families.

    A peak within 1e-8 of 0 or pi counts as a boundary peak.
    G1_boundary: one unstable pole, unique peak at 0 or pi.
    G2_interior: two unstable poles, unique interior peak.
    G1_interior: one unstable pole, unique interior peak.
    Everything else (n >= 3, non-unique peak, PIP failure) is Gn_other.
    """
    n = unstable_pole_count(g)
    if n == 0:
        raise NotInGClassError("not in G: no unstable pole")
    pip = pip_check(g)
    norm, omega_p, unique = linf_norm(g)
    at_boundary = omega_p <= 1e-8 or omega_p >= np.pi - 1e-8
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
