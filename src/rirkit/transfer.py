"""Rational transfer functions on the unit circle.

Evaluation, pole/zero sets, L-infinity norm with peak refinement, log-gain
and phase rates, the parity interlacing property, and membership in the
unstable single-peak classes used by the instability-radius analysis.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ImproperTransferError,
    NotInGClassError,
    PoleOnCircleError,
    ZeroOnCircleError,
)
from .polycore import (Polynomial, _horner_bound, _quadratic_roots,
                       from_roots, poly_eval)

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
    "cancel_common_roots",
    "at_boundary",
    "G1_BOUNDARY",
    "G2_INTERIOR",
    "G1_INTERIOR",
    "GN_OTHER",
]

CANCEL_TOL = 1e-8
CIRCLE_TOL = 1e-9
UNIQUENESS_MARGIN = 1e-6
BOUNDARY_BAND = 1e-12  # an omega this close to 0 or pi is a boundary frequency
_SQRT_HALF = math.sqrt(0.5)

G1_BOUNDARY = "G1_boundary"
G2_INTERIOR = "G2_interior"
G1_INTERIOR = "G1_interior"
GN_OTHER = "Gn_other"


@dataclass(frozen=True)
class RationalTF:
    """Proper real-rational transfer function num/den.

    num and den are kept as given, since a root they share in a product of
    factors can be a closed-loop mode (a root of den - num); outside input
    goes through ``cancel_common_roots``.  Improper inputs are rejected.
    """

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ValueError("denominator is identically zero")
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
        if isinstance(other, RationalTF):
            return RationalTF(self.num * other.num, self.den * other.den)
        return RationalTF(float(other) * self.num, self.den)

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


def cancel_common_roots(g: RationalTF) -> RationalTF:
    """g without the roots its num and den share.

    A pole r cancels against a zero within CANCEL_TOL (1 + |r|) of it.
    When nothing cancels, g itself is returned, with its cached roots.
    """
    zeros, kept = list(g.zeros()), []
    for r in g.poles():
        hit = next((i for i, z in enumerate(zeros)
                    if abs(z - r) <= CANCEL_TOL * (1.0 + abs(r))), None)
        if hit is None:
            kept.append(r)
        else:
            zeros.pop(hit)
    if len(kept) == g.den.degree:
        return g
    return RationalTF(from_roots(zeros, g.num.coeffs[0]),
                      from_roots(kept, g.den.coeffs[0]))


def at_boundary(omega: float) -> bool:
    """Whether omega lies within BOUNDARY_BAND of 0 or pi."""
    return omega <= BOUNDARY_BAND or omega >= math.pi - BOUNDARY_BAND


def evaluate(g: RationalTF, z):
    """num(z)/den(z).

    Raises ``PoleOnCircleError`` where den(z) is zero to within Horner's
    rounding bound, which scales with den's coefficients.
    """
    dv = poly_eval(g.den, z)
    if np.isscalar(dv) or dv.ndim == 0:
        if abs(dv) <= _horner_bound(g.den.coeffs, abs(z)):
            raise PoleOnCircleError(f"evaluation at a pole: z={z}")
        return poly_eval(g.num, z) / dv
    hit = np.abs(dv) <= _horner_bound(g.den.coeffs, np.abs(z))
    if np.any(hit):
        raise PoleOnCircleError(
            f"evaluation at a pole: z={np.asarray(z)[hit][0]}")
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
    cached factors as j z (sum 1/(z - z_i) - sum 1/(z - p_i)).

    At one frequency (a Python or numpy float) z comes from ``cmath.exp``, so
    the sum runs in Python complex arithmetic and returns a complex.
    """
    if isinstance(omega, (int, float)):
        z = cmath.exp(1j * omega)
    else:
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
           and abs(cmath.phase(r)) <= abs(omega) + CIRCLE_TOL for r in zeros):
        raise ZeroOnCircleError(f"zero on the unit circle within [0, {omega}]")
    back = cmath.exp(-1j * omega)  # e^{-j omega}
    flips = (g.num.coeffs[0] < 0.0) != (g.den.coeffs[0] < 0.0)
    total = 0.0
    for sign, roots in ((1.0, zeros), (-1.0, poles)):
        for r in roots:
            flips += r.real > 1.0
            if abs(r) <= 1.0:
                term = (cmath.phase(1.0 - r * back) - cmath.phase(1.0 - r)
                        + omega)
            else:
                u = 1.0 / r
                term = (cmath.phase(1.0 - u * back.conjugate())
                        - cmath.phase(1.0 - u))
            total += sign * term
    return math.pi * (flips % 2) + total


def logderiv(g: RationalTF, omega: float) -> DerivativeSample:
    """Gain/phase and their rates at one frequency.

    The phase and both rates come in closed form from the cached poles and
    zeros; the phase is continuous from omega = 0.
    """
    omega = float(omega)
    phase = _unwrapped_phase(g, omega)  # rejects a zero at omega
    value = evaluate(g, cmath.exp(1j * omega))
    q = _dlog(g, omega)
    return DerivativeSample(
        omega=omega,
        value=value,
        gain_log=float(np.log(abs(value))),
        phase=phase,
        gain_rate=q.real,
        phase_rate=q.imag,
    )


def _u_to_t(c):
    """sum c_n U_n in T, as a list: U_n = 2 (T_n + T_{n-2} + ...), less T_0
    for even n."""
    t = c.tolist()
    for j in range(len(t) - 3, -1, -1):
        t[j] += t[j + 2]
    t = [2.0 * x for x in t]
    if t:
        t[0] *= 0.5
    return t


def _stationary_series(g: RationalTF):
    """S = P'Q - PQ' in x = cos omega, with P = |num|^2 and Q = |den|^2, as a
    Chebyshev series, and the same series on absolute values (its majorant).
    The autocorrelations p, q of the coefficients, scaled to unit max, are P
    and Q as Laurent series over the lags k, so sin(omega) S = P Q_omega -
    Q P_omega = 2 sum_{m>=1} c_m sin(m omega), c = (k p) * q - p * (k q)."""
    num, den = g.num.coeffs, g.den.coeffs
    a = np.array(num) / max(map(abs, num))
    b = np.array(den) / max(map(abs, den))
    aa, ba = np.abs(a), np.abs(b)
    ka, kb = np.arange(1 - len(a), len(a)), np.arange(1 - len(b), len(b))
    p, q = np.correlate(a, a, "full"), np.correlate(b, b, "full")
    pa, qa = np.correlate(aa, aa, "full"), np.correlate(ba, ba, "full")
    c = np.convolve(ka * p, q) - np.convolve(p, kb * q)
    ca = np.convolve(np.abs(ka) * pa, qa) + np.convolve(pa, np.abs(kb) * qa)
    m = len(c) // 2 + 1
    return _u_to_t(2.0 * c[m:]), _u_to_t(2.0 * ca[m:])


def _trim_to_rounding(c, majorant) -> list:
    """Drop trailing coefficients within the rounding bound of their
    majorant (the same series on absolute values, of equal length)."""
    tol = 8.0 * len(c) * sys.float_info.epsilon
    k = len(c)
    while k and not abs(c[k - 1]) > tol * majorant[k - 1]:
        k -= 1
    return list(c[:k])


def _partition(c):
    """0, pi and arccos of the real part of every root in (-1, 1) of the
    Chebyshev series c, ascending, with the midpoints between neighbours,
    as lists.

    Past three terms the roots are the eigenvalues of the rotated scaled
    colleague matrix, built as numpy's ``chebroots`` builds it, so they are
    its roots; three terms c0 + c1 x + c2 T2 are 2 c2 x^2 + c1 x + c0 - c2,
    solved by ``_quadratic_roots``.  c's last coefficient must be nonzero.
    A root's real part is kept whatever its imaginary part: an extra point
    only splits an interval, so no real root near the axis is lost.
    """
    n = len(c) - 1
    if n == 2:
        x = [r.real for r in _quadratic_roots(2.0 * c[2], c[1], c[0] - c[2])]
    elif n > 2:
        m = np.zeros((n, n))
        flat = m.reshape(-1)
        off = [0.5] * (n - 2) + [_SQRT_HALF]
        flat[1::n + 1] = off  # super- and subdiagonal
        flat[n::n + 1] = off
        # chebcompanion's last column, c_k / c_n scaled, reversed
        m[:, 0] -= ([a / c[-1] * 0.5 for a in c[-2:0:-1]]
                    + [c[0] / c[-1] * (1.0 / _SQRT_HALF) * 0.5])
        x = np.linalg.eigvals(m).real.tolist()
    else:
        x = [-c[0] / c[1]] if n else []
    inner = np.arccos([v for v in x if -1.0 < v < 1.0]).tolist()
    pts = [0.0]
    for w in sorted(inner + [math.pi]):
        if w != pts[-1]:
            pts.append(w)
    return pts, [0.5 * (a + b) for a, b in zip(pts, pts[1:])]


def _chebval(x: float, c: list) -> float:
    """sum c_k T_k(x) by Clenshaw's recurrence, in ``chebval``'s order of
    operations (so with its rounding)."""
    if len(c) < 3:
        return c[0] + (c[1] if len(c) == 2 else 0.0) * x
    x2 = 2.0 * x
    c0, c1 = c[-2], c[-1]
    for a in c[-3::-1]:
        c0, c1 = a - c1, c0 + c1 * x2
    return c0 + c1 * x


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


def _sign_changes(series, majorant, sign, f, rising: bool):
    """Sign changes of ``sign(w, c)``, read at the midpoints between the
    split points of ``_partition(c)``, c the series trimmed to rounding;
    None if that is empty.  Each strict falling change, and each rising one
    if ``rising``, is refined by ``_newton_root`` on f, which has sign's
    sign.  Returns the (omega, up) pairs, ascending, and sign at the first
    and last midpoints, which decide omega = 0 and pi.
    """
    c = _trim_to_rounding(series, majorant)
    if not c:
        return None
    pts, mids = _partition(c)
    s = [sign(w, c) for w in mids]
    changes = []
    for i in range(1, len(pts) - 1):
        up = s[i - 1] < 0.0 < s[i]
        if (up and rising) or s[i - 1] > 0.0 > s[i]:
            neg, pos = (mids[i - 1], mids[i]) if up else (mids[i], mids[i - 1])
            changes.append((_newton_root(f, neg, pos, pts[i]), up))
    return changes, s[0], s[-1]


def _gain_rate(g: RationalTF, omega: float) -> tuple[float, float]:
    """A'(omega) and A''(omega) from the cached factors."""
    z = cmath.exp(1j * omega)
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
    found = _sign_changes(*_stationary_series(g),
                          lambda w, _: _dlog(g, w).real,
                          lambda w: _gain_rate(g, w), rising=False)
    if found is None:
        # all-pass or constant: no stationary point beyond rounding
        return LinfResult(float(abs(evaluate(g, 1.0 + 0.0j))), 0.0, False)
    changes, first, last = found
    peaks = [w for w, _ in changes]
    if first <= 0.0:
        peaks.append(0.0)
    if last >= 0.0:
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

    A peak where ``at_boundary`` holds is a boundary peak.
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
    boundary = at_boundary(omega_p)
    if not pip or not unique:
        name = GN_OTHER
    elif n == 1 and boundary:
        name = G1_BOUNDARY
    elif n == 2 and not boundary:
        name = G2_INTERIOR
    elif n == 1 and not boundary:
        name = G1_INTERIOR
    else:
        name = GN_OTHER
    return ClassTag(n_unstable=n, pip=pip, peak_omega=omega_p,
                    peak_gain=norm, peak_unique=unique, class_name=name)
