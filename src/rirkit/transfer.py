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
        if len(num.coeffs) > len(den.coeffs):
            raise ImproperTransferError(
                f"improper: deg(num)={num.degree} > deg(den)={den.degree}")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def poles(self) -> tuple[complex, ...]:
        return self.den.roots().flat

    def zeros(self) -> tuple[complex, ...]:
        """The roots of num; none where num is a constant, zero included."""
        return () if self.num.is_zero else self.num.roots().flat

    @property
    def strictly_proper(self) -> bool:
        return self.num.is_zero or self.num.degree < self.den.degree

    def __mul__(self, other):
        if isinstance(other, RationalTF):
            return RationalTF(self.num * other.num, self.den * other.den)
        return RationalTF(float(other) * self.num, self.den)

    __rmul__ = __mul__

    def assert_rl_inf(self) -> None:
        """Raise unless no pole's disk (``RootSet.sides``) reaches the unit
        circle."""
        rs = self.den.roots()
        sides = rs.sides(1.0)
        if 0 in sides:
            raise PoleOnCircleError(f"pole {rs.flat[sides.index(0)]} within "
                                    f"its rounding disk of the unit circle")


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
    """num(z)/den(z), in Python scalar arithmetic for a scalar z: a numpy
    scalar quotient overflows where den(z) is subnormal.

    Raises ``PoleOnCircleError`` where den(z) is zero to within Horner's
    rounding bound, which scales with den's coefficients.
    """
    if isinstance(z, np.generic):
        z = z.item()
    dv = poly_eval(g.den, z)
    if not isinstance(dv, np.ndarray) or dv.ndim == 0:
        if abs(dv) <= _horner_bound(g.den.coeffs, abs(z)):
            raise PoleOnCircleError(f"evaluation at a pole: z={z}")
        return poly_eval(g.num, z) / dv
    hit = np.abs(dv) <= _horner_bound(g.den.coeffs, np.abs(z))
    if np.any(hit):
        raise PoleOnCircleError(
            f"evaluation at a pole: z={np.asarray(z)[hit][0]}")
    return poly_eval(g.num, z) / dv


def unstable_pole_count(g: RationalTF) -> int:
    """Number of poles outside the unit circle, counting multiplicity;
    raises where a pole's disk reaches it (``RationalTF.assert_rl_inf``)."""
    g.assert_rl_inf()
    return g.den.roots().sides(1.0).count(1)


def _real_unstable_points(p: Polynomial):
    """Real roots of p whose disks lie outside the unit circle, as (branch,
    x) keys ordered along the extended real line 1 -> +inf = -inf -> -1; a
    conjugate pair that rounding cannot separate is one cluster at its real
    mean (``polycore._cluster``).  The zero polynomial has none."""
    if p.is_zero:
        return []
    rs = p.roots()
    return [(0, r.real) if r.real > 0 else (2, r.real)
            for r, s in zip(rs.flat, rs.sides(1.0)) if s > 0 and r.imag == 0]


def pip_check(g: RationalTF) -> bool:
    """Parity interlacing property.

    Between consecutive real unstable zeros (a zero at infinity is appended
    for strictly proper systems) the number of real unstable poles must be
    even.  The extended real line is traversed 1 -> +inf, then -inf -> -1.
    """
    g.assert_rl_inf()
    zeros = _real_unstable_points(g.num)
    if g.strictly_proper:
        zeros.append((1, 0.0))  # zero at infinity
    poles = _real_unstable_points(g.den)
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
    factors, each sum from the int 0 in the factors' order, as ``sum``
    adds."""
    zs = ps = 0
    for r in g.zeros():
        zs += 1.0 / (z - r)
    for p in g.poles():
        ps += 1.0 / (z - p)
    return zs - ps


def _dlog(g: RationalTF, omega: float) -> complex:
    """d/domega log g(e^{j omega}) = A'(omega) + j theta'(omega), from the
    cached factors as j z (sum 1/(z - z_i) - sum 1/(z - p_i))."""
    z = cmath.exp(1j * omega)
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
    rs = g.num.roots()  # a disk on the circle within [0, omega]
    if 0 in rs.sides(1.0) and any(
            s == 0 and abs(cmath.phase(r)) <= abs(omega) + rho
            for r, rho, s in zip(rs.flat, rs.radii, rs.sides(1.0))):
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
    Q P_omega = 2 sum_{m>=1} c_m sin(m omega), c = (k p) * q - p * (k q).

    With at most 5 coefficients in num and den together, S has at most
    three terms, and a proper g has at most 2 in num: p spans lags -1..1
    and q lags -3..3, so c_l = sum_j (2 j - l) p_j q_{l-j} and the
    majorant's sum_j (|j| + |l - j|) |p_j| |q_{l-j}| are written out in
    Python floats, the missing coefficients as zeros (p_1 q_3 = 0, since
    num has 2 only where den has at most 3)."""
    num, den = g.num.coeffs, g.den.coeffs
    if len(num) + len(den) <= 5:
        sa, sb = max(map(abs, num)), max(map(abs, den))
        a0, a1 = (num + (0.0,))[:2]
        b0, b1, b2, b3 = (den + (0.0, 0.0, 0.0))[:4]
        a0, a1 = a0 / sa, a1 / sa
        b0, b1, b2, b3 = b0 / sb, b1 / sb, b2 / sb, b3 / sb
        p0, p1, pa1 = a0 * a0 + a1 * a1, a0 * a1, abs(a0 * a1)
        q0 = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
        q1, q2, q3 = b1 * b0 + b2 * b1 + b3 * b2, b2 * b0 + b3 * b1, b3 * b0
        qa1 = abs(b1 * b0) + abs(b2 * b1) + abs(b3 * b2)
        qa2 = abs(b2 * b0) + abs(b3 * b1)
        c1 = p1 * q0 - p0 * q1 - 3.0 * p1 * q2
        c2, c3 = -2.0 * p0 * q2, -3.0 * p0 * q3 - p1 * q2
        ca1 = pa1 * q0 + p0 * qa1 + 3.0 * pa1 * qa2
        ca2 = 2.0 * p0 * qa2 + 2.0 * pa1 * qa1
        ca3 = 3.0 * p0 * abs(q3) + 3.0 * pa1 * qa2
        n = len(num) + len(den) - 2  # _u_to_t of 2 c and of 2 ca
        return ([2.0 * (c1 + c3), 4.0 * c2, 4.0 * c3][:n],
                [2.0 * (ca1 + ca3), 4.0 * ca2, 4.0 * ca3][:n])
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
    solved by ``_quadratic_roots`` and taken through ``math.acos``, so that
    case calls no numpy.  c's last coefficient must be nonzero.
    A root's real part is kept whatever its imaginary part: an extra point
    only splits an interval, so no real root near the axis is lost.
    """
    n = len(c) - 1
    if n == 2:
        x = _quadratic_roots(2.0 * c[2], c[1], c[0] - c[2])
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
    x = [v.real for v in x if -1.0 < v.real < 1.0]
    inner = [math.acos(v) for v in x] if n == 2 else np.arccos(x).tolist()
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
    """Turns of f over [0, pi]: the sign changes of ``sign(w, c)``, read at
    the midpoints between the split points of ``_partition(c)``, c the
    series with its trailing noise coefficients trimmed.  The whole series'
    rounding bound 8 n eps sum(majorant) decides where c is zero: None if
    sum |c_k| >= |c(x)| on [-1, 1] is within it, and f vanishes at omega = 0
    and pi, so where c(+-1) is within it the sign next to that end is f's
    slope BOUNDARY_BAND inside it (negated at pi), sought by halving toward
    it.  Each strict falling change, and each rising one if ``rising``, is
    refined by ``_newton_root`` on f, which has sign's sign.  Returns the
    (omega, up) turns end to end: (0.0, the sign next to 0 is positive), the
    refined changes ascending, and (pi, the sign next to pi is negative); f
    is odd about both ends, so ``up`` is f rising through zero at each turn.
    """
    bound = 8.0 * len(series) * sys.float_info.epsilon * sum(majorant)
    c = _trim_to_rounding(series, majorant)
    if sum(map(abs, c)) <= bound:
        return None
    pts, mids = _partition(c)
    s = [sign(w, c) for w in mids]
    even, odd = sum(c[::2]), sum(c[1::2])  # c(x) = even + x odd at x = +-1
    for k, end, x in ((0, 0.0, 1.0), (-1, math.pi, -1.0)):
        if abs(even + x * odd) > bound:
            continue
        d = x * f(end + x * BOUNDARY_BAND)[1]  # off a zero of g on the end
        w = mids[k]
        while d * s[k] < 0.0 and abs(w - end) > BOUNDARY_BAND:
            inner, w = w, 0.5 * (w + end)
            if f(w)[0] * d > 0.0:  # w is a midpoint, inner a split point
                if k == 0:
                    pts, mids, s = [0.0, inner] + pts[1:], [w] + mids, [d] + s
                else:
                    pts, mids, s = pts[:-1] + [inner, end], mids + [w], s + [d]
    turns = [(0.0, s[0] > 0.0)]
    for i in range(1, len(pts) - 1):
        up = s[i - 1] < 0.0 < s[i]
        if (up and rising) or s[i - 1] > 0.0 > s[i]:
            neg, pos = (mids[i - 1], mids[i]) if up else (mids[i], mids[i - 1])
            turns.append((_newton_root(f, neg, pos, pts[i]), up))
    return turns + [(math.pi, s[-1] < 0.0)]


def _gain_rate(g: RationalTF, omega: float) -> tuple[float, float]:
    """A'(omega) and A''(omega) from the cached factors: with u the log
    slope (``_log_slope``) and its derivative sum 1/(z - p_i)^2 - sum
    1/(z - z_i)^2, both summed as ``_log_slope`` sums, A' = Re(j z u) and
    A'' = -Re(z (u + z u'))."""
    z = cmath.exp(1j * omega)
    zs = ps = zc = pc = 0
    for r in g.zeros():
        zs += 1.0 / (z - r)
        zc += 1.0 / (z - r) ** 2
    for p in g.poles():
        ps += 1.0 / (z - p)
        pc += 1.0 / (z - p) ** 2
    u = zs - ps
    return (float((1j * z * u).real), float((-z * (u + z * (pc - zc))).real))


def _gain_turns(g: RationalTF, rising: bool):
    """``_sign_changes`` of the log-gain rate A' between S's roots, A' and A''
    from the cached factors: a falling turn is a gain maximum."""
    return _sign_changes(*_stationary_series(g),
                         lambda w, _: _dlog(g, w).real,
                         lambda w: _gain_rate(g, w), rising)


def _sin_series(L: RationalTF, radius: float):
    """V with Im[num(z) conj den(z)] = -sin(omega) V(cos omega) at
    z = radius e^{-j omega}, as a Chebyshev series, together with the same
    series on absolute values (its rounding majorant).

    With a_i, b_i the radius-weighted ascending coefficients (each scaled to
    unit max), V = sum_l c_l U_{l-1} with the cross-correlation difference
    c_l = sum_k a_{k+l} b_k - a_k b_{k+l}.
    """
    n = max(len(L.num.coeffs), len(L.den.coeffs))

    def weighted(coeffs):
        c = radius ** np.arange(len(coeffs)) * np.array(coeffs[::-1])
        out = np.zeros(n)
        out[:len(c)] = c / max(map(abs, c.tolist()))
        return out

    a, b = weighted(L.num.coeffs), weighted(L.den.coeffs)
    r = np.correlate(a, b, "full")
    ra = np.correlate(np.abs(a), np.abs(b), "full")
    return (_u_to_t(r[n:] - r[:n - 1][::-1]),
            _u_to_t(ra[n:] + ra[:n - 1][::-1]))


def _axis_turns(L: RationalTF, radius: float):
    """``_sign_changes`` of Im L at z = radius e^{-j omega}, where L meets
    the real axis: -V's sign by Clenshaw's recurrence between V's roots, and
    Newton steps on Im L from ``evaluate`` and the cached factors.  Im L
    within the rounding bound on L(z), Horner's bounds on num and (scaled
    by |L|) on den over |den(z)| as in ``crossing_counts``, reads as 0.0: a
    crossing to rounding, where the steps stop rather than dither."""
    bn = _horner_bound(L.num.coeffs, radius)
    bd = _horner_bound(L.den.coeffs, radius)

    def im_rate(w):
        z = radius * complex(np.exp(-1j * w))
        lv = evaluate(L, z)
        im = lv.imag
        if abs(im) <= (bn + abs(lv) * bd) / abs(poly_eval(L.den, z)):
            im = 0.0
        return im, float((-1j * z * lv * _log_slope(L, z)).imag)

    return _sign_changes(*_sin_series(L, radius),
                         lambda w, v: -_chebval(math.cos(w), v), im_rate,
                         rising=True)


def linf_norm(g: RationalTF) -> LinfResult:
    """Peak gain over [0, pi] with refined peak frequency.

    With P = |num|^2 and Q = |den|^2 as Chebyshev series in x = cos omega,
    the interior stationary points of the gain are the roots in (-1, 1) of
    S = P'Q - PQ' (two convolutions of coefficient autocorrelations).  Those,
    0 and pi split [0, pi]; each split point, the ends included, where A'
    falls through zero is a maximum, refined by Newton steps on A' inside
    (0, pi).  ``unique`` is False when any other maximum comes within
    UNIQUENESS_MARGIN (relative) of the peak.  A response whose S is zero
    to rounding on all of [-1, 1] (all-pass or constant) is flat: reported
    at omega 0, with Horner's gain at z = 1, not unique.
    """
    g.assert_rl_inf()
    if g.num.is_zero:
        return LinfResult(0.0, 0.0, False)
    turns = _gain_turns(g, rising=False)
    if turns is None:
        # all-pass or constant: no stationary point beyond rounding
        return LinfResult(float(abs(evaluate(g, 1.0 + 0.0j))), 0.0, False)
    (omega_p, norm), *rest = sorted(
        [(w, abs(evaluate(g, cmath.exp(1j * w)))) for w, up in turns
         if not up], key=lambda t: -t[1])
    unique = all(gv < (1.0 - UNIQUENESS_MARGIN) * norm for _, gv in rest)
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
