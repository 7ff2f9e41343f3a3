"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from rirkit.casestudies import (
    FHNModel,
    FixedPoint,
    Trajectory,
    _fhn_x_update,
    fhn_fixed_point,
)
from rirkit.errors import PreconditionError
from rirkit.nyquist import closed_loop_poles
from rirkit.polycore import (Polynomial, RootSet, _quadratic_roots,
                             _root_set, from_roots)
from rirkit.rir import (
    AllPassSpec,
    _ap1_param,
    _require_reachable_phase,
    allpass_phase_match,
    ap1_phase,
    ap1_rate,
    ap2_phase,
    ap2_rate,
    wrap_angle,
)
from rirkit.transfer import RationalTF, evaluate


def random_poles(rng, n_stable: int, n_unstable: int) -> list[complex]:
    """Poles kept away from the unit circle so verdicts stay well-posed."""
    poles: list[complex] = []
    k = 0
    while k < n_stable:
        if rng.uniform() < 0.5 or n_stable - k < 2:
            poles.append(complex(rng.uniform(-0.9, 0.9)))
            k += 1
        else:
            r = rng.uniform(0.2, 0.9)
            th = rng.uniform(0.1, np.pi - 0.1)
            poles.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
            k += 2
    k = 0
    while k < n_unstable:
        if rng.uniform() < 0.5 or n_unstable - k < 2:
            s = 1.0 if rng.uniform() < 0.5 else -1.0
            poles.append(complex(s * rng.uniform(1.15, 2.5)))
            k += 1
        else:
            r = rng.uniform(1.15, 2.5)
            th = rng.uniform(0.1, np.pi - 0.1)
            poles.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
            k += 2
    return poles


@st.composite
def low_degree_polynomials(draw, min_degree: int = 1, max_degree: int = 3):
    """A Polynomial of degree min_degree to max_degree whose nonzero
    coefficients, sign * U(1, 10) * 10**k, lie within 10**10 of a common
    scale drawn from 10**-290 to 10**290: real roots, complex pairs and,
    from trailing zero coefficients, exact roots at 0."""
    degree = draw(st.integers(min_degree, max_degree))
    zero_roots = draw(st.integers(0, degree))
    scale = draw(st.integers(-290, 290))
    coeffs = [draw(st.sampled_from((-1.0, 1.0)))
              * draw(st.floats(min_value=1.0, max_value=10.0))
              * 10.0 ** (scale + draw(st.integers(-10, 10)))
              for _ in range(degree + 1 - zero_roots)]
    return Polynomial(coeffs + [0.0] * zero_roots)


def random_tf(rng, n_stable=2, n_unstable=1, n_zeros=1,
              gain_range=(0.2, 3.0)) -> RationalTF:
    poles = random_poles(rng, n_stable, n_unstable)
    zeros: list[complex] = []
    k = 0
    while k < n_zeros:
        if rng.uniform() < 0.6 or n_zeros - k < 2:
            zeros.append(complex(rng.uniform(-0.9, 0.9)))
            k += 1
        else:
            r = rng.uniform(0.2, 0.9)
            th = rng.uniform(0.1, np.pi - 0.1)
            zeros.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
            k += 2
    gain = float(rng.uniform(*gain_range)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return RationalTF(from_roots(zeros, gain), from_roots(poles))


def near_circle_tf(rng) -> RationalTF:
    """A plant with poles 1e-6 to 1e-2 off the unit circle on either side.

    One real pole (of either sign) or conjugate pair at radius 1 + m1 and
    one at radius 1 - m2, with m = 10^U(-6, -2) and angles U(0, pi); one
    real zero or pair at radius U(0.2, 2), kept only when there are fewer
    zeros than poles; each num coefficient then scaled by 10^U(-1, 1).
    """
    def factor(radius):
        if rng.uniform() < 0.5:
            return [complex(radius * rng.choice((-1.0, 1.0)))]
        th = rng.uniform(0.0, np.pi)
        return [radius * np.exp(1j * th), radius * np.exp(-1j * th)]

    poles = (factor(1.0 + 10.0 ** rng.uniform(-6.0, -2.0))
             + factor(1.0 - 10.0 ** rng.uniform(-6.0, -2.0)))
    zeros = factor(rng.uniform(0.2, 2.0))
    if len(zeros) >= len(poles):
        zeros = []
    num = from_roots(zeros).coeffs * 10.0 ** rng.uniform(-1.0, 1.0,
                                                         len(zeros) + 1)
    return RationalTF(num, from_roots(poles))


def stabilizer_search(g: RationalTF, trials: int = 2000, seed: int = 0,
                      gain_range: tuple[float, float] = (1e-3, 10.0)):
    """Random first-order stable controllers that stabilize g.

    Spot-check helper for the strictly-greater verdicts: every stabilizer
    found must have norm above the reciprocal peak gain.
    """
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(trials):
        a = float(rng.uniform(-0.999, 0.999))
        k = float(np.exp(rng.uniform(np.log(gain_range[0]),
                                     np.log(gain_range[1]))))
        c = 1 if rng.uniform() < 0.5 else -1
        f = AllPassSpec(c=c, a=a, scale=k).to_tf()
        roots = closed_loop_poles(g * f).flat
        if roots and max(abs(r) for r in roots) < 1.0 - 1e-9:
            found.append((f, k))
    return found


def brute_force_crossings(L: RationalTF, epsilon: float, n: int = 1_000_000):
    """Dense-sampling oracle for transverse crossing counts of (1, inf).

    Counts strict sign changes of the imaginary part with the bracket
    midpoint real part beyond 1; dense enough sampling makes this agree
    with the refined adaptive counter on well-separated systems.
    """
    w = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    vals = evaluate(L, np.exp(-1j * w) / (1.0 - epsilon))
    im = vals.imag
    re = vals.real
    sign = np.where(im >= 0.0, 1, -1)
    nxt = np.roll(sign, -1)
    re_mid = 0.5 * (re + np.roll(re, -1))
    up = (sign < 0) & (nxt > 0) & (re_mid > 1.0)
    down = (sign > 0) & (nxt < 0) & (re_mid > 1.0)
    return int(np.sum(up)), int(np.sum(down))


def dense_peak(g: RationalTF, n: int = 2 ** 14, zooms: int = 4) -> float:
    """Dense-grid oracle for the peak gain of g on [0, pi].

    An (n + 1)-point grid, then ``zooms`` times a 1025-point grid over the
    two cells around the current maximum; numpy's polyval alone.
    """
    def gain(w):
        z = np.exp(1j * w)
        return np.abs(np.polyval(g.num.coeffs, z)
                      / np.polyval(g.den.coeffs, z))

    w = np.linspace(0.0, np.pi, n + 1)
    for _ in range(zooms):
        i = int(np.argmax(gain(w)))
        w = np.linspace(w[max(i - 1, 0)], w[min(i + 1, len(w) - 1)], 1025)
    return float(np.max(gain(w)))


def mp_gain(g: RationalTF, omega: float) -> float:
    """|g(e^{j omega})| from g's stored coefficients, evaluated by mpmath at
    50 digits, so rounding in the evaluation itself cannot show."""
    import mpmath

    with mpmath.workdps(50):
        z = mpmath.expj(mpmath.mpf(float(omega)))
        num = mpmath.polyval([mpmath.mpf(c) for c in g.num.coeffs], z)
        den = mpmath.polyval([mpmath.mpf(c) for c in g.den.coeffs], z)
        return float(abs(num / den))


def mp_quadratic_roots(a: float, b: float, c: float) -> list:
    """Both roots of a z^2 + b z + c by ``mpmath.polyroots`` at 50 digits.

    polyroots stops on an absolute step, so the larger root is moved to
    unit size first: z = s w with s the power of two of max(|b/a|,
    sqrt|c/a|), which is within a factor 4 of it.  That root is resolved to
    50 digits, and Vieta's c/(a r) gives the other.  At 50 digits b^2 - 4ac
    of doubles is exact, and where it is 0 the double root -b/(2a) is
    returned as is: polyroots does not converge on an exact double root.
    """
    import mpmath

    def exponent(v):
        return math.frexp(v)[1]

    with mpmath.workdps(50):
        if c == 0.0:
            return [mpmath.mpf(0), -mpmath.mpf(b) / a]
        if mpmath.mpf(b) ** 2 == 4 * mpmath.mpf(a) * c:
            return [-mpmath.mpf(b) / (2 * a)] * 2
        k = (exponent(c) - exponent(a)) // 2
        if b != 0.0:
            k = max(k, exponent(b) - exponent(a))
        s = mpmath.ldexp(1, k)
        a, b, c = (mpmath.mpf(v) for v in (a, b, c))
        w = mpmath.polyroots([a * s * s, b * s, c], maxsteps=200,
                             extraprec=100)
        big = s * max(w, key=abs)
        return [big, c / (a * big)]


def dense_phase(g: RationalTF, omega: float, n: int = 20001) -> float:
    """Dense-sampling oracle for the continuous phase along [0, omega].

    Referenced to arg g(1) in {0, pi}; np.unwrap removes the 2 pi jumps of
    the principal argument, and dense enough sampling keeps every true step
    below pi.
    """
    w = np.linspace(0.0, omega, n)
    phase = np.unwrap(np.angle(evaluate(g, np.exp(1j * w))))
    theta0 = np.pi if evaluate(g, 1.0 + 0.0j).real < 0.0 else 0.0
    return float(theta0 + phase[-1] - phase[0])


def _cos_series(coeffs):
    """|p(e^{j omega})|^2, p scaled to unit max coefficient, as a Chebyshev
    series in x = cos omega: c_0 = sum a_i^2, c_k = 2 sum a_i a_{i+k}."""
    a = np.asarray(coeffs, dtype=float)
    a = a / np.max(np.abs(a))
    r = np.correlate(a, a, "full")[len(a) - 1:]
    r[1:] *= 2.0
    return r


def reference_stationary_series(g: RationalTF):
    """Oracle for ``transfer._stationary_series``: S = P'Q - PQ' and its
    majorant by ``numpy.polynomial.chebyshev`` algebra on the Chebyshev
    series of |num|^2 and |den|^2.

    This is the construction that the two-convolution form replaced, kept
    unchanged; both series are zero-padded to one length at the end, since
    ``chebsub``/``chebadd`` trim trailing zeros.
    """
    p, q = _cos_series(g.num.coeffs), _cos_series(g.den.coeffs)
    pa, qa = (_cos_series(np.abs(g.num.coeffs)),
              _cos_series(np.abs(g.den.coeffs)))
    s = cheb.chebsub(cheb.chebmul(cheb.chebder(p), q),
                     cheb.chebmul(p, cheb.chebder(q)))
    majorant = cheb.chebadd(cheb.chebmul(cheb.chebder(pa), qa),
                            cheb.chebmul(pa, cheb.chebder(qa)))
    n = max(len(s), len(majorant))
    return tuple(np.pad(x, (0, n - len(x))) for x in (s, majorant))


def random_series(rng, n: int):
    """n seeded coefficients whose magnitudes spread over e^-5 to e^5."""
    return (rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0, n))).tolist()


def reference_partition(series):
    """Oracle for ``transfer._partition``: the split points and midpoints
    from ``chebroots``, as the analysis computed them before it built the
    colleague matrix itself."""
    x = cheb.chebroots(series).real
    pts = np.sort(np.concatenate(
        ([0.0, np.pi], np.arccos(x[(x > -1.0) & (x < 1.0)]))))
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    return pts, 0.5 * (pts[:-1] + pts[1:])


def reference_u_to_t(c):
    """Oracle for ``transfer._u_to_t``: the in-place loop on an array."""
    t = np.array(c, dtype=float)
    for j in range(len(t) - 3, -1, -1):
        t[j] += t[j + 2]
    t *= 2.0
    t[:1] *= 0.5
    return t


def reference_poly_roots(p: Polynomial) -> RootSet:
    """Bit-exact oracle for ``poly_roots``: every root polished in Python
    complex arithmetic, the real ones included.

    This is the implementation that polishes a real root in float
    arithmetic replaced.  It clusters through the package's ``_root_set``,
    so it forms the same inclusion radii as ``poly_roots``: Horner's bound
    on |c_k| at |r| and p'(r), both before the step, in the same order of
    operations.
    """
    if p.is_zero:
        raise ValueError("undefined roots: zero polynomial")
    if p.degree == 0:
        return RootSet(roots=(), multiplicities=(), residual=0.0, radii=())
    shift = -math.frexp(max(map(abs, p.coeffs)))[1]
    c = [math.ldexp(a, shift) for a in p.coeffs]
    if c[0] == 0.0:
        raise ValueError("coefficients spread beyond the double range: the "
                         "leading one underflows at the largest's scale")
    n = len(c)
    while c[n - 1] == 0.0:
        n -= 1
    if n > 3:
        row = [-a / c[0] for a in c[1:n]]
        if not all(map(math.isfinite, row)):
            raise ValueError("coefficients spread beyond the double range: "
                             "a companion entry c_k/c_0 overflows")
        companion = np.diag(np.ones(n - 2), -1)
        companion[0, :] = row
        z = np.linalg.eigvals(companion).tolist()
    elif n == 3:
        z = list(_quadratic_roots(*c[:3]))
    else:
        z = [-c[1] / c[0]] if n == 2 else []
    z += [0.0] * (len(c) - n)
    dc = [a * (len(c) - 1 - k) for k, a in enumerate(c[:-1])]
    polished, radii = [], []
    for r in z:
        r = complex(r)
        pv, dv = complex(c[0]), complex(dc[0])
        for a in c[1:]:
            pv = pv * r + a
        for a in dc[1:]:
            dv = dv * r + a
        ev = 0.0  # Horner's bound on |c_k| at |r|, before the step
        for a in c:
            ev = ev * abs(r) + abs(a)
        if pv != 0.0 and dv != 0.0:
            r -= pv / dv
        if not math.isfinite(math.hypot(r.real, r.imag)):
            raise ValueError(f"a root lies beyond the double range: {r}")
        polished.append(r)
        scale = 4.0 * len(dc) * len(dc) * float(np.finfo(float).eps)
        radii.append(scale * ev / abs(dv) if dv else ev and math.inf)
    return _root_set(p, polished, radii, None)


def reference_log_slope(g: RationalTF, z):
    """Bit-exact oracle for ``transfer._log_slope``: the sums by ``sum``
    over generator expressions, as they were written before the explicit
    loops."""
    return (sum(1.0 / (z - r) for r in g.zeros())
            - sum(1.0 / (z - p) for p in g.poles()))


def reference_log_curvature(g: RationalTF, z):
    """d/dz of ``reference_log_slope``, summed the same way."""
    return (sum(1.0 / (z - p) ** 2 for p in g.poles())
            - sum(1.0 / (z - r) ** 2 for r in g.zeros()))


def reference_gain_rate(g: RationalTF, omega: float) -> tuple[float, float]:
    """Bit-exact oracle for ``transfer._gain_rate``: the slope and its
    derivative from the two reference sums, each reading the factors."""
    z = cmath.exp(1j * omega)
    u = reference_log_slope(g, z)
    return (float((1j * z * u).real),
            float((-z * (u + z * reference_log_curvature(g, z))).real))


def reference_unwrapped_phase(g: RationalTF, omega: float) -> float:
    """Oracle for ``transfer._unwrapped_phase``: the same closed form over
    the cached factors in numpy complex arrays, as it was computed before
    it moved to Python complex arithmetic."""
    zeros, poles = g.zeros(), g.poles()
    r = np.array(zeros + poles, dtype=complex)
    inside = np.abs(r) <= 1.0
    u = r.copy()
    u[~inside] = 1.0 / u[~inside]
    terms = (np.angle(1.0 - u * np.exp(np.where(inside, -1j, 1j) * omega))
             - np.angle(1.0 - u) + inside * omega)
    terms[len(zeros):] *= -1.0
    flips = (g.num.coeffs[0] * g.den.coeffs[0] < 0.0) + np.sum(r.real > 1.0)
    return math.pi * (flips % 2) + float(np.sum(terms))


def reference_fig1_rows(model: FHNModel) -> list[tuple[float, float]]:
    """The Fig. 1 sweep as fhn_search_eo computed it inline before it
    became fhn_inv_norm_sweep: e from -0.25 by repeated += 0.005."""
    from rirkit.casestudies import fhn_linearize
    from rirkit.transfer import linf_norm

    rows = []
    e = -0.25
    while e <= 0.05 + 1e-12:
        rows.append((float(e),
                     float(1.0 / linf_norm(fhn_linearize(model, e)).norm)))
        e += 0.005
    return rows


def reference_bisection(h, a: float, b: float, h_a: float) -> float:
    """fhn_search_eo's bisection before it searched the bisection's grid:
    halve [a, b], whose ends h puts in different sign classes (h < 0 or
    not), to a width of 1e-5, and return the last interval's midpoint."""
    for _ in range(200):
        if abs(b - a) <= 1e-5:
            break
        m = 0.5 * (a + b)
        h_m = h(m)
        if (h_a < 0.0) == (h_m < 0.0):
            a, h_a = m, h_m
        else:
            b = m
    return 0.5 * (a + b)


def reference_fhn_fixed_point(model: FHNModel, e: float) -> FixedPoint:
    """Oracle for ``fhn_fixed_point``: a full Newton run from each of four
    starts, as the fixed point was found before it deflated the cubic."""
    A, D, alpha, current = model.A, model.D, model.alpha, model.current
    gain = (1.0 + e) * D

    def phi(x):
        return x - x**3 / 3.0 - gain * (x + alpha) + current

    def dphi(x):
        return 1.0 - x**2 - gain

    roots: list[float] = []
    for x0 in (-2.0, -1.0, 0.0, 1.0):
        x = x0
        ok = False
        for _ in range(200):
            d = dphi(x)
            if abs(d) < 1e-14:
                break
            step = phi(x) / d
            x -= step
            if abs(step) <= 1e-15 * (1.0 + abs(x)):
                ok = True
                break
        if ok and abs(phi(x)) < 1e-10 and all(abs(x - r) > 1e-8 for r in roots):
            roots.append(x)
    if not roots:
        raise PreconditionError(f"no fixed point found for e={e}")
    if e == 0.0:
        xbar = min(roots, key=lambda r: abs(r + 1.0))
    elif len(roots) == 1:
        xbar = roots[0]
    else:
        ref = reference_fhn_fixed_point(model, 0.0).xbar
        xbar = min(roots, key=lambda r: abs(r - ref))
    ybar = D * (xbar + alpha)
    resid = abs(_fhn_x_update(model, xbar, (1.0 + e) * ybar) - xbar)
    if resid > 1e-12:
        raise PreconditionError(f"fixed-point residual {resid} too large")
    return FixedPoint(xbar=xbar, ybar=ybar, e=e, residual=resid)


def _reference_df2t_steady_state(bcoef, acoef, u: float, w: float):
    m = len(acoef) - 1
    state = np.zeros(m)
    for i in range(m - 1, -1, -1):
        nxt = state[i + 1] if i + 1 < m else 0.0
        state[i] = bcoef[i + 1] * u - acoef[i + 1] * w + nxt
    return state


def reference_fhn_simulate(model: FHNModel, delta: RationalTF | None,
                           steps: int,
                           init: tuple[float, float] | None = None
                           ) -> Trajectory:
    """Bit-exact oracle for ``fhn_simulate``: the step loop on numpy scalars.

    This is the numpy-array implementation that the Python-float loop
    replaced, kept unchanged so that tests can require identical bits.
    """
    A, B, D = model.A, model.B, model.D
    alpha, current = model.alpha, model.current

    if delta is None:
        bcoef = np.array([0.0])
        acoef = np.array([1.0])
    else:
        if delta.num.degree > delta.den.degree:
            raise PreconditionError("delta must be proper")
        for p in delta.poles():
            if abs(p) >= 1.0:
                raise PreconditionError("delta must be stable")
        m = delta.den.degree
        acoef = np.asarray(delta.den.coeffs, dtype=float)
        bcoef = np.zeros(m + 1)
        nc = np.asarray(delta.num.coeffs, dtype=float)
        bcoef[m + 1 - len(nc):] = nc
        bcoef = bcoef / acoef[0]
        acoef = acoef / acoef[0]

    e = float(np.sum(bcoef) / np.sum(acoef))
    fp = fhn_fixed_point(model, e)
    if init is None:
        init = (fp.xbar + 0.05, fp.ybar)

    m = len(acoef) - 1
    w_eq = e * fp.ybar
    state = (_reference_df2t_steady_state(bcoef, acoef, fp.ybar, w_eq)
             if m else np.zeros(0))

    x = np.empty(steps + 1)
    y = np.empty(steps + 1)
    wout = np.empty(steps + 1)
    x[0], y[0] = init
    diverged = False
    b0 = bcoef[0]
    for n in range(steps):
        yn = y[n]
        w = b0 * yn + (state[0] if m else 0.0)
        wout[n] = w
        for i in range(m):
            nxt = state[i + 1] if i + 1 < m else 0.0
            state[i] = bcoef[i + 1] * yn - acoef[i + 1] * w + nxt
        xn = x[n]
        x[n + 1] = (A * xn + (1.0 - A) * (yn + w - current)) \
            / (1.0 + (A - 1.0) * xn**2 / 3.0)
        y[n + 1] = B * yn + D * (1.0 - B) * (xn + alpha)
        if abs(x[n + 1]) > 1e6:
            x, y, wout = x[:n + 2], y[:n + 2], wout[:n + 1]
            diverged = True
            break
    if not diverged:
        wout[steps] = b0 * y[steps] + (state[0] if m else 0.0)
    return Trajectory(x=x, y=y, diverged=diverged)


def reference_wrap_angle(x: float) -> float:
    """Oracle for ``rir.wrap_angle`` on a float: ``math.remainder``, then
    one 2 pi step up from -pi.  This is the scalar form that the ``fmod``
    form for floats and arrays alike replaced, kept unchanged."""
    y = math.remainder(x, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    return y


def reference_allpass_pcr_bound_check(f: RationalTF, omega_p: float) -> bool:
    """Oracle for ``bounds.allpass_pcr_bound_check``: theta and theta' as
    sums over the sections (c, a_i) recovered from f's poles and f(1).

    This is the check that reading theta' from the cached factors and theta
    from the principal phase replaced, kept unchanged.
    """
    from rirkit.bounds import PCR_TOL

    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    if f.den.degree == 0:
        c, a = (1 if evaluate(f, 1.0 + 0.0j).real >= 0 else -1), []
    else:
        poles = f.poles()
        if any(abs(p.imag) > 1e-9 * (1.0 + abs(p)) or abs(p) >= 1.0
               for p in poles):
            raise PreconditionError("not a stable all-pass with real poles")
        a = [-p.real for p in poles]
        v1 = evaluate(f, 1.0 + 0.0j)
        scale = abs(v1)
        c = 1 if v1.real > 0 else -1
        probe = np.exp(1j * np.array([0.3, 1.1, 1.9, 2.7]))
        mags = np.abs(evaluate(f, probe))
        if np.max(np.abs(mags - scale)) > 1e-7 * max(scale, 1.0):
            raise PreconditionError("gain is not constant on the unit circle")
    theta = math.pi if c < 0 else 0.0
    rate = 0.0
    if a:
        theta += float(np.sum(ap1_phase(np.asarray(a), omega_p)))
        rate = float(np.sum(ap1_rate(np.asarray(a), omega_p)))
    bound = -abs(math.sin(theta)) / abs(math.sin(omega_p))
    holds = rate <= bound + PCR_TOL
    if len(a) <= 1:
        holds = holds and abs(rate - bound) <= PCR_TOL
    return holds


def reference_pcr_max_search(omega_p: float, theta_p: float,
                             max_order: int = 4, trials: int = 20000,
                             seed: int = 0):
    """Bit-exact oracle for ``pcr_max_search``: the search that evaluated
    every section slot of every trial and summed masked copies row by row.

    This is the implementation that the drawn-sections-only search
    replaced, kept unchanged so that tests can require identical results.
    """
    if not 1 <= max_order <= 6:
        raise PreconditionError(f"max_order must be in 1..6, got {max_order}")
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    _require_reachable_phase(omega_p, theta_p)
    rng = np.random.default_rng(seed)
    t_goal = wrap_angle(theta_p)
    at_bnd = omega_p <= 1e-12 or omega_p >= math.pi - 1e-12

    budget = max_order - 1
    max_k2 = budget // 2
    k2 = rng.integers(0, max_k2 + 1, size=trials) if max_k2 > 0 else \
        np.zeros(trials, dtype=int)
    k1 = rng.integers(0, budget - 2 * k2 + 1)
    max_k1 = budget

    a_params = rng.uniform(-0.999, 0.999, size=(trials, max_k1))
    mask1 = np.arange(max_k1)[None, :] < k1[:, None]
    alpha = rng.uniform(1e-3, 0.999, size=(trials, max(max_k2, 1)))
    beta = rng.uniform(-1.0, 1.0, size=(trials, max(max_k2, 1))) \
        * 2.0 * np.sqrt(alpha) * 0.999
    mask2 = np.arange(max(max_k2, 1))[None, :] < k2[:, None]

    if at_bnd:
        ph1 = 0.0 if omega_p < 1.0 else -math.pi
        ph2 = 0.0 if omega_p < 1.0 else -2.0 * math.pi
        phases = np.sum(np.where(mask1, ph1, 0.0), axis=1) \
            + np.sum(np.where(mask2, ph2, 0.0), axis=1)
        w0 = omega_p if omega_p > 1e-12 else 0.0
        za = np.exp(1j * w0)
        r1 = (a_params**2 - 1.0) / np.abs(za + a_params) ** 2
        r2 = ap2_rate(alpha, beta, w0)
    else:
        r1 = ap1_rate(a_params, omega_p)
        r2 = ap2_rate(alpha, beta, omega_p)
        phases = np.sum(np.where(mask1, ap1_phase(a_params, omega_p), 0.0),
                        axis=1) \
            + np.sum(np.where(mask2, ap2_phase(alpha, beta, omega_p), 0.0),
                     axis=1)
    rates = np.sum(np.where(mask1, r1, 0.0), axis=1) \
        + np.sum(np.where(mask2, r2, 0.0), axis=1)

    resid = wrap_angle(t_goal - phases)
    skipped = 0
    if at_bnd:
        # only phases 0 (constant +1) and pi (sign flip) are reachable
        feasible = (np.abs(resid) <= 1e-9) | \
            (np.abs(np.abs(resid) - math.pi) <= 1e-9)
        skipped = int(np.sum(~feasible))
        corr_rate = np.zeros(trials)
        corr_a = np.full(trials, np.nan)
        total = np.where(feasible, rates + corr_rate, -np.inf)
    else:
        need_flip = resid > 1e-15
        targets = np.where(need_flip, resid - math.pi, resid)
        exact_const = np.abs(targets) <= 1e-15
        exact_pi = np.abs(targets + math.pi) <= 1e-15
        solve = ~(exact_const | exact_pi)
        corr_a = np.full(trials, np.nan)
        if np.any(solve):
            corr_a[solve] = _ap1_param(targets[solve], omega_p)
        corr_rate = np.zeros(trials)
        corr_rate[solve] = ap1_rate(corr_a[solve], omega_p)
        achieved = np.where(solve, ap1_phase(np.where(solve, corr_a, 0.0),
                                             omega_p), targets)
        bad = np.abs(achieved - targets) > 1e-9
        skipped = int(np.sum(bad))
        total = np.where(bad, -np.inf, rates + corr_rate)

    # deterministic bare candidate: the matched first-order all-pass alone
    if at_bnd:
        bare = 0.0 if (abs(wrap_angle(t_goal)) <= 1e-9
                       or abs(abs(wrap_angle(t_goal)) - math.pi) <= 1e-9) \
            else -np.inf
    else:
        spec = allpass_phase_match(omega_p, t_goal)
        bare = spec.phase_rate_at(omega_p)

    best_idx = int(np.argmax(total))
    best = float(max(total[best_idx], bare))
    desc = {
        "omega_p": float(omega_p),
        "theta_p": float(t_goal),
        "best_rate": best,
        "bare_first_order_rate": float(bare),
        "trials": int(trials),
        "skipped": skipped,
        "best_trial": {
            "n_first_order": int(k1[best_idx]),
            "n_second_order": int(k2[best_idx]),
            "rate": float(total[best_idx]),
        },
    }
    return best, desc


@pytest.fixture
def solved(monkeypatch):
    """The polynomials handed to ``poly_roots`` while the test runs."""
    import rirkit.polycore as polycore

    calls = []
    real = polycore.poly_roots

    def counting(p, *args, **kwargs):
        calls.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(polycore, "poly_roots", counting)
    return calls


@pytest.fixture(scope="session")
def fhn_chain():
    """One shared FHN pipeline run: search, synthesis, perturbations."""
    from rirkit.casestudies import fhn_perturbation, fhn_search_eo
    from rirkit.rir import synth_allpass_spec, synth_marginal_perturbation

    model = FHNModel()
    res = fhn_search_eo(model)
    spec, verdict = synth_allpass_spec(res.g_eo)
    delta_f = synth_marginal_perturbation(res.g_eo)
    return {
        "model": model,
        "result": res,
        "spec": spec,
        "verdict": verdict,
        "delta_f": delta_f,
        "delta_osc": fhn_perturbation(res.e_o, res.g_eo, -0.05),
        "delta_conv": fhn_perturbation(res.e_o, res.g_eo, +0.05),
    }


@pytest.fixture(scope="session")
def fhn_fig2(fhn_chain):
    """The 2e5-step Fig. 2 trajectories, each simulated once per session.

    The growth panel has two starts: the default one, 0.05 beyond the
    fixed point of the filter's DC gain as computed from its coefficients,
    and 0.05 beyond the fixed point at e_o.  The two fixed points differ by
    ~4e-7, so these are two trajectories, not one.
    """
    from rirkit.casestudies import fhn_simulate

    model, res = fhn_chain["model"], fhn_chain["result"]
    fp = fhn_fixed_point(model, res.e_o)
    d_osc, d_conv = fhn_chain["delta_osc"], fhn_chain["delta_conv"]
    return {
        "osc": fhn_simulate(model, d_osc, 200000),
        "osc_at_eo": fhn_simulate(model, d_osc, 200000,
                                  init=(fp.xbar + 0.05, fp.ybar)),
        "conv": fhn_simulate(model, d_conv, 200000,
                             init=(fp.xbar + 0.002, fp.ybar)),
    }
