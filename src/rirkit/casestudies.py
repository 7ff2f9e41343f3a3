"""Sampled-data magnetic levitation and FitzHugh-Nagumo applications.

The maglev side discretizes the continuous plant under a zero-order hold,
checks that the exact-radius condition fails, and computes the high-pass
compensated upper bound on the instability radius.  The FHN side locates
fixed points, linearizes the map around them, searches for the critical
DC perturbation gain, and simulates the nonlinear loop under shaped
perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, SynthesisVerificationError
from .polycore import Polynomial, _horner_bound, from_roots
from .rir import (
    EXACT_SUFFICIENT,
    exact_rir_analyze,
    synth_marginal_perturbation,
)
from .transfer import RationalTF, _dlog, _log_slope, evaluate, linf_norm

__all__ = [
    "MaglevParams",
    "FHNModel",
    "FixedPoint",
    "Trajectory",
    "MaglevBound",
    "EoSearchResult",
    "maglev_zoh",
    "maglev_partial_fraction",
    "highpass",
    "highpass_gain_rate",
    "highpass_phase_rate",
    "maglev_upper_bound",
    "fhn_fixed_point",
    "fhn_linearize",
    "fhn_search_eo",
    "fhn_inv_norm_sweep",
    "h_shaper",
    "fhn_perturbation",
    "fhn_simulate",
]


@dataclass(frozen=True)
class MaglevParams:
    """Continuous maglev plant k/((-s^2 + p^2)(tau s + 1)) sampled at T."""

    k: float = 1.0
    p: float = 1.0
    tau: float = 0.1
    T: float = 0.01

    def __post_init__(self):
        if min(self.k, self.p, self.tau, self.T) <= 0.0:
            raise ValueError("all maglev parameters must be positive")
        if abs(self.tau * self.p - 1.0) < 1e-12:
            raise ValueError("degenerate parameters: tau * p = 1")
        if abs(self.tau**2 * self.p**2 - 1.0) < 1e-12:
            raise ValueError("degenerate parameters: tau^2 p^2 = 1")


@dataclass(frozen=True)
class FHNModel:
    """Discrete FitzHugh-Nagumo map parameters with derived step gains."""

    c: float = 1.0
    alpha: float = 0.7
    beta: float = 0.8
    tau: float = 0.01
    d: float = 10.0
    current: float = 0.4

    @property
    def A(self) -> float:
        return math.exp(self.tau / self.c)

    @property
    def B(self) -> float:
        return math.exp(-self.beta * self.tau / self.d)

    @property
    def D(self) -> float:
        return 1.0 / self.beta

    def __post_init__(self):
        if self.tau <= 0.0 or self.c <= 0.0 or self.d <= 0.0 or self.beta <= 0.0:
            raise ValueError("c, beta, tau, d must be positive")


@dataclass(frozen=True)
class FixedPoint:
    xbar: float
    ybar: float
    e: float
    residual: float


@dataclass(frozen=True)
class Trajectory:
    """Simulated states plus the perturbation output per step."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    diverged: bool = False

    def last_quarter_amplitude(self) -> float:
        n = len(self.x)
        tail = self.x[3 * n // 4:]
        return float(np.max(tail) - np.min(tail))

    def verdict(self) -> str:
        """Oscillating above amplitude 0.1, converged below 1e-3."""
        amp = self.last_quarter_amplitude()
        if self.diverged:
            return "diverged"
        if amp > 0.1:
            return "oscillating"
        if amp < 1e-3:
            return "converged"
        return "indeterminate"


class MaglevBound(NamedTuple):
    P_eps: float
    abar: float
    ratio: float
    g_d: RationalTF
    compensator: RationalTF


@dataclass(frozen=True)
class EoSearchResult:
    e_o: float
    g_eo: RationalTF
    fixed_point: FixedPoint


# -- magnetic levitation ---------------------------------------------------

def _maglev_pieces(params: MaglevParams):
    k, p, tau, T = params.k, params.p, params.tau, params.T
    ep, em, et = math.exp(p * T), math.exp(-p * T), math.exp(-T / tau)
    N1 = -(ep - 1.0) / (2.0 * (tau * p + 1.0))
    N2 = -(1.0 - em) / (2.0 * (tau * p - 1.0))
    N3 = tau**2 * p**2 * (1.0 - et) / (tau**2 * p**2 - 1.0)
    b2 = N1 + N2 + N3
    b1 = -(em * (N1 + N3) + ep * (N2 + N3) + et * (N1 + N2))
    b0 = N1 * math.exp(-(p * T + T / tau)) + N2 * math.exp(p * T - T / tau) + N3
    return (N1, N2, N3), (b2, b1, b0), (ep, em, et)


def maglev_partial_fraction(params: MaglevParams, z: complex) -> complex:
    """Partial-fraction evaluation of the sampled plant.

    Numerically exact at z = 1 (each residue/pole pair cancels
    analytically), unlike the expanded-coefficient form.
    """
    (N1, N2, N3), _, (ep, em, et) = _maglev_pieces(params)
    k, p = params.k, params.p
    return k / p**2 * (N1 / (z - ep) + N2 / (z - em) + N3 / (z - et))


def maglev_zoh(params: MaglevParams) -> RationalTF:
    """Zero-order-hold discretization of the maglev plant.

    Assembles the rational form from the residues and cross-checks it
    against the partial-fraction form, within 1e-10 (1 + |g|), at 8 points.
    """
    _, (b2, b1, b0), (ep, em, et) = _maglev_pieces(params)
    scale = params.k / params.p**2
    num = Polynomial([scale * b2, scale * b1, scale * b0])
    den = from_roots([ep, em, et])
    g = RationalTF(num, den)
    zs = 2.0 * np.exp(1j * np.linspace(0.2, 2.9, 8))
    for z in zs:
        a = evaluate(g, complex(z))
        b = maglev_partial_fraction(params, complex(z))
        if abs(a - b) > 1e-10 * (1.0 + abs(b)):
            raise SynthesisVerificationError(
                f"partial-fraction/product forms disagree at z={z}: {a} vs {b}")
    return g


def highpass(a: float, b: float) -> RationalTF:
    """Stable high-pass compensator ((b+1)z + 1 - b)/((a+1)z + 1 - a)."""
    if not b > a > 0.0:
        raise PreconditionError("requires b > a > 0")
    # zero and pole approach each other as a grows (gap ~ 2(b-a)/a^2);
    # they are coprime by construction, so bypass the cleanup tolerance
    f = RationalTF(Polynomial([b + 1.0, 1.0 - b]),
                   Polynomial([a + 1.0, 1.0 - a]), cancel_tol=0.0)
    pole = (a - 1.0) / (a + 1.0)
    if not abs(pole) < 1.0:
        raise SynthesisVerificationError("compensator pole left the disk")
    return f


def _hp_denominator(a: float, b: float, omega):
    return (3.0 * a**2 * b**2 + a**2 + b**2 + 3.0
            + 4.0 * (1.0 - a**2 * b**2) * np.cos(omega)
            + (1.0 - a**2 - b**2 + a**2 * b**2) * np.cos(2.0 * omega))


def highpass_gain_rate(a: float, b: float, omega):
    """Closed-form log-gain rate of the high-pass compensator."""
    return 2.0 * (b**2 - a**2) * np.sin(omega) / _hp_denominator(a, b, omega)


def highpass_phase_rate(a: float, b: float, omega):
    """Closed-form phase change rate of the high-pass compensator."""
    return (2.0 * (b - a) * ((1.0 - a * b) + (1.0 + a * b) * np.cos(omega))
            / _hp_denominator(a, b, omega))


def maglev_upper_bound(params: MaglevParams, eps: float) -> MaglevBound:
    """Reciprocal-radius bound ratio from high-pass compensation.

    P_eps exceeds twice the (negative) phase rate deficit at omega = 0;
    abar is the largest compensator parameter keeping the compensated gain
    non-increasing, via the closed form in the beta coefficients.  The
    returned ratio 1 + P_eps/abar bounds rho_*(g_d) / (p^2/k) from above.
    Validated at a = abar (1 - 1e-6): compensated A' at most 1e-9 on the
    validation grid, compensated phase rate at omega = 0 positive.  Returns
    g_d = maglev_zoh(params) and that compensator highpass(a, a + P_eps).
    """
    if eps <= 0.0:
        raise PreconditionError("eps must be positive")
    g = maglev_zoh(params)
    theta0 = float(np.imag(_dlog(g, 0.0)))
    if theta0 >= 0.0:
        raise PreconditionError("compensation unnecessary: theta'_gd(0) >= 0")
    P = -2.0 * theta0 + eps
    _, (b2, b1, b0), (ep, em, et) = _maglev_pieces(params)
    abar = (1.0 / (2.0 * P)) * (
        8.0 / (ep + em - 2.0)
        + 4.0 * et / (1.0 - et) ** 2
        + 4.0 * (4.0 * b2 * b0 + b2 * b1 + b1 * b0) / (b2 + b1 + b0) ** 2
        - P**2)
    if abar <= 0.0:
        raise SynthesisVerificationError(f"abar = {abar} not positive")
    # the closed-form rate expressions cancel at a^2 b^2 scale for the
    # large compensator parameters this bound produces, so the check
    # evaluates the compensator rates from its transfer function
    a = abar * (1.0 - 1e-6)
    fh = highpass(a, a + P)
    # A' of g fh is Re(j z (g'/g + fh'/fh)); j z is formed once for both
    # factors, in the order _dlog forms it
    z = np.exp(1j * np.linspace(1e-9, np.pi, _validation_grid(g) + 1))
    jz = 1j * z
    gain_rate = (np.real(jz * _log_slope(g, z))
                 + np.real(jz * _log_slope(fh, z)))
    if float(np.max(gain_rate)) > 1e-9:
        raise SynthesisVerificationError(
            f"compensated gain rate positive: max A' = {np.max(gain_rate)}")
    if theta0 + float(np.imag(_dlog(fh, 0.0))) <= 0.0:
        raise SynthesisVerificationError(
            "compensated phase rate at 0 not positive")
    return MaglevBound(P_eps=float(P), abar=float(abar),
                       ratio=float(1.0 + P / abar), g_d=g, compensator=fh)


def _validation_grid(g: RationalTF) -> int:
    """4096 points, densified up to 2^20 as poles or zeros near the circle."""
    dists = [abs(abs(p) - 1.0) for p in g.poles() + g.zeros()]
    dmin = min((d for d in dists if d > 0.0), default=1.0)
    if dmin >= 1e-2:
        return 4096
    n = 16.0 * np.pi / dmin
    return int(min(max(2 ** 14, 2 ** math.ceil(math.log2(n))), 2 ** 20))


# -- FitzHugh-Nagumo -------------------------------------------------------

def _fhn_x_update(model: FHNModel, x: float, y_eff: float) -> float:
    A = model.A
    return (A * x + (1.0 - A) * (y_eff - model.current)) \
        / (1.0 + (A - 1.0) * x**2 / 3.0)


def fhn_fixed_point(model: FHNModel, e: float) -> FixedPoint:
    """Fixed point of the map with DC perturbation gain e.

    Solves the scalar equation in xbar (ybar is eliminated) by Newton
    iteration from several starts; with multiple solutions the branch
    continuous with the unperturbed fixed point is selected.  The map's
    residual there must not exceed 1e-12.
    """
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
        ref = fhn_fixed_point(model, 0.0).xbar
        xbar = min(roots, key=lambda r: abs(r - ref))
    ybar = D * (xbar + alpha)
    resid = abs(_fhn_x_update(model, xbar, (1.0 + e) * ybar) - xbar)
    if resid > 1e-12:
        raise PreconditionError(f"fixed-point residual {resid} too large")
    return FixedPoint(xbar=xbar, ybar=ybar, e=e, residual=resid)


def fhn_linearize(model: FHNModel, e: float) -> RationalTF:
    """Loop transfer function seen by the perturbation block.

    The perturbation multiplies the full first-order variation of the
    gain-times-signal product entering the membrane update, so its input
    signal is y + (ybar b'/b) x where b(x) is the injection gain; this is
    the wiring that also shifts the fixed point consistently with the DC
    gain.  Analytic Jacobian entries are cross-checked against central
    finite differences, within 1e-6 max(1, |entry|).
    """
    fp = fhn_fixed_point(model, e)
    xb, yb = fp.xbar, fp.ybar
    A, B, D = model.A, model.B, model.D
    if abs(A - 1.0) < 1e-15:
        raise PreconditionError("singular structure: A = 1 (tau/c = 0)")
    Q = 1.0 + (A - 1.0) * xb**2 / 3.0
    Qp = 2.0 * (A - 1.0) * xb / 3.0
    bbar = (1.0 - A) / Q
    bprime = -(1.0 - A) * Qp / Q**2
    J_std = (A - (2.0 / 3.0) * (A - 1.0) * xb**2) / Q
    J_y = (1.0 + e) * bbar

    # frozen-DC map Jacobian vs central differences
    h = 1e-6
    fd_x = (_fhn_x_update(model, xb + h, (1.0 + e) * yb)
            - _fhn_x_update(model, xb - h, (1.0 + e) * yb)) / (2.0 * h)
    fd_y = (_fhn_x_update(model, xb, (1.0 + e) * (yb + h))
            - _fhn_x_update(model, xb, (1.0 + e) * (yb - h))) / (2.0 * h)
    for name, analytic, fd in (("x", J_std, fd_x), ("y", J_y, fd_y)):
        if abs(fd - analytic) > 1e-6 * max(1.0, abs(analytic)):
            raise SynthesisVerificationError(
                f"Jacobian {name}-entry mismatch: analytic {analytic}, "
                f"fd {fd}")

    A11 = J_std - e * yb * bprime
    A21 = D * (1.0 - B)
    kappa = -yb * Qp / Q  # = yb * bprime / bbar
    num = Polynomial([bbar * kappa, bbar * (A21 - kappa * B)])
    den = Polynomial([1.0, -(A11 + B), A11 * B - bbar * A21])
    return RationalTF(num, den)


def fhn_search_eo(model: FHNModel) -> EoSearchResult:
    """Smallest DC gain whose magnitude meets the reciprocal peak gain.

    Marches away from 0 in steps of 0.02, up to |e| = 0.5, in the direction
    indicated by the sign of |e| - 1/||g_e|| near the origin, brackets the
    sign change, bisects to a width of 1e-5, and verifies the sufficient
    exact-RIR condition at the result.
    """
    def h(e):
        return abs(e) - _inv_norm(model, e)

    step = 0.02
    direction = -1.0 if h(-0.01) >= h(0.01) else 1.0
    prev_e, prev_h = 0.0, h(0.0)
    bracket_pair = None
    k = 1
    while step * k <= 0.5 + 1e-12:
        e = direction * step * k
        cur = h(e)
        if prev_h < 0.0 <= cur or prev_h >= 0.0 > cur:
            bracket_pair = (prev_e, e)
            break
        prev_e, prev_h = e, cur
        k += 1
    if bracket_pair is None:
        raise PreconditionError(
            "no bracket for |e| = 1/||g_e|| found in [-0.5, 0.5]")
    a, b = bracket_pair
    h_a = prev_h  # h(a), carried so each step evaluates h once
    for _ in range(200):
        if abs(b - a) <= 1e-5:
            break
        m = 0.5 * (a + b)
        h_m = h(m)
        if (h_a < 0.0) == (h_m < 0.0):
            a, h_a = m, h_m
        else:
            b = m
    e_o = 0.5 * (a + b)
    g_eo = fhn_linearize(model, e_o)
    verdict = exact_rir_analyze(g_eo)
    if verdict.status != EXACT_SUFFICIENT:
        raise SynthesisVerificationError(
            f"sufficient exact-RIR condition fails at e_o={e_o}: "
            f"{verdict.status}")
    return EoSearchResult(e_o=float(e_o), g_eo=g_eo,
                          fixed_point=fhn_fixed_point(model, e_o))


def _inv_norm(model: FHNModel, e: float) -> float:
    return 1.0 / linf_norm(fhn_linearize(model, e)).norm


def fhn_inv_norm_sweep(model: FHNModel) -> tuple[tuple[float, float], ...]:
    """The Fig. 1 curve: (e, 1/||g_e||) over [-0.25, 0.05].

    e starts at -0.25 and grows by repeated addition of 0.005, so the
    points carry that accumulated rounding (61 of them).
    """
    sweep = []
    e = -0.25
    while e <= 0.05 + 1e-12:
        sweep.append((float(e), float(_inv_norm(model, e))))
        e += 0.005
    return tuple(sweep)


def h_shaper(eps: float, omega_p: float) -> RationalTF:
    """Stable shaper with h(e^{+-j omega_p}) = 1 and h(1) = 1/(1 + eps).

    h = 1 + mu (z^2 - 2 cos(omega_p) z + 1)/(z - 0.5)^2; the numerator
    factor vanishes exactly on e^{+-j omega_p}.
    """
    if abs(1.0 + eps) < 1e-12:
        raise PreconditionError("eps = -1 is singular")
    if omega_p <= 0.0 or omega_p >= math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    mu = -eps / (1.0 + eps) * 0.25 / (2.0 - 2.0 * math.cos(omega_p))
    den = Polynomial([1.0, -1.0, 0.25])
    num = den + mu * Polynomial([1.0, -2.0 * math.cos(omega_p), 1.0])
    return RationalTF(num, den)


def _dc_gain(g: RationalTF) -> float:
    # exact summation: the shaper's numerator coefficients are large and
    # cancel heavily at z = 1
    return math.fsum(g.num.coeffs) / math.fsum(g.den.coeffs)


def fhn_perturbation(e_o: float, g_eo: RationalTF, eps: float) -> RationalTF:
    """Shaped perturbation (1 + eps) h delta_f with the DC gain pinned at e_o,
    to the rounding bound of the expanded shaped coefficients at z = 1."""
    delta_f = synth_marginal_perturbation(g_eo)
    dc = _dc_gain(delta_f)
    if dc * e_o <= 0.0:
        raise SynthesisVerificationError(
            f"synthesized DC gain {dc} does not match the sign of e_o={e_o}")
    if eps == 0.0:
        return delta_f
    omega_p = exact_rir_analyze(g_eo).class_tag.peak_omega
    shaped = (1.0 + eps) * (h_shaper(eps, omega_p) * delta_f)
    dc_shaped = _dc_gain(shaped)
    num, den = shaped.num.coeffs, shaped.den.coeffs
    dc_tol = (_horner_bound(num, 1.0) / abs(math.fsum(num))
              + _horner_bound(den, 1.0) / abs(math.fsum(den))) * abs(dc)
    if abs(dc_shaped - dc) > dc_tol:
        raise SynthesisVerificationError(
            f"DC invariance violated: {dc_shaped} vs {dc}")
    return shaped


def _df2t_steady_state(bcoef, acoef, u: float, w: float) -> list[float]:
    """DC-equilibrium filter state, plus a trailing 0.0 past the last tap."""
    m = len(acoef) - 1
    state = [0.0] * (m + 1)
    for i in range(m - 1, -1, -1):
        state[i] = bcoef[i + 1] * u - acoef[i + 1] * w + state[i + 1]
    return state


def fhn_simulate(model: FHNModel, delta: RationalTF | None, steps: int,
                 init: tuple[float, float] | None = None) -> Trajectory:
    """Simulate the nonlinear FHN map with an LTI perturbation on y.

    The perturbation filter runs as a transposed direct-form difference
    equation driven by y_n, with its state started at the DC equilibrium of
    the perturbed fixed point so that startup transients do not contaminate
    oscillation verdicts.  Divergence (|x| > 1e6) truncates the trajectory;
    a start beyond it, or not finite, is rejected.  The step loop works on
    Python floats; only loop-invariant values are hoisted, so every step
    rounds exactly as the written expressions do.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
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

    b, a = bcoef.tolist(), acoef.tolist()
    state = _df2t_steady_state(b, a, fp.ybar, e * fp.ybar)
    taps = list(zip(range(len(a) - 1), b[1:], a[1:]))
    b0 = b[0]
    one_minus_a, a_minus_one, d_gain = 1.0 - A, A - 1.0, D * (1.0 - B)

    xn, yn = float(init[0]), float(init[1])
    if not (abs(xn) <= 1e6 and math.isfinite(yn)):
        raise ValueError(f"init must be finite with |x0| <= 1e6, got {init}")
    x, y, wout = [xn], [yn], []
    diverged = False
    for _ in range(steps):
        w = b0 * yn + state[0]
        wout.append(w)
        for i, bi, ai in taps:
            state[i] = bi * yn - ai * w + state[i + 1]
        xn, yn = ((A * xn + one_minus_a * (yn + w - current))
                  / (1.0 + a_minus_one * xn**2 / 3.0),
                  B * yn + d_gain * (xn + alpha))
        x.append(xn)
        y.append(yn)
        if abs(xn) > 1e6:
            diverged = True
            break
    if not diverged:
        wout.append(b0 * yn + state[0])
    return Trajectory(x=np.array(x), y=np.array(y), w=np.array(wout),
                      diverged=diverged)
