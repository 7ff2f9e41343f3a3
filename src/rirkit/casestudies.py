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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, SynthesisVerificationError
from .polycore import Polynomial, _horner_bound, from_roots
from .rir import EXACT_SUFFICIENT, _synthesize, exact_rir_analyze
from .transfer import RationalTF, _auto_grid, _dlog, evaluate

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

    def verdict(self, oscillation_threshold: float = 0.1,
                convergence_threshold: float = 1e-3) -> str:
        amp = self.last_quarter_amplitude()
        if self.diverged:
            return "diverged"
        if amp > oscillation_threshold:
            return "oscillating"
        if amp < convergence_threshold:
            return "converged"
        return "indeterminate"


class MaglevBound(NamedTuple):
    P_eps: float
    abar: float
    ratio: float


@dataclass(frozen=True)
class EoSearchResult:
    e_o: float
    g_eo: RationalTF
    fixed_point: FixedPoint
    sweep: tuple[tuple[float, float], ...] = field(repr=False)


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


def maglev_zoh(params: MaglevParams, check_tol: float = 1e-10) -> RationalTF:
    """Zero-order-hold discretization of the maglev plant.

    Assembles the rational form from the residues and cross-checks it
    against the partial-fraction representation on a sample of points.
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
        if abs(a - b) > check_tol * (1.0 + abs(b)):
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


def maglev_upper_bound(params: MaglevParams, eps: float,
                       validate: bool = True) -> MaglevBound:
    """Reciprocal-radius bound ratio from high-pass compensation.

    P_eps exceeds twice the (negative) phase rate deficit at omega = 0;
    abar is the largest compensator parameter keeping the compensated gain
    non-increasing, via the closed form in the beta coefficients.  The
    returned ratio 1 + P_eps/abar bounds rho_*(g_d) / (p^2/k) from above.
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
    if validate:
        # the closed-form rate expressions cancel at a^2 b^2 scale for the
        # large compensator parameters this bound produces, so the check
        # evaluates the compensator rates from its transfer function
        a = abar * (1.0 - 1e-6)
        fh = highpass(a, a + P)
        n = _auto_grid(g, 4096)
        w = np.linspace(1e-9, np.pi, n + 1)
        gain_rate = np.real(_dlog(g, w)) + np.real(_dlog(fh, w))
        if float(np.max(gain_rate)) > 1e-9:
            raise SynthesisVerificationError(
                f"compensated gain rate positive: max A' = {np.max(gain_rate)}")
        if theta0 + float(np.imag(_dlog(fh, 0.0))) <= 0.0:
            raise SynthesisVerificationError(
                "compensated phase rate at 0 not positive")
    return MaglevBound(P_eps=float(P), abar=float(abar),
                       ratio=float(1.0 + P / abar))


# -- FitzHugh-Nagumo -------------------------------------------------------

def _fhn_x_update(model: FHNModel, x: float, y_eff: float) -> float:
    A = model.A
    return (A * x + (1.0 - A) * (y_eff - model.current)) \
        / (1.0 + (A - 1.0) * x**2 / 3.0)


def fhn_fixed_point(model: FHNModel, e: float,
                    residual_tol: float = 1e-12) -> FixedPoint:
    """Fixed point of the map with DC perturbation gain e.

    Solves the scalar equation in xbar (ybar is eliminated) by Newton
    iteration from several starts; with multiple solutions the branch
    continuous with the unperturbed fixed point is selected.
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
    if resid > residual_tol:
        raise PreconditionError(f"fixed-point residual {resid} too large")
    return FixedPoint(xbar=xbar, ybar=ybar, e=e, residual=resid)


def fhn_linearize(model: FHNModel, e: float,
                  fd_tol: float = 1e-6) -> RationalTF:
    """Loop transfer function seen by the perturbation block.

    The perturbation multiplies the full first-order variation of the
    gain-times-signal product entering the membrane update, so its input
    signal is y + (ybar b'/b) x where b(x) is the injection gain; this is
    the wiring that also shifts the fixed point consistently with the DC
    gain.  Analytic Jacobian entries are cross-checked against central
    finite differences.
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
    if abs(fd_x - J_std) > fd_tol * max(1.0, abs(J_std)):
        raise SynthesisVerificationError(
            f"Jacobian x-entry mismatch: analytic {J_std}, fd {fd_x}")
    if abs(fd_y - J_y) > fd_tol * max(1.0, abs(J_y)):
        raise SynthesisVerificationError(
            f"Jacobian y-entry mismatch: analytic {J_y}, fd {fd_y}")

    A11 = J_std - e * yb * bprime
    A21 = D * (1.0 - B)
    kappa = -yb * Qp / Q  # = yb * bprime / bbar
    num = Polynomial([bbar * kappa, bbar * (A21 - kappa * B)])
    den = Polynomial([1.0, -(A11 + B), A11 * B - bbar * A21])
    return RationalTF(num, den)


def fhn_search_eo(model: FHNModel, bracket: tuple[float, float] = (-0.5, 0.5),
                  e_tol: float = 1e-5, grid: int = 4096,
                  sweep_range: tuple[float, float] = (-0.25, 0.05),
                  sweep_step: float = 0.005) -> EoSearchResult:
    """Smallest DC gain whose magnitude meets the reciprocal peak gain.

    Marches away from 0 in the direction indicated by the sign of
    |e| - 1/||g_e|| near the origin, brackets the sign change, bisects to
    e_tol, and verifies the sufficient exact-RIR condition at the result.
    A sweep of (e, 1/||g_e||) pairs is returned for plotting.
    """
    from .transfer import linf_norm

    def inv_norm(e):
        return 1.0 / linf_norm(fhn_linearize(model, e), grid=grid).norm

    def h(e):
        return abs(e) - inv_norm(e)

    lo_lim, hi_lim = bracket
    step = 0.02
    direction = -1.0 if h(-0.01) >= h(0.01) else 1.0
    limit = abs(lo_lim if direction < 0 else hi_lim)
    prev_e, prev_h = 0.0, h(0.0)
    bracket_pair = None
    k = 1
    while step * k <= limit + 1e-12:
        e = direction * step * k
        cur = h(e)
        if prev_h < 0.0 <= cur or prev_h >= 0.0 > cur:
            bracket_pair = (prev_e, e)
            break
        prev_e, prev_h = e, cur
        k += 1
    if bracket_pair is None:
        raise PreconditionError(
            f"no bracket for |e| = 1/||g_e|| found in [{lo_lim}, {hi_lim}]")
    a, b = bracket_pair
    h_a = prev_h  # h(a), carried so each step evaluates h once
    for _ in range(200):
        if abs(b - a) <= e_tol:
            break
        m = 0.5 * (a + b)
        h_m = h(m)
        if (h_a < 0.0) == (h_m < 0.0):
            a, h_a = m, h_m
        else:
            b = m
    e_o = 0.5 * (a + b)
    g_eo = fhn_linearize(model, e_o)
    verdict = exact_rir_analyze(g_eo, grid=grid)
    if verdict.status != EXACT_SUFFICIENT:
        raise SynthesisVerificationError(
            f"sufficient exact-RIR condition fails at e_o={e_o}: "
            f"{verdict.status}")
    sweep = []
    e = sweep_range[0]
    while e <= sweep_range[1] + 1e-12:
        sweep.append((float(e), float(inv_norm(e))))
        e += sweep_step
    return EoSearchResult(e_o=float(e_o), g_eo=g_eo,
                          fixed_point=fhn_fixed_point(model, e_o),
                          sweep=tuple(sweep))


def h_shaper(eps: float, omega_p: float, r: float = 0.5) -> RationalTF:
    """Stable shaper with h(e^{+-j omega_p}) = 1 and h(1) = 1/(1 + eps).

    h = 1 + mu (z^2 - 2 cos(omega_p) z + 1)/(z - r)^2; the numerator factor
    vanishes exactly on e^{+-j omega_p}.
    """
    if abs(1.0 + eps) < 1e-12:
        raise PreconditionError("eps = -1 is singular")
    if not abs(r) < 1.0:
        raise PreconditionError("|r| < 1 required for stability")
    if omega_p <= 0.0 or omega_p >= math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    mu = -eps / (1.0 + eps) * (1.0 - r) ** 2 / (2.0 - 2.0 * math.cos(omega_p))
    den = Polynomial([1.0, -2.0 * r, r**2])
    num = den + mu * Polynomial([1.0, -2.0 * math.cos(omega_p), 1.0])
    return RationalTF(num, den)


def _dc_gain(g: RationalTF) -> float:
    # exact summation: the shaper's numerator coefficients are large and
    # cancel heavily at z = 1
    return math.fsum(g.num.coeffs) / math.fsum(g.den.coeffs)


def fhn_perturbation(e_o: float, g_eo: RationalTF, eps: float,
                     r: float = 0.5) -> RationalTF:
    """Shaped perturbation (1 + eps) h delta_f with the DC gain pinned at e_o,
    to the rounding bound of the expanded shaped coefficients at z = 1."""
    delta_f, _, verdict = _synthesize(g_eo)
    dc = _dc_gain(delta_f)
    if dc * e_o <= 0.0:
        raise SynthesisVerificationError(
            f"synthesized DC gain {dc} does not match the sign of e_o={e_o}")
    if eps == 0.0:
        return delta_f
    omega_p = verdict.class_tag.peak_omega
    shaped = (1.0 + eps) * (h_shaper(eps, omega_p, r) * delta_f)
    dc_shaped = _dc_gain(shaped)
    num, den = shaped.num.coeffs, shaped.den.coeffs
    dc_tol = (_horner_bound(num, 1.0) / abs(math.fsum(num))
              + _horner_bound(den, 1.0) / abs(math.fsum(den))) * abs(dc)
    if abs(dc_shaped - dc) > dc_tol:
        raise SynthesisVerificationError(
            f"DC invariance violated: {dc_shaped} vs {dc}")
    return shaped


def _df2t_steady_state(bcoef, acoef, u: float, w: float):
    m = len(acoef) - 1
    state = np.zeros(m)
    for i in range(m - 1, -1, -1):
        nxt = state[i + 1] if i + 1 < m else 0.0
        state[i] = bcoef[i + 1] * u - acoef[i + 1] * w + nxt
    return state


def fhn_simulate(model: FHNModel, delta: RationalTF | None, steps: int,
                 init: tuple[float, float] | None = None) -> Trajectory:
    """Simulate the nonlinear FHN map with an LTI perturbation on y.

    The perturbation filter runs as a transposed direct-form difference
    equation driven by y_n, with its state started at the DC equilibrium of
    the perturbed fixed point so that startup transients do not contaminate
    oscillation verdicts.  Divergence (|x| > 1e6) truncates the trajectory.
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
    state = _df2t_steady_state(bcoef, acoef, fp.ybar, w_eq) if m else np.zeros(0)

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
    return Trajectory(x=x, y=y, w=wout, diverged=diverged)
