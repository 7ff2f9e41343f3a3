"""Checks of the paper's supporting bounds on the phase change rate.

The exact radius rests on four results about stable all-pass and
minimum-phase functions, each checked here on a given function: the
real-pole all-pass bound, real-pole dominance over complex-pole sections,
the minimum-phase bounds at the peak-gain frequency, and the discrete
gain-phase relation.  No analysis or synthesis path calls them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SynthesisVerificationError
from .rir import ap2_phase, ap2_rate
from .transfer import (
    RationalTF,
    _dlog,
    _unwrapped_phase,
    at_boundary,
    evaluate,
    linf_norm,
)

__all__ = [
    "RealPoleDominanceWitness",
    "allpass_pcr_bound_check",
    "construct_real_pole_dominator",
    "gain_phase_integral",
    "minimum_phase_pcr_bound_check",
]

PCR_TOL = 1e-10  # slack of the phase-change-rate bound checks
GAIN_PHASE_MAX_NODES = 2**17  # node cap of gain_phase_integral


@dataclass(frozen=True)
class RealPoleDominanceWitness:
    """Real-pole second-order all-pass dominating a complex-pole one.

    The sections share the phase at omega_p while the real-pole section has
    the strictly larger phase change rate there.
    """

    alpha_c: float
    beta_c: float
    alpha_r: float
    beta_r: float
    lam: float
    u1: float
    u2: float
    u3: float
    omega_p: float


def _require_minimum_phase(f: RationalTF) -> None:
    """Stable, biproper, every pole's and zero's disk inside the unit circle
    (``RootSet.sides``).

    A strictly proper function carries a zero at infinity, which lies
    outside the closed disk, so it is not minimum-phase in discrete time.
    """
    if max(f.den.roots().sides(1.0), default=-1) >= 0:
        raise PreconditionError("f must be stable (poles inside D)")
    if f.num.is_zero or f.num.degree != f.den.degree:
        raise PreconditionError(
            "f must be biproper: a zero at infinity is not minimum-phase")
    if max(f.num.roots().sides(1.0), default=-1) >= 0:
        raise PreconditionError("f must be minimum-phase (zeros inside D)")


def allpass_pcr_bound_check(f: RationalTF, omega_p: float) -> bool:
    """Real-pole all-pass PCR bound at an interior frequency.

    theta'(omega_p) <= -|sin(theta(omega_p)) / sin(omega_p)|, with equality
    demanded at orders 0 and 1, each within PCR_TOL.  Past order 0, f needs
    real poles inside the disk and |f| = |f(1)| within 1e-7 max(|f(1)|, 1)
    at four probe frequencies.  theta' comes from the cached factors, and
    theta is the principal phase: only |sin theta| enters the bound.  A
    pole is real where its imaginary part is 0: a conjugate pair that
    rounding cannot separate is one cluster at its real mean.
    """
    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    order = f.den.degree
    if order:
        if any(p.imag != 0.0 or abs(p) >= 1.0 for p in f.poles()):
            raise PreconditionError("not a stable all-pass with real poles")
        scale = abs(evaluate(f, 1.0 + 0.0j))
        probe = np.exp(1j * np.array([0.3, 1.1, 1.9, 2.7]))
        mags = np.abs(evaluate(f, probe))
        if np.max(np.abs(mags - scale)) > 1e-7 * max(scale, 1.0):
            raise PreconditionError("gain is not constant on the unit circle")
    theta = cmath.phase(evaluate(f, cmath.exp(1j * omega_p)))
    rate = float(_dlog(f, omega_p).imag)
    bound = -abs(math.sin(theta)) / abs(math.sin(omega_p))
    holds = rate <= bound + PCR_TOL
    if order <= 1:
        holds = holds and abs(rate - bound) <= PCR_TOL
    return holds


def construct_real_pole_dominator(alpha_c: float, beta_c: float,
                     omega_p: float) -> RealPoleDominanceWitness:
    """Real-pole second-order all-pass matching a complex-pole one in phase
    at omega_p while strictly increasing the phase change rate.

    The scaling lambda is backtracked from min{u1, u2, u3} toward 1 until
    the real-pole discriminant condition holds.
    """
    if not (0.0 < alpha_c < 1.0 and beta_c**2 < 4.0 * alpha_c):
        raise PreconditionError("complex-pole validity requires "
                                "0 < alpha_c < 1 and beta_c^2 < 4 alpha_c")
    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    cp = math.cos(omega_p)
    u1 = 2.0 / (1.0 - alpha_c)
    d2 = beta_c + 2.0 * cp - alpha_c + 1.0
    u2 = (2.0 * cp + 2.0) / d2 if d2 > 0.0 else math.inf
    d3 = beta_c + 2.0 * cp + alpha_c - 1.0
    u3 = (2.0 * cp - 2.0) / d3 if d3 < 0.0 else math.inf
    umin = min(u1, u2, u3)
    if umin <= 1.0:
        raise PreconditionError(f"upper bound min(u1,u2,u3)={umin} <= 1")
    # prefer a margin from the endpoint so the real poles stay clear of T,
    # falling back toward the endpoint where the discriminant demands it
    for back in (1e-6, 1e-9, 1e-12):
        lam = 1.0 + (umin - 1.0) * (1.0 - back)
        alpha_r = 1.0 + lam * (alpha_c - 1.0)
        beta_r = -2.0 * cp + lam * (beta_c + 2.0 * cp)
        if (beta_r**2 >= 4.0 * alpha_r and abs(alpha_r) < 1.0
                and abs(beta_r) < alpha_r + 1.0):
            return RealPoleDominanceWitness(alpha_c=alpha_c, beta_c=beta_c,
                                 alpha_r=alpha_r, beta_r=beta_r, lam=lam,
                                 u1=u1, u2=u2, u3=u3, omega_p=omega_p)
    raise SynthesisVerificationError(
        "no valid lambda found; this indicates a numerical fault")


def gain_phase_integral(f: RationalTF, omega_p: float) -> float:
    """Phase of a minimum-phase function recovered from its gain curve.

    theta(omega_p) = -(1 / 2 pi) int_{-pi}^{pi} (A(w) - A(omega_p))
    cot((omega_p - w) / 2) dw with A = log|f(e^{jw})|.  This is the
    conjugate-function relation of log f in zeta = 1/z, analytic on the
    closed disk because f is biproper with every pole and zero inside D; on
    zeta = e^{-jw} the conjugate of A is -theta (odd, so of zero mean, as
    f(1) > 0), which is the minus sign above, so no sign flip is needed.

    The integrand is 2 pi-periodic, analytic in |Im w| < -ln r (r the
    largest pole or zero modulus) and removable at omega_p, where it is
    -2 A'(omega_p).  So the trapezoidal rule on w = omega_p + k pi / n
    converges geometrically, error about r^{2n} (Trefethen & Weideman,
    SIAM Review 56, 2014).  Nodes omega_p +- h pair up, A(omega_p) cancels,
    and each pair weighs cot(h / 2) by the log of a gain ratio taken as a
    product over the cached factors, so no difference of rounded gains is
    divided by a small kernel denominator.  n doubles from 16 until two
    successive values agree within 1e-13 of max(1, |value|).  Past
    GAIN_PHASE_MAX_NODES (enough for r up to about 1 - 1.2e-4) it raises
    ``SynthesisVerificationError`` rather than return an unconverged value.
    """
    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    _require_minimum_phase(f)
    v1 = evaluate(f, 1.0 + 0.0j)
    if v1.real <= 0.0:
        raise PreconditionError("normalize f so that f(1) > 0")

    rate = float(_dlog(f, omega_p).real)
    prev = math.nan
    n = 16
    while n <= GAIN_PHASE_MAX_NODES:
        h = np.arange(1, n) * (math.pi / n)
        up, down = np.exp(1j * (omega_p + h)), np.exp(1j * (omega_p - h))
        ratio = np.ones(n - 1, dtype=complex)
        for r in f.zeros():
            ratio *= (up - r) / (down - r)
        for r in f.poles():
            ratio *= (down - r) / (up - r)
        est = (2.0 * rate + float(np.sum(np.log(np.abs(ratio))
                                          / np.tan(h / 2.0)))) / (2 * n)
        if abs(est - prev) <= 1e-13 * max(1.0, abs(est)):
            return est
        prev = est
        n *= 2
    raise SynthesisVerificationError(
        f"gain-phase integral at omega_p={omega_p} did not converge by "
        f"n={GAIN_PHASE_MAX_NODES} nodes")


def minimum_phase_pcr_bound_check(f: RationalTF) -> bool:
    """Minimum-phase PCR bounds at the peak-gain frequency.

    theta' <= 0 always; for an interior peak additionally
    theta' <= -|theta(omega_p) / sin(omega_p)|, each within PCR_TOL.
    """
    _require_minimum_phase(f)
    norm, omega_p, _ = linf_norm(f)
    rate = float(np.imag(_dlog(f, omega_p)))
    if not rate <= PCR_TOL:
        return False
    if at_boundary(omega_p):
        return True
    theta = _unwrapped_phase(f, omega_p)
    if abs(theta) > math.pi + 1e-9:
        raise PreconditionError(
            f"theta(omega_p) = {theta} outside (-pi, pi]; premise violated")
    return rate <= -abs(theta) / abs(math.sin(omega_p)) + PCR_TOL


def verify_dominance_witness(w: RealPoleDominanceWitness):
    """Phase equality within 1e-9 and strict rate dominance of a witness."""
    pc = float(ap2_phase(w.alpha_c, w.beta_c, w.omega_p))
    pr = float(ap2_phase(w.alpha_r, w.beta_r, w.omega_p))
    rc = float(ap2_rate(w.alpha_c, w.beta_c, w.omega_p))
    rr = float(ap2_rate(w.alpha_r, w.beta_r, w.omega_p))
    return abs(pc - pr) <= 1e-9, rr - rc
