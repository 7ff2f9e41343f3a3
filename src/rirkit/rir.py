"""Exact robust-instability-radius analysis and perturbation synthesis.

Implements the exact-RIR trichotomy for single-peak unstable plants, the
minimum-norm marginally-stabilizing all-pass synthesis, and a verification
suite for the phase-change-rate maximization results (first-order all-pass
optimality, real-pole dominance over complex-pole sections, minimum-phase
PCR bounds, and the discrete gain-phase integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SynthesisVerificationError
from .nyquist import closed_loop_poles, marginal_verdict
from .polycore import Polynomial
from .transfer import (
    G1_BOUNDARY,
    G1_INTERIOR,
    G2_INTERIOR,
    ClassTag,
    RationalTF,
    _dlog,
    _unwrapped_phase,
    classify,
    evaluate,
    linf_norm,
)

__all__ = [
    "RIRVerdict",
    "AllPassSpec",
    "RealPoleDominanceWitness",
    "rho_threshold",
    "exact_rir_analyze",
    "allpass_phase_match",
    "synth_allpass_spec",
    "synth_marginal_perturbation",
    "pcr_max_search",
    "allpass_pcr_bound_check",
    "construct_real_pole_dominator",
    "gain_phase_integral",
    "minimum_phase_pcr_bound_check",
    "EXACT_SUFFICIENT",
    "EXACT_BOUNDARY",
    "NOT_EXACT",
    "STRICTLY_GREATER",
    "INCONCLUSIVE",
]

EXACT_SUFFICIENT = "exact_sufficient"
EXACT_BOUNDARY = "exact_boundary"
NOT_EXACT = "not_exact"
STRICTLY_GREATER = "strictly_greater"
INCONCLUSIVE = "inconclusive"

RATE_TOL = 1e-7


def wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    return y


@dataclass(frozen=True)
class RIRVerdict:
    """Outcome of the exact-RIR trichotomy at the peak-gain frequency."""

    class_tag: ClassTag
    theta_p: float
    theta_rate: float
    rho_threshold: float
    status: str
    lower_bound: float


@dataclass(frozen=True)
class AllPassSpec:
    """scale * c * (a z + 1)/(z + a); ``a is None`` means the constant c."""

    c: int
    a: float | None
    scale: float = 1.0

    def __post_init__(self):
        if self.c not in (-1, 1):
            raise ValueError("c must be +1 or -1")
        if self.a is not None and not abs(self.a) < 1.0:
            raise ValueError("|a| < 1 required for stability")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    def to_tf(self) -> RationalTF:
        k = self.scale * self.c
        if self.a is None:
            return RationalTF(Polynomial([k]), Polynomial([1.0]))
        # -1/a and -a never coincide for |a| < 1; cancelling them when
        # |a| is within CANCEL_TOL of 1 would drop the section's phase
        return RationalTF(Polynomial([k * self.a, k]),
                          Polynomial([1.0, self.a]), cancel_tol=0.0)

    def phase_at(self, omega: float) -> float:
        """Continuous phase on [0, pi] referenced to omega = 0."""
        base = math.pi if self.c < 0 else 0.0
        if self.a is None:
            return base
        return base + float(ap1_phase(self.a, omega))

    def phase_rate_at(self, omega: float) -> float:
        if self.a is None:
            return 0.0
        return float(ap1_rate(self.a, omega))


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

    def fc_tf(self) -> RationalTF:
        return RationalTF(Polynomial([self.alpha_c, self.beta_c, 1.0]),
                          Polynomial([1.0, self.beta_c, self.alpha_c]),
                          cancel_tol=0.0)

    def fr_tf(self) -> RationalTF:
        return RationalTF(Polynomial([self.alpha_r, self.beta_r, 1.0]),
                          Polynomial([1.0, self.beta_r, self.alpha_r]),
                          cancel_tol=0.0)


# -- all-pass section formulas ------------------------------------------

def ap1_phase(a, omega: float):
    """Phase of (a z + 1)/(z + a) at e^{j omega}, omega interior.

    Lies in (-pi, 0) for every |a| < 1, equal to the continuous phase
    referenced to 0 at omega = 0.
    """
    z = np.exp(1j * omega)
    return np.angle((np.asarray(a) * z + 1.0) / (z + np.asarray(a)))


def _ap1_param(target, omega: float):
    """The a whose section phase at omega is target in (-pi, 0):
    a = sin((omega + t)/2) / sin((omega - t)/2), so |a| < 1.  Clipped to
    the open interval against rounding."""
    t = np.asarray(target)
    a = np.sin(0.5 * (omega + t)) / np.sin(0.5 * (omega - t))
    return np.clip(a, -1.0 + 1e-15, 1.0 - 1e-15)


def ap1_rate(a, omega: float):
    """Phase change rate of a first-order all-pass section."""
    a = np.asarray(a)
    z = np.exp(1j * omega)
    return (a**2 - 1.0) / np.abs(z + a) ** 2


def ap2_phase(alpha, beta, omega: float):
    """Continuous phase of (alpha z^2 + beta z + 1)/(z^2 + beta z + alpha).

    The section phase decreases monotonically from 0 at omega = 0 to -2 pi
    at omega = pi, so the branch is recovered from the principal value.
    """
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    z = np.exp(1j * omega)
    p = np.angle((alpha * z**2 + beta * z + 1.0) / (z**2 + beta * z + alpha))
    return np.where(p < 0.0, p, p - 2.0 * np.pi)


def ap2_rate(alpha, beta, omega: float):
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    z = np.exp(1j * omega)
    dd = np.abs(z**2 + beta * z + alpha) ** 2
    return 2.0 * (alpha - 1.0) * ((alpha + 1.0) + beta * np.cos(omega)) / dd


# -- exact RIR ----------------------------------------------------------

def rho_threshold(omega_p: float, theta_p: float) -> float:
    """|sin theta_p / sin omega_p| for an interior peak frequency."""
    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    return abs(math.sin(theta_p)) / abs(math.sin(omega_p))


def exact_rir_analyze(g: RationalTF, rate_tol: float = RATE_TOL) -> RIRVerdict:
    """Exact-RIR verdict for a single-peak unstable plant.

    One-unstable-pole boundary-peak plants are tested on the sign of the
    phase change rate at the peak; two-pole interior-peak plants against
    the sin-ratio threshold.  One-pole interior-peak plants (and odd-n
    interior-peak plants generally) have a strictly larger radius than the
    reciprocal peak gain; everything else is inconclusive.  A zero plant,
    or one whose reciprocal peak gain overflows, is rejected as invalid.
    """
    tag = classify(g)
    if tag.peak_gain == 0.0 or not math.isfinite(1.0 / tag.peak_gain):
        raise ValueError(
            f"peak gain {tag.peak_gain} has no finite reciprocal radius")
    lower = 1.0 / tag.peak_gain
    omega_p = tag.peak_omega
    theta_p = _unwrapped_phase(g, omega_p)
    theta_rate = float(np.imag(_dlog(g, omega_p)))
    interior = 0.0 < omega_p < math.pi

    if tag.class_name == G1_BOUNDARY:
        thr = 0.0
    elif tag.class_name == G2_INTERIOR:
        thr = rho_threshold(omega_p, theta_p)
    elif tag.class_name == G1_INTERIOR:
        return RIRVerdict(tag, theta_p, theta_rate, 0.0, STRICTLY_GREATER,
                          lower)
    else:
        if (tag.pip and tag.peak_unique and interior
                and tag.n_unstable % 2 == 1):
            return RIRVerdict(tag, theta_p, theta_rate, 0.0,
                              STRICTLY_GREATER, lower)
        return RIRVerdict(tag, theta_p, theta_rate, 0.0, INCONCLUSIVE, lower)

    delta = theta_rate - thr
    if delta > rate_tol:
        status = EXACT_SUFFICIENT
    elif delta < -rate_tol:
        status = NOT_EXACT
    else:
        status = EXACT_BOUNDARY
    return RIRVerdict(tag, theta_p, theta_rate, thr, status, lower)


# -- synthesis ----------------------------------------------------------

def allpass_phase_match(omega_p: float, theta_p: float,
                        phase_tol: float = 1e-10) -> AllPassSpec:
    """First-order all-pass (or constant) with prescribed phase at omega_p.

    The plain section reaches phases in (-pi, 0); a sign flip shifts the
    range to (0, pi); the constants +-1 cover 0 and pi.  The parameter
    comes in closed form from ``_ap1_param``.
    """
    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    t = wrap_angle(theta_p)
    if abs(t) <= 1e-13:
        return AllPassSpec(c=1, a=None)
    if abs(abs(t) - math.pi) <= 1e-13:
        return AllPassSpec(c=-1, a=None)
    if t < 0.0:
        c, target = 1, t
    else:
        c, target = -1, t - math.pi
    a = float(_ap1_param(target, omega_p))
    achieved = float(ap1_phase(a, omega_p))
    if abs(achieved - target) > phase_tol:
        raise SynthesisVerificationError(
            f"phase match failed: target {target}, achieved {achieved}")
    # consistency with the closed-form sine identity for the section phase
    z = complex(np.exp(1j * omega_p))
    ident = (a**2 - 1.0) * math.sin(omega_p) / abs(z + a) ** 2
    if abs(math.sin(achieved) - ident) > 1e-9:
        raise SynthesisVerificationError("sine identity violated")
    return AllPassSpec(c=c, a=float(a))


def synth_allpass_spec(g: RationalTF, rate_tol: float = RATE_TOL
                       ) -> tuple[AllPassSpec, RIRVerdict]:
    """All-pass parameters of the minimum-norm marginal perturbation."""
    verdict = exact_rir_analyze(g, rate_tol=rate_tol)
    if verdict.status != EXACT_SUFFICIENT:
        raise PreconditionError(
            f"synthesis requires exact_sufficient, got {verdict.status}")
    omega_p = verdict.class_tag.peak_omega
    scale = verdict.lower_bound
    if verdict.class_tag.class_name == G1_BOUNDARY:
        zb = 1.0 if omega_p < math.pi / 2 else -1.0
        v = evaluate(g, complex(zb))
        spec = AllPassSpec(c=1 if v.real > 0 else -1, a=None, scale=scale)
    else:
        spec0 = allpass_phase_match(omega_p, -verdict.theta_p)
        spec = AllPassSpec(c=spec0.c, a=spec0.a, scale=scale)
    return spec, verdict


def synth_marginal_perturbation(g: RationalTF, rate_tol: float = RATE_TOL,
                                loop_value_tol: float = 1e-6,
                                norm_tol: float = 1e-9) -> RationalTF:
    """Stable perturbation of norm 1/||g|| that marginally stabilizes g.

    The result is verified post hoc: its norm, the loop value at the peak
    frequency, and single-mode marginal stability of the closed loop.
    """
    return _synthesize(g, rate_tol, loop_value_tol, norm_tol)[0]


def _synthesize(g: RationalTF, rate_tol: float = RATE_TOL,
                loop_value_tol: float = 1e-6, norm_tol: float = 1e-9
                ) -> tuple[RationalTF, AllPassSpec, RIRVerdict]:
    """Verified perturbation together with the spec and verdict behind it,
    for callers that need all three from a single analysis of g."""
    spec, verdict = synth_allpass_spec(g, rate_tol=rate_tol)
    f = spec.to_tf()
    fnorm = linf_norm(f).norm
    if abs(fnorm - spec.scale) > norm_tol * max(1.0, spec.scale):
        raise SynthesisVerificationError(
            f"||f|| = {fnorm} differs from requested {spec.scale}")
    L = g * f
    omega_p = verdict.class_tag.peak_omega
    lv = evaluate(L, complex(np.exp(1j * omega_p)))
    if abs(lv - 1.0) > loop_value_tol:
        raise SynthesisVerificationError(
            f"L(e^(j omega_p)) = {lv} not 1 within {loop_value_tol}")
    sv = marginal_verdict(L, omega_p)
    if not sv.single_mode:
        raise SynthesisVerificationError(
            f"closed loop not single-mode marginal: {sv}")
    return f, spec, verdict


# -- PCR maximization search --------------------------------------------

def pcr_max_search(omega_p: float, theta_p: float, max_order: int = 4,
                   trials: int = 20000, seed: int = 0):
    """Randomized search for the largest phase change rate at omega_p.

    Candidates are stable all-pass products of first-order sections and
    complex-pole second-order sections within the order budget; one
    first-order section (or a sign flip) corrects each candidate to the
    required phase.  Returns the best rate found and a description of the
    maximizer.  Deterministic for a fixed seed.
    """
    if max_order > 6:
        raise PreconditionError("max_order must be <= 6")
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

    resid = np.array([wrap_angle(t_goal - p) for p in phases])
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


# -- supporting PCR bound checks ------------------------------------------

def _require_minimum_phase(f: RationalTF) -> None:
    """Stable, biproper, all zeros strictly inside the disk.

    A strictly proper function carries a zero at infinity, which lies
    outside the closed disk, so it is not minimum-phase in discrete time.
    """
    for p in f.poles():
        if abs(p) >= 1.0 - 1e-9:
            raise PreconditionError("f must be stable (poles inside D)")
    if f.num.is_zero or f.num.degree != f.den.degree:
        raise PreconditionError(
            "f must be biproper: a zero at infinity is not minimum-phase")
    for z0 in f.zeros():
        if abs(z0) >= 1.0 - 1e-9:
            raise PreconditionError("f must be minimum-phase (zeros inside D)")


def _allpass_real_sections(f: RationalTF, tol: float = 1e-7):
    """Recover (c, [a_i]) for a real-pole all-pass, validating structure."""
    if f.den.degree == 0:
        v = evaluate(f, 1.0 + 0.0j)
        return (1 if v.real >= 0 else -1), [], abs(v)
    poles = f.poles()
    if any(abs(p.imag) > 1e-9 * (1.0 + abs(p)) or abs(p) >= 1.0 for p in poles):
        raise PreconditionError("not a stable all-pass with real poles")
    a = [-p.real for p in poles]
    v1 = evaluate(f, 1.0 + 0.0j)
    scale = abs(v1)
    c = 1 if v1.real > 0 else -1
    # all-pass structure: |f| constant on a few circle samples
    probe = np.exp(1j * np.array([0.3, 1.1, 1.9, 2.7]))
    mags = np.abs(evaluate(f, probe))
    if np.max(np.abs(mags - scale)) > tol * max(scale, 1.0):
        raise PreconditionError("gain is not constant on the unit circle")
    return c, a, scale


def allpass_pcr_bound_check(f: RationalTF, omega_p: float,
                       tol: float = 1e-10) -> bool:
    """Real-pole all-pass PCR bound at an interior frequency.

    theta'(omega_p) <= -|sin(theta(omega_p)) / sin(omega_p)|, with equality
    demanded at orders 0 and 1.
    """
    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    c, a, _ = _allpass_real_sections(f)
    theta = math.pi if c < 0 else 0.0
    rate = 0.0
    if a:
        theta += float(np.sum(ap1_phase(np.asarray(a), omega_p)))
        rate = float(np.sum(ap1_rate(np.asarray(a), omega_p)))
    bound = -abs(math.sin(theta)) / abs(math.sin(omega_p))
    holds = rate <= bound + tol
    if len(a) <= 1:
        holds = holds and abs(rate - bound) <= tol
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


def gain_phase_integral(f: RationalTF, omega_p: float,
                        conv_tol: float = 1e-8) -> float:
    """Phase of a minimum-phase function recovered from its gain curve.

    Evaluates the principal-value integral of the gain difference against
    the Poisson-type kernel over [0, pi] with a shrinking symmetric
    exclusion window and Richardson extrapolation.  The kernel integral as
    written was found numerically to reproduce the e^{+j omega} phase
    directly (checked against swept phases of known minimum-phase
    functions), so no sign flip is applied.
    """
    from scipy.integrate import quad  # costly import, needed only here

    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    _require_minimum_phase(f)
    v1 = evaluate(f, 1.0 + 0.0j)
    if v1.real <= 0.0:
        raise PreconditionError("normalize f so that f(1) > 0")

    a_p = float(np.log(np.abs(evaluate(f, complex(np.exp(1j * omega_p))))))
    cos_p = math.cos(omega_p)

    def integrand(w):
        dc = math.cos(w) - cos_p
        if abs(dc) < 1e-9:
            q = _dlog(f, w)
            return -float(np.real(q)) / math.sin(max(w, 1e-12))
        av = float(np.log(np.abs(evaluate(f, complex(np.exp(1j * w))))))
        return (av - a_p) / dc

    def windowed(h):
        total = 0.0
        if omega_p - h > 1e-12:
            total += quad(integrand, 0.0, omega_p - h, limit=200)[0]
        if omega_p + h < math.pi - 1e-12:
            total += quad(integrand, omega_p + h, math.pi, limit=200)[0]
        return total

    h = 0.05 * min(omega_p, math.pi - omega_p)
    prev = windowed(h)
    est = prev
    for _ in range(10):
        h *= 0.5
        cur = windowed(h)
        est = 2.0 * cur - prev  # excluded mass is first order in h
        if abs(cur - prev) < conv_tol:
            prev = cur
            break
        prev = cur
    return (-math.sin(omega_p) / math.pi) * est


def minimum_phase_pcr_bound_check(f: RationalTF, tol: float = 1e-10) -> bool:
    """Minimum-phase PCR bounds at the peak-gain frequency.

    theta' <= 0 always; for an interior peak additionally
    theta' <= -|theta(omega_p) / sin(omega_p)|.
    """
    _require_minimum_phase(f)
    norm, omega_p, _ = linf_norm(f)
    rate = float(np.imag(_dlog(f, max(omega_p, 1e-12))))
    if not rate <= tol:
        return False
    if omega_p <= 1e-9 or omega_p >= math.pi - 1e-9:
        return True
    theta = _unwrapped_phase(f, omega_p)
    if abs(theta) > math.pi + 1e-9:
        raise PreconditionError(
            f"theta(omega_p) = {theta} outside (-pi, pi]; premise violated")
    return rate <= -abs(theta) / abs(math.sin(omega_p)) + tol


def verify_dominance_witness(w: RealPoleDominanceWitness, phase_tol: float = 1e-9):
    """Phase equality and strict rate dominance for a constructed witness."""
    pc = float(ap2_phase(w.alpha_c, w.beta_c, w.omega_p))
    pr = float(ap2_phase(w.alpha_r, w.beta_r, w.omega_p))
    rc = float(ap2_rate(w.alpha_c, w.beta_c, w.omega_p))
    rr = float(ap2_rate(w.alpha_r, w.beta_r, w.omega_p))
    return abs(pc - pr) <= phase_tol, rr - rc


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
