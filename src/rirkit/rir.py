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
from .nyquist import marginal_verdict
from .polycore import Polynomial
from .transfer import (
    G1_BOUNDARY,
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
    "pcr_ceiling",
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
BOUNDARY_BAND = 1e-12  # omega_p this close to 0 or pi is a boundary frequency
PCR_TOL = 1e-10  # slack of the phase-change-rate bound checks
GAIN_PHASE_MAX_NODES = 2**17  # node cap of gain_phase_integral


def wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    return y


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    """``wrap_angle`` on an array, equal to it bit for bit.

    ``fmod`` is exact, and so is each 2*pi correction (Sterbenz's lemma):
    every element is the one representative of x mod 2*pi in (-pi, pi].
    """
    r = np.fmod(x, 2.0 * math.pi)
    r = np.where(r > math.pi, r - 2.0 * math.pi, r)
    return np.where(r <= -math.pi, r + 2.0 * math.pi, r)


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


def exact_rir_analyze(g: RationalTF) -> RIRVerdict:
    """Exact-RIR verdict for a single-peak unstable plant.

    One-unstable-pole boundary-peak plants are tested on the sign of the
    phase change rate at the peak; two-pole interior-peak plants against
    the sin-ratio threshold.  One-pole interior-peak plants (and odd-n
    interior-peak plants generally) have a strictly larger radius than the
    reciprocal peak gain; everything else is inconclusive.  A zero plant,
    or one whose reciprocal peak gain overflows, is rejected as invalid.

    The verdict is computed once per instance.  Like the roots, it is cached
    in the instance ``__dict__`` outside the dataclass fields, so equality,
    hashing and repr are unaffected; a ``RIRVerdict`` is immutable, so
    sharing it is safe.
    """
    if "_verdict" not in g.__dict__:
        g.__dict__["_verdict"] = _analyze(g)
    return g.__dict__["_verdict"]


def _analyze(g: RationalTF) -> RIRVerdict:
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
    else:
        # odd n, pip and a unique interior peak; G1_interior is n = 1
        if (tag.pip and tag.peak_unique and interior
                and tag.n_unstable % 2 == 1):
            return RIRVerdict(tag, theta_p, theta_rate, 0.0,
                              STRICTLY_GREATER, lower)
        return RIRVerdict(tag, theta_p, theta_rate, 0.0, INCONCLUSIVE, lower)

    delta = theta_rate - thr
    if delta > RATE_TOL:
        status = EXACT_SUFFICIENT
    elif delta < -RATE_TOL:
        status = NOT_EXACT
    else:
        status = EXACT_BOUNDARY
    return RIRVerdict(tag, theta_p, theta_rate, thr, status, lower)


# -- synthesis ----------------------------------------------------------

def allpass_phase_match(omega_p: float, theta_p: float) -> AllPassSpec:
    """First-order all-pass (or constant) with prescribed phase at omega_p.

    The plain section reaches phases in (-pi, 0); a sign flip shifts the
    range to (0, pi); the constants +-1 cover 0 and pi.  The parameter
    comes in closed form from ``_ap1_param``, and the phase it achieves
    must match within 1e-10.
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
    if abs(achieved - target) > 1e-10:
        raise SynthesisVerificationError(
            f"phase match failed: target {target}, achieved {achieved}")
    # consistency with the closed-form sine identity for the section phase
    z = complex(np.exp(1j * omega_p))
    ident = (a**2 - 1.0) * math.sin(omega_p) / abs(z + a) ** 2
    if abs(math.sin(achieved) - ident) > 1e-9:
        raise SynthesisVerificationError("sine identity violated")
    return AllPassSpec(c=c, a=float(a))


def synth_allpass_spec(g: RationalTF) -> tuple[AllPassSpec, RIRVerdict]:
    """All-pass parameters of the minimum-norm marginal perturbation."""
    verdict = exact_rir_analyze(g)
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


def synth_marginal_perturbation(g: RationalTF) -> RationalTF:
    """Stable perturbation of norm 1/||g|| that marginally stabilizes g.

    The result is verified post hoc: its norm (relative to max(1, norm),
    within 1e-9), the loop value at the peak frequency (1 within 1e-6),
    and single-mode marginal stability of the closed loop.  Its all-pass
    parameters and the verdict behind them come from ``synth_allpass_spec``,
    which reuses the verdict cached on g.
    """
    spec, verdict = synth_allpass_spec(g)
    f = spec.to_tf()
    fnorm = linf_norm(f).norm
    if abs(fnorm - spec.scale) > 1e-9 * max(1.0, spec.scale):
        raise SynthesisVerificationError(
            f"||f|| = {fnorm} differs from requested {spec.scale}")
    L = g * f
    omega_p = verdict.class_tag.peak_omega
    lv = evaluate(L, complex(np.exp(1j * omega_p)))
    if abs(lv - 1.0) > 1e-6:
        raise SynthesisVerificationError(
            f"L(e^(j omega_p)) = {lv} not 1 within 1e-6")
    sv = marginal_verdict(L, omega_p)
    if not sv.single_mode:
        raise SynthesisVerificationError(
            f"closed loop not single-mode marginal: {sv}")
    return f


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
    if not 1 <= max_order <= 6:
        raise PreconditionError(f"max_order must be in 1..6, got {max_order}")
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    t_goal = wrap_angle(theta_p)
    at_bnd = _at_boundary(omega_p)

    budget = max_order - 1
    max_k2 = budget // 2
    k2 = rng.integers(0, max_k2 + 1, size=trials) if max_k2 > 0 else \
        np.zeros(trials, dtype=int)
    k1 = rng.integers(0, budget - 2 * k2 + 1)
    a_params = rng.uniform(-0.999, 0.999, size=(trials, budget))
    alpha = rng.uniform(1e-3, 0.999, size=(trials, max_k2))
    u_beta = rng.uniform(-1.0, 1.0, size=(trials, max_k2))

    # Only the sections a trial draws are evaluated.  Each trial's phase and
    # rate add up its first-order sections and its second-order sections
    # separately, column by column, in the order a row sum adds them.
    w0 = omega_p if omega_p > BOUNDARY_BAND else 0.0
    ph1 = 0.0 if omega_p < 1.0 else -math.pi
    ph2 = 0.0 if omega_p < 1.0 else -2.0 * math.pi
    p1, r1 = np.zeros(trials), np.zeros(trials)
    for j in range(budget):
        idx = np.flatnonzero(k1 > j)
        a = a_params[idx, j]
        p1[idx] += ph1 if at_bnd else ap1_phase(a, omega_p)
        r1[idx] += ap1_rate(a, w0)
    p2, r2 = np.zeros(trials), np.zeros(trials)
    for j in range(max_k2):
        idx = np.flatnonzero(k2 > j)
        al = alpha[idx, j]
        be = u_beta[idx, j] * 2.0 * np.sqrt(al) * 0.999
        p2[idx] += ph2 if at_bnd else ap2_phase(al, be, omega_p)
        r2[idx] += ap2_rate(al, be, w0)
    phases = p1 + p2
    rates = r1 + r2

    resid = _wrap_angles(t_goal - phases)
    if at_bnd:
        # only phases 0 (constant +1) and pi (sign flip) are reachable
        feasible = (np.abs(resid) <= 1e-9) | \
            (np.abs(np.abs(resid) - math.pi) <= 1e-9)
        skipped = trials - int(np.count_nonzero(feasible))
        total = np.where(feasible, rates, -np.inf)
    else:
        targets = np.where(resid > 1e-15, resid - math.pi, resid)
        # a target of 0 or -pi is met by a constant; the rest by a section
        solve = np.flatnonzero(~((np.abs(targets) <= 1e-15)
                                 | (np.abs(targets + math.pi) <= 1e-15)))
        t = targets[solve]
        corr_a = _ap1_param(t, omega_p)
        total = rates.copy()
        total[solve] += ap1_rate(corr_a, omega_p)
        bad = solve[np.abs(ap1_phase(corr_a, omega_p) - t) > 1e-9]
        skipped = len(bad)
        total[bad] = -np.inf

    # deterministic bare candidate: the matched first-order all-pass alone
    if at_bnd:
        bare = 0.0 if _boundary_reachable(t_goal) else -np.inf
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


def _at_boundary(omega_p: float) -> bool:
    return omega_p <= BOUNDARY_BAND or omega_p >= math.pi - BOUNDARY_BAND


def _boundary_reachable(theta_p: float) -> bool:
    """Whether theta_p is 0 or pi (within 1e-9), as it is at a boundary."""
    t = abs(wrap_angle(theta_p))
    return t <= 1e-9 or abs(t - math.pi) <= 1e-9


def pcr_ceiling(omega_p: float, theta_p: float) -> float:
    """The rate ``pcr_max_search`` cannot beat: -rho_threshold inside the
    band, 0.0 at a boundary frequency, where other phases are rejected."""
    if not 0.0 <= omega_p <= math.pi:
        raise PreconditionError(f"omega_p must lie in [0, pi], got {omega_p}")
    if not _at_boundary(omega_p):
        return -rho_threshold(omega_p, theta_p)
    if not _boundary_reachable(theta_p):
        raise PreconditionError(f"no all-pass has phase {theta_p} at "
                                f"boundary omega_p={omega_p}")
    return 0.0


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


def _allpass_real_sections(f: RationalTF):
    """Recover (c, [a_i]) for a real-pole all-pass, validating structure:
    the gain must be constant on the circle within 1e-7 max(scale, 1)."""
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
    if np.max(np.abs(mags - scale)) > 1e-7 * max(scale, 1.0):
        raise PreconditionError("gain is not constant on the unit circle")
    return c, a, scale


def allpass_pcr_bound_check(f: RationalTF, omega_p: float) -> bool:
    """Real-pole all-pass PCR bound at an interior frequency.

    theta'(omega_p) <= -|sin(theta(omega_p)) / sin(omega_p)|, with equality
    demanded at orders 0 and 1, each within PCR_TOL.
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
    holds = rate <= bound + PCR_TOL
    if len(a) <= 1:
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
    rate = float(np.imag(_dlog(f, max(omega_p, 1e-12))))
    if not rate <= PCR_TOL:
        return False
    if omega_p <= 1e-9 or omega_p >= math.pi - 1e-9:
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
