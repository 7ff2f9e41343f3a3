"""Exact robust-instability-radius analysis and perturbation synthesis.

Implements the exact-RIR trichotomy for single-peak unstable plants, the
minimum-norm marginally-stabilizing all-pass synthesis, and the randomized
phase-change-rate maximization.  The checks of the paper's supporting
bounds live in ``rirkit.bounds``.
"""

from __future__ import annotations

import math
import sys
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
    at_boundary,
    classify,
    evaluate,
    linf_norm,
)

__all__ = [
    "RIRVerdict",
    "AllPassSpec",
    "rho_threshold",
    "exact_rir_analyze",
    "allpass_phase_match",
    "synth_allpass_spec",
    "synth_marginal_perturbation",
    "pcr_max_search",
    "pcr_ceiling",
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


def wrap_angle(x: float | np.ndarray) -> float | np.ndarray:
    """Reduce an angle, or each angle of an array, to (-pi, pi].

    ``fmod`` is exact, and so is each 2*pi correction (Sterbenz's lemma):
    every result is the one representative of x mod 2*pi in (-pi, pi].  A
    float gives a float, an array an array.
    """
    r = np.fmod(x, 2.0 * math.pi)
    r = np.where(r > math.pi, r - 2.0 * math.pi, r)
    r = np.where(r <= -math.pi, r + 2.0 * math.pi, r)
    return r if r.ndim else float(r)


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
        return RationalTF(Polynomial([k * self.a, k]),
                          Polynomial([1.0, self.a]))

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
    or one whose peak gain or its reciprocal overflows, is rejected.

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
    lower = 1.0 / tag.peak_gain if tag.peak_gain != 0.0 else math.inf
    if not 0.0 < lower < math.inf:
        raise ValueError(
            f"peak gain {tag.peak_gain} has no finite, nonzero reciprocal")
    omega_p = tag.peak_omega
    theta_p = _unwrapped_phase(g, omega_p)
    theta_rate = float(np.imag(_dlog(g, omega_p)))
    interior = not at_boundary(omega_p)

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
    must match within 1e-10.  A miss within the phase's own rounding floor,
    4 eps (|a| |d theta/d a| + omega |d theta/d omega|), with d theta/d a =
    2 sin(omega) / |e^{j omega} + a|^2 and d theta/d omega = (a^2 - 1) /
    |e^{j omega} + a|^2, means no double a meets the target there (omega_p
    near 0 or pi), and raises PreconditionError.  The achieved phase must
    then satisfy sin theta = (a^2 - 1) sin(omega) / |e^{j omega} + a|^2 to
    1e-9 or to that identity's rounding floor, 4 eps ((a^2 + 1) |sin omega|
    / |e^{j omega} + a|^2 + |rhs| (1 + |a|) / |e^{j omega} + a|) + eps,
    which near a = -1 exceeds 1e-9; beyond both it raises
    SynthesisVerificationError.
    """
    if not 0.0 < omega_p < math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    t = wrap_angle(theta_p)
    if abs(t) <= 1e-13:
        return AllPassSpec(c=1, a=None)
    if math.pi - abs(t) <= 1e-13:  # t lies in (-pi, pi]
        return AllPassSpec(c=-1, a=None)
    if t < 0.0:
        c, target = 1, t
    else:
        c, target = -1, t - math.pi
    a = float(_ap1_param(target, omega_p))
    achieved = float(ap1_phase(a, omega_p))
    z = complex(np.exp(1j * omega_p))
    if abs(achieved - target) > 1e-10:
        floor = (4.0 * sys.float_info.epsilon
                 * (abs(a) * 2.0 * math.sin(omega_p)
                    + omega_p * abs(a * a - 1.0)) / abs(z + a) ** 2)
        if abs(achieved - target) <= floor:
            raise PreconditionError(
                f"no all-pass section meets phase {target} at "
                f"omega_p={omega_p} to 1e-10: achieved {achieved}, within "
                f"the phase's rounding floor {floor}")
        raise SynthesisVerificationError(
            f"phase match failed: target {target}, achieved {achieved}")
    # consistency with the closed-form sine identity for the section phase,
    # to 1e-9 or its own rounding floor: a^2 - 1 rounds by eps (a^2 + 1),
    # and |z + a|^2 cancels near a = -1
    ident = (a**2 - 1.0) * math.sin(omega_p) / abs(z + a) ** 2
    miss = abs(math.sin(achieved) - ident)
    if miss > 1e-9:
        eps = sys.float_info.epsilon
        floor = (4.0 * eps * ((a * a + 1.0) * abs(math.sin(omega_p))
                              / abs(z + a) ** 2
                              + abs(ident) * (1.0 + abs(a)) / abs(z + a))
                 + eps)
        if miss > floor:
            raise SynthesisVerificationError(
                f"sine identity violated by {miss}, beyond its rounding "
                f"floor {floor}")
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
    maximizer.  Deterministic for a fixed seed.  A boundary omega_p with
    a phase no all-pass reaches there is rejected before any draw.
    """
    if not 1 <= max_order <= 6:
        raise PreconditionError(f"max_order must be in 1..6, got {max_order}")
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    _require_reachable_phase(omega_p, theta_p)
    rng = np.random.default_rng(seed)
    t_goal = wrap_angle(theta_p)
    at_bnd = at_boundary(omega_p)

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
    w0 = 0.0 if at_bnd and omega_p < 1.0 else omega_p
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

    resid = wrap_angle(t_goal - phases)
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
        bare = 0.0
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


def _require_reachable_phase(omega_p: float, theta_p: float) -> None:
    """At a boundary omega_p every all-pass has phase 0 or pi; raise unless
    theta_p is one of them (within 1e-9)."""
    t = abs(wrap_angle(theta_p))
    if at_boundary(omega_p) and not (t <= 1e-9 or abs(t - math.pi) <= 1e-9):
        raise PreconditionError(f"no all-pass has phase {theta_p} at "
                                f"boundary omega_p={omega_p}")


def pcr_ceiling(omega_p: float, theta_p: float) -> float:
    """The rate ``pcr_max_search`` cannot beat: -rho_threshold inside the
    band, 0.0 at a boundary frequency, where other phases are rejected."""
    if not 0.0 <= omega_p <= math.pi:
        raise PreconditionError(f"omega_p must lie in [0, pi], got {omega_p}")
    _require_reachable_phase(omega_p, theta_p)
    return 0.0 if at_boundary(omega_p) else -rho_threshold(omega_p, theta_p)
