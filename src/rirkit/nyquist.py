"""Extended Nyquist machinery for positive-feedback loops.

Transverse-crossing counts on a contour of radius 1 - epsilon,
encirclements of 1+j0, and the marginal / single-mode marginal stability
verdicts.  The verdicts come from the closed-loop roots; the contour counts
certify them, and a diagnostic warning is attached where the two disagree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCrossingError, PreconditionError
from .polycore import Polynomial, RootSet, _horner_bound, poly_eval
from .transfer import (
    RationalTF,
    _chebval,
    _dlog,
    _gain_rate,
    _log_slope,
    _sign_changes,
    _u_to_t,
    at_boundary,
    evaluate,
)

__all__ = [
    "ContourSpec",
    "CrossingReport",
    "StabilityVerdict",
    "crossing_counts",
    "closed_loop_poles",
    "extended_nyquist_check",
    "marginal_verdict",
]

MODE_CONJ = "conjugate_pair"
MODE_P1 = "pole_at_+1"
MODE_M1 = "pole_at_-1"
MODE_NONE = "none"

BOUNDARY_TOL = 1e-6  # a closed-loop root this close to T lies on it
EXCLUSION_WINDOW = 1e-4  # marginal-mode window around 1+j0 and omega_c


@dataclass(frozen=True)
class ContourSpec:
    """Counter-clockwise circle of radius 1 - epsilon."""

    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")


@dataclass(frozen=True)
class CrossingReport:
    nu_plus: int
    nu_minus: int
    nu_o: int
    encirclements_cw: int


@dataclass(frozen=True)
class StabilityVerdict:
    all_in_closed_disk: bool
    boundary_roots: tuple[tuple[complex, int], ...]
    marginal: bool
    single_mode: bool
    mode: str
    nu_o0: int
    phase_rate: float
    condition_i: bool
    condition_iia: bool
    condition_iib: bool


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


def crossing_counts(L: RationalTF, spec: ContourSpec,
                    exclude_near_one: float = 0.0) -> CrossingReport:
    """Transverse crossings of the real ray (1, inf) by L(z^{-1}).

    nu_plus counts crossings from the negative imaginary half-plane to the
    positive one as omega increases; nu_minus the reverse.  On the contour
    Im L = -sin(omega) V(cos omega) / |den|^2, so L meets the real axis at
    omega = 0 and pi and at +-arccos of the roots of V where V changes sign;
    each of the latter is refined by Newton steps on Im L.  L has real
    coefficients, so L at -omega is the conjugate of L at omega: each
    interior crossing is evaluated once, at omega, and counted twice.
    Crossings whose value lies within ``exclude_near_one`` of 1+j0 are
    skipped (used when a marginal loop touches the critical point); without
    that window, a crossing at 1+j0 to rounding raises
    ``DegenerateCrossingError``.
    """
    epsilon = spec.epsilon
    r_eval = 1.0 / (1.0 - epsilon)
    for p in L.poles():
        if abs(abs(p) - r_eval) < 1e-9:
            warnings.warn(
                f"pole within 1e-9 of the evaluation circle; shifting "
                f"epsilon by 1e-6 (pole={p})")
            epsilon = epsilon + 1e-6 if epsilon + 1e-6 < 1.0 else epsilon / 2.0
            r_eval = 1.0 / (1.0 - epsilon)

    def im_rate(w):
        z = r_eval * complex(np.exp(-1j * w))
        lv = evaluate(L, z)
        return lv.imag, float((-1j * z * lv * _log_slope(L, z)).imag)

    # Im L = -sin(omega) V / |den|^2 has the sign of -V in (0, pi)
    found = _sign_changes(*_sin_series(L, r_eval),
                          lambda w, v: -_chebval(math.cos(w), v), im_rate,
                          rising=True)
    if found is None:  # L is real, hence constant, on the contour
        return CrossingReport(nu_plus=0, nu_minus=0, nu_o=0,
                              encirclements_cw=0)
    changes, first, last = found
    # (omega, direction, multiplicity)
    found = ([(0.0, first > 0.0, 1), (np.pi, last < 0.0, 1)]
             + [(w, up, 2) for w, up in changes])
    w = np.array([f[0] for f in found])
    z = r_eval * np.exp(-1j * w)
    # num and den on one exact power-of-two scale: den(z) may be subnormal
    shift = -math.frexp(max(map(abs, L.num.coeffs + L.den.coeffs)))[1]
    num, den = ([math.ldexp(c, shift) for c in p.coeffs]
                for p in (L.num, L.den))
    dv = poly_eval(Polynomial(den), z)
    vals = poly_eval(Polynomial(num), z) / dv
    # Horner's rounding bound on each quotient
    rounding = (_horner_bound(num, r_eval)
                + np.abs(vals) * _horner_bound(den, r_eval)) / np.abs(dv)

    nu_plus = nu_minus = 0
    for (phi, up, count), val, tol in zip(found, vals, rounding):
        near = abs(val - 1.0)
        if exclude_near_one > 0.0 and near <= exclude_near_one:
            continue
        if exclude_near_one == 0.0 and near <= tol:
            raise DegenerateCrossingError(
                f"L crosses the real axis at 1+j0 to rounding (omega={phi})")
        if val.real > 1.0:
            if up:
                nu_plus += count
            else:
                nu_minus += count
    nu_o = nu_plus - nu_minus
    return CrossingReport(nu_plus=nu_plus, nu_minus=nu_minus, nu_o=nu_o,
                          encirclements_cw=-nu_o)


def closed_loop_poles(L: RationalTF) -> RootSet:
    """Roots of den(L) - num(L), the positive-feedback characteristic roots."""
    char = L.den - L.num
    if char.is_zero:
        raise ValueError("characteristic polynomial identically zero (L == 1)")
    return char.roots()


def _contour_epsilon(L: RationalTF, closed_loop: tuple[complex, ...]) -> float:
    """Half the smallest structural margin of L's unstable poles and of its
    closed-loop roots off the circle, capped at 1e-2 and floored at 1e-8."""
    eps = 1e-2
    for p in L.poles():
        if abs(p) > 1.0:
            eps = min(eps, (1.0 - 1.0 / abs(p)) / 2.0)
    for c in closed_loop:
        m = abs(c)
        if abs(m - 1.0) > BOUNDARY_TOL and m > 0.0:
            eps = min(eps, abs(1.0 - 1.0 / m) / 2.0)
    return max(eps, 1e-8)


def extended_nyquist_check(L: RationalTF) -> bool:
    """True iff the positive feedback loop has all poles in the closed disk.

    The verdict comes from the closed-loop roots.  It is cross-checked by
    the clockwise encirclements of 1+j0 on one contour, of radius
    1 - epsilon with epsilon from ``_contour_epsilon``, which by the argument
    principle equal n, the number of unstable poles of L, exactly when no
    closed-loop root lies outside the closed disk; a count that disagrees
    warns.
    """
    n = sum(1 for p in L.poles() if abs(p) > 1.0)
    roots = closed_loop_poles(L).flat
    roots_ok = all(abs(c) <= 1.0 + 1e-9 for c in roots)
    cw = crossing_counts(L, ContourSpec(epsilon=_contour_epsilon(L, roots))
                         ).encirclements_cw
    if (cw == n) != roots_ok:
        warnings.warn(
            f"Nyquist verdict {cw == n} (cw={cw}, n={n}) disagrees "
            f"with root verdict {roots_ok}; using roots")
    return roots_ok


def marginal_verdict(L: RationalTF, omega_c: float) -> StabilityVerdict:
    """Single-mode marginal stability of the positive feedback loop.

    omega_c must be a stationary point of the loop log-gain: |A'| within
    1e-8 (1 + |A''|).  The verdict itself comes from the characteristic
    roots; the crossing/phase-rate certificate, with L within 1e-6 of 1 at
    omega_c, is evaluated alongside and a diagnostic is emitted when the
    two disagree.
    """
    q = complex(_dlog(L, omega_c))
    # scale by the gain-rate curvature: at sharp resonances A' evaluation
    # noise grows with conditioning, but the implied omega offset must not
    ap, app = _gain_rate(L, omega_c)
    if abs(ap) > 1e-8 * (1.0 + abs(app)):
        raise PreconditionError(
            f"A'_L(omega_c) = {ap:.3e} not zero within 1e-8 * (1 + |A''|)")
    n = sum(1 for p in L.poles() if abs(p) > 1.0)

    at_bnd = at_boundary(omega_c)
    zc = complex(np.exp(1j * omega_c))
    vc = evaluate(L, zc)
    cond_value = abs(vc - 1.0) <= 1e-6
    dL = vc * q / (1j * zc)  # L'(z) = L(z) q / (j z)
    cond_deriv = abs(dL) > 1e-9
    rs = closed_loop_poles(L)
    boundary = tuple((r, m) for r, m in zip(rs.roots, rs.multiplicities)
                     if abs(abs(r) - 1.0) <= BOUNDARY_TOL)
    # L = 1 on the circle exactly at the boundary closed-loop roots
    cond_elsewhere = all(abs(abs(np.angle(r)) - omega_c) <= EXCLUSION_WINDOW
                         for r, _ in boundary)
    condition_i = cond_value and cond_deriv and cond_elsewhere

    rep = crossing_counts(L, ContourSpec(epsilon=0.0),
                          exclude_near_one=EXCLUSION_WINDOW)
    theta_rate = q.imag
    want_iia = (n - 1) if at_bnd else (n - 2)
    condition_iia = rep.nu_o == want_iia and theta_rate > 0.0
    condition_iib = rep.nu_o == n and theta_rate < 0.0
    cert_single = condition_i and (condition_iia or condition_iib)

    outside = [r for r in rs.roots if abs(r) > 1.0 + BOUNDARY_TOL]
    all_in = not outside
    marginal = all_in and bool(boundary) and all(m == 1 for _, m in boundary)
    mode = MODE_NONE
    single = False
    if marginal:
        pts = sorted((r for r, _ in boundary), key=lambda r: r.imag)
        if len(pts) == 1 and abs(pts[0].imag) <= BOUNDARY_TOL:
            mode = MODE_P1 if pts[0].real > 0 else MODE_M1
            single = True
        elif (len(pts) == 2
              and abs(pts[0] - np.conj(pts[1])) <= 10 * BOUNDARY_TOL
              and abs(pts[0].imag) > BOUNDARY_TOL):
            mode = MODE_CONJ
            single = True

    if cert_single != single:
        warnings.warn(
            f"crossing/phase-rate certificate ({cert_single}) disagrees with the "
            f"root verdict ({single}); using roots. nu_o(0)={rep.nu_o}, "
            f"theta'={theta_rate:.3e}, boundary={boundary}")

    return StabilityVerdict(
        all_in_closed_disk=all_in,
        boundary_roots=boundary,
        marginal=marginal,
        single_mode=single,
        mode=mode,
        nu_o0=rep.nu_o,
        phase_rate=theta_rate,
        condition_i=condition_i,
        condition_iia=condition_iia,
        condition_iib=condition_iib,
    )
