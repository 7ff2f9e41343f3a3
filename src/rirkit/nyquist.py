"""Extended Nyquist machinery for positive-feedback loops.

Transverse-crossing counts on indented contours, encirclements of 1+j0,
and the marginal / single-mode marginal stability verdicts.  Where contour
counting and direct root computation disagree, roots win and a diagnostic
warning is attached.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import DegenerateCrossingError, EpsilonSweepError, PreconditionError
from .polycore import RootSet
from .transfer import RationalTF, _dlog, evaluate

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


@dataclass(frozen=True)
class ContourSpec:
    """Counter-clockwise circle of radius 1 - epsilon, midpoint-sampled."""

    epsilon: float = 0.0
    samples: int = 4096

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.samples < 1024:
            raise ValueError("samples must be >= 1024")


@dataclass(frozen=True)
class CrossingReport:
    nu_plus: int
    nu_minus: int
    nu_o: int
    encirclements_cw: int
    crossings: tuple[tuple[float, float], ...] = field(default=())


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


def _plot_points(L: RationalTF, epsilon: float, n: int):
    """Samples of L(z^{-1}) on the radius-(1-eps) contour, midpoint grid."""
    w = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    arg = np.exp(-1j * w) / (1.0 - epsilon)
    return w, evaluate(L, arg)


def _contour_grid_size(L: RationalTF, epsilon: float, base: int) -> int:
    r_eval = 1.0 / (1.0 - epsilon)
    gaps = [abs(abs(p) - r_eval) for p in L.poles()]
    gmin = min((g for g in gaps if g > 0.0), default=1.0)
    if gmin >= 1e-2:
        return base
    n = 64.0 * 2.0 * np.pi / gmin
    return int(min(max(base, 2 ** math.ceil(math.log2(n))), 2 ** 22))


def crossing_counts(L: RationalTF, spec: ContourSpec,
                    exclude_near_one: float = 0.0) -> CrossingReport:
    """Transverse crossings of the real ray (1, inf) by L(z^{-1}).

    nu_plus counts crossings from the negative imaginary half-plane to the
    positive one as omega increases; nu_minus the reverse.  Crossings whose
    refined location lies within ``exclude_near_one`` of 1+j0 are skipped
    (used when a marginal loop touches the critical point).
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

    n = _contour_grid_size(L, epsilon, spec.samples)
    for _attempt in range(2):
        w, vals = _plot_points(L, epsilon, n)
        report = _count_from_samples(L, epsilon, w, vals, exclude_near_one)
        wind = _winding_check(vals, exclude_near_one)
        if wind is None or wind == report.nu_o:
            return report
        n *= 2
    raise DegenerateCrossingError(
        f"winding number {wind} disagrees with crossing count {report.nu_o} "
        f"after refinement")


def _count_from_samples(L, epsilon, w, vals, exclude_near_one):
    n = len(w)
    im = vals.imag
    sign = np.where(im >= 0.0, 1, -1)
    flips = np.nonzero(sign != np.roll(sign, -1))[0]
    step = 2.0 * np.pi / n
    nu_plus = nu_minus = 0
    crossings = []

    def im_at(phi):
        return float(np.imag(evaluate(L, np.exp(-1j * phi) / (1.0 - epsilon))))

    for i in flips:
        a = w[i]
        b = a + step
        going_up = sign[i] < 0
        phi = brentq(im_at, a, b, xtol=1e-10)
        val = evaluate(L, np.exp(-1j * phi) / (1.0 - epsilon))
        if exclude_near_one > 0.0 and abs(val - 1.0) <= exclude_near_one:
            continue
        if val.real > 1.0:
            if going_up:
                nu_plus += 1
            else:
                nu_minus += 1
            crossings.append((float(phi), float(val.real)))
    nu_o = nu_plus - nu_minus
    return CrossingReport(nu_plus=nu_plus, nu_minus=nu_minus, nu_o=nu_o,
                          encirclements_cw=-nu_o,
                          crossings=tuple(crossings))


def _winding_check(vals, exclude_near_one):
    shifted = vals - 1.0
    dmin = float(np.min(np.abs(shifted)))
    if dmin <= max(1e-9, 2.0 * exclude_near_one):
        return None  # curve passes (numerically) through the critical point
    total = float(np.sum(np.angle(np.roll(shifted, -1) / shifted)))
    wind = total / (2.0 * np.pi)
    if abs(wind - round(wind)) > 0.25:
        return None
    return int(round(wind))


def closed_loop_poles(L: RationalTF, cluster_tol: float = 1e-7) -> RootSet:
    """Roots of den(L) - num(L), the positive-feedback characteristic roots."""
    char = L.den - L.num
    if char.is_zero:
        raise ValueError("characteristic polynomial identically zero (L == 1)")
    if char.degree == 0:
        return RootSet(roots=(), multiplicities=(), residual=0.0)
    return char.roots(cluster_tol=cluster_tol)


def _epsilon_sweep(L: RationalTF, boundary_band: float = 1e-6):
    """Three-decade sweep below the structural margins of L and its loop."""
    eps0 = 1e-2
    for p in L.poles():
        if abs(p) > 1.0:
            eps0 = min(eps0, (1.0 - 1.0 / abs(p)) / 2.0)
    for c in closed_loop_poles(L).flat:
        m = abs(c)
        if abs(m - 1.0) > boundary_band and m > 0.0:
            eps0 = min(eps0, abs(1.0 - 1.0 / m) / 2.0)
    eps0 = max(eps0, 1e-8)
    return [eps0, eps0 / 10.0, eps0 / 100.0]


def extended_nyquist_check(L: RationalTF, n: int, samples: int = 4096,
                 boundary_band: float = 1e-6) -> bool:
    """True iff the positive feedback loop has all poles in the closed disk.

    Certified by clockwise encirclements of 1+j0 equal to n on a decreasing
    contour sweep (unanimity demanded), and cross-validated against the
    closed-loop roots; on disagreement the root verdict wins.
    """
    roots = closed_loop_poles(L).flat
    moduli = [abs(c) for c in roots]
    roots_ok = all(m <= 1.0 + 1e-9 for m in moduli)
    counts = [crossing_counts(L, ContourSpec(epsilon=e, samples=samples)).encirclements_cw
              for e in _epsilon_sweep(L, boundary_band)]
    if len(set(counts)) != 1:
        clear = all(abs(m - 1.0) > boundary_band for m in moduli)
        if clear:
            warnings.warn(
                f"encirclement counts {counts} disagree across the sweep; "
                f"falling back to the root verdict {roots_ok}")
            return roots_ok
        raise EpsilonSweepError(f"eps_+ not found: sweep counts {counts}")
    nyq_ok = counts[0] == n
    if nyq_ok != roots_ok:
        warnings.warn(
            f"Nyquist verdict {nyq_ok} (cw={counts[0]}, n={n}) disagrees "
            f"with root verdict {roots_ok}; using roots")
        return roots_ok
    return nyq_ok


def marginal_verdict(L: RationalTF, omega_c: float, n: int | None = None,
                     samples: int = 4096,
                     value_tol: float = 1e-6,
                     rate_zero_tol: float = 1e-8,
                     boundary_tol: float = 1e-6,
                     exclusion_window: float = 1e-4) -> StabilityVerdict:
    """Single-mode marginal stability of the positive feedback loop.

    omega_c must be a stationary point of the loop log-gain.  The verdict
    itself comes from the characteristic roots; the crossing/phase-rate
    certificate is evaluated alongside and a diagnostic is emitted when the
    two disagree.
    """
    q = complex(_dlog(L, omega_c))
    ap = q.real
    # scale by the gain-rate curvature: at sharp resonances A' evaluation
    # noise grows with conditioning, but the implied omega offset must not
    h = 1e-9
    app = abs(float(np.real(_dlog(L, omega_c + h))
                    - np.real(_dlog(L, omega_c - h)))) / (2.0 * h)
    if abs(ap) > rate_zero_tol * (1.0 + app):
        raise PreconditionError(
            f"A'_L(omega_c) = {ap:.3e} not zero within "
            f"{rate_zero_tol} * (1 + |A''|)")
    if n is None:
        n = sum(1 for p in L.poles() if abs(p) > 1.0)

    at_bnd = omega_c <= 1e-9 or omega_c >= np.pi - 1e-9
    zc = complex(np.exp(1j * omega_c))
    vc = evaluate(L, zc)
    cond_value = abs(vc - 1.0) <= value_tol
    dL = vc * q / (1j * zc)  # L'(z) = L(z) q / (j z)
    cond_deriv = abs(dL) > 1e-9
    cond_elsewhere = _one_only_at(L, omega_c, value_tol, exclusion_window)
    condition_i = cond_value and cond_deriv and cond_elsewhere

    rep = crossing_counts(L, ContourSpec(epsilon=0.0, samples=samples),
                          exclude_near_one=exclusion_window)
    theta_rate = q.imag
    want_iia = (n - 1) if at_bnd else (n - 2)
    condition_iia = rep.nu_o == want_iia and theta_rate > 0.0
    condition_iib = rep.nu_o == n and theta_rate < 0.0
    cert_single = condition_i and (condition_iia or condition_iib)

    rs = closed_loop_poles(L)
    boundary = tuple((r, m) for r, m in zip(rs.roots, rs.multiplicities)
                     if abs(abs(r) - 1.0) <= boundary_tol)
    outside = [r for r in rs.roots if abs(r) > 1.0 + boundary_tol]
    all_in = not outside
    marginal = all_in and bool(boundary) and all(m == 1 for _, m in boundary)
    mode = MODE_NONE
    single = False
    if marginal:
        pts = sorted((r for r, _ in boundary), key=lambda r: r.imag)
        if len(pts) == 1 and abs(pts[0].imag) <= boundary_tol:
            mode = MODE_P1 if pts[0].real > 0 else MODE_M1
            single = True
        elif (len(pts) == 2 and abs(pts[0] - np.conj(pts[1])) <= 10 * boundary_tol
              and abs(pts[0].imag) > boundary_tol):
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


def _one_only_at(L: RationalTF, omega_c: float, tol: float,
                 window: float) -> bool:
    """Check L(e^{j omega}) != 1 away from +-omega_c on an adaptive grid."""
    from .transfer import _auto_grid
    n = _auto_grid(L, 4096)
    w = np.linspace(0.0, np.pi, n + 1)
    mask = np.abs(w - omega_c) > window
    if not np.any(mask):
        return True
    vals = evaluate(L, np.exp(1j * w[mask]))
    return bool(np.min(np.abs(vals - 1.0)) > tol)
