"""Sampled-data magnetic levitation and FitzHugh-Nagumo applications.

The maglev side discretizes the continuous plant under a zero-order hold,
checks that the exact-radius condition fails, and computes the high-pass
compensated upper bound on the instability radius.  The FHN side locates
fixed points, linearizes the map around them, searches for the critical
DC perturbation gain, and simulates the nonlinear loop under shaped
perturbations.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, SynthesisVerificationError
from .polycore import Polynomial, _horner_bound, _quadratic_roots, from_roots
from .rir import (
    EXACT_SUFFICIENT,
    exact_rir_analyze,
    synth_marginal_perturbation,
)
from .transfer import (RationalTF, _dlog, _gain_rate, _gain_turns, evaluate,
                       linf_norm)

_MAX_EXP = math.log(sys.float_info.max)  # math.exp overflows past it

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
        big = max(self.p, self.tau, self.tau * self.p)
        if not (self.p * self.p > 0.0 and big * big < math.inf):
            raise ValueError(f"p^2, tau^2 or (tau p)^2 leaves the float range "
                             f"at p = {self.p}, tau = {self.tau}")
        if not self.p * self.T <= _MAX_EXP:
            raise ValueError(f"step gain exp(p T) overflows at p T = "
                             f"{self.p * self.T}")


@dataclass(frozen=True)
class FHNModel:
    """Discrete FitzHugh-Nagumo map parameters with derived step gains.

    The gains A, B and D are computed on first read and kept in the
    instance ``__dict__``, outside the dataclass fields, so ``==``, ``hash``
    and ``repr`` ignore them.
    """

    c: float = 1.0
    alpha: float = 0.7
    beta: float = 0.8
    tau: float = 0.01
    d: float = 10.0
    current: float = 0.4

    @functools.cached_property
    def A(self) -> float:
        return math.exp(self.tau / self.c)

    @functools.cached_property
    def B(self) -> float:
        return math.exp(-self.beta * self.tau / self.d)

    @functools.cached_property
    def D(self) -> float:
        return 1.0 / self.beta

    def __post_init__(self):
        if self.tau <= 0.0 or self.c <= 0.0 or self.d <= 0.0 or self.beta <= 0.0:
            raise ValueError("c, beta, tau, d must be positive")
        if not self.tau / self.c <= _MAX_EXP:
            raise ValueError(f"step gain A = exp(tau/c) overflows at tau/c = "
                             f"{self.tau / self.c}")


@dataclass(frozen=True)
class FixedPoint:
    xbar: float
    ybar: float
    e: float
    residual: float


@dataclass(frozen=True)
class Trajectory:
    """Simulated membrane (x) and recovery (y) states, start included."""

    x: np.ndarray
    y: np.ndarray
    diverged: bool = False

    def last_quarter_amplitude(self) -> float:
        n = len(self.x)
        tail = self.x[3 * n // 4:]
        return float(np.max(tail) - np.min(tail))

    def verdict(self) -> str:
        """Oscillating above amplitude 0.1, converged below 1e-3, and
        indeterminate in between or where the last quarter holds fewer than
        2 samples, whose max - min is no amplitude."""
        amp = self.last_quarter_amplitude()
        if self.diverged:
            return "diverged"
        n = len(self.x)
        if n - 3 * n // 4 < 2:  # the last quarter's length
            return "indeterminate"
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
    f = RationalTF(Polynomial([b + 1.0, 1.0 - b]),
                   Polynomial([a + 1.0, 1.0 - a]))
    if max(f.den.roots().sides(1.0)) >= 0:
        raise SynthesisVerificationError("compensator pole left the disk")
    return f


def maglev_upper_bound(params: MaglevParams, eps: float) -> MaglevBound:
    """Reciprocal-radius bound ratio from high-pass compensation.

    P_eps exceeds twice the (negative) phase rate deficit at omega = 0;
    abar is the largest compensator parameter keeping the compensated gain
    non-increasing, via the closed form in the beta coefficients.  The
    returned ratio 1 + P_eps/abar bounds rho_*(g_d) / (p^2/k) from above.
    Validated at a = abar (1 - 1e-6): compensated A' at most 1e-9 at each
    maximum, compensated phase rate at omega = 0 positive.  Returns
    g_d = maglev_zoh(params) and that compensator highpass(a, a + P_eps).
    """
    if not math.isfinite(eps):
        raise PreconditionError(f"eps must be finite, got {eps}")
    if eps <= 0.0:
        raise PreconditionError("eps must be positive")
    g = maglev_zoh(params)
    g.assert_rl_inf()
    theta0 = float(np.imag(_dlog(g, 0.0)))
    if theta0 >= 0.0:
        raise PreconditionError("compensation unnecessary: theta'_gd(0) >= 0")
    P = -2.0 * theta0 + eps
    _, (b2, b1, b0), (ep, em, et) = _maglev_pieces(params)
    try:
        dens = (ep + em - 2.0, (1.0 - et) ** 2, (b2 + b1 + b0) ** 2)
    except OverflowError:
        raise ValueError(f"abar's closed form overflows at p T = "
                         f"{params.p * params.T}") from None
    if 0.0 in dens:
        raise ValueError(f"abar's closed form divides by zero at T = "
                         f"{params.T}: a denominator cancels to 0")
    abar = (1.0 / (2.0 * P)) * (
        8.0 / dens[0] + 4.0 * et / dens[1]
        + 4.0 * (4.0 * b2 * b0 + b2 * b1 + b1 * b0) / dens[2] - P**2)
    if abar <= 0.0:
        raise SynthesisVerificationError(f"abar = {abar} not positive")
    a = abar * (1.0 - 1e-6)
    fh = highpass(a, a + P)
    L = g * fh
    turns = _gain_turns(L, rising=True)
    for (lo, up), (hi, _) in zip(turns, turns[1:]):
        while up and hi - lo > 1e-9 * hi:  # A' > 0: bisect A'' to its zero
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _gain_rate(L, mid)[1] > 0.0 else (lo, mid)
        if up and (rate := _gain_rate(L, lo)[0]) > 1e-9:
            raise SynthesisVerificationError(
                f"compensated gain rate positive: max A' = {rate}")
    if theta0 + float(np.imag(_dlog(fh, 0.0))) <= 0.0:
        raise SynthesisVerificationError(
            "compensated phase rate at 0 not positive")
    return MaglevBound(P_eps=float(P), abar=float(abar),
                       ratio=float(1.0 + P / abar), g_d=g, compensator=fh)


# -- FitzHugh-Nagumo -------------------------------------------------------

def _fhn_x_update(model: FHNModel, x: float, y_eff: float) -> float:
    A = model.A
    return (A * x + (1.0 - A) * (y_eff - model.current)) \
        / (1.0 + (A - 1.0) * x**2 / 3.0)


def fhn_fixed_point(model: FHNModel, e: float) -> FixedPoint:
    """Fixed point of the map with DC perturbation gain e.

    Newton iteration on the cubic phi(xbar) = 0 (ybar is eliminated) from
    the first of several starts that converges (an iterate that leaves the
    float range does not converge), then from the real roots of
    phi deflated by that root; the branch continuous with the unperturbed
    fixed point is selected.  The map's residual there must not exceed 1e-12.
    """
    D, alpha, current = model.D, model.alpha, model.current
    gain = (1.0 + e) * D

    def newton(x):  # on phi(x) = x - x^3/3 - gain (x + alpha) + current
        try:
            for _ in range(200):
                d = 1.0 - x**2 - gain  # phi'(x)
                if abs(d) < 1e-14:
                    return None
                step = (x - x**3 / 3.0 - gain * (x + alpha) + current) / d
                x -= step
                if abs(step) <= 1e-15 * (1.0 + abs(x)):
                    phi = x - x**3 / 3.0 - gain * (x + alpha) + current
                    return x if abs(phi) < 1e-10 else None
        except OverflowError:  # x**2 or x**3 left the float range
            pass
        return None

    for start in (-2.0, -1.0, 0.0, 1.0):
        r = newton(start)
        if r is not None:
            break
    else:
        raise PreconditionError(f"no fixed point found for e={e}")
    roots = [r]
    # phi / (x - r) = -x^2/3 - (r/3) x + 1 - gain - r^2/3
    for z in _quadratic_roots(-1.0 / 3.0, -r / 3.0, 1.0 - gain - r * r / 3.0):
        x = newton(z) if isinstance(z, float) else None
        if x is not None and all(abs(x - q) > 1e-8 for q in roots):
            roots.append(x)
    xbar = r
    if len(roots) > 1:
        ref = -1.0 if e == 0.0 else fhn_fixed_point(model, 0.0).xbar
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
    return _fhn_loop(model, fhn_fixed_point(model, e))


def _fhn_loop(model: FHNModel, fp: FixedPoint) -> RationalTF:
    """``fhn_linearize`` about the fixed point fp of its DC gain fp.e."""
    e, xb, yb = fp.e, fp.xbar, fp.ybar
    A, B, D = model.A, model.B, model.D
    if abs(A - 1.0) < 1e-15:
        raise PreconditionError("singular structure: A = 1 (tau/c = 0)")
    Q = 1.0 + (A - 1.0) * xb**2 / 3.0
    Qp = 2.0 * (A - 1.0) * xb / 3.0
    bbar = (1.0 - A) / Q
    try:
        bprime = -(1.0 - A) * Qp / Q**2
    except OverflowError:
        raise ValueError(f"the linearization overflows at step gain A = "
                         f"exp(tau/c) = {A}") from None
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
    indicated by the sign of h(e) = |e| - 1/||g_e|| near the origin, brackets
    the sign change, narrows the bracket to one cell of its bisection to a
    width of 1e-5 (``_bisection_cell``, given the march point before the
    bracket for its first probe), and verifies the sufficient exact-RIR
    condition at the cell's midpoint.  h(0) = -1/||g_0|| is negative, so the
    march starts from that class and evaluates h(0) only where the first
    step makes the bracket; a bracket at the first or second step has no
    march point before it.  For the default model that is 10 peak-gain
    evaluations: 2 for the direction, 6 in the march and 2 in the cell
    search, where bisection takes 11.  The fixed point at e_o is solved once,
    for g_eo and for the result.
    Raises PreconditionError where no bracket is found or where g at e_o
    is not ``exact_sufficient``: the paper's chain does not apply there.
    """
    def h(e):
        return abs(e) - _inv_norm(model, e)

    step = 0.02
    direction = -1.0 if h(-0.01) >= h(0.01) else 1.0
    before, prev_e, prev_h = None, 0.0, -math.inf  # the class of h(0)
    k = 1
    while step * k <= 0.5 + 1e-12:
        e = direction * step * k
        cur = h(e)
        if prev_h < 0.0 <= cur or prev_h >= 0.0 > cur:
            if k == 1:  # the cell search reads h at the bracket's ends
                prev_h = h(0.0)
            break
        if k > 1:  # h(0), before the second step's bracket, is not known
            before = (prev_e, prev_h)
        prev_e, prev_h = e, cur
        k += 1
    else:
        raise PreconditionError(
            "no bracket for |e| = 1/||g_e|| found in [-0.5, 0.5]")
    e_o = _bisection_cell(h, prev_e, e, prev_h, cur, before)
    fp = fhn_fixed_point(model, e_o)
    g_eo = _fhn_loop(model, fp)
    verdict = exact_rir_analyze(g_eo)
    if verdict.status != EXACT_SUFFICIENT:
        raise PreconditionError(
            f"sufficient exact-RIR condition fails at e_o={e_o}: "
            f"{verdict.status}")
    return EoSearchResult(e_o=e_o, g_eo=g_eo, fixed_point=fp)


def _bisection_cell(h, a: float, b: float, h_a: float, h_b: float,
                    before) -> float:
    """The midpoint of a cell of [a, b]'s bisection to width 1e-5 whose ends
    h puts in different sign classes (h < 0 or not), as h_a and h_b do a, b.

    Bisection's probes are nodes 0..n, n a power of 2, of one grid: node 0
    is a, node n is b, and the node halfway between nodes i and j is the
    float 0.5 * (x_i + x_j), replayed here without evaluating h.  The ITP
    method (Oliveira & Takahashi, ACM TOMS 47(1), 2020), with kappa1 =
    0.02 / n, kappa2 = 2 and n0 = 1, searches the node indices: the
    regula-falsi estimate is truncated toward the midpoint, projected into
    the nodes that leave at most n / 2**j cells on either side after probe
    j = 0, 1, ..., and rounded to a node strictly inside the bracket.  Those
    bounds are nodes, so the rounding keeps ITP's bound of log2(n) + 1
    evaluations of h; on a smooth h it takes fewer.  Where h changes class
    once in [a, b], the cell and its midpoint are bisection's, bit for bit.

    ``before`` is a point (c, h(c)) outside [a, b], or None.  Where h(c)
    differs from h_a and h_b, the first probe is instead the inverse
    quadratic estimate (Brent, 1973) through the three points, in node
    units, when it lies strictly inside (0, n): probe 0 is unconstrained by
    the projection, so the bound holds.  It is not truncated but rounded
    toward the midpoint, so the node next to it on the far side stays
    inside probe 1's projection of n / 2 cells.
    """
    n = 1
    while abs(b - a) / n > 1e-5:
        n *= 2
    x = {0: a, n: b}

    def node(i):  # halfway between the nodes s = i & -i either side of i
        if i not in x:
            s = i & -i
            x[i] = 0.5 * (node(i - s) + node(i + s))
        return x[i]

    first = None
    if before is not None and before[1] != h_a and before[1] != h_b:
        c, h_c = before
        d_b, d_c = (h_b - h_a) * (h_b - h_c), (h_c - h_a) * (h_c - h_b)
        if d_b != 0.0 and d_c != 0.0:  # either product can underflow
            t = (n * h_a * h_c / d_b
                 + (c - a) / (b - a) * n * h_a * h_b / d_c)
            if 0.0 < t < n:
                first = math.floor(t) if t > 0.5 * n else math.ceil(t)
    lo, hi, cap = 0, n, n
    while hi - lo > 1:
        mid = 0.5 * (lo + hi)
        delta = 0.02 / n * (hi - lo) ** 2
        xf = lo + (hi - lo) * (h_a / (h_a - h_b))  # nan: xt is the midpoint
        xt = (xf + math.copysign(delta, mid - xf)
              if delta <= abs(mid - xf) else mid)
        xt = min(max(xt, hi - cap), lo + cap)
        p = min(max(round(xt), lo + 1), hi - 1)
        if first is not None:
            p, first = first, None
        h_p = h(node(p))
        if (h_p < 0.0) == (h_a < 0.0):
            lo, h_a = p, h_p
        else:
            hi, h_b = p, h_p
        cap //= 2
    return 0.5 * (x[lo] + x[hi])


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
    factor vanishes exactly on e^{+-j omega_p}.  At eps = 0, h is 1.  An eps
    whose numerator sums at z = 1 to no more than Horner's rounding bound of
    its coefficients there is rejected: h(1) is lost in that rounding.
    """
    if abs(1.0 + eps) < 1e-12:
        raise PreconditionError("eps = -1 is singular")
    if omega_p <= 0.0 or omega_p >= math.pi:
        raise PreconditionError("omega_p must lie strictly inside (0, pi)")
    if eps == 0.0:
        return RationalTF([1.0], [1.0])
    mu = -eps / (1.0 + eps) * 0.25 / (2.0 - 2.0 * math.cos(omega_p))
    den = Polynomial([1.0, -1.0, 0.25])
    num = den + mu * Polynomial([1.0, -2.0 * math.cos(omega_p), 1.0])
    if not abs(math.fsum(num.coeffs)) > _horner_bound(num.coeffs, 1.0):
        raise PreconditionError(
            f"eps = {eps}: h(1) = 1/(1 + eps) is below the rounding of "
            f"the shaper's coefficients")
    return RationalTF(num, den)


def _dc_gain(g: RationalTF) -> float:
    # exact summation: the shaper's numerator coefficients are large and
    # cancel heavily at z = 1
    return math.fsum(g.num.coeffs) / math.fsum(g.den.coeffs)


def fhn_perturbation(e_o: float, g_eo: RationalTF, eps: float) -> RationalTF:
    """Shaped perturbation (1 + eps) h delta_f with the DC gain pinned at e_o,
    to the rounding bound of the expanded shaped coefficients at z = 1.
    An e_o whose sign the synthesized DC gain does not share is the caller's
    input, so it raises PreconditionError."""
    delta_f = synth_marginal_perturbation(g_eo)
    dc = _dc_gain(delta_f)
    if dc * e_o <= 0.0:
        raise PreconditionError(
            f"synthesized DC gain {dc} does not match the sign of e_o={e_o}")
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
    """DC-equilibrium filter state, one entry per tap."""
    state: list[float] = []
    nxt = 0.0
    for i in range(len(acoef) - 2, -1, -1):
        nxt = bcoef[i + 1] * u - acoef[i + 1] * w + nxt
        state.append(nxt)
    return state[::-1]


_STEP_LOOP = """\
def steps_order_{m}(x, y, b, a, s, A, B, one_minus_a, a_minus_one, d_gain,
                    alpha, current):
    {b_names}, = b
    {a_names}, = a
    {s_unpack}
    xn, yn = x[0], y[0]
    for i in range(1, len(x)):
        w = b0 * yn + {s0}
{state_updates}
        xn, yn = ((A * xn + one_minus_a * (yn + w - current))
                  / (1.0 + a_minus_one * (xn * xn) / 3.0),
                  B * yn + d_gain * (xn + alpha))
        x[i] = xn
        y[i] = yn
        if xn > 1e6 or xn < -1e6:
            del x[i + 1:], y[i + 1:]
            break
"""
_STEP_TAP = "        s{i} = b{j} * yn - a{j} * w + {nxt}"


@functools.cache
def _step_loop(m: int):
    """The FHN step loop for a perturbation filter of order m.

    It fills the buffers x and y from the start in x[0], y[0] and cuts both
    after the step that leaves |x| <= 1e6.  Generated from one template so that the filter coefficients and the
    transposed direct-form state are locals and each tap is one written
    statement; the last tap adds the literal 0.0 where the state runs out.
    """
    s = [f"s{i}" for i in range(m)] + ["0.0"]
    src = _STEP_LOOP.format(
        m=m,
        b_names=", ".join(f"b{i}" for i in range(m + 1)),
        a_names=", ".join(f"a{i}" for i in range(m + 1)),
        s_unpack=f"{', '.join(s[:m])}, = s" if m else "",
        s0=s[0],
        state_updates="\n".join(
            _STEP_TAP.format(i=i, j=i + 1, nxt=s[i + 1]) for i in range(m)))
    namespace: dict = {}
    exec(compile(src, f"<fhn_simulate step loop, order {m}>", "exec"),
         namespace)
    return namespace[f"steps_order_{m}"]


def fhn_simulate(model: FHNModel, delta: RationalTF | None, steps: int,
                 init: tuple[float, float] | None = None) -> Trajectory:
    """Simulate the nonlinear FHN map with an LTI perturbation on y.

    The perturbation filter runs as a transposed direct-form difference
    equation driven by y_n, with its state started at the DC equilibrium of
    the perturbed fixed point so that startup transients do not contaminate
    oscillation verdicts.  Divergence (|x| > 1e6) truncates the trajectory;
    a start beyond it, or not finite, is rejected.  The step loop works on
    Python floats; only loop-invariant values are hoisted, so every step
    rounds exactly as the written expressions do, and it squares by
    multiplication, which IEEE 754 rounds correctly, not by libm's ``pow``.
    It stores the states by index into two ``array("d")`` buffers of
    steps + 1 doubles, allocated before the loop (a ValueError names steps
    where they cannot be), which the trajectory's arrays wrap as they are.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    A, B, D = model.A, model.B, model.D
    alpha, current = model.alpha, model.current

    if delta is None:
        bcoef = np.array([0.0])
        acoef = np.array([1.0])
    else:
        if max(delta.den.roots().sides(1.0), default=-1) >= 0:
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

    xn, yn = float(init[0]), float(init[1])
    if not (abs(xn) <= 1e6 and math.isfinite(yn)):
        raise ValueError(f"init must be finite with |x0| <= 1e6, got {init}")
    try:
        x, y = array("d", [xn]) * (steps + 1), array("d", [yn]) * (steps + 1)
    except (MemoryError, OverflowError):
        raise ValueError(f"steps = {steps}: two buffers of steps + 1 doubles "
                         f"cannot be allocated") from None
    _step_loop(len(a) - 1)(x, y, b, a, state, A, B, 1.0 - A, A - 1.0,
                           D * (1.0 - B), alpha, current)
    # the start passed the check above, so only a step can leave |x| <= 1e6
    return Trajectory(x=np.frombuffer(x), y=np.frombuffer(y),
                      diverged=abs(x[-1]) > 1e6)
