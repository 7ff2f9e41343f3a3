"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from rirkit.casestudies import FHNModel, Trajectory, fhn_fixed_point
from rirkit.errors import PreconditionError
from rirkit.nyquist import closed_loop_poles
from rirkit.polycore import from_roots
from rirkit.rir import (
    AllPassSpec,
    _ap1_param,
    _require_reachable_phase,
    _wrap_angles,
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

    resid = _wrap_angles(t_goal - phases)
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
