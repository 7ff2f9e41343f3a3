"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Criterion 4 runs the two perturbation panels with documented per-panel
initial deviations: the detuned marginal pair moves the closed-loop
spectral radius by only ~1e-5 per unit step at eps = +-0.05, so over the
pinned 2e5-step horizon the growth side needs a deviation >= 0.01 to cross
the oscillation threshold while the decay side needs <= 0.0025 to fall
below the convergence threshold; no single deviation satisfies both within
the horizon.  Each panel's claim is checked from an initial condition that
makes it observable.
"""

import itertools
import warnings

import numpy as np
from scipy.linalg import expm

from conftest import random_tf
from rirkit.casestudies import (
    MaglevParams,
    highpass,
    maglev_partial_fraction,
    maglev_upper_bound,
    maglev_zoh,
)
from rirkit.nyquist import closed_loop_poles, extended_nyquist_check, marginal_verdict
from rirkit.bounds import (
    allpass_pcr_bound_check,
    construct_real_pole_dominator,
    gain_phase_integral,
    minimum_phase_pcr_bound_check,
    verify_dominance_witness,
)
from rirkit.polycore import Polynomial, from_roots, poly_roots
from rirkit.rir import EXACT_SUFFICIENT, NOT_EXACT, pcr_max_search
from rirkit.transfer import (
    RationalTF,
    _dlog,
    _unwrapped_phase,
    evaluate,
    linf_norm,
    pip_check,
)

PRINTED_G0 = RationalTF([1.5679e-5, -2.5685e-5], [1.0, -2.000985, 1.000994])
PRINTED_GEO_NUM = np.array([1.8767e-5, -2.8769e-5])
PRINTED_GEO_DEN = np.array([1.0, -2.00039, 1.000399])


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fhn_lower_bound():
    norm, omega_p, unique = linf_norm(PRINTED_G0)
    lower = 1.0 / norm
    ok = abs(lower - 0.2868) / 0.2868 < 0.05 and 0.002 <= omega_p <= 0.004 \
        and unique
    _criterion(1, ok,
               f"1/||g|| = {lower:.4f} (target 0.2868 +-5%), "
               f"omega_p = {omega_p:.4f} in [0.002, 0.004]")


def test_criterion_2_fhn_search(fhn_chain):
    res = fhn_chain["result"]
    fp = res.fixed_point
    num = np.array(res.g_eo.num.coeffs)
    den = np.array(res.g_eo.den.coeffs)
    rel_num = np.max(np.abs(num - PRINTED_GEO_NUM) / np.abs(PRINTED_GEO_NUM))
    rel_den = np.max(np.abs(den - PRINTED_GEO_DEN) / np.abs(PRINTED_GEO_DEN))
    ok = (abs(res.e_o - (-0.1192)) < 3e-3
          and abs(fp.xbar - (-0.9389)) < 5e-4
          and abs(fp.ybar - (-0.2986)) < 5e-4
          and rel_num < 1e-3 and rel_den < 1e-3)
    _criterion(2, ok,
               f"e_o = {res.e_o:.5f} (target -0.1192 +-3e-3), fixed point "
               f"({fp.xbar:.5f}, {fp.ybar:.5f}), coefficient deviation "
               f"num {rel_num:.2e} / den {rel_den:.2e} (< 1e-3)")


def test_criterion_3_synthesis(fhn_chain):
    spec = fhn_chain["spec"]
    res = fhn_chain["result"]
    roots = closed_loop_poles(res.g_eo * fhn_chain["delta_f"]).flat
    on_circle = [r for r in roots if abs(abs(r) - 1.0) <= 1e-3]
    inside = [r for r in roots if abs(abs(r) - 1.0) > 1e-3]
    pair_ok = (len(on_circle) == 2
               and abs(on_circle[0] - np.conj(on_circle[1])) < 1e-6
               and all(abs(r) < 1.0 for r in inside))
    ok = (abs(spec.a - (-0.9969)) < 1e-3
          and abs(spec.scale - abs(res.e_o)) < 3e-3
          and pair_ok)
    _criterion(3, ok,
               f"a = {spec.a:.5f} (target -0.9969 +-1e-3), scale = "
               f"{spec.scale:.5f} (target |e_o| +-3e-3), marginal conjugate "
               f"pair on T with {len(inside)} pole(s) inside")


def test_criterion_4_fig2_dichotomy(fhn_fig2):
    # growth panel from fixed_point(e_o).x + 0.05, decay panel from + 0.002
    t_osc = fhn_fig2["osc_at_eo"]
    amp_osc = t_osc.last_quarter_amplitude()
    t_conv = fhn_fig2["conv"]
    amp_conv = t_conv.last_quarter_amplitude()
    ok = amp_osc > 0.1 and amp_conv < 1e-3
    _criterion(4, ok,
               f"eps=-0.05 amplitude {amp_osc:.3f} (> 0.1), "
               f"eps=+0.05 amplitude {amp_conv:.2e} (< 1e-3), 2e5 steps")


def test_criterion_5_pcr_ceiling_grid():
    omegas = np.linspace(0.1, np.pi - 0.1, 9)
    thetas = np.linspace(-np.pi + 0.1, np.pi - 0.1, 9)
    worst_excess = -np.inf
    worst_gap = 0.0
    for omega_p, theta_p in itertools.product(omegas, thetas):
        ceiling = -abs(np.sin(theta_p) / np.sin(omega_p))
        best, desc = pcr_max_search(omega_p, theta_p, max_order=4,
                                    trials=20000, seed=0)
        worst_excess = max(worst_excess, best - ceiling)
        worst_gap = max(worst_gap,
                        abs(desc["bare_first_order_rate"] - ceiling))
    ok = worst_excess <= 1e-6 and worst_gap <= 1e-9
    _criterion(5, ok,
               f"9x9 grid, 20000 trials: max search excess over the "
               f"first-order ceiling {worst_excess:.2e} (<= 1e-6), matched "
               f"first-order gap {worst_gap:.2e} (<= 1e-9)")


def _zoh_oracle(params: MaglevParams, z: complex) -> complex:
    k, p, tau, T = params.k, params.p, params.tau, params.T
    a2, a1, a0 = 1.0 / tau, -(p**2), -(p**2) / tau
    A = np.array([[-a2, -a1, -a0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    M = np.zeros((4, 4))
    M[:3, :3] = A
    M[0, 3] = 1.0
    Md = expm(M * T)
    Ad, Bd = Md[:3, :3], Md[:3, 3:]
    C = np.array([[0.0, 0.0, -k / tau]])
    return complex((C @ np.linalg.solve(z * np.eye(3) - Ad, Bd))[0, 0])


def test_criterion_6_maglev_chain():
    params = MaglevParams(k=1.0, p=1.0, tau=0.1, T=0.01)
    g = maglev_zoh(params)

    zoh_err = 0.0
    for th in np.linspace(0.05, 3.1, 32):
        z = 2.0 * np.exp(1j * th)
        want = _zoh_oracle(params, z)
        zoh_err = max(zoh_err,
                      abs(evaluate(g, z) - want) / (1.0 + abs(want)))
    static = maglev_partial_fraction(params, 1.0 + 0.0j).real
    theta0 = float(np.imag(_dlog(g, 0.0)))

    from rirkit.rir import exact_rir_analyze
    verdict = exact_rir_analyze(g)
    bound = maglev_upper_bound(params, 0.01)
    a = bound.abar * (1.0 - 1e-6)
    comp_verdict = exact_rir_analyze(g * highpass(a, a + bound.P_eps))

    ratios = [maglev_upper_bound(MaglevParams(k=1, p=1, tau=0.01, T=T),
                                 0.01).ratio for T in (0.1, 0.01, 0.001)]

    eps = 0.01
    b_lim = maglev_upper_bound(MaglevParams(k=1, p=1, tau=1e-6, T=0.01), eps)
    kappa = (2.0 - np.exp(0.01) - np.exp(-0.01)) / 2.0
    one = 1.0 + eps
    limit = 2.0 * one**2 / (1.0 - 4.0 / kappa - one**2)
    limit_err = abs(b_lim.P_eps / b_lim.abar - limit) / abs(limit)

    ok = (zoh_err <= 1e-8
          and abs(static - 1.0) <= 1e-12
          and theta0 < 0.0
          and verdict.status == NOT_EXACT
          and comp_verdict.status == EXACT_SUFFICIENT
          and ratios[0] > ratios[1] > ratios[2] > 1.0
          and limit_err <= 1e-3)
    _criterion(6, ok,
               f"ZOH oracle err {zoh_err:.1e} (<= 1e-8), g_d(1)-1 = "
               f"{static - 1.0:.1e} (<= 1e-12), theta'(0) = {theta0:.2f} < 0, "
               f"verdicts {verdict.status}/{comp_verdict.status}, ratios "
               f"{[f'{r:.6f}' for r in ratios]} decreasing, tau->0 limit err "
               f"{limit_err:.1e} (<= 1e-3)")


def test_criterion_7_bound_suites():
    rng = np.random.default_rng(2024)

    allpass_bound_ok = 0
    for _ in range(200):
        order = int(rng.integers(0, 4))
        a = rng.uniform(-0.95, 0.95, order)
        num = from_roots([], 1.0 if rng.uniform() < 0.5 else -1.0)
        den = from_roots([], 1.0)
        for ai in a:
            num = num * Polynomial([ai, 1.0])
            den = den * Polynomial([1.0, ai])
        f = RationalTF(num, den)
        omega = float(rng.uniform(0.05, np.pi - 0.05))
        if allpass_pcr_bound_check(f, omega):
            allpass_bound_ok += 1

    dominance_ok = 0
    for _ in range(200):
        alpha_c = float(rng.uniform(0.02, 0.98))
        beta_c = float(rng.uniform(-1, 1)) * 2.0 * np.sqrt(alpha_c) * 0.999
        omega = float(rng.uniform(0.05, np.pi - 0.05))
        w = construct_real_pole_dominator(alpha_c, beta_c, omega)
        phase_ok, margin = verify_dominance_witness(w)
        if phase_ok and margin > 0.0:
            dominance_ok += 1

    minphase_ok = 0
    integral_ok = 0
    done6 = done_int = 0
    while done6 < 20 or done_int < 20:
        # biproper resonant minimum-phase constructions
        rho = float(rng.uniform(0.6, 0.93))
        th = float(rng.uniform(0.4, 2.7))
        zeros = [float(rng.uniform(-0.8, 0.8)) for _ in range(2)]
        den = from_roots([rho * np.exp(1j * th), rho * np.exp(-1j * th)])
        num = from_roots(zeros, 1.0)
        f = RationalTF(num, den)
        if evaluate(f, 1.0 + 0.0j).real < 0:
            f = RationalTF(-1.0 * num, den)
        norm, omega_p, unique = linf_norm(f)
        if done6 < 20 and unique and 0.05 < omega_p < np.pi - 0.05 \
                and abs(_unwrapped_phase(f, omega_p)) <= np.pi - 0.1:
            done6 += 1
            if minimum_phase_pcr_bound_check(f):
                minphase_ok += 1
        if done_int < 20:
            wq = float(rng.uniform(0.3, np.pi - 0.3))
            direct = _unwrapped_phase(f, wq)
            est = gain_phase_integral(f, wq)
            done_int += 1
            if abs(est - direct) < 1e-4:
                integral_ok += 1

    ok = (allpass_bound_ok == 200 and dominance_ok == 200 and minphase_ok == 20
          and integral_ok == 20)
    _criterion(7, ok,
               f"real-pole all-pass bound {allpass_bound_ok}/200, witness "
               f"phase-equality+dominance {dominance_ok}/200, minimum-phase "
               f"bounds {minphase_ok}/20, gain-phase integral {integral_ok}/20")


def test_criterion_8_nyquist_soundness(fhn_chain):
    rng = np.random.default_rng(4096)
    nyquist_agree = 0
    verdict_agree = 0
    loops = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while loops < 100:
            g = random_tf(rng, n_stable=2,
                          n_unstable=int(rng.integers(1, 3)), n_zeros=1)
            if not pip_check(g):
                continue
            f = random_tf(rng, n_stable=2, n_unstable=0, n_zeros=1,
                          gain_range=(0.05, 2.0))
            L = g * f
            moduli = [abs(r) for r in closed_loop_poles(L).flat]
            if any(abs(m - 1.0) <= 1e-6 for m in moduli):
                continue
            expected = all(m <= 1.0 + 1e-9 for m in moduli)
            if extended_nyquist_check(L) is expected:
                nyquist_agree += 1
            norm, omega_p, unique = linf_norm(L)
            if 1e-3 < omega_p < np.pi - 1e-3:
                v = marginal_verdict(L, omega_p)
                root_single = _root_single_mode(L)
                if v.single_mode == root_single:
                    verdict_agree += 1
            else:
                verdict_agree += 1
            loops += 1

        # one true single-mode loop from the worked example
        res = fhn_chain["result"]
        L = res.g_eo * fhn_chain["delta_f"]
        omega_p = fhn_chain["verdict"].class_tag.peak_omega
        v = marginal_verdict(L, omega_p)
        synth_ok = v.single_mode and _root_single_mode(L)

    ok = nyquist_agree == 100 and verdict_agree == 100 and synth_ok
    _criterion(8, ok,
               f"extended-criterion vs roots {nyquist_agree}/100, "
               f"single-mode verdicts vs roots {verdict_agree}/100, "
               f"synthesized marginal loop single-mode: {synth_ok}")


def _root_single_mode(L, tol: float = 1e-6) -> bool:
    rs = closed_loop_poles(L)
    boundary = [(r, m) for r, m in zip(rs.roots, rs.multiplicities)
                if abs(abs(r) - 1.0) <= tol]
    outside = [r for r in rs.roots if abs(r) > 1.0 + tol]
    if outside or not boundary or any(m != 1 for _, m in boundary):
        return False
    pts = sorted((r for r, _ in boundary), key=lambda r: r.imag)
    if len(pts) == 1:
        return abs(pts[0].imag) <= tol
    return len(pts) == 2 and abs(pts[0] - np.conj(pts[1])) <= 10 * tol


def test_criterion_9_numerical_hygiene():
    rng = np.random.default_rng(777)
    h = 1e-6
    fd_ok = 0
    for _ in range(1000):
        g = random_tf(rng, n_stable=2, n_unstable=int(rng.integers(0, 2)),
                      n_zeros=int(rng.integers(0, 3)))
        w = float(rng.uniform(0.05, np.pi - 0.05))
        q = complex(_dlog(g, w))
        va = evaluate(g, np.exp(1j * (w - h)))
        vb = evaluate(g, np.exp(1j * (w + h)))
        fd_gain = (np.log(abs(vb)) - np.log(abs(va))) / (2 * h)
        fd_phase = np.angle(vb / va) / (2 * h)
        if (abs(q.real - fd_gain) <= 1e-4 * (1.0 + abs(fd_gain))
                and abs(q.imag - fd_phase) <= 1e-4 * (1.0 + abs(fd_phase))):
            fd_ok += 1

    recon_ok = 0
    for _ in range(60):
        deg = int(rng.integers(1, 13))
        coeffs = rng.uniform(-1, 1, deg + 1)
        coeffs[0] = rng.uniform(0.5, 1.5) * (1.0 if coeffs[0] >= 0 else -1.0)
        p = Polynomial(coeffs)
        rebuilt = from_roots(poly_roots(p).flat, leading=p.coeffs[0])
        scale = np.max(np.abs(p.coeffs))
        if np.max(np.abs(np.array(rebuilt.coeffs)
                         - np.array(p.coeffs))) <= 1e-6 * scale:
            recon_ok += 1

    ok = fd_ok == 1000 and recon_ok == 60
    _criterion(9, ok,
               f"analytic vs finite-difference rates {fd_ok}/1000 at rel "
               f"1e-4, root-reconstruction (deg <= 12) {recon_ok}/60 at 1e-6")
