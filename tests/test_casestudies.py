import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import mp_gain, reference_fhn_simulate, reference_fig1_rows
import rirkit.casestudies as casestudies
from rirkit.casestudies import (
    FHNModel,
    MaglevParams,
    fhn_fixed_point,
    fhn_inv_norm_sweep,
    fhn_linearize,
    fhn_perturbation,
    fhn_simulate,
    h_shaper,
    highpass,
    highpass_gain_rate,
    highpass_phase_rate,
    maglev_partial_fraction,
    maglev_upper_bound,
    maglev_zoh,
)
from rirkit.errors import PreconditionError, SynthesisVerificationError
from rirkit.nyquist import closed_loop_poles
from rirkit.rir import EXACT_SUFFICIENT, NOT_EXACT, exact_rir_analyze
from rirkit.transfer import (
    G1_BOUNDARY,
    G2_INTERIOR,
    RationalTF,
    _dlog,
    classify,
    evaluate,
    linf_norm,
    unstable_pole_count,
)

PRINTED_G0_NUM = np.array([1.5679e-5, -2.5685e-5])
PRINTED_G0_DEN = np.array([1.0, -2.000985, 1.000994])
PRINTED_GEO_NUM = np.array([1.8767e-5, -2.8769e-5])
PRINTED_GEO_DEN = np.array([1.0, -2.00039, 1.000399])


def zoh_oracle(params: MaglevParams, z: complex) -> complex:
    """Matrix-exponential discretization of the continuous plant."""
    k, p, tau, T = params.k, params.p, params.tau, params.T
    # monic continuous denominator: s^3 + s^2/tau - p^2 s - p^2/tau
    a2, a1, a0 = 1.0 / tau, -(p**2), -(p**2) / tau
    A = np.array([[-a2, -a1, -a0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    B = np.array([[1.0], [0.0], [0.0]])
    C = np.array([[0.0, 0.0, -k / tau]])
    M = np.zeros((4, 4))
    M[:3, :3] = A
    M[:3, 3:] = B
    Md = expm(M * T)
    Ad, Bd = Md[:3, :3], Md[:3, 3:]
    return complex((C @ np.linalg.solve(z * np.eye(3) - Ad, Bd))[0, 0])


# -- maglev -----------------------------------------------------------------

def test_zoh_static_gain_exact():
    for k, p in ((1.0, 1.0), (2.0, 0.5), (0.3, 2.0)):
        params = MaglevParams(k=k, p=p, tau=0.1, T=0.01)
        maglev_zoh(params)  # construction cross-checks the two forms
        got = maglev_partial_fraction(params, 1.0 + 0.0j).real
        assert abs(got - k / p**2) < 1e-12 * max(1.0, k / p**2)


def test_zoh_one_unstable_pole():
    g = maglev_zoh(MaglevParams())
    assert unstable_pole_count(g) == 1


def test_zoh_satisfies_parity_interlacing():
    from rirkit.transfer import pip_check
    assert pip_check(maglev_zoh(MaglevParams(k=1, p=1, tau=0.1, T=0.01)))


def test_zoh_matches_matrix_exponential_oracle():
    params = MaglevParams(k=1, p=1, tau=0.1, T=0.01)
    g = maglev_zoh(params)
    for th in np.linspace(0.05, 3.1, 32):
        z = 2.0 * np.exp(1j * th)
        want = zoh_oracle(params, z)
        got = evaluate(g, z)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_zoh_oracle_parameter_grid():
    grid = itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 2.0),
                             (0.05, 0.1, 0.4), (0.005, 0.01, 0.05))
    for k, p, tau, T in grid:
        params = MaglevParams(k=k, p=p, tau=tau, T=T)
        g = maglev_zoh(params)
        for th in np.linspace(0.3, 2.9, 4):
            z = 2.0 * np.exp(1j * th)
            want = zoh_oracle(params, z)
            assert abs(evaluate(g, z) - want) <= 1e-8 * (1.0 + abs(want))


def test_maglev_bound_on_a_built_plant_is_the_bound():
    # no parameter set of this grid is rejected at eps = 0.01
    grid = itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 2.0),
                             (0.05, 0.1, 0.4), (0.005, 0.01, 0.05))
    for k, p, tau, T in grid:
        params = MaglevParams(k=k, p=p, tau=tau, T=T)
        bound = maglev_upper_bound(params, 0.01)
        assert bound.g_d == maglev_zoh(params)
        a = bound.abar * (1.0 - 1e-6)
        assert bound.compensator == highpass(a, a + bound.P_eps)


def test_gd_property_chain_on_grid():
    for p, tau, T in itertools.product((0.5, 1.0, 2.0), (0.05, 0.1),
                                       (0.005, 0.01)):
        params = MaglevParams(k=1.0, p=p, tau=tau, T=T)
        g = maglev_zoh(params)
        tag = classify(g)
        assert tag.class_name == G1_BOUNDARY
        assert tag.peak_omega == 0.0
        assert float(np.imag(_dlog(g, 0.0))) < 0.0


@pytest.mark.parametrize("T", [0.1, 0.01, 0.001])
def test_maglev_dlog_matches_partial_fractions(T):
    # oracle: the log-derivative from the exact ZOH poles and the expanded
    # numerator; the expanded denominator cancels at z = 1 (den(1) ~ T^2)
    params = MaglevParams(k=1.0, p=1.0, tau=0.01, T=T)
    _, (b2, b1, b0), (ep, em, et) = casestudies._maglev_pieces(params)
    w = np.linspace(0.0, np.pi, 4097)
    z = np.exp(1j * w)
    want = 1j * z * ((2.0 * b2 * z + b1) / ((b2 * z + b1) * z + b0)
                     - (1.0 / (z - ep) + 1.0 / (z - em) + 1.0 / (z - et)))
    q = _dlog(maglev_zoh(params), w)
    assert np.max(np.abs(q - want)) <= 1e-12 * np.max(np.abs(want))


def test_highpass_unity_dc_and_stability():
    f = highpass(0.1, 0.2)
    assert abs(evaluate(f, 1.0 + 0.0j) - 1.0) < 1e-15


def test_highpass_phase_rate_at_zero():
    # substituting omega = 0 into the closed forms gives (b - a)/2
    for a, b in ((0.1, 0.2), (0.5, 1.7), (2.0, 3.5)):
        f = highpass(a, b)
        got = float(np.imag(_dlog(f, 0.0)))
        assert abs(got - (b - a) / 2.0) < 1e-10
        assert abs(highpass_phase_rate(a, b, 0.0) - (b - a) / 2.0) < 1e-12


def test_highpass_rate_formulas_match_logderiv():
    rng = np.random.default_rng(307)
    for _ in range(4):
        a = float(rng.uniform(0.05, 1.5))
        b = a + float(rng.uniform(0.05, 2.0))
        f = highpass(a, b)
        w = rng.uniform(1e-3, np.pi - 1e-3, 100)
        q = _dlog(f, w)
        assert np.max(np.abs(np.real(q) - highpass_gain_rate(a, b, w))) < 1e-9
        assert np.max(np.abs(np.imag(q) - highpass_phase_rate(a, b, w))) < 1e-9


def test_highpass_requires_ordered_parameters():
    with pytest.raises(PreconditionError):
        highpass(0.3, 0.2)


def test_maglev_bound_ratio_exceeds_one():
    bound = maglev_upper_bound(MaglevParams(), 0.01)
    assert bound.ratio > 1.0
    assert bound.P_eps > 0.0 and bound.abar > 0.0


def test_maglev_bound_validation_and_compensated_verdict():
    params = MaglevParams(k=1, p=1, tau=0.1, T=0.01)
    g = maglev_zoh(params)
    assert exact_rir_analyze(g).status == NOT_EXACT
    bound = maglev_upper_bound(params, 0.01)  # validates A' <= 0 internally
    a = bound.abar * (1.0 - 1e-6)
    comp = g * highpass(a, a + bound.P_eps)
    assert exact_rir_analyze(comp).status == EXACT_SUFFICIENT


def test_maglev_bound_abar_matches_curvature_oracle():
    # independent derivation: the binding constraint at omega -> 0 gives
    # abar = -2 A''(0)/P - P/2 with A'' from differentiating the gain rate
    params = MaglevParams(k=1, p=1, tau=0.1, T=0.01)
    g = maglev_zoh(params)
    bound = maglev_upper_bound(params, 0.01)
    h = 1e-5
    app = float(np.real(_dlog(g, h))) / h  # A'(0) = 0
    oracle = -2.0 * app / bound.P_eps - bound.P_eps / 2.0
    assert abs(bound.abar - oracle) / oracle < 1e-4


def test_maglev_ratio_decreases_with_sampling_period():
    ratios = [maglev_upper_bound(MaglevParams(k=1, p=1, tau=0.01, T=T),
                                 0.01).ratio
              for T in (0.1, 0.01, 0.001)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_maglev_small_tau_limit():
    eps = 0.01
    bound = maglev_upper_bound(MaglevParams(k=1, p=1, tau=1e-6, T=0.01), eps)
    kappa = (2.0 - math.exp(0.01) - math.exp(-0.01)) / 2.0
    one = 1.0 + eps
    limit = 2.0 * one**2 / (1.0 - 4.0 / kappa - one**2)
    got = bound.P_eps / bound.abar
    assert abs(got - limit) / abs(limit) < 1e-3


@pytest.mark.parametrize("scale, max_rate", [(3.0, 2.96), (1.5, 1.14)])
def test_maglev_bound_validation_rejects_oversized_compensator(
        monkeypatch, scale, max_rate):
    # the check sees a = scale * abar, past the largest admissible a
    real = casestudies.highpass
    monkeypatch.setattr(casestudies, "highpass",
                        lambda a, b: real(scale * a, scale * a + (b - a)))
    with pytest.raises(SynthesisVerificationError,
                       match="compensated gain rate positive") as exc:
        maglev_upper_bound(MaglevParams(), 0.01)
    got = float(str(exc.value).rsplit("=", 1)[1])
    assert abs(got - max_rate) < 0.01


@pytest.mark.xfail(strict=True, reason="linf_norm misses a peak near omega = 0 "
                   "where S is below its own rounding floor")
@pytest.mark.parametrize("scale", [3.0, 1.5])
def test_linf_norm_finds_near_dc_peak_of_oversized_compensation(scale):
    params = MaglevParams()
    g = maglev_zoh(params)
    bound = maglev_upper_bound(params, 0.01)
    a = scale * bound.abar
    fh = highpass(a, a + bound.P_eps)
    L = RationalTF(g.num * fh.num, g.den * fh.den, cancel_tol=0.0)
    # the 50-digit gain of the stored coefficients peaks inside (0, 2e-3)
    peak = max(mp_gain(L, w) for w in np.linspace(0.0, 2e-3, 201))
    assert peak > 1.0002
    assert linf_norm(L).norm >= (1.0 - 1e-9) * peak


# -- FitzHugh-Nagumo ---------------------------------------------------------

def test_fixed_point_unperturbed():
    fp = fhn_fixed_point(FHNModel(), 0.0)
    assert abs(fp.xbar - (-0.9066)) < 5e-4
    assert abs(fp.ybar - (-0.2582)) < 5e-4
    assert fp.residual < 1e-12


def test_fixed_point_at_printed_eo():
    fp = fhn_fixed_point(FHNModel(), -0.1192)
    assert abs(fp.xbar - (-0.9389)) < 5e-4
    assert abs(fp.ybar - (-0.2986)) < 5e-4


def test_fixed_point_consistency():
    model = FHNModel()
    for e in (-0.2, -0.1, 0.0, 0.1):
        fp = fhn_fixed_point(model, e)
        assert fp.ybar == model.D * (fp.xbar + model.alpha)


def test_linearize_matches_printed_coefficients():
    g = fhn_linearize(FHNModel(), 0.0)
    num = np.array(g.num.coeffs)
    den = np.array(g.den.coeffs)
    assert np.max(np.abs(num - PRINTED_G0_NUM) / np.abs(PRINTED_G0_NUM)) < 1e-3
    assert np.max(np.abs(den - PRINTED_G0_DEN) / np.abs(PRINTED_G0_DEN)) < 1e-3


def test_linearize_matches_printed_geo():
    g = fhn_linearize(FHNModel(), -0.1192)
    num = np.array(g.num.coeffs)
    den = np.array(g.den.coeffs)
    assert np.max(np.abs(num - PRINTED_GEO_NUM) / np.abs(PRINTED_GEO_NUM)) < 1e-3
    assert np.max(np.abs(den - PRINTED_GEO_DEN) / np.abs(PRINTED_GEO_DEN)) < 1e-3


def test_linearize_classifies_interior_two_pole():
    assert classify(fhn_linearize(FHNModel(), 0.0)).class_name == G2_INTERIOR


def test_search_eo(fhn_chain):
    res = fhn_chain["result"]
    assert abs(res.e_o - (-0.1192)) < 3e-3
    assert abs(res.fixed_point.xbar - (-0.9389)) < 5e-4
    assert abs(res.fixed_point.ybar - (-0.2986)) < 5e-4
    tag = fhn_chain["verdict"].class_tag
    assert 0.0024 <= tag.peak_omega <= 0.0036
    assert fhn_chain["verdict"].status == EXACT_SUFFICIENT


def test_inv_norm_sweep_is_the_fig1_curve():
    sweep = fhn_inv_norm_sweep(FHNModel())
    assert len(sweep) == 61
    assert sweep[0][0] == -0.25 and abs(sweep[-1][0] - 0.05) < 1e-12
    for e, inv in sweep:
        assert inv > 0.0
    assert list(sweep) == reference_fig1_rows(FHNModel())


def test_h_shaper_identity_at_zero_eps():
    h = h_shaper(0.0, 0.003)
    assert h.num.degree == 0 and h.den.degree == 0
    assert abs(evaluate(h, 0.7 + 0.2j) - 1.0) < 1e-12


def test_h_shaper_pins_both_frequencies():
    h = h_shaper(0.05, 0.003)
    assert abs(evaluate(h, 1.0 + 0.0j) - 1.0 / 1.05) < 1e-9
    zp = complex(np.exp(1j * 0.003))
    assert abs(evaluate(h, zp) - 1.0) < 1e-12


def test_h_shaper_gain_ordering():
    zp = complex(np.exp(1j * 0.003))
    for eps in (0.05, -0.05):
        h = h_shaper(eps, 0.003)
        h1 = abs(evaluate(h, 1.0 + 0.0j))
        hp = abs(evaluate(h, zp))
        if eps > 0:
            assert h1 < hp
        else:
            assert h1 > hp


def test_perturbation_matches_printed_delta_f(fhn_chain):
    f = fhn_chain["delta_f"]
    # printed: 0.1192 (0.9969 z - 1)/(z - 0.9969)
    num = np.array(f.num.coeffs)
    den = np.array(f.den.coeffs)
    want_num = np.array([0.1192 * 0.9969, -0.1192])
    want_den = np.array([1.0, -0.9969])
    assert np.max(np.abs(num - want_num) / np.abs(want_num)) < 3e-3
    assert np.max(np.abs(den - want_den) / np.abs(want_den)) < 1e-3


def test_perturbation_dc_invariance(fhn_chain):
    res = fhn_chain["result"]
    dc0 = evaluate(fhn_chain["delta_f"], 1.0 + 0.0j).real
    for eps in (-0.05, 0.05):
        d = fhn_perturbation(res.e_o, res.g_eo, eps)
        dc = evaluate(d, 1.0 + 0.0j).real
        assert abs(dc - dc0) < 1e-9


def test_perturbation_dc_check_is_at_rounding_scale(fhn_chain, monkeypatch):
    # last-bit moves of omega_p stay within the rounding bound of the
    # expanded shaped coefficients; a 1e-6 shaper error does not
    res = fhn_chain["result"]
    synthesized = casestudies.synth_marginal_perturbation(res.g_eo)
    monkeypatch.setattr(casestudies, "synth_marginal_perturbation",
                        lambda g: synthesized)
    shaper = casestudies.h_shaper
    for dw in (1e-12, -1e-12, 1e-10, -1e-10):
        monkeypatch.setattr(casestudies, "h_shaper",
                            lambda eps, w, dw=dw: shaper(eps, w + dw))
        for eps in (-0.05, 0.05):
            fhn_perturbation(res.e_o, res.g_eo, eps)

    def off(eps, w):
        h = shaper(eps, w)
        return RationalTF((1.0 + 1e-6) * h.num, h.den)

    monkeypatch.setattr(casestudies, "h_shaper", off)
    with pytest.raises(SynthesisVerificationError, match="DC invariance"):
        fhn_perturbation(res.e_o, res.g_eo, 0.05)


def test_perturbation_spectral_radius_dichotomy(fhn_chain):
    res = fhn_chain["result"]
    radii = {}
    for eps in (-0.05, 0.05):
        d = fhn_perturbation(res.e_o, res.g_eo, eps)
        roots = closed_loop_poles(d * res.g_eo).flat
        radii[eps] = max(abs(r) for r in roots)
    assert radii[-0.05] >= 1.0
    assert radii[0.05] < 1.0


def test_simulate_unperturbed_oscillates():
    model = FHNModel()
    traj = fhn_simulate(model, None, 60000)
    assert traj.verdict() == "oscillating"
    assert traj.last_quarter_amplitude() > 0.1


def test_simulate_perturbed_dichotomy(fhn_fig2):
    t_osc = fhn_fig2["osc"]
    assert t_osc.last_quarter_amplitude() > 0.1
    t_conv = fhn_fig2["conv"]
    assert t_conv.last_quarter_amplitude() < 1e-3


def test_simulate_rejects_unstable_delta():
    with pytest.raises(PreconditionError):
        fhn_simulate(FHNModel(), RationalTF([1.0], [1.0, -1.5]), 100)


def test_simulate_filter_equilibrium_keeps_fixed_point():
    # starting exactly at the fixed point with the filter at DC equilibrium
    # must stay there (no startup transient)
    model = FHNModel()
    res_e = -0.1
    fp = fhn_fixed_point(model, res_e)
    # first-order filter with DC gain res_e
    delta = RationalTF([res_e * 0.4, res_e * 0.6], [1.0, 0.0])
    traj = fhn_simulate(model, delta, 2000, init=(fp.xbar, fp.ybar))
    assert np.max(np.abs(traj.x - fp.xbar)) < 1e-12
    assert np.max(np.abs(traj.y - fp.ybar)) < 1e-12


def test_simulate_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps"):
        fhn_simulate(FHNModel(), None, -1)


# x0 = 0 with y0 = 1e12 leaves the contracting region at the first step
DIVERGING_INIT = (0.0, 1e12)
FIRST_ORDER_DELTA = RationalTF([-0.04, -0.06], [1.0, 0.0])


@pytest.mark.parametrize("delta", [None, FIRST_ORDER_DELTA])
def test_simulate_divergence_truncates(delta):
    traj = fhn_simulate(FHNModel(), delta, 1000, init=DIVERGING_INIT)
    assert traj.diverged
    assert (len(traj.x), len(traj.y), len(traj.w)) == (2, 2, 1)
    assert traj.verdict() == "diverged"


@pytest.mark.parametrize("init", [(1e200, 0.0), (math.nan, 0.0),
                                  (0.0, math.inf)])
def test_simulate_rejects_unusable_init(init):
    # x0**2 would overflow a Python float, and a non-finite start would
    # give NaN trajectories
    with pytest.raises(ValueError, match="init"):
        fhn_simulate(FHNModel(), None, 5, init=init)


def test_simulate_bit_identical_to_numpy_scalar_loop(fhn_chain):
    model, res = fhn_chain["model"], fhn_chain["result"]
    fp_eo = fhn_fixed_point(model, res.e_o)
    # the filter and start of test_simulate_filter_equilibrium_keeps_fixed_point
    res_e = -0.1
    fp_eq = fhn_fixed_point(model, res_e)
    equilibrium_delta = RationalTF([res_e * 0.4, res_e * 0.6], [1.0, 0.0])
    cases = [
        (None, 20000, None),
        (equilibrium_delta, 2000, (fp_eq.xbar, fp_eq.ybar)),
        (equilibrium_delta, 2000, None),
        (RationalTF([-0.03, 0.01], [1.0, -0.5, 0.2]), 5000, None),
        (fhn_chain["delta_osc"], 20000, None),
        (fhn_chain["delta_conv"], 20000, (fp_eo.xbar + 0.002, fp_eo.ybar)),
        (None, 1000, DIVERGING_INIT),
        (FIRST_ORDER_DELTA, 1000, DIVERGING_INIT),
    ]
    for delta, steps, init in cases:
        got = fhn_simulate(model, delta, steps, init=init)
        want = reference_fhn_simulate(model, delta, steps, init=init)
        assert got.diverged == want.diverged
        for name in ("x", "y", "w"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                (delta, steps, init, name)
