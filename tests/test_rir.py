import numpy as np
import pytest

from rirkit.errors import PreconditionError
from rirkit.nyquist import closed_loop_poles
from rirkit.polycore import Polynomial, from_roots
from rirkit.rir import (
    EXACT_SUFFICIENT,
    NOT_EXACT,
    STRICTLY_GREATER,
    AllPassSpec,
    allpass_phase_match,
    ap1_rate,
    ap2_rate,
    exact_rir_analyze,
    gain_phase_integral,
    allpass_pcr_bound_check,
    construct_real_pole_dominator,
    minimum_phase_pcr_bound_check,
    pcr_max_search,
    rho_threshold,
    stabilizer_search,
    synth_allpass_spec,
    synth_marginal_perturbation,
    verify_dominance_witness,
    wrap_angle,
)
from rirkit.transfer import (
    G1_INTERIOR,
    RationalTF,
    _unwrapped_phase,
    classify,
    evaluate,
    linf_norm,
    logderiv,
)

FHN_G = RationalTF([1.5679e-5, -2.5685e-5], [1.0, -2.000985, 1.000994])


def resonant_unstable_plant(r: float, omega0: float) -> RationalTF:
    """Two unstable poles at r e^{+-j omega0}; unique interior peak."""
    return RationalTF(Polynomial([1.0]),
                      Polynomial([1.0, -2.0 * r * np.cos(omega0), r**2]))


def g1_interior_plant() -> RationalTF:
    den = from_roots([1.5, 0.95 * np.exp(1j), 0.95 * np.exp(-1j)])
    return RationalTF(Polynomial([1.0, 0.0, 0.1]), den)


def minimum_phase_resonant(rng) -> RationalTF | None:
    # biproper: a strictly proper function has a zero at infinity and is
    # therefore not minimum-phase in discrete time
    rho = float(rng.uniform(0.7, 0.95))
    th = float(rng.uniform(0.4, 2.7))
    zeros = [float(rng.uniform(-0.8, 0.8)) for _ in range(2)]
    den = from_roots([rho * np.exp(1j * th), rho * np.exp(-1j * th)])
    num = from_roots(zeros, 1.0)
    f = RationalTF(num, den)
    if evaluate(f, 1.0 + 0.0j).real < 0:
        f = RationalTF(-1.0 * num, den)
    norm, omega_p, unique = linf_norm(f)
    if not unique or not 0.05 < omega_p < np.pi - 0.05:
        return None
    if abs(_unwrapped_phase(f, omega_p)) > np.pi - 0.1:
        return None
    return f


# -- rho threshold -------------------------------------------------------

def test_rho_threshold_values():
    assert abs(rho_threshold(np.pi / 2, np.pi / 2) - 1.0) < 1e-15
    expected = 0.5 / (np.sqrt(3.0) / 2.0)
    assert abs(rho_threshold(np.pi / 3, np.pi / 6) - expected) < 1e-12


def test_rho_threshold_below_phase_rate_for_fhn_plant():
    v = exact_rir_analyze(FHN_G)
    assert v.theta_rate > v.rho_threshold > 0.0


# -- all-pass phase matching ---------------------------------------------

def test_phase_match_pure_delay():
    s = allpass_phase_match(np.pi / 2, -np.pi / 2)
    assert s.c == 1
    assert abs(s.a) < 1e-12


def test_phase_match_zero_phase_is_constant():
    s = allpass_phase_match(1.0, 0.0)
    assert s.c == 1 and s.a is None


def test_phase_match_pi_is_sign_flip():
    s = allpass_phase_match(1.0, np.pi)
    assert s.c == -1 and s.a is None


def test_phase_match_positive_branch():
    s = allpass_phase_match(np.pi / 3, np.pi / 2)
    assert s.c == -1
    assert abs(s.phase_at(np.pi / 3) - np.pi / 2) < 1e-10


def test_phase_match_random_targets():
    rng = np.random.default_rng(211)
    cases = [(float(rng.uniform(0.05, np.pi - 0.05)),
              float(rng.uniform(-np.pi + 1e-6, np.pi))) for _ in range(60)]
    # edges: omega within 1e-3 of 0 and pi, theta within 1e-6 of 0 and +-pi;
    # at 1.1e-13 from them the closed-form |a| rounds to 1 unless clipped
    for omega in (1e-3, 5e-4, 1e-4, np.pi - 1e-4, np.pi - 5e-4, np.pi - 1e-3):
        for theta in (1e-6, -1e-6, 5e-7, -5e-7, 1.1e-13, -1.1e-13,
                      np.pi - 1e-6, -np.pi + 1e-6, np.pi - 5e-7,
                      -np.pi + 5e-7, np.pi - 1.1e-13, 1.0, -2.0):
            cases.append((omega, theta))
    for omega, theta in cases:
        s = allpass_phase_match(omega, theta)
        assert abs(wrap_angle(s.phase_at(omega) - theta)) < 1e-10
        f = s.to_tf()
        v = evaluate(f, complex(np.exp(1j * omega)))
        assert abs(abs(v) - 1.0) < 1e-12


# -- exact RIR analysis ----------------------------------------------------

def test_analyze_fhn_plant_sufficient():
    v = exact_rir_analyze(FHN_G)
    assert v.status == EXACT_SUFFICIENT
    assert abs(v.lower_bound - 0.2868) / 0.2868 < 0.05


@pytest.mark.parametrize("s", [1e-307, 1e-305, 1e-160, 1e-8, 1e8, 1e100])
def test_analyze_gain_scaling(s):
    # g -> s g keeps the status and scales the lower bound by 1/s, down to
    # gains whose coefficients are subnormal
    for num, den in ((FHN_G.num.coeffs, FHN_G.den.coeffs), ([1.0], [1.0, -2.0]),
                     ([0.4, 0.1], np.convolve([1.0, -1.5], [1.0, 0.2]))):
        ref = exact_rir_analyze(RationalTF(num, den))
        v = exact_rir_analyze(RationalTF(s * np.asarray(num), den))
        assert v.status == ref.status == EXACT_SUFFICIENT
        assert abs(v.lower_bound * s / ref.lower_bound - 1.0) < 1e-9


def test_analyze_maglev_not_exact():
    from rirkit.casestudies import MaglevParams, maglev_zoh
    g = maglev_zoh(MaglevParams(k=1, p=1, tau=0.1, T=0.01))
    v = exact_rir_analyze(g)
    assert v.status == NOT_EXACT
    assert v.theta_rate < 0.0


def test_analyze_one_pole_interior_peak_strictly_greater():
    g = g1_interior_plant()
    assert classify(g).class_name == G1_INTERIOR
    v = exact_rir_analyze(g)
    assert v.status == STRICTLY_GREATER


def test_strictly_greater_stabilizer_norms():
    g = g1_interior_plant()
    lower = 1.0 / linf_norm(g).norm
    found = stabilizer_search(g, trials=3000, seed=5)
    assert found, "search should locate at least one stable stabilizer"
    assert all(k > lower for _, k in found)
    # contrapositive spot check: sub-threshold norms never stabilize
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(rng.uniform(-0.99, 0.99))
        c = 1 if rng.uniform() < 0.5 else -1
        f = AllPassSpec(c=c, a=a, scale=lower * (1.0 - 1e-6)).to_tf()
        roots = closed_loop_poles(g * f).flat
        assert max(abs(r) for r in roots) > 1.0 - 1e-9


# -- synthesis -------------------------------------------------------------

def test_synth_fhn_matches_printed_parameters(fhn_chain):
    spec = fhn_chain["spec"]
    assert spec.c == -1
    assert abs(spec.a - (-0.9969)) < 1e-3
    assert abs(spec.scale - 0.1192) < 3e-3


def test_synth_boundary_plant_constant():
    from rirkit.nyquist import extended_nyquist_check

    g = RationalTF([1.0], [1.0, -1.5])  # peak at 0, theta'(0) > 0
    v = exact_rir_analyze(g)
    assert v.status == EXACT_SUFFICIENT
    spec, _ = synth_allpass_spec(g)
    assert spec.a is None and spec.c == -1
    f = synth_marginal_perturbation(g)
    roots = closed_loop_poles(g * f).flat
    assert len(roots) == 1 and abs(roots[0] - 1.0) < 1e-9
    assert extended_nyquist_check(g * f, 1) is True


def test_synth_random_resonant_plants_marginal_pair():
    rng = np.random.default_rng(223)
    done = 0
    while done < 6:
        r = float(rng.uniform(1.05, 1.5))
        w0 = float(rng.uniform(0.5, 2.5))
        g = resonant_unstable_plant(r, w0)
        v = exact_rir_analyze(g)
        if v.status != EXACT_SUFFICIENT:
            continue
        f = synth_marginal_perturbation(g)
        assert abs(linf_norm(f).norm - v.lower_bound) < 1e-9
        roots = closed_loop_poles(g * f).flat
        on_circle = [x for x in roots if abs(abs(x) - 1.0) <= 1e-9]
        assert len(on_circle) == 2
        assert abs(on_circle[0] - np.conj(on_circle[1])) < 1e-6
        assert all(abs(x) < 1.0 for x in roots
                   if abs(abs(x) - 1.0) > 1e-9)
        done += 1


def test_analyze_and_synth_factor_the_plant_once(solved):
    for num, den in ((FHN_G.num.coeffs, FHN_G.den.coeffs),
                     ([0.4, 0.1], np.convolve([1.0, -1.5], [1.0, 0.2]))):
        solved.clear()
        g = RationalTF(num, den)
        assert exact_rir_analyze(g).status == EXACT_SUFFICIENT
        for poly in (g.num, g.den):
            assert sum(p is poly for p in solved) <= 1
        after_analyze = len([p for p in solved if p is g.num or p is g.den])
        synth_marginal_perturbation(g)
        assert len([p for p in solved
                    if p is g.num or p is g.den]) == after_analyze


def test_synth_requires_sufficient_status():
    from rirkit.casestudies import MaglevParams, maglev_zoh
    g = maglev_zoh(MaglevParams())
    with pytest.raises(PreconditionError):
        synth_marginal_perturbation(g)


# -- PCR maximization -------------------------------------------------------

def test_pcr_search_right_angle():
    best, desc = pcr_max_search(np.pi / 2, -np.pi / 2, 4, 20000, 0)
    assert best <= -1.0 + 1e-6
    assert best >= -1.0 - 1e-3
    assert abs(desc["bare_first_order_rate"] - (-1.0)) < 1e-9


def test_pcr_search_boundary_sign_flip():
    best, _ = pcr_max_search(np.pi, np.pi, 4, 20000, 0)
    assert best <= 0.0
    assert best == 0.0


def test_pcr_search_interior_grid_point():
    target = -abs(np.sin(np.pi / 4) / np.sin(np.pi / 3))
    best, _ = pcr_max_search(np.pi / 3, -np.pi / 4, 4, 20000, 0)
    assert target - 1e-3 <= best <= target + 1e-6


def test_pcr_search_deterministic():
    a, _ = pcr_max_search(1.1, -0.7, 4, 5000, 42)
    b, _ = pcr_max_search(1.1, -0.7, 4, 5000, 42)
    assert a == b


def test_pcr_ceiling_small_grid():
    for omega in (0.6, 1.5, 2.6):
        for theta in (-2.5, -0.9, 1.7):
            best, desc = pcr_max_search(omega, theta, 4, 2000, 1)
            ceiling = -abs(np.sin(theta) / np.sin(omega))
            assert best <= ceiling + 1e-6
            assert abs(desc["bare_first_order_rate"] - ceiling) < 1e-9


def test_boundary_pcr_negative_for_low_order_sections():
    rng = np.random.default_rng(229)
    for _ in range(40):
        a = float(rng.uniform(-0.99, 0.99))
        assert float(ap1_rate(a, 0.0)) < 0.0
        assert float(ap1_rate(a, np.pi)) < 0.0
        alpha = float(rng.uniform(0.01, 0.99))
        beta = float(rng.uniform(-1.0, 1.0)) * 2.0 * np.sqrt(alpha) * 0.99
        assert float(ap2_rate(alpha, beta, 0.0)) < 0.0
        assert float(ap2_rate(alpha, beta, np.pi)) < 0.0


# -- supporting bound checks --------------------------------------------------

def test_allpass_pcr_bound_first_order_equality():
    f = AllPassSpec(c=1, a=0.5).to_tf()
    assert allpass_pcr_bound_check(f, np.pi / 2)
    s = logderiv(f, np.pi / 2)
    assert abs(s.phase_rate - (-0.6)) < 1e-12


def test_allpass_pcr_bound_constant():
    assert allpass_pcr_bound_check(RationalTF([1.0], [1.0]), 1.234)
    assert allpass_pcr_bound_check(RationalTF([-2.0], [1.0]), 2.0)


def test_allpass_pcr_bound_random_third_order():
    rng = np.random.default_rng(233)
    for _ in range(25):
        a = rng.uniform(-0.95, 0.95, 3)
        num = from_roots([], 1.0)
        den = from_roots([], 1.0)
        for ai in a:
            num = num * Polynomial([ai, 1.0])
            den = den * Polynomial([1.0, ai])
        f = RationalTF(num, den, cancel_tol=0.0)
        omega = float(rng.uniform(0.1, np.pi - 0.1))
        assert allpass_pcr_bound_check(f, omega)


def test_dominance_example_witnesses():
    for alpha_c, beta_c, omega in ((0.5, 0.0, np.pi / 2),
                                   (0.25, 0.5, np.pi / 3)):
        w = construct_real_pole_dominator(alpha_c, beta_c, omega)
        phase_ok, margin = verify_dominance_witness(w)
        assert phase_ok
        assert margin > 0.0


def test_dominance_scaling_endpoint_formula():
    # at lambda = u1 the real-pole coefficient hits -1, so the discriminant
    # condition holds strictly there
    rng = np.random.default_rng(239)
    for _ in range(20):
        alpha_c = float(rng.uniform(0.05, 0.95))
        beta_c = float(rng.uniform(-1, 1)) * 2.0 * np.sqrt(alpha_c) * 0.99
        omega = float(rng.uniform(0.2, np.pi - 0.2))
        u1 = 2.0 / (1.0 - alpha_c)
        alpha_r = 1.0 + u1 * (alpha_c - 1.0)
        beta_r = -2.0 * np.cos(omega) + u1 * (beta_c + 2.0 * np.cos(omega))
        assert abs(alpha_r + 1.0) < 1e-12
        assert beta_r**2 - 4.0 * alpha_r > 0.0


def test_minimum_phase_bound_constant_equality():
    assert minimum_phase_pcr_bound_check(RationalTF([2.0], [1.0]))


def test_minimum_phase_bound_resonant_example():
    den = from_roots([np.exp(1j) / 1.2, np.exp(-1j) / 1.2])
    f = RationalTF(from_roots([0.3, 0.1]), den)
    assert minimum_phase_pcr_bound_check(f)


def test_minimum_phase_bound_random():
    rng = np.random.default_rng(241)
    done = 0
    while done < 10:
        f = minimum_phase_resonant(rng)
        if f is None:
            continue
        assert minimum_phase_pcr_bound_check(f)
        done += 1


def test_gain_phase_integral_constant():
    assert abs(gain_phase_integral(RationalTF([1.0], [1.0]), 1.0)) < 1e-10


def test_gain_phase_integral_first_order_examples():
    f = RationalTF([1.0, 0.5], [1.0, 0.25])
    direct = _unwrapped_phase(f, 1.0)
    assert abs(gain_phase_integral(f, 1.0) - direct) < 1e-4
    f2 = RationalTF([1.0, 0.9], [1.0, 0.1])
    direct2 = _unwrapped_phase(f2, 2.0)
    assert abs(gain_phase_integral(f2, 2.0) - direct2) < 1e-4


def test_gain_phase_integral_rejects_nonminimum_phase():
    f = RationalTF([1.0, -1.5], [1.0, 0.2])  # zero outside the disk
    with pytest.raises(PreconditionError):
        gain_phase_integral(f, 1.0)


def test_synthesis_lower_bound_relation():
    # any marginally stabilizing all-pass has norm 1/||g|| exactly
    v = exact_rir_analyze(FHN_G)
    spec, _ = synth_allpass_spec(FHN_G)
    assert abs(spec.scale - v.lower_bound) < 1e-15
    assert spec.scale >= 1.0 / linf_norm(FHN_G).norm - 1e-15
