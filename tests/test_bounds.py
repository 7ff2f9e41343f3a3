"""The checks of the paper's supporting bounds (``rirkit.bounds``): the
real-pole all-pass bound, real-pole dominance, the minimum-phase bounds at
the peak-gain frequency and the discrete gain-phase relation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_allpass_pcr_bound_check
from rirkit.bounds import (
    allpass_pcr_bound_check,
    construct_real_pole_dominator,
    gain_phase_integral,
    minimum_phase_pcr_bound_check,
    verify_dominance_witness,
)
from rirkit.errors import (
    PreconditionError,
    RirkitError,
    SynthesisVerificationError,
)
from rirkit.polycore import Polynomial, from_roots
from rirkit.rir import AllPassSpec
from rirkit.transfer import (
    RationalTF,
    _unwrapped_phase,
    evaluate,
    linf_norm,
    logderiv,
)


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
        f = RationalTF(num, den)
        omega = float(rng.uniform(0.1, np.pi - 0.1))
        assert allpass_pcr_bound_check(f, omega)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_allpass_pcr_bound_check_matches_the_section_sums(seed):
    # products of 0 to 4 real sections, |a| up to 1 - 1e-6, any gain: the
    # check on the cached factors gives the section sums' outcome
    rng = np.random.default_rng(seed)
    order = int(rng.integers(0, 5))
    a = rng.choice((-1.0, 1.0), order) * (1.0 - 10.0 ** rng.uniform(
        -6.0, 0.0, order))
    num = from_roots([], rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 3))
    den = from_roots([], 1.0)
    for ai in a:
        num = num * Polynomial([ai, 1.0])
        den = den * Polynomial([1.0, ai])
    omega = float(rng.uniform(1e-3, np.pi - 1e-3))

    def outcome(check):
        try:
            return check(RationalTF(num, den), omega)
        except RirkitError as exc:
            return type(exc)

    assert outcome(allpass_pcr_bound_check) == outcome(
        reference_allpass_pcr_bound_check)


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
    assert abs(gain_phase_integral(f, 1.0) - direct) < 1e-10
    f2 = RationalTF([1.0, 0.9], [1.0, 0.1])
    direct2 = _unwrapped_phase(f2, 2.0)
    assert abs(gain_phase_integral(f2, 2.0) - direct2) < 1e-10


def test_gain_phase_integral_on_a_midpoint_node():
    # omega_p = pi/32 is a node of the midpoint rule on [0, pi] with n = 16,
    # where (A(w) - A(omega_p)) / (cos w - cos omega_p) is 0/0
    f = RationalTF([1.0, 0.5], [1.0, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = gain_phase_integral(f, math.pi / 32)
    assert abs(est - _unwrapped_phase(f, math.pi / 32)) < 1e-12


def test_gain_phase_integral_near_the_band_edge_with_clustered_factors():
    # three zeros and two poles of modulus ~0.97 near z = 1, omega_p = 0.05:
    # Horner's log-gain is off by up to 7e-12 here and nodes near omega_p amplify
    # rounded gain differences, so a midpoint rule on [0, pi] never settled
    zeros = [0.13992147410826372, 0.97,
             0.5380495057789559 + 0.8070952417967915j,
             0.5380495057789559 - 0.8070952417967915j,
             0.9696573954382935 + 0.02577858552800973j,
             0.9696573954382935 - 0.02577858552800973j]
    poles = [0.10637752625742217 + 0.39674849902702813j,
             0.10637752625742217 - 0.39674849902702813j, 0.0, 0.0, 0.0, 0.0]
    f = RationalTF(from_roots(zeros), from_roots(poles))
    assert evaluate(f, 1.0 + 0.0j).real > 0.0
    est = gain_phase_integral(f, 0.05)
    assert abs(est - _unwrapped_phase(f, 0.05)) < 1e-12


def test_gain_phase_integral_raises_rather_than_return_unconverged():
    # a real pole 1e-6 inside the circle needs far more than 2^17 nodes
    f = RationalTF([1.0, 0.0], [1.0, -(1.0 - 1e-6)])
    with pytest.raises(SynthesisVerificationError, match="omega_p=1.0"):
        gain_phase_integral(f, 1.0)


def _conjugate_closed_roots(draw):
    """Up to two real roots and one conjugate pair, all of modulus <= 0.97."""
    roots = draw(st.lists(st.floats(-0.97, 0.97), max_size=2))
    if draw(st.booleans()):
        r, th = draw(st.floats(0.0, 0.97)), draw(st.floats(0.0, math.pi))
        roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
    return roots


@settings(max_examples=60, deadline=None)
@given(data=st.data(), omega_p=st.floats(0.05, math.pi - 0.05))
def test_gain_phase_integral_matches_phase_of_minimum_phase_draws(data,
                                                                  omega_p):
    zeros = _conjugate_closed_roots(data.draw)
    poles = _conjugate_closed_roots(data.draw)
    pad = [0.0] * abs(len(zeros) - len(poles))  # biproper
    num = from_roots(zeros + pad if len(zeros) < len(poles) else zeros)
    den = from_roots(poles + pad if len(poles) < len(zeros) else poles)
    if evaluate(RationalTF(num, den), 1.0 + 0.0j).real < 0.0:
        num = -1.0 * num
    f = RationalTF(num, den)
    est = gain_phase_integral(f, omega_p)
    assert abs(est - _unwrapped_phase(f, omega_p)) < 1e-11


def test_gain_phase_integral_rejects_nonminimum_phase():
    f = RationalTF([1.0, -1.5], [1.0, 0.2])  # zero outside the disk
    with pytest.raises(PreconditionError):
        gain_phase_integral(f, 1.0)
