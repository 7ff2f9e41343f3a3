import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rirkit.nyquist as nyquist
from conftest import brute_force_crossings, random_tf
from rirkit.errors import DegenerateCrossingError, PreconditionError
from rirkit.nyquist import (
    ContourSpec,
    closed_loop_poles,
    crossing_counts,
    extended_nyquist_check,
    marginal_verdict,
)
from rirkit.polycore import Polynomial, from_roots
from rirkit.rir import allpass_phase_match, synth_marginal_perturbation
from rirkit.transfer import (
    RationalTF,
    linf_norm,
    logderiv,
    pip_check,
    unstable_pole_count,
)


def test_constant_loop_has_no_crossings():
    rep = crossing_counts(RationalTF([0.5], [1.0]), ContourSpec(epsilon=0.01))
    assert (rep.nu_plus, rep.nu_minus, rep.nu_o, rep.encirclements_cw) \
        == (0, 0, 0, 0)


def test_crossings_match_dense_sampling_oracle():
    L = RationalTF([2.0], [1.0, -0.5])
    rep = crossing_counts(L, ContourSpec(epsilon=0.01))
    up, down = brute_force_crossings(L, 0.01)
    assert (rep.nu_plus, rep.nu_minus) == (up, down)


def test_crossings_match_oracle_random_loops():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 12:
        L = random_tf(rng, n_stable=2, n_unstable=int(rng.integers(0, 3)),
                      n_zeros=2, gain_range=(0.5, 4.0))
        eps = float(rng.choice([0.003, 0.01, 0.03]))
        rep = crossing_counts(L, ContourSpec(epsilon=eps))
        up, down = brute_force_crossings(L, eps)
        assert (rep.nu_plus, rep.nu_minus) == (up, down)
        checked += 1
    # near-contour: a pole pair 3e-4..1e-3 off the evaluation circle, where
    # the curve swings far out and back within a milliradian
    for gap in (1e-3, -1e-3, 3e-4, -3e-4):
        L = random_tf(rng, n_stable=2, n_unstable=1, n_zeros=2,
                      gain_range=(0.5, 4.0))
        eps = float(rng.choice([0.0, 0.01]))
        r = (1.0 + gap) / (1.0 - eps)
        th = float(rng.uniform(0.2, np.pi - 0.2))
        L = RationalTF(L.num, L.den * from_roots([r * np.exp(1j * th),
                                                  r * np.exp(-1j * th)]))
        rep = crossing_counts(L, ContourSpec(epsilon=eps))
        assert (rep.nu_plus, rep.nu_minus) == brute_force_crossings(L, eps)


def test_crossing_at_critical_point_needs_a_window():
    L = RationalTF([0.5], [1.0, -0.5])  # L(1) = 1 exactly
    with pytest.raises(DegenerateCrossingError):
        crossing_counts(L, ContourSpec(epsilon=0.0))
    rep = crossing_counts(L, ContourSpec(epsilon=0.0), exclude_near_one=1e-4)
    assert (rep.nu_plus, rep.nu_minus) == (0, 0)


def test_nu_identity_and_encirclement_duality():
    rng = np.random.default_rng(103)
    for _ in range(10):
        L = random_tf(rng, n_stable=2, n_unstable=1, n_zeros=1)
        rep = crossing_counts(L, ContourSpec(epsilon=0.01))
        assert rep.nu_o == rep.nu_plus - rep.nu_minus
        assert rep.encirclements_cw == -rep.nu_o


def test_closed_loop_pole_shift():
    rs = closed_loop_poles(RationalTF([0.5], [1.0, -2.0]))
    assert len(rs.flat) == 1
    assert abs(rs.flat[0] - 2.5) < 1e-12


def test_closed_loop_small_gain_stays_inside():
    rng = np.random.default_rng(107)
    for _ in range(10):
        L = random_tf(rng, n_stable=3, n_unstable=0, n_zeros=1)
        norm = linf_norm(L).norm
        Ls = (0.9 / norm) * L
        roots = closed_loop_poles(Ls).flat
        assert all(abs(r) < 1.0 for r in roots)


def test_extended_nyquist_unstable_loop_detected():
    assert extended_nyquist_check(RationalTF([2.0], [1.0, -2.0])) is False


def test_extended_nyquist_agrees_with_roots_on_random_loops():
    rng = np.random.default_rng(109)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the contour count must agree too
        while checked < 25:
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
            assert extended_nyquist_check(L) is expected
            checked += 1


def test_marginal_verdict_synthesized_touch():
    # stable resonant plant scaled and phase-matched so the loop grazes 1
    den = from_roots([0.9 * np.exp(1.1j), 0.9 * np.exp(-1.1j), 0.3])
    g = RationalTF(Polynomial([1.0, 0.2]), den)
    norm, omega_p, unique = linf_norm(g)
    assert unique and 0.0 < omega_p < np.pi
    theta = logderiv(g, omega_p).phase
    f = allpass_phase_match(omega_p, -theta)
    L = (1.0 / norm) * (g * f.to_tf())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # certificate needs n >= 1; roots rule
        v = marginal_verdict(L, omega_p)
    assert v.marginal and v.single_mode
    assert v.mode == "conjugate_pair"
    roots = closed_loop_poles(L).flat
    assert all(abs(r) <= 1.0 + 1e-9 for r in roots)
    assert sum(1 for r in roots if abs(abs(r) - 1.0) <= 1e-6) == 2


def test_marginal_verdict_repeated_boundary_root():
    # built so den - num = (z-1)^2 (z-0.5) with one unstable open-loop pole
    char = from_roots([1.0, 1.0, 0.5])
    den = from_roots([2.0, 0.5j, -0.5j])
    num = den - char
    L = RationalTF(num, den)
    assert unstable_pole_count(L) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = marginal_verdict(L, 0.0)
    assert v.all_in_closed_disk
    assert not v.marginal
    assert not v.single_mode
    boundary = dict(v.boundary_roots)
    assert boundary[max(boundary, key=lambda r: r.real)] == 2


def test_marginal_verdict_precondition():
    g = RationalTF([1.0], [1.0, -2.0])
    with pytest.raises(PreconditionError):
        marginal_verdict(g, 1.3)  # not a stationary point of the gain


def test_marginal_verdict_matches_roots_random_stable():
    rng = np.random.default_rng(113)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while checked < 8:
            g = random_tf(rng, n_stable=3, n_unstable=0, n_zeros=2)
            norm, omega_p, unique = linf_norm(g)
            if not unique or not 0.05 < omega_p < np.pi - 0.05:
                continue
            theta = logderiv(g, omega_p).phase
            f = allpass_phase_match(omega_p, -theta)
            L = (1.0 / norm) * (g * f.to_tf())
            v = marginal_verdict(L, omega_p)
            moduli = [abs(r) for r in closed_loop_poles(L).flat]
            assert v.all_in_closed_disk is all(m <= 1.0 + 1e-6 for m in moduli)
            assert v.single_mode  # grazing contact at the unique peak
            checked += 1


def test_extended_nyquist_solves_the_loop_once(solved):
    L = RationalTF([0.5, 0.1], from_roots([2.0, 0.3]))
    char = L.den - L.num
    assert extended_nyquist_check(L) is False
    assert sum(p == char for p in solved) == 1


def test_extended_nyquist_counts_on_one_contour(monkeypatch):
    calls = []

    def counting(L, spec, exclude_near_one=0.0):
        calls.append(spec.epsilon)
        return crossing_counts(L, spec, exclude_near_one)

    monkeypatch.setattr(nyquist, "crossing_counts", counting)
    L = RationalTF([0.5, 0.1], from_roots([2.0, 0.3]))
    assert extended_nyquist_check(L) is False
    assert calls == [1e-2]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_unstable=st.integers(0, 3),
       scale=st.floats(0.1, 10.0))
def test_one_contour_count_is_n_iff_closed_loop_in_disk(seed, n_unstable,
                                                        scale):
    rng = np.random.default_rng(seed)
    L = scale * random_tf(rng, n_stable=2, n_unstable=n_unstable, n_zeros=2)
    roots = closed_loop_poles(L).flat
    assume(all(abs(abs(c) - 1.0) > 1e-6 for c in roots))
    n = unstable_pole_count(L)
    eps = nyquist._contour_epsilon(L, roots)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cw = crossing_counts(L, ContourSpec(epsilon=eps)).encirclements_cw
    assert (cw == n) is all(abs(c) <= 1.0 for c in roots)


def test_marginal_verdict_close_to_the_window_without_warning():
    # plant 134 of the seed-0 degree 2-8 family: |L'(omega_c)| ~ 2.2e-3, so
    # 1e-4 away from omega_c the loop is only ~2e-7 from 1 and a value test
    # on the circle would deny condition (i); the closed-loop roots do not
    g = RationalTF([0.15232356125138843, 0.006547873592573569,
                    -0.006694394515692283, 0.004869341667668575],
                   [1.0, 2.7927005520234265, 3.188228580808953,
                    0.13531755887959496, -0.07257133141467284,
                    -0.03952494834625094, -0.0040906632554221604])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = synth_marginal_perturbation(g)
        v = marginal_verdict(g * f, linf_norm(g).omega_p)
    assert v.condition_i and v.single_mode and v.mode == "conjugate_pair"


def test_extended_nyquist_synthesized_marginal_loops(fhn_chain):
    # loop built from the worked example: two unstable poles, marginal pair
    g = fhn_chain["result"].g_eo
    f = fhn_chain["delta_f"]
    assert extended_nyquist_check(g * f) is True


def test_synthesized_loop_no_ray_crossings(fhn_chain):
    # the norm-one loop touches 1 at the peak but never crosses the ray
    L = fhn_chain["result"].g_eo * fhn_chain["delta_f"]
    rep = crossing_counts(L, ContourSpec(epsilon=0.0),
                          exclude_near_one=1e-4)
    assert rep.nu_o == 0


def test_pole_near_contour_shifts_epsilon():
    r = 1.0 / (1.0 - 0.01)  # pole exactly on the evaluation circle
    L = RationalTF([1.0], [1.0, -r])
    with pytest.warns(UserWarning, match="shifting"):
        rep = crossing_counts(L, ContourSpec(epsilon=0.01))
    assert rep.nu_o == rep.nu_plus - rep.nu_minus


def test_printed_perturbation_marginalizes_printed_plant():
    # both factors as printed; boundary tolerance reflects their rounding
    df = RationalTF([0.1192 * 0.9969, -0.1192], [1.0, -0.9969])
    geo = RationalTF([1.8767e-5, -2.8769e-5], [1.0, -2.00039, 1.000399])
    roots = closed_loop_poles(df * geo).flat
    boundary = [r for r in roots if abs(abs(r) - 1.0) <= 1e-3]
    assert len(boundary) == 2
    assert abs(boundary[0] - np.conj(boundary[1])) < 1e-6
    assert all(abs(r) < 1.0 for r in roots
               if abs(abs(r) - 1.0) > 1e-3)
