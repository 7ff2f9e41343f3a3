import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_phase, random_tf
from rirkit.errors import (
    ImproperTransferError,
    NotInGClassError,
    PoleOnCircleError,
    ZeroOnCircleError,
)
from rirkit.polycore import from_roots
from rirkit.transfer import (
    G1_BOUNDARY,
    G2_INTERIOR,
    GN_OTHER,
    RationalTF,
    _dlog,
    _unwrapped_phase,
    classify,
    evaluate,
    linf_norm,
    logderiv,
    pip_check,
    unstable_pole_count,
)

# coefficients as printed for the neural-oscillator example
FHN_G = RationalTF([1.5679e-5, -2.5685e-5], [1.0, -2.000985, 1.000994])


def test_evaluate_simple_pole():
    g = RationalTF([1.0], [1.0, -2.0])
    assert evaluate(g, 3.0 + 0j) == 1.0


def test_evaluate_cancels_common_factor():
    g = RationalTF([1.0, 1.0], [1.0, 1.0])
    assert g.num.degree == 0 and g.den.degree == 0
    for z in (0.5 + 0j, 2.0 + 1j, -3.0 + 0j):
        assert abs(evaluate(g, z) - 1.0) < 1e-12


def test_evaluate_printed_plant_at_one():
    # direct arithmetic on the printed coefficients
    expected = (1.5679e-5 - 2.5685e-5) / (1.0 - 2.000985 + 1.000994)
    got = evaluate(FHN_G, 1.0 + 0j)
    assert abs(got - expected) < 1e-9
    assert abs(got - (-1.1118)) < 1e-3


def test_evaluate_at_pole_raises():
    g = RationalTF([1.0], [1.0, -2.0])
    with pytest.raises(ZeroDivisionError):
        evaluate(g, 2.0 + 0j)


def test_improper_rejected():
    with pytest.raises(ImproperTransferError):
        RationalTF([1.0, 0.0, 0.0], [1.0, -0.5])


def test_unstable_pole_count():
    assert unstable_pole_count(RationalTF([1.0], [1.0, -2.0])) == 1
    g = RationalTF([1.0], np.convolve([1.0, -0.5], [1.0, -0.9]))
    assert unstable_pole_count(g) == 0
    assert unstable_pole_count(FHN_G) == 2


def test_pole_on_circle_rejected():
    g = RationalTF([1.0], [1.0, -1.0])
    with pytest.raises(PoleOnCircleError):
        unstable_pole_count(g)


def test_pip_vacuous_single_zero_at_infinity():
    assert pip_check(RationalTF([1.0], [1.0, -2.0])) is True


def test_pip_odd_pole_between_zeros():
    # zeros {3, inf}, pole 4 strictly between them
    g = RationalTF([1.0, -3.0], np.convolve([1.0, -2.0], [1.0, -4.0]))
    assert pip_check(g) is False


def test_pip_even_poles_between_zeros():
    # zeros {3, inf}, poles {4, 5} between them
    den = np.convolve(np.convolve([1.0, -4.0], [1.0, -5.0]), [1.0, -0.2])
    g = RationalTF([1.0, -3.0], den)
    assert pip_check(g) is True


def test_logderiv_pure_delay():
    f = RationalTF([1.0], [1.0, 0.0])
    s = logderiv(f, np.pi / 2)
    assert abs(s.phase_rate + 1.0) < 1e-12
    assert abs(s.gain_rate) < 1e-12
    assert abs(s.phase + np.pi / 2) < 1e-12


def test_logderiv_first_order_allpass():
    # closed form: (a^2 - 1)/|e^{j pi/2} + a|^2 with a = 0.5
    f = RationalTF([0.5, 1.0], [1.0, 0.5])
    s = logderiv(f, np.pi / 2)
    assert abs(s.phase_rate - (-0.6)) < 1e-12
    assert abs(s.gain_rate) < 1e-12


def test_logderiv_matches_finite_differences():
    rng = np.random.default_rng(29)
    h = 1e-6
    checked = 0
    while checked < 40:
        g = random_tf(rng, n_stable=2, n_unstable=1, n_zeros=2)
        w = float(rng.uniform(0.05, np.pi - 0.05))
        s = logderiv(g, w)
        va = evaluate(g, np.exp(1j * (w - h)))
        vb = evaluate(g, np.exp(1j * (w + h)))
        fd_gain = (np.log(abs(vb)) - np.log(abs(va))) / (2 * h)
        fd_phase = np.angle(vb / va) / (2 * h)
        assert abs(s.gain_rate - fd_gain) <= 1e-4 * (1.0 + abs(fd_gain))
        assert abs(s.phase_rate - fd_phase) <= 1e-4 * (1.0 + abs(fd_phase))
        checked += 1


def test_linf_norm_monotone_distance():
    g = RationalTF([1.0], [1.0, -2.0])
    norm, omega_p, unique = linf_norm(g)
    assert abs(norm - 1.0) < 1e-12
    assert omega_p == 0.0
    assert unique


def test_linf_norm_printed_plant():
    norm, omega_p, unique = linf_norm(FHN_G)
    assert abs(1.0 / norm - 0.2868) / 0.2868 < 0.05
    assert 0.002 <= omega_p <= 0.004
    assert unique


def test_linf_norm_flat_allpass():
    f = RationalTF([0.3, 1.0], [1.0, 0.3])
    norm, _, unique = linf_norm(f)
    assert abs(norm - 1.0) < 1e-9
    assert not unique


def test_linf_norm_flat_allpass_near_circle():
    # |a| = 1 - 8e-5: the gain spreads 4e-12 relative by rounding alone, so
    # a fixed flatness threshold would refine every noise maximum of a
    # 2^20-point grid
    from rirkit.rir import AllPassSpec

    scale = 0.25005949263246213
    f = AllPassSpec(c=-1, a=-0.9999179530675524, scale=scale).to_tf()
    t0 = time.perf_counter()
    norm, _, unique = linf_norm(f)
    assert time.perf_counter() - t0 < 1.0
    assert abs(norm - scale) <= 1e-9
    assert not unique


def test_linf_norm_never_below_samples():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_tf(rng, n_stable=3, n_unstable=0, n_zeros=2)
        norm = linf_norm(g).norm
        w = rng.uniform(0, np.pi, 1000)
        vals = np.abs(evaluate(g, np.exp(1j * w)))
        assert np.max(vals) <= norm * (1.0 + 1e-9)


def test_classify_printed_plant():
    tag = classify(FHN_G)
    assert tag.class_name == G2_INTERIOR
    assert tag.n_unstable == 2
    assert 0.002 <= tag.peak_omega <= 0.004


def test_classify_boundary():
    tag = classify(RationalTF([1.0], [1.0, -2.0]))
    assert tag.class_name == G1_BOUNDARY
    assert tag.peak_omega == 0.0


def test_classify_three_unstable_poles():
    from rirkit.polycore import from_roots
    den = from_roots([1.5, 1.8 + 0.4j, 1.8 - 0.4j, 0.3])
    g = RationalTF([1.0, 0.5], den)
    assert classify(g).class_name == GN_OTHER


def test_classify_stable_raises():
    with pytest.raises(NotInGClassError):
        classify(RationalTF([1.0], [1.0, -0.5]))


def test_gain_symmetry_and_even_phase_rate():
    rng = np.random.default_rng(59)
    for _ in range(15):
        g = random_tf(rng, n_stable=2, n_unstable=1, n_zeros=1)
        w = float(rng.uniform(0.05, np.pi - 0.05))
        vp = evaluate(g, np.exp(1j * w))
        vm = evaluate(g, np.exp(-1j * w))
        assert abs(abs(vp) - abs(vm)) < 1e-12 * (1.0 + abs(vp))
        assert abs(np.angle(vp) + np.angle(vm)) < 1e-9
        qp = complex(_dlog(g, w))
        qm = complex(_dlog(g, -w))
        assert abs(qp.imag - qm.imag) < 1e-10 * (1.0 + abs(qp.imag))


def test_allpass_zero_gain_rate_everywhere():
    rng = np.random.default_rng(61)
    for _ in range(10):
        a = float(rng.uniform(-0.95, 0.95))
        f = RationalTF([a, 1.0], [1.0, a])
        w = rng.uniform(0.01, np.pi - 0.01, 50)
        q = _dlog(f, w)
        vals = np.abs(evaluate(f, np.exp(1j * w)))
        assert np.max(np.abs(np.log(vals))) < 1e-9
        assert np.max(np.abs(np.real(q))) < 1e-9


@given(st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_phase_unwrap_consistency_first_order(a, omega):
    # unwrapped phase of a stable first-order lag equals the principal arg
    f = RationalTF([1.0], [1.0, -a])
    s = logderiv(f, omega)
    expected = -np.angle(np.exp(1j * omega) - a)
    assert abs(s.phase - expected) < 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_closed_form_phase_matches_dense_unwrap(seed, omega):
    rng = np.random.default_rng(seed)
    n_stable, n_unstable = int(rng.integers(0, 4)), int(rng.integers(0, 3))
    g = random_tf(rng, n_stable=n_stable, n_unstable=n_unstable,
                  n_zeros=int(rng.integers(0, n_stable + n_unstable + 1)))
    assert abs(_unwrapped_phase(g, omega) - dense_phase(g, omega)) < 1e-9


def test_phase_rejects_circle_zero_only_inside_the_path():
    # zeros at e^{+-j}; the path [0, omega] meets them once |omega| >= 1
    g = RationalTF([1.0, -2.0 * np.cos(1.0), 1.0], from_roots([2.0, 0.5]))
    for omega in (0.5, -0.9):
        assert abs(_unwrapped_phase(g, omega) - dense_phase(g, omega)) < 1e-9
    for omega in (1.0, 1.5, -2.0):
        with pytest.raises(ZeroOnCircleError):
            _unwrapped_phase(g, omega)
    # a zero at -1 leaves every omega below pi defined
    h = RationalTF([1.0, 1.0], [1.0, -2.0])
    assert abs(_unwrapped_phase(h, 3.0) - dense_phase(h, 3.0)) < 1e-9
    with pytest.raises(ZeroOnCircleError):
        _unwrapped_phase(h, np.pi)


def test_cancelling_constructor_keeps_the_factors(solved):
    g = RationalTF(np.convolve([1.0, -0.5], [1.0, -0.3]),
                   np.convolve([1.0, -0.5], [1.0, -1.6, -0.8]))
    assert g.num.degree == 1 and g.den.degree == 2
    assert sorted(g.poles(), key=lambda z: z.real) == pytest.approx([-0.4, 2.0])
    assert g.zeros() == pytest.approx((0.3,))
    assert len(solved) == 2  # the given num and den, not the cancelled pair
