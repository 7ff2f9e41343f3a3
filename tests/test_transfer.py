import cmath
import math
import time
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numpy.polynomial import chebyshev as cheb

from conftest import (
    dense_peak,
    dense_phase,
    low_degree_polynomials,
    random_series,
    random_tf,
    reference_gain_rate,
    reference_log_slope,
    reference_partition,
    reference_stationary_series,
    reference_u_to_t,
    reference_unwrapped_phase,
)
import rirkit.transfer as transfer
from rirkit.casestudies import FHNModel, fhn_linearize
from rirkit.errors import (
    ImproperTransferError,
    NotInGClassError,
    PoleOnCircleError,
    ZeroOnCircleError,
)
from rirkit.polycore import Polynomial, _horner_bound, from_roots, poly_eval
from rirkit.transfer import (
    G1_BOUNDARY,
    G2_INTERIOR,
    GN_OTHER,
    RationalTF,
    _chebval,
    _dlog,
    _gain_rate,
    _partition,
    _stationary_series,
    _trim_to_rounding,
    _u_to_t,
    _unwrapped_phase,
    cancel_common_roots,
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
    assert g.num.degree == 1 and g.den.degree == 1  # the constructor keeps it
    g = cancel_common_roots(g)
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
    with pytest.raises(PoleOnCircleError):
        evaluate(g, 2.0 + 0j)
    with pytest.raises(PoleOnCircleError):
        evaluate(g, np.array([0.5, 2.0 + 0j]))


def test_improper_rejected():
    with pytest.raises(ImproperTransferError):
        RationalTF([1.0, 0.0, 0.0], [1.0, -0.5])


def test_unstable_pole_count():
    assert unstable_pole_count(RationalTF([1.0], [1.0, -2.0])) == 1
    g = RationalTF([1.0], np.convolve([1.0, -0.5], [1.0, -0.9]))
    assert unstable_pole_count(g) == 0
    assert unstable_pole_count(FHN_G) == 2


def test_close_pair_across_the_circle_keeps_its_unstable_pole():
    # the stored coefficients' 50-digit roots are 1 + 3.03e-8 and
    # 1 - 4.03e-8: one pole outside the circle, or a disk on it
    g = RationalTF([1.0], np.poly([1 - 4e-8, 1 + 3e-8]))
    try:
        n = unstable_pole_count(g)
    except PoleOnCircleError:
        return
    assert n == 1


@pytest.mark.parametrize("modulus", [1.0, 1.5])
def test_close_pole_pairs_agree_with_50_digit_roots(modulus):
    # real pairs on either half-axis and pairs of conjugate pairs, 1e-10 to
    # 1e-5 apart about |z| = modulus: each cluster's disk holds as many of
    # the stored coefficients' 50-digit roots as its multiplicity, and the
    # unstable count is theirs unless a disk reaches the circle
    rng = np.random.default_rng(7)
    for _ in range(40):
        gap = 10.0 ** rng.uniform(-10.0, -5.0)
        r = modulus + gap * rng.uniform(-1.0, 1.0)
        a, b = r - 0.5 * gap, r + 0.5 * gap
        th = rng.choice([0.0, math.pi, rng.uniform(0.1, 3.0)])
        poles = [a * np.exp(1j * th), b * np.exp(1j * th)]
        if 0.0 < th < math.pi:
            poles += [np.conj(p) for p in poles]
        g = RationalTF([1.0], np.poly(poles).real)
        with mpmath.workdps(50):
            exact = [complex(z) for z in mpmath.polyroots(
                g.den.coeffs, maxsteps=200, extraprec=200)]
        rs = g.den.roots()
        for c, m in zip(rs.roots, rs.multiplicities):
            rho = rs.radii[rs.flat.index(c)]
            assert sum(abs(z - c) <= rho for z in exact) >= m
        try:
            n = unstable_pole_count(g)
        except PoleOnCircleError:
            assert 0 in rs.sides(1.0)
            continue
        assert n == sum(abs(z) > 1.0 for z in exact)


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


@pytest.mark.parametrize("delta", [1e-6, 1e-9])
def test_linf_norm_nearly_flat_is_not_flat(delta):
    # gain 1 - delta at omega = 0 rising to 1 + delta/3 at pi: far above
    # rounding, so the peak is at pi, not the flat report at 0
    g = RationalTF([1.0, -0.5 * (1.0 + delta)], [1.0, -0.5])
    norm, omega_p, _ = linf_norm(g)
    assert omega_p == np.pi
    assert abs(norm - (1.0 + delta / 3.0)) <= 1e-14


def test_linf_norm_peak_is_a_rate_root_to_rounding():
    # refined, not just the Chebyshev root mapped back through arccos:
    # A'(omega_p) is at the rounding floor of its sum over the factors
    rng = np.random.default_rng(43)
    for g in [FHN_G] + [random_tf(rng, 3, 1, 2) for _ in range(40)]:
        _, omega_p, _ = linf_norm(g)
        if not 0.0 < omega_p < np.pi:
            continue
        z = np.exp(1j * omega_p)
        floor = 16 * np.finfo(float).eps * sum(
            abs(1.0 / (z - r)) for r in g.poles() + g.zeros())
        assert abs(float(np.real(_dlog(g, omega_p)))) <= floor


def test_linf_norm_never_below_samples():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_tf(rng, n_stable=3, n_unstable=0, n_zeros=2)
        norm = linf_norm(g).norm
        w = rng.uniform(0, np.pi, 1000)
        vals = np.abs(evaluate(g, np.exp(1j * w)))
        assert np.max(vals) <= norm * (1.0 + 1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.one_of(st.none(), st.floats(min_value=-4.0, max_value=-2.0)))
@settings(max_examples=60, deadline=None)
def test_linf_norm_matches_dense_peak(seed, log_gap):
    # random plants, some with a pole pair 1e-2..1e-4 inside or outside
    # the circle, where the peak is a narrow resonance
    rng = np.random.default_rng(seed)
    n_stable, n_unstable = int(rng.integers(0, 4)), int(rng.integers(0, 3))
    g = random_tf(rng, n_stable=n_stable, n_unstable=n_unstable,
                  n_zeros=int(rng.integers(0, n_stable + n_unstable + 1)))
    if log_gap is not None:
        r = 1.0 + (1.0 if rng.uniform() < 0.5 else -1.0) * 10.0 ** log_gap
        th = float(rng.uniform(0.0, np.pi))
        g = RationalTF(g.num, g.den * from_roots([r * np.exp(1j * th),
                                                  r * np.exp(-1j * th)]))
    norm, omega_p, _ = linf_norm(g)
    # neither side resolves the gain below the rounding bound of Horner's
    # rule on the expanded coefficients, which a 1e-4 gap lifts to ~1e-6
    z = np.exp(1j * omega_p)
    rounding = sum(_horner_bound(p.coeffs, 1.0) / abs(poly_eval(p, z))
                   for p in (g.num, g.den))
    assert abs(norm / dense_peak(g) - 1.0) <= 1e-9 + rounding
    assert abs(evaluate(g, z)) == norm


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=12), st.booleans(),
       st.floats(min_value=-6.0, max_value=6.0), st.none())
@settings(max_examples=60, deadline=None)
@example(0, 0, False, 0.0, fhn_linearize(FHNModel(), -0.1194482421875))
@example(0, 0, False, 0.0, FHN_G)
@example(0, 0, False, 0.0, RationalTF([0.7], [1.0, -1.15, -0.425, 0.375]))
def test_stationary_series_matches_chebyshev_algebra(seed, degree, biproper,
                                                     log_gain, plant):
    # the two-convolution S, and its closed form for at most 5 coefficients
    # (the draws of degree <= 2 and the examples: g_e at the default model's
    # e_o, the printed plant and a constant over a cubic), against P'Q - PQ'
    # by Chebyshev series algebra, for deg num < deg den and deg num = deg den
    rng = np.random.default_rng(seed)
    n_unstable = int(rng.integers(0, degree + 1))
    n_zeros = degree if biproper or not degree else int(rng.integers(0, degree))
    g = plant if plant is not None else random_tf(
        rng, n_stable=degree - n_unstable, n_unstable=n_unstable,
        n_zeros=n_zeros, gain_range=(10.0 ** log_gain,) * 2)
    s, _ = _stationary_series(g)
    ref, majorant = reference_stationary_series(g)
    # a constant plant has no S; the reference keeps one zero coefficient
    s = np.pad(s, (0, len(ref) - len(s)))
    bound = 16 * len(s) * np.finfo(float).eps * majorant
    assert np.all(np.abs(s - ref) <= bound)
    got = linf_norm(g)
    with mock.patch.object(transfer, "_stationary_series",
                           reference_stationary_series):
        want = linf_norm(g)
    assert got.unique == want.unique
    assert abs(got.omega_p - want.omega_p) <= 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_linf_norm_allpass_products_are_flat(seed):
    # S vanishes to rounding for a product of 1-4 real first-order all-pass
    # sections, so its majorant must cover that rounding.  a is uniform:
    # with several poles within ~1e-3 of +-1 the expanded coefficients are
    # no longer that all-pass to 1e-9, and Horner's rule at z = 1 cancels
    rng = np.random.default_rng(seed)
    gain = 10.0 ** rng.uniform(-3.0, 3.0)
    num, den = Polynomial([gain]), Polynomial([1.0])
    for a in rng.uniform(-1.0 + 1e-4, 1.0 - 1e-4, int(rng.integers(1, 5))):
        num, den = num * Polynomial([-a, 1.0]), den * Polynomial([1.0, -a])
    norm, omega_p, unique = linf_norm(RationalTF(num, den))
    assert not unique and omega_p == 0.0
    assert abs(norm - gain) <= 1e-9 * gain


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the sections a = -0.75536 and "
                          "0.75574 (gain 55.71) leave S a constant term "
                          "1.13 times its trim tolerance, so linf_norm "
                          "reports a unique peak at pi on a flat gain")
def test_linf_norm_allpass_products_are_flat_seed_1267291037():
    test_linf_norm_allpass_products_are_flat.hypothesis.inner_test(
        1_267_291_037)


@pytest.mark.parametrize("seed", [
    pytest.param(79164, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 3: the sections a = 0.05015 and -0.05000 "
               "(gain 3.94) read as a unique interior peak at omega_p "
               "2.0617 on an all-pass")),
    pytest.param(101753, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 3: the sections a = 0.84095 and -0.84098 "
               "(gain 0.35) read as a unique peak at omega_p = 0 on an "
               "all-pass")),
])
def test_linf_norm_allpass_products_are_flat_unique_peak_seeds(seed):
    test_linf_norm_allpass_products_are_flat.hypothesis.inner_test(seed)


def test_linf_norm_subnormal_allpass_section_is_flat():
    # one section's pole is the smallest normal double: the gain varies by
    # ~1e-308 relative, far below any peak worth a unique frequency
    t = 2.2250738585072014e-308
    num = Polynomial([-0.5, 1.0]) * Polynomial([-t, 1.0])
    den = Polynomial([1.0, -0.5]) * Polynomial([1.0, -t])
    assert linf_norm(RationalTF(num, den)) == (1.0, 0.0, False)


@pytest.mark.parametrize("num, want", [
    ([1.0, -2.0, 1.0], (0.9789645348753324, 1.367939810696402, True)),
    ([1.0, 2.0, 1.0], (19.99999999999997, 0.0, True)),
])
def test_double_zero_at_an_end_keeps_its_peak_and_crossings(num, want):
    # (z -+ 1)^2 puts S, and V at eps = 0, within rounding of zero at
    # x = +-1, but the rates built on the log-derivative are undefined on
    # that zero and A' does not vanish next to it: the end's midpoint sign
    # must stand, with the parent's peak and no crossing
    import rirkit.nyquist as nyquist

    g = RationalTF(num, np.poly([1.5, 0.5, 0.2]))
    norm, omega_p, unique = linf_norm(g)
    assert abs(norm - want[0]) <= 1e-12 * want[0]
    assert abs(omega_p - want[1]) <= 1e-9 and unique == want[2]
    for eps in (0.0, 0.1):
        report = nyquist.crossing_counts(g, nyquist.ContourSpec(epsilon=eps))
        assert report.nu_plus == report.nu_minus == 0


@pytest.mark.xfail(strict=True, raises=PoleOnCircleError,
                   reason="den(1) is 3.9e-15 to 50 digits, below Horner's "
                          "bound 5.7e-14, so the flat branch's evaluation "
                          "at z = 1 reads as a pole")
def test_linf_norm_allpass_product_near_plus_one_is_flat():
    # four sections with poles 1.5e-4 to 6.7e-4 inside the circle; num is
    # den reversed, so the stored coefficients are all-pass to 50 digits
    num, den = Polynomial([1.0]), Polynomial([1.0])
    for a in (0.9998455632676505, 0.9997810536097078, 0.9998086228495189,
              0.9993324412756811):
        num, den = num * Polynomial([-a, 1.0]), den * Polynomial([1.0, -a])
    norm, omega_p, unique = linf_norm(RationalTF(num, den))
    assert not unique and omega_p == 0.0
    assert abs(norm - 1.0) <= 1e-9


def test_analysis_needs_no_chebyshev_series_algebra(monkeypatch, fhn_chain):
    # S and V come from convolutions: numpy.polynomial's series algebra
    # spends more on argument handling than on arithmetic at these sizes
    from numpy.polynomial import chebyshev as cheb

    from rirkit.rir import exact_rir_analyze, synth_marginal_perturbation

    def forbidden(*args, **kwargs):
        raise AssertionError("Chebyshev series algebra called")

    for name in ("chebmul", "chebder", "chebadd", "chebsub"):
        monkeypatch.setattr(cheb, name, forbidden)
    for g in (FHN_G, fhn_chain["result"].g_eo):
        exact_rir_analyze(g)
        synth_marginal_perturbation(g)


def test_partition_is_chebroots_bit_for_bit():
    # the colleague matrix built in place gives chebroots' roots exactly,
    # numpy's 1- and 2-term cases included; 3 terms are solved in closed
    # form (the next test), drawn here all the same so that every other
    # length sees the same series
    rng = np.random.default_rng(20)
    for n in range(1, 31):
        for _ in range(40):
            c = random_series(rng, n)
            if n == 3:
                continue
            pts, mids = _partition(c)
            want_pts, want_mids = reference_partition(c)
            assert np.array_equal(pts, want_pts)
            assert np.array_equal(mids, want_mids)


def test_partition_of_three_terms_is_chebroots_to_rounding():
    # c0 + c1 x + c2 T2 is a quadratic in x, solved in closed form: each
    # point is chebroots' to the roots' forward error bound, 4 n times the
    # backward error over |V'(r)|, carried through arccos (the largest
    # error seen is 0.68 of the bound without the 4 n)
    rng = np.random.default_rng(24)
    eps = np.finfo(float).eps
    for _ in range(1200):
        c = random_series(rng, 3)
        pts, mids = _partition(c)
        want_pts, _ = reference_partition(c)
        assert len(pts) == len(want_pts)
        assert pts[0] == 0.0 and pts[-1] == np.pi
        assert mids == [0.5 * (a + b) for a, b in zip(pts, pts[1:])]
        roots = cheb.chebroots(c)
        for got, want in zip(pts[1:-1], want_pts[1:-1]):
            x = np.cos(want)
            r = roots[np.argmin(np.abs(roots.real - x))]
            backward = eps * (abs(c[0]) + abs(c[1]) * abs(r)
                              + abs(c[2]) * (2.0 * abs(r) ** 2 + 1.0))
            tol = 4 * 2 * backward / abs(c[1] + 4.0 * c[2] * r)
            assert abs(got - want) <= tol / np.sqrt(1.0 - x * x) + 4 * eps


def test_clenshaw_is_chebval_bit_for_bit():
    rng = np.random.default_rng(21)
    x = np.cos(rng.uniform(0.0, np.pi, 16))
    for n in (1, 2, 3, 5, 12, 30):
        for _ in range(20):
            c = random_series(rng, n)
            got = [_chebval(v, c) for v in x.tolist()]
            assert np.array_equal(got, cheb.chebval(x, c))


def test_u_to_t_is_the_loop_bit_for_bit():
    rng = np.random.default_rng(22)
    for n in range(0, 31):
        c = np.array(random_series(rng, n))
        assert np.array_equal(_u_to_t(c), reference_u_to_t(c))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_phase_in_scalar_arithmetic_matches_numpy_formula(seed, omega):
    rng = np.random.default_rng(seed)
    n_stable, n_unstable = int(rng.integers(0, 5)), int(rng.integers(0, 3))
    g = random_tf(rng, n_stable=n_stable, n_unstable=n_unstable,
                  n_zeros=int(rng.integers(0, n_stable + n_unstable + 1)))
    assert abs(_unwrapped_phase(g, omega)
               - reference_unwrapped_phase(g, omega)) <= 1e-12


def test_peak_search_solves_each_series_once(monkeypatch):
    # one eigensolve per series of four or more terms, roots cached first;
    # shorter series are solved in closed form
    import rirkit.nyquist as nyquist

    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    def solves(series):
        return [(len(series) - 1,) * 2] if len(series) >= 4 else []

    rng = np.random.default_rng(23)
    plants = [FHN_G] + [random_tf(rng, n_stable=3, n_unstable=2, n_zeros=2)
                        for _ in range(5)]
    sizes = []
    for g in plants:
        g.poles(), g.zeros()
        s = _trim_to_rounding(*_stationary_series(g))
        v = _trim_to_rounding(*transfer._sin_series(g, 1.0))
        sizes.append((len(s), len(v)))
        monkeypatch.setattr(np.linalg, "eigvals", counting)
        calls.clear()
        linf_norm(g)
        assert calls == solves(s)
        calls.clear()
        nyquist.crossing_counts(g, nyquist.ContourSpec())
        assert calls == solves(v)
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    # the printed plant's S has three terms and its V two, so it needs no
    # eigensolve; the random plants need both solves
    assert sizes[0] == (3, 2) and min(min(z) for z in sizes[1:]) >= 4


def test_peaks_and_crossings_evaluate_few_points(monkeypatch, fhn_chain):
    # roots, not grids: no polynomial evaluation inside linf_norm or
    # crossing_counts sees more than a handful of points
    import rirkit.nyquist as nyquist
    import rirkit.polycore as polycore
    import rirkit.transfer as transfer
    from rirkit.rir import synth_marginal_perturbation

    loop = FHN_G * synth_marginal_perturbation(FHN_G)
    sizes = []
    real = polycore.poly_eval

    def recording(p, z):
        sizes.append(np.size(z))
        return real(p, z)

    for mod in (transfer, nyquist):
        monkeypatch.setattr(mod, "poly_eval", recording)
    for g in (FHN_G, fhn_chain["result"].g_eo):
        linf_norm(g)
    for eps in (0.0, 0.01):
        nyquist.crossing_counts(loop, nyquist.ContourSpec(epsilon=eps),
                                exclude_near_one=1e-4)
    assert sizes and max(sizes) <= 64


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
        q = np.array([_dlog(f, x) for x in w.tolist()])
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


def test_single_frequency_results_are_python_floats():
    from rirkit.rir import exact_rir_analyze

    v = exact_rir_analyze(FHN_G)
    w = v.class_tag.peak_omega
    for x in (v.theta_p, v.theta_rate, v.lower_bound,
              logderiv(FHN_G, w).phase, _unwrapped_phase(FHN_G, w)):
        assert type(x) is float


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


def test_cancel_common_roots_keeps_the_factors(solved):
    g = cancel_common_roots(RationalTF(
        np.convolve([1.0, -0.5], [1.0, -0.3]),
        np.convolve([1.0, -0.5], [1.0, -1.6, -0.8])))
    assert g.num.degree == 1 and g.den.degree == 2
    assert sorted(g.poles(), key=lambda z: z.real) == pytest.approx([-0.4, 2.0])
    assert g.zeros() == pytest.approx((0.3,))
    assert len(solved) == 2  # the given num and den, not the cancelled pair


def test_cancel_common_roots_gap_is_relative_to_the_root():
    # 5e-7 apart at 100 cancels (within 1e-8 (1 + 100)); 5e-8 apart at 0.1
    # does not (beyond 1e-8 (1 + 0.1))
    g = cancel_common_roots(RationalTF(
        from_roots([100.0 + 5e-7, 0.1 + 5e-8, 0.5]),
        from_roots([100.0, 0.1, 2.0, -0.3])))
    assert g.num.degree == 2 and g.den.degree == 3
    assert max(abs(p) for p in g.poles()) < 3.0
    assert min(abs(z - 0.1) for z in g.zeros()) < 1e-7
    assert min(abs(p - 0.1) for p in g.poles()) < 1e-12


def test_cancel_common_roots_returns_g_when_nothing_cancels():
    for g in (RationalTF([1.0, -0.3], [1.0, -2.5, 1.0]),
              RationalTF([2.0], [1.0, -2.0]), RationalTF([0.0], [1.0, 0.5])):
        assert cancel_common_roots(g) is g


@st.composite
def _low_degree_tf(draw):
    den = draw(low_degree_polynomials())
    return RationalTF(draw(low_degree_polynomials(0, den.degree)), den)


def _outcome(fn, *args):
    """repr of fn(*args), so that equal outcomes agree to the bit, or the
    name of the arithmetic error it raised."""
    try:
        return repr(fn(*args))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__


@given(_low_degree_tf(), st.floats(min_value=0.0, max_value=math.pi))
@settings(max_examples=300, deadline=None)
def test_rates_are_the_generator_sums_bit_for_bit(g, omega):
    # the explicit loops add the same terms in the same order from the int
    # 0, as sum does, and _gain_rate reads the factors once for both sums
    if _outcome(g.poles) == "ValueError" or _outcome(g.zeros) == "ValueError":
        return  # roots beyond doubles: the roots property covers these
    z = cmath.exp(1j * omega)
    assert _outcome(_gain_rate, g, omega) == _outcome(reference_gain_rate,
                                                      g, omega)
    assert _outcome(_dlog, g, omega) == _outcome(
        lambda: 1j * z * reference_log_slope(g, z))


def test_complex_coefficients_raise_rather_than_lose_their_imaginary_part():
    # the pole 2 - 0.3j is not the pole 2
    with pytest.raises(ValueError):
        RationalTF(np.array([1 + 0.5j]), np.array([1.0, -2.0 + 0.3j]))
