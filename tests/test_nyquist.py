import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rirkit.nyquist as nyquist
import rirkit.transfer as transfer
from conftest import brute_force_crossings, random_tf
from rirkit.errors import (
    DegenerateCrossingError,
    PreconditionError,
    RirkitError,
)
from rirkit.cli import main
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


def test_closed_loop_pole_of_a_high_gain_loop_is_kept():
    # 1e12/(z - 1.5) closes at 1.5 + 1e12: that root, or a typed error
    try:
        roots = closed_loop_poles(RationalTF([1e12], [1.0, -1.5])).flat
    except RirkitError:
        return
    assert len(roots) == 1
    assert abs(roots[0] - (1.5 + 1e12)) <= 1e-9 * (1.5 + 1e12)


def test_extended_nyquist_high_gain_loop_is_unstable_without_warning():
    # the closed-loop pole 1.5 + 1e12 is kept, so the roots and the contour
    # count agree that it lies outside the disk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert extended_nyquist_check(RationalTF([1e12], [1.0, -1.5])) is False


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
    eps = nyquist._contour_epsilon(L, closed_loop_poles(L))
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


# Draws 1062, 1145, 1189, 1329, 1432 and 2158 (0-based) of
# conftest.near_circle_tf from default_rng(12): each synthesized loop has one
# marginal root or pair on the circle and stable roots 1.8e-7 to 9.8e-7
# inside it, next to the plant's own poles at 1 - m2
NEAR_CIRCLE_MARGINAL = [
    ([0.11010126463086951, -2.842288212484739, 1.388763551643243],
     [1.0, 1.7232943376880996, 1.723291807451715, 0.9999994363710154]),
    ([7.126300559885616, -18.381307828758583, 22.183531883115176],
     [1.0, -0.19274539292949572, 1.7708254717451255, -0.1927476995508831,
      0.9999995344010829]),
    ([1.716404462217128, -0.4005526051303051],
     [1.0, 1.2467145117711631e-05, -1.0000020414327984]),
    ([1.0715356359468708, 0.11336155118269248],
     [1.0, -2.198145433340848e-06, -1.0000000304921706]),
    ([5.08065276421573, 3.1000268249321334, 0.028297130332898237],
     [1.0, 3.6883878096264655, 5.376992243115188, 3.6884152050438077,
      1.0000167077643047]),
    ([5.521319358453626, 2.3447772490825773],
     [1.0, -2.1172093988441887e-05, -1.0000079615412965]),
]


@pytest.mark.parametrize("num, den", NEAR_CIRCLE_MARGINAL)
def test_stable_roots_near_the_circle_are_not_boundary_modes(num, den):
    # a closed-loop root is a boundary root where its disk reaches the
    # circle or it lies within BOUNDARY_TOL of e^{+-j omega_c}, not for
    # lying within 1e-6 of the circle
    g = RationalTF(num, den)
    f = synth_marginal_perturbation(g)
    omega_c = linf_norm(g).omega_p
    v = marginal_verdict(g * f, omega_c)
    assert v.single_mode and v.all_in_closed_disk
    roots = [r for r, _ in v.boundary_roots]
    assert len(roots) == (1 if v.mode in ("pole_at_+1", "pole_at_-1") else 2)
    assert all(abs(abs(np.angle(r)) - omega_c) <= 1e-6 for r in roots)


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


def _crossing_outcome(L, epsilon):
    """The crossing counts of L on one contour, or the error's type name."""
    try:
        return crossing_counts(L, ContourSpec(epsilon=epsilon))
    except DegenerateCrossingError as exc:
        return type(exc).__name__


def test_crossing_counts_ignore_an_exact_power_of_two_scale():
    # num and den scaled alike by 2^k are the same loop, and a power of two
    # scales exactly: at k = -1000 den(z) is subnormal near the printed
    # loop's crossing at 1+j0, at k = 1000 the coefficients near overflow
    printed = RationalTF([1.5679e-5, -2.5685e-5], [1.0, -2.000985, 1.000994])
    rng = np.random.default_rng(29)
    loops = [printed * synth_marginal_perturbation(printed)]
    for _ in range(60):
        n_stable, n_unstable = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        loops.append(random_tf(rng, n_stable=n_stable, n_unstable=n_unstable,
                               n_zeros=int(rng.integers(0, n_stable + 1))))
    for L in loops:
        for epsilon in (0.0, 0.01):
            want = _crossing_outcome(L, epsilon)
            for k in (-1000, -800, -400, 400, 800, 1000):
                s = math.ldexp(1.0, k)
                scaled = RationalTF([s * c for c in L.num.coeffs],
                                    [s * c for c in L.den.coeffs])
                assert _crossing_outcome(scaled, epsilon) == want, (L, k)


def test_synth_of_the_printed_plant_makes_few_crossing_newton_evaluations(
        monkeypatch, capsys):
    # at the crossing at omega_p Im L sits at its Horner noise (about 1e-8
    # at slope -1.7e3): the steps stop once Im L is within that bound, where
    # they took 14 and 9 evaluations dithering toward a 1e-15 step
    evaluations, inside = [], []
    real_newton, real_counts = transfer._newton_root, nyquist.crossing_counts

    def newton(f, neg, pos, x):
        def counted(w):
            if inside:
                evaluations.append(w)
            return f(w)
        return real_newton(counted, neg, pos, x)

    def counts(*args, **kwargs):
        inside.append(True)
        try:
            return real_counts(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(transfer, "_newton_root", newton)
    monkeypatch.setattr(nyquist, "crossing_counts", counts)
    plant = ('{"num": [1.5679e-5, -2.5685e-5], '
             '"den": [1.0, -2.000985, 1.000994]}')
    assert main(["synth", "--input", plant]) == 0
    capsys.readouterr()
    assert 0 < len(evaluations) <= 6


def _raw_axis_turns(L, radius):
    """``transfer._axis_turns`` reading Im L as it comes, the rounding noise
    included."""
    def im_rate(w):
        z = radius * complex(np.exp(-1j * w))
        lv = transfer.evaluate(L, z)
        return lv.imag, float((-1j * z * lv * transfer._log_slope(L, z)).imag)

    return transfer._sign_changes(
        *transfer._sin_series(L, radius),
        lambda w, v: -transfer._chebval(math.cos(w), v), im_rate, rising=True)


def test_end_rule_reads_im_l_within_its_rounding_bound_as_zero(monkeypatch):
    # theta' = 0 at omega = 0 (mirrored to pi for odd k): 1/(1 - a1) +
    # 1/(1 - a2) = 1/(1 - b1) + 1/(1 - b2), so V is zero to rounding at the
    # end and the end rule halves toward it, reading Im L at points where
    # it is rounding noise.  Read as 0.0 there, no split point goes in on
    # a noise sign: of the crossings the raw reading reported, only pairs
    # (one each way) go, and the encirclement count stays.
    rng = np.random.default_rng(11)
    dropped = 0
    for k in range(120):
        a1, a2, b1 = rng.uniform(-0.9, 0.9, 3)
        b2 = 1.0 - 1.0 / (1.0 / (1.0 - a1) + 1.0 / (1.0 - a2)
                          - 1.0 / (1.0 - b1))
        s = 1.0 if k % 2 == 0 else -1.0
        L = RationalTF(np.poly([s * a1, s * a2]) * 10.0 ** rng.uniform(-1, 1),
                       np.poly([s * b1, s * b2]))
        rep = crossing_counts(L, ContourSpec(epsilon=0.0))
        with monkeypatch.context() as m:
            m.setattr(nyquist, "_axis_turns", _raw_axis_turns)
            ref = crossing_counts(L, ContourSpec(epsilon=0.0))
        assert rep.nu_o == ref.nu_o
        assert ref.nu_plus - rep.nu_plus == ref.nu_minus - rep.nu_minus >= 0
        dropped += rep != ref
    assert dropped > 0  # the halving does read noise on these loops
