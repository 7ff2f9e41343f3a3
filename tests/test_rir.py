import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rirkit.rir as rir
import rirkit.transfer as transfer
from conftest import (
    near_circle_tf,
    random_tf,
    reference_pcr_max_search,
    reference_wrap_angle,
    stabilizer_search,
)
from rirkit import cli
from rirkit.errors import PreconditionError, RirkitError
from rirkit.nyquist import closed_loop_poles
from rirkit.polycore import Polynomial, from_roots
from rirkit.rir import (
    EXACT_BOUNDARY,
    EXACT_SUFFICIENT,
    INCONCLUSIVE,
    NOT_EXACT,
    RATE_TOL,
    STRICTLY_GREATER,
    AllPassSpec,
    allpass_phase_match,
    ap1_rate,
    ap2_rate,
    exact_rir_analyze,
    pcr_ceiling,
    pcr_max_search,
    rho_threshold,
    synth_allpass_spec,
    synth_marginal_perturbation,
    wrap_angle,
)
from rirkit.transfer import (
    G1_BOUNDARY,
    G1_INTERIOR,
    GN_OTHER,
    LinfResult,
    RationalTF,
    classify,
    evaluate,
    linf_norm,
)

FHN_G = RationalTF([1.5679e-5, -2.5685e-5], [1.0, -2.000985, 1.000994])


def resonant_unstable_plant(r: float, omega0: float) -> RationalTF:
    """Two unstable poles at r e^{+-j omega0}; unique interior peak."""
    return RationalTF(Polynomial([1.0]),
                      Polynomial([1.0, -2.0 * r * np.cos(omega0), r**2]))


def g1_interior_plant() -> RationalTF:
    den = from_roots([1.5, 0.95 * np.exp(1j), 0.95 * np.exp(-1j)])
    return RationalTF(Polynomial([1.0, 0.0, 0.1]), den)


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


@pytest.mark.parametrize("s", [1e-301, 1e300])
def test_analyze_common_scale_of_num_and_den(s):
    # s num / (s den) is the same plant: the pole guard of evaluate and the
    # sign of the leading ratio in the phase must not read the scale
    g = RationalTF([s], [s, -2.0 * s])
    v = exact_rir_analyze(g)
    assert (v.class_tag.class_name, v.status) == (G1_BOUNDARY, EXACT_SUFFICIENT)
    assert v.lower_bound == 1.0
    for num, den in ((FHN_G.num.coeffs, FHN_G.den.coeffs),
                     ([-c for c in FHN_G.num.coeffs], FHN_G.den.coeffs)):
        ref = exact_rir_analyze(RationalTF(num, den))
        g = RationalTF([s * c for c in num], [s * c for c in den])
        v = exact_rir_analyze(g)
        assert v.status == ref.status
        assert v.class_tag.class_name == ref.class_tag.class_name
        # the printed plant's poles near 1 solve to ~1e-11 either way
        assert abs(v.theta_p - ref.theta_p) <= 1e-9
        assert abs(v.lower_bound / ref.lower_bound - 1.0) <= 1e-9


@pytest.mark.parametrize("s", [1e-301, 1e300])
def test_synthesis_common_scale_of_num_and_den(s):
    # den(L) near z = 1 is subnormal at 1e-301: the crossing quotient runs
    # in Python complex arithmetic, so it neither overflows nor loses the
    # certificate, and f is the unscaled plant's
    from rirkit.nyquist import marginal_verdict

    def synth(g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = synth_marginal_perturbation(g)
            omega_p = exact_rir_analyze(g).class_tag.peak_omega
            return f, marginal_verdict(g * f, omega_p)

    ref_f, ref_v = synth(FHN_G)
    f, v = synth(RationalTF([s * c for c in FHN_G.num.coeffs],
                            [s * c for c in FHN_G.den.coeffs]))
    assert v.nu_o0 == ref_v.nu_o0 and v.single_mode
    for got, want in ((f.num.coeffs, ref_f.num.coeffs),
                      (f.den.coeffs, ref_f.den.coeffs)):
        assert len(got) == len(want)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-9 * max(
            map(abs, want))


def test_analyze_maglev_not_exact():
    from rirkit.casestudies import MaglevParams, maglev_zoh
    g = maglev_zoh(MaglevParams(k=1, p=1, tau=0.1, T=0.01))
    v = exact_rir_analyze(g)
    assert v.status == NOT_EXACT
    assert v.theta_rate < 0.0


def test_analyze_boundary_peak_with_zero_rate_is_exact_boundary():
    # z/((z - 2)(z - 0.5)): peak gain 2 at omega = 0, where theta' = 0
    v = exact_rir_analyze(RationalTF([1.0, 0.0], [1.0, -2.5, 1.0]))
    assert v.class_tag.class_name == G1_BOUNDARY
    assert v.status == EXACT_BOUNDARY
    assert (v.theta_rate, v.lower_bound) == (0.0, 0.5)


def test_analyze_one_pole_interior_peak_strictly_greater():
    g = g1_interior_plant()
    assert classify(g).class_name == G1_INTERIOR
    v = exact_rir_analyze(g)
    assert v.status == STRICTLY_GREATER


@pytest.mark.parametrize("omega_p", [5e-9, np.pi - 5e-9])
def test_peak_between_the_old_boundary_bands_is_interior(monkeypatch,
                                                         omega_p):
    # classify once treated omega_p within 1e-8 of 0 or pi as a boundary
    # and _analyze only 0 and pi; linf_norm never reports a peak in between
    # (its split points lie >= 1.49e-8 from either end), so it is stubbed
    g = RationalTF([1.0], [1.0, -2.0])  # one unstable pole, pip holds
    peak = LinfResult(abs(evaluate(g, np.exp(1j * omega_p))), omega_p, True)
    monkeypatch.setattr(transfer, "linf_norm", lambda _: peak)
    assert classify(g).class_name == G1_INTERIOR
    assert exact_rir_analyze(g).status == STRICTLY_GREATER


@pytest.mark.parametrize("g, n_unstable, status", [
    # odd n = 3, unique interior peak, pip holds
    (RationalTF([0.2], from_roots([1.05 * np.exp(1j), 1.05 * np.exp(-1j),
                                   -1.5])), 3, STRICTLY_GREATER),
    # n = 2 with its peak at omega = 0
    (RationalTF([1.0, 0.5], from_roots([1.5, 1.2])), 2, INCONCLUSIVE),
])
def test_analyze_outside_the_named_classes(g, n_unstable, status):
    v = exact_rir_analyze(g)
    assert v.class_tag.class_name == GN_OTHER
    assert v.class_tag.n_unstable == n_unstable
    assert v.status == status


def _mirror(coeffs) -> list:
    """p(-z) from p(z)'s descending coefficients: odd powers change sign."""
    d = len(coeffs) - 1
    return [-c if (d - i) % 2 else c for i, c in enumerate(coeffs)]


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
@settings(max_examples=200, deadline=None)
@example(0, 1, False)  # G1_boundary, a three-term stationary series
@example(7, 2, False)  # G2_interior, three terms
@example(3, 2, False)  # Gn_other, constant over quadratic
def test_analyze_is_invariant_under_the_mirror(seed, degree, near_circle):
    # g(-z) at e^{j (pi - omega)} is conj g(e^{j omega}): the same gain at
    # pi - omega_p and the same phase rate, threshold and verdict; the
    # status may differ only where theta' - threshold lies within RATE_TOL
    # of zero on either side.  Degrees 1 and 2 take the closed-form series.
    # A near-circle plant draws its own degree, 2 to 4, with poles 1e-6 to
    # 1e-2 off the circle on both sides
    rng = np.random.default_rng(seed)
    if near_circle:
        g = near_circle_tf(rng)
    else:
        n_unstable = int(rng.integers(1, degree + 1))
        g = random_tf(rng, n_stable=degree - n_unstable,
                      n_unstable=n_unstable,
                      n_zeros=int(rng.integers(0, degree + 1)))
    m = RationalTF(_mirror(g.num.coeffs), _mirror(g.den.coeffs))
    v, w = exact_rir_analyze(g), exact_rir_analyze(m)
    tag, mtag = v.class_tag, w.class_tag
    assert ((tag.class_name, tag.n_unstable, tag.pip, tag.peak_unique)
            == (mtag.class_name, mtag.n_unstable, mtag.pip, mtag.peak_unique))
    if tag.peak_unique:
        assert abs(mtag.peak_omega - (math.pi - tag.peak_omega)) <= 1e-9
    if v.status != w.status:
        assert min(abs(v.theta_rate - v.rho_threshold),
                   abs(w.theta_rate - w.rho_threshold)) <= RATE_TOL


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
    assert extended_nyquist_check(g * f) is True


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


def test_synthesis_solves_only_the_closed_loop(solved):
    # the loop L = g f takes its poles and zeros from g's cached roots and
    # f's first-order (or constant) factors; only den(L) - num(L) is solved
    for num, den in ((FHN_G.num.coeffs, FHN_G.den.coeffs),
                     ([0.4, 0.1], np.convolve([1.0, -1.5], [1.0, 0.2]))):
        g = RationalTF(num, den)
        exact_rir_analyze(g)
        solved.clear()
        f = synth_marginal_perturbation(g)
        char = g.den * f.den - g.num * f.num
        assert char.degree == g.den.degree + f.den.degree
        assert [p for p in solved if p.degree > 1] == [char]
        assert sum(p.degree == 1 for p in solved) == 2 * f.den.degree


def _count_classify(monkeypatch) -> list:
    calls = []
    real = rir.classify

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(rir, "classify", counting)
    return calls


def test_verdict_cached_per_instance_and_rate_tol(monkeypatch):
    calls = _count_classify(monkeypatch)
    g = RationalTF([0.4, 0.1], np.convolve([1.0, -1.5], [1.0, 0.2]))
    before = (g, hash(g), repr(g))
    verdict = exact_rir_analyze(g)
    synth_marginal_perturbation(g)
    spec, again = synth_allpass_spec(g)
    assert again is verdict and len(calls) == 1
    # the cache is no field: equality, hash and repr are those of num, den
    assert (g, hash(g), repr(g)) == before
    exact_rir_analyze(RationalTF(g.num, g.den))  # a new instance analyzes
    assert len(calls) == 2


def test_fhn_search_verdict_serves_the_synthesis(monkeypatch):
    from rirkit.casestudies import FHNModel, fhn_search_eo

    calls = _count_classify(monkeypatch)
    res = fhn_search_eo(FHNModel())
    synth_allpass_spec(res.g_eo)
    assert len(calls) == 1


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


def _near_pi_multiples():
    """k*pi for |k| <= 2e6 (so k*2*pi for |k| <= 1e6) and neighbours."""
    def step(x, moves):
        for d in moves:
            x = math.nextafter(x, d)
        return x
    return st.builds(step, st.integers(-2 * 10**6, 2 * 10**6).map(
        lambda k: k * math.pi), st.lists(
            st.sampled_from((-math.inf, math.inf)), max_size=2))


_WRAP_EDGES = [s * v for s in (1.0, -1.0) for v in (
    0.0, math.pi, 2 * math.pi, 3 * math.pi, 1e10,
    math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0))]
_ANGLES = st.one_of(st.floats(-30.0, 30.0),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_WRAP_EDGES), _near_pi_multiples())


def _wrapped_one_by_one(xs) -> bytes:
    return np.array([reference_wrap_angle(x) for x in xs],
                    dtype=float).tobytes()


@given(st.lists(_ANGLES, min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_array_wrap_equals_wrap_angle_bit_for_bit(xs):
    assert wrap_angle(np.array(xs)).tobytes() == _wrapped_one_by_one(xs)
    # a float gives a Python float, with the same bits
    wrapped = [wrap_angle(x) for x in xs]
    assert all(type(y) is float for y in wrapped)
    assert np.array(wrapped).tobytes() == _wrapped_one_by_one(xs)


def test_array_wrap_on_edges_and_uniform_draws():
    xs = np.concatenate([_WRAP_EDGES, np.random.default_rng(3).uniform(
        -30.0, 30.0, 100_000)])
    assert wrap_angle(xs).tobytes() == _wrapped_one_by_one(xs)
    # signed zeros survive: wrap_angle keeps the sign of a zero remainder
    assert np.signbit(wrap_angle(np.array([-0.0, -2 * math.pi]))).all()


def test_pcr_search_wraps_residuals_as_an_array(monkeypatch):
    calls = []
    real = rir.wrap_angle

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(rir, "wrap_angle", counting)
    pcr_max_search(1.0, -0.8, trials=20000)
    assert 0 < len(calls) < 10


@pytest.mark.parametrize("kwargs, message", [
    ({"max_order": 0}, "max_order must be in 1..6"),
    ({"max_order": -3}, "max_order must be in 1..6"),
    ({"max_order": 7}, "max_order must be in 1..6"),
    ({"trials": 0}, "trials must be >= 1"),
    ({"trials": -5}, "trials must be >= 1"),
])
def test_pcr_search_rejects_empty_search_space(kwargs, message):
    with pytest.raises(PreconditionError, match=message):
        pcr_max_search(1.0, -0.8, **kwargs)


def test_pcr_search_smallest_settings_give_the_bare_rate():
    best, desc = pcr_max_search(1.0, -0.8, max_order=1, trials=1)
    assert best == desc["bare_first_order_rate"]
    assert desc["trials"] == 1


# omega_p on and next to the boundary threshold 1e-12 at both ends, and
# theta_p on the wrap edges, plus the open intervals
_PCR_OMEGA = st.one_of(st.sampled_from([0.0, 1e-13, np.pi - 1e-13, np.pi]),
                       st.floats(0.0, np.pi, exclude_min=True,
                                 exclude_max=True))
_PCR_THETA = st.one_of(st.sampled_from([0.0, -0.0, np.pi, -np.pi]),
                       st.floats(-10.0, 10.0))


@given(_PCR_OMEGA, _PCR_THETA, st.integers(1, 6), st.integers(1, 3000),
       st.integers(0, 2**32 - 1))
@example(1e-9, 1.0, 1, 1, 0)  # both raise PreconditionError
@settings(max_examples=60, deadline=None)
def test_pcr_search_matches_reference_bit_for_bit(omega, theta, max_order,
                                                   trials, seed):
    # a typed error (type and message) is part of the outcome: both raise
    # the same one where no double reaches the phase target
    def outcome(search):
        try:
            return repr(search(omega, theta, max_order, trials, seed))
        except RirkitError as exc:
            return repr((type(exc), str(exc)))

    assert outcome(pcr_max_search) == outcome(reference_pcr_max_search)


def test_pcr_max_near_zero_interior_omega_is_not_an_internal_fault(
        monkeypatch):
    # an exit-4 error surfaces as its exception, not as a return code
    monkeypatch.setattr(cli, "_INTERNAL_ERRORS", ())
    argv = ["pcr-max", "--param", "omega_p=1e-9", "--param", "theta_p=1.0"]
    assert cli.main(argv) in (0, 3)


@pytest.mark.parametrize("omega, theta", [
    (1.0, -0.8), (1.2, 0.8), (np.pi / 2, -np.pi / 2), (np.pi, np.pi)])
def test_pcr_search_matches_reference_at_cli_defaults(omega, theta):
    for seed in range(4):
        assert repr(pcr_max_search(omega, theta, seed=seed)) == \
            repr(reference_pcr_max_search(omega, theta, seed=seed))


@pytest.mark.parametrize("omega", [0.0, 1e-13, np.pi - 1e-13, np.pi])
def test_pcr_search_rejects_unreachable_boundary_phase(omega):
    # no all-pass has phase 0.3 at a boundary frequency, so the search
    # raises what pcr_ceiling raises rather than return best = -inf
    for search in (pcr_max_search, reference_pcr_max_search):
        with pytest.raises(PreconditionError, match="no all-pass has phase"):
            search(omega, 0.3, trials=10)


def test_pcr_ceiling_shares_the_search_boundary_band():
    assert pcr_ceiling(1.0, -0.8) == -rho_threshold(1.0, -0.8)
    for omega in (0.0, 1e-13, math.pi - 1e-13, math.pi):
        assert pcr_ceiling(omega, math.pi) == pcr_ceiling(omega, 0.0) == 0.0
        best, desc = pcr_max_search(omega, math.pi, trials=500)
        assert best == desc["bare_first_order_rate"] == 0.0
        with pytest.raises(PreconditionError, match="boundary"):
            pcr_ceiling(omega, 0.3)
    for omega in (-0.1, 3.5):
        with pytest.raises(PreconditionError, match=r"\[0, pi\]"):
            pcr_ceiling(omega, 0.0)


def test_pcr_search_evaluates_only_drawn_sections(monkeypatch):
    evaluated = []
    real = rir.ap1_phase

    def counting(a, omega):
        evaluated.append(np.size(a))
        return real(a, omega)

    monkeypatch.setattr(rir, "ap1_phase", counting)
    trials = 20000
    pcr_max_search(1.0, -0.8, trials=trials)
    # the draws pcr_max_search makes at max_order 4, seed 0
    rng = np.random.default_rng(0)
    k2 = rng.integers(0, 2, size=trials)
    k1 = rng.integers(0, 3 - 2 * k2 + 1)
    # drawn sections, at most one correction per trial, the bare candidate
    assert sum(evaluated) <= int(np.sum(k1)) + trials + 1


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


def test_synthesis_lower_bound_relation():
    # any marginally stabilizing all-pass has norm 1/||g|| exactly
    v = exact_rir_analyze(FHN_G)
    spec, _ = synth_allpass_spec(FHN_G)
    assert abs(spec.scale - v.lower_bound) < 1e-15
    assert spec.scale >= 1.0 / linf_norm(FHN_G).norm - 1e-15
