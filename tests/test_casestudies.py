import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    mp_gain,
    reference_bisection,
    reference_fhn_fixed_point,
    reference_fhn_simulate,
    reference_fig1_rows,
)
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
    maglev_partial_fraction,
    maglev_upper_bound,
    maglev_zoh,
)
from rirkit.errors import (
    PreconditionError,
    RirkitError,
    SynthesisVerificationError,
)
from rirkit.nyquist import closed_loop_poles
from rirkit.polycore import _horner_bound, from_roots
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
    g = maglev_zoh(params)
    q = np.array([_dlog(g, x) for x in w.tolist()])
    assert np.max(np.abs(q - want)) <= 1e-12 * np.max(np.abs(want))


def test_highpass_unity_dc_and_stability():
    f = highpass(0.1, 0.2)
    assert abs(evaluate(f, 1.0 + 0.0j) - 1.0) < 1e-15


def _hp_denominator(a, b, omega):
    return (3.0 * a**2 * b**2 + a**2 + b**2 + 3.0
            + 4.0 * (1.0 - a**2 * b**2) * np.cos(omega)
            + (1.0 - a**2 - b**2 + a**2 * b**2) * np.cos(2.0 * omega))


def highpass_gain_rate(a, b, omega):
    """Closed-form log-gain rate of ``highpass(a, b)``, the _dlog oracle."""
    return 2.0 * (b**2 - a**2) * np.sin(omega) / _hp_denominator(a, b, omega)


def highpass_phase_rate(a, b, omega):
    """Closed-form phase rate of ``highpass(a, b)``, the _dlog oracle."""
    return (2.0 * (b - a) * ((1.0 - a * b) + (1.0 + a * b) * np.cos(omega))
            / _hp_denominator(a, b, omega))


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
        q = np.array([_dlog(f, x) for x in w.tolist()])
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


@pytest.mark.parametrize("scale, max_rate", [(3.0, 3.4348), (1.5, 1.1462)])
def test_maglev_bound_validation_rejects_oversized_compensator(
        monkeypatch, scale, max_rate):
    # the check sees a = scale * abar, past the largest admissible a; max_rate
    # is the 50-digit A' of the stored coefficients (mpmath polyval with
    # derivative=True, step 1e-6), peaking near omega = 1.40e-4 and 1.78e-4
    real = casestudies.highpass
    monkeypatch.setattr(casestudies, "highpass",
                        lambda a, b: real(scale * a, scale * a + (b - a)))
    with pytest.raises(SynthesisVerificationError,
                       match="compensated gain rate positive") as exc:
        maglev_upper_bound(MaglevParams(), 0.01)
    got = float(str(exc.value).rsplit("=", 1)[1])
    assert abs(got - max_rate) < 0.01


def _oversized_compensation(scale):
    params = MaglevParams()
    g = maglev_zoh(params)
    bound = maglev_upper_bound(params, 0.01)
    a = scale * bound.abar
    fh = highpass(a, a + bound.P_eps)
    return RationalTF(g.num * fh.num, g.den * fh.den)


@pytest.mark.parametrize("scale", [3.0, 1.5])
def test_linf_norm_finds_near_dc_peak_of_oversized_compensation(scale):
    L = _oversized_compensation(scale)
    # the 50-digit gain of the stored coefficients peaks inside (0, 2e-3)
    peak = max(mp_gain(L, w) for w in np.linspace(0.0, 2e-3, 201))
    assert peak > 1.0002
    assert linf_norm(L).norm >= (1.0 - 1e-9) * peak


def test_linf_norm_finds_near_pi_peak_of_mirrored_compensation():
    # z -> -z moves the 3 abar loop's near-DC peak next to pi: the 50-digit
    # gain peaks at 1.0006534 near pi - 3.0e-4, where S is below its own
    # rounding floor as it is next to 0 (the norm itself is Horner's value)
    L = _oversized_compensation(3.0)
    mirror = [[c * (-1) ** k for k, c in enumerate(p.coeffs)]
              for p in (L.num, L.den)]
    norm, omega_p, unique = linf_norm(RationalTF(*mirror))
    assert math.pi - 1e-3 < omega_p < math.pi
    assert norm > 1.0005 and unique


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


def test_fixed_point_is_the_four_start_search_bit_for_bit():
    # one Newton run and a deflated quadratic give the first start's root
    model = FHNModel()
    for e in np.linspace(-0.5, 0.5, 401).tolist() + [0.0, -0.1194482421875]:
        assert fhn_fixed_point(model, e) == reference_fhn_fixed_point(model, e)


def test_fixed_point_takes_the_same_branch_among_three():
    # beta = 2 puts three fixed points on e in [-0.5, ~0.43]: the deflated
    # quadratic must find the branch the four starts found
    model = FHNModel(beta=2.0)
    three = 0
    for e in np.linspace(-0.5, 0.5, 401).tolist():
        gain = (1.0 + e) * model.D
        three += abs(model.current - gain * model.alpha) < (
            2.0 / 3.0 * (1.0 - gain) ** 1.5 if gain < 1.0 else 0.0)
        got = fhn_fixed_point(model, e).xbar
        assert abs(got - reference_fhn_fixed_point(model, e).xbar) <= 1e-14
    assert three > 100


def test_fhn_search_needs_no_eigensolve_correlate_or_numpy_arccos(
        monkeypatch):
    # g_e is degree 2 and its stationary series three terms: the series,
    # its roots and their arccos all come in closed form, in Python floats
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for module, name in ((np.linalg, "eigvals"), (np, "correlate"),
                         (np, "arccos")):
        monkeypatch.setattr(module, name, forbidden(name))
    assert casestudies.fhn_search_eo(FHNModel()).e_o == -0.1194482421875


def test_fhn_search_makes_10_peak_gain_evaluations(monkeypatch):
    # 2 for the march's direction, 6 march steps and 2 in the cell search,
    # where bisection took 11: the first probe comes from the march's curve
    calls = []
    real = casestudies.linf_norm

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(casestudies, "linf_norm", counting)
    assert casestudies.fhn_search_eo(FHNModel()).e_o == -0.1194482421875
    assert len(calls) == 10


def test_fhn_search_reads_no_h0_past_the_first_step(monkeypatch):
    # h(0) = -1/||g_0|| is negative: the march starts from that class
    seen = []
    real = casestudies._inv_norm

    def recording(model, e):
        seen.append(e)
        return real(model, e)

    monkeypatch.setattr(casestudies, "_inv_norm", recording)
    assert casestudies.fhn_search_eo(FHNModel()).e_o == -0.1194482421875
    assert 0.0 not in seen


def test_fhn_search_reads_h0_once_for_a_first_step_bracket(monkeypatch):
    # a smooth h = |e| - 1/||g_e|| with its root in (0, 0.02): the first
    # step brackets it, and the cell search needs h(0) as its left end
    seen = []

    def inv_norm(e):
        return 0.013 - 0.5 * e + 2.0 * e * e

    def recording(model, e):
        seen.append(e)
        return inv_norm(e)

    def h(e):
        return abs(e) - inv_norm(e)

    monkeypatch.setattr(casestudies, "_inv_norm", recording)
    e_o = casestudies.fhn_search_eo(FHNModel()).e_o
    assert seen.count(0.0) == 1
    assert e_o == reference_bisection(h, 0.0, 0.02, h(0.0))


def test_fhn_search_finds_the_bisection_eo_on_seeded_models(monkeypatch):
    # and in at most 5 evaluations of h each, where bisection took 11: 67
    # over the 20 brackets, 74 without the march point before the bracket
    rng = np.random.default_rng(7)
    cells = []
    real = casestudies._bisection_cell

    def recording(h, a, b, h_a, h_b, before):
        probes = []

        def counting(e):
            probes.append(e)
            return h(e)

        e_o = real(counting, a, b, h_a, h_b, before)
        cells.append((e_o, reference_bisection(h, a, b, h_a), len(probes)))
        return e_o

    monkeypatch.setattr(casestudies, "_bisection_cell", recording)
    for _ in range(25):
        model = FHNModel(c=rng.uniform(0.6, 1.5), alpha=rng.uniform(0.5, 0.9),
                         beta=rng.uniform(0.6, 1.0),
                         tau=rng.uniform(0.005, 0.02),
                         d=rng.uniform(5.0, 15.0),
                         current=rng.uniform(0.2, 0.6))
        try:  # no bracket, or a verdict other than exact_sufficient at e_o
            casestudies.fhn_search_eo(model)
        except RirkitError:
            pass
    assert len(cells) == 20
    assert all(got == want for got, want, _ in cells)
    assert max(probes for _, _, probes in cells) <= 5
    assert sum(probes for _, _, probes in cells) == 67


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fhn_fixed_point returns the root of phi nearest "
                          "xbar(0), which lies on another equilibrium once "
                          "the e = 0 branch has folded")
def test_fhn_search_eo_lies_on_the_e0_branch():
    # the 4th draw of the seeded models: the e = 0 branch from xbar(0) =
    # -0.448 folds at e = -0.1226 (x = -0.159), and the search reports
    # e_o = -0.2620 with xbar = 0.924
    rng = np.random.default_rng(1)
    for _ in range(4):
        model = FHNModel(c=rng.uniform(0.6, 1.5), alpha=rng.uniform(0.5, 0.9),
                         beta=rng.uniform(0.6, 1.0),
                         tau=rng.uniform(0.005, 0.02),
                         d=rng.uniform(5.0, 15.0),
                         current=rng.uniform(0.2, 0.6))
    x0 = fhn_fixed_point(model, 0.0).xbar
    xbar = casestudies.fhn_search_eo(model).fixed_point.xbar
    # on the equilibria the gain is (x - x^3/3 + I)/(x + alpha), so the
    # branch from x0 reaches xbar iff no fold (a stationary point: the real
    # roots of (2/3)x^3 + alpha x^2 + I - alpha) or pole lies between them
    folds = [z.real for z in np.roots([2.0 / 3.0, model.alpha, 0.0,
                                       model.current - model.alpha])
             if z.imag == 0.0]
    lo, hi = sorted((x0, xbar))
    assert not any(lo < x < hi for x in folds + [-model.alpha])


CELLS = 2048  # the bisection of a march bracket to width 1e-5


def _march_bracket(k, direction):
    # the bracket of the march's step k + 1, as fhn_search_eo computes it
    return direction * 0.02 * k, direction * 0.02 * (k + 1)


def _node_index(e, a, b):
    # the grid is uniform to rounding, far below a cell
    return round((e - a) / (b - a) * CELLS)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 24), direction=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2**32 - 1), dense=st.booleans(),
       flips=st.lists(st.integers(1, CELLS), max_size=40),
       before=st.none() | st.tuples(
           st.integers(1, 4 * CELLS).flatmap(
               lambda i: st.sampled_from([-i, CELLS + i])),
           st.floats()))
@example(k=5, direction=-1.0, seed=0, dense=False, flips=[1991], before=None)
@example(k=5, direction=-1.0, seed=0, dense=False, flips=[1991],
         before=(-CELLS, -0.01))
@example(k=0, direction=-1.0, seed=2224, dense=True, flips=[],
         before=(-1, 5e-324))  # the estimate's denominators underflow to 0
def test_bisection_cell_ends_on_a_sign_change(k, direction, seed, dense,
                                              flips, before):
    # any sign pattern on the nodes, with any magnitudes and zeros in the
    # non-negative class, and any point outside the bracket or none: one
    # cell whose ends differ in class, in at most log2(2048) + 1 = 12
    # evaluations, and bisection's where the class changes once
    rng = np.random.default_rng(seed)
    if dense:
        neg = rng.random(CELLS + 1) < rng.random()
    else:
        neg = np.cumsum(np.bincount(flips, minlength=CELLS + 1)) % 2 == 1
    neg[-1] = not neg[0]
    mag = rng.lognormal(0.0, 3.0, CELLS + 1)
    mag[~neg & (rng.random(CELLS + 1) < 0.05)] = 0.0
    values = np.where(neg, -mag, mag).tolist()
    a, b = _march_bracket(k, direction)
    probed = []

    def h(e):
        probed.append(_node_index(e, a, b))
        return values[probed[-1]]

    if before is not None:  # a grid position, in node units, and h there
        before = (a + (b - a) * before[0] / CELLS, before[1])
    e_o = casestudies._bisection_cell(h, a, b, values[0], values[-1], before)
    assert len(probed) <= 12
    i = int((e_o - a) / (b - a) * CELLS)  # the cell's first node
    assert neg[i] != neg[i + 1]
    assert {i, i + 1} <= set(probed) | {0, CELLS}
    if np.count_nonzero(neg[1:] != neg[:-1]) == 1:
        assert e_o == reference_bisection(h, a, b, values[0])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 24), direction=st.sampled_from([-1.0, 1.0]),
       t=st.floats(0.0, 1.0), slope=st.floats(1e-3, 1e3),
       cubic=st.floats(0.0, 1e6), sign=st.sampled_from([-1.0, 1.0]),
       seeded=st.booleans())
def test_bisection_cell_of_a_smooth_monotone_h_is_bisections(
        k, direction, t, slope, cubic, sign, seeded):
    # seeded: the march point before the bracket gives the first probe
    a, b = _march_bracket(k, direction)
    root = a + t * (b - a)
    calls = []

    def h(e):
        calls.append(e)
        u = e - root
        return sign * (slope * u + cubic * u ** 3)

    h_a, h_b = h(a), h(b)
    assume((h_a < 0.0) != (h_b < 0.0))
    before = (2.0 * a - b, h(2.0 * a - b)) if seeded else None
    calls.clear()
    e_o = casestudies._bisection_cell(h, a, b, h_a, h_b, before)
    assert len(calls) <= 12
    assert e_o == reference_bisection(h, a, b, h_a)


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


@pytest.mark.parametrize("eps", [1e6, -1e6])
def test_h_shaper_keeps_large_eps_above_rounding(eps):
    # num(1) = 0.25 / (1 + eps) = 2.5e-7 stays above Horner's bound ~1e-10
    # on num's coefficients (mu ~ -0.25 / (2 - 2 cos 0.003) ~ -2.8e4), so
    # the shaper is built; at eps = 1e13 it is not (test_cli)
    h = h_shaper(eps, 0.003)
    want = 0.25 / (1.0 + eps)
    tol = _horner_bound(h.num.coeffs, 1.0)
    assert abs(math.fsum(h.num.coeffs) - want) <= tol


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
DIVERGING_INIT = (0.0, 1e12)  # x leaves through -1e6 on the first step
DIVERGING_ABOVE = (0.0, -1e12)  # and through +1e6 from this start
FIRST_ORDER_DELTA = RationalTF([-0.04, -0.06], [1.0, 0.0])


@pytest.mark.parametrize("delta", [None, FIRST_ORDER_DELTA])
def test_simulate_divergence_truncates(delta):
    traj = fhn_simulate(FHNModel(), delta, 1000, init=DIVERGING_INIT)
    assert traj.diverged
    assert (len(traj.x), len(traj.y)) == (2, 2)
    assert traj.verdict() == "diverged"


@pytest.mark.parametrize("init", [(1e200, 0.0), (math.nan, 0.0),
                                  (0.0, math.inf)])
def test_simulate_rejects_unusable_init(init):
    # x0**2 would overflow a Python float, and a non-finite start would
    # give NaN trajectories
    with pytest.raises(ValueError, match="init"):
        fhn_simulate(FHNModel(), None, 5, init=init)


def _assert_same_trajectory(got, want, case):
    assert got.diverged == want.diverged, case
    for name in ("x", "y"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), \
            (case, name)


def test_simulate_bit_identical_to_numpy_scalar_loop(fhn_chain):
    model, res = fhn_chain["model"], fhn_chain["result"]
    fp_eo = fhn_fixed_point(model, res.e_o)
    # the filter and start of test_simulate_filter_equilibrium_keeps_fixed_point
    res_e = -0.1
    fp_eq = fhn_fixed_point(model, res_e)
    equilibrium_delta = RationalTF([res_e * 0.4, res_e * 0.6], [1.0, 0.0])
    cases = [
        (None, 20000, None),
        (None, 0, None),
        (FIRST_ORDER_DELTA, 1, None),
        (equilibrium_delta, 2000, (fp_eq.xbar, fp_eq.ybar)),
        (equilibrium_delta, 2000, None),
        (RationalTF([-0.03, 0.01], [1.0, -0.5, 0.2]), 5000, None),
        (fhn_chain["delta_osc"], 20000, None),
        (fhn_chain["delta_conv"], 20000, (fp_eo.xbar + 0.002, fp_eo.ybar)),
        (None, 1000, DIVERGING_INIT),
        (FIRST_ORDER_DELTA, 1000, DIVERGING_INIT),
        # divergence on the final step
        (None, 1, DIVERGING_INIT),
        (FIRST_ORDER_DELTA, 1, DIVERGING_INIT),
        (None, 1000, DIVERGING_ABOVE),
        (FIRST_ORDER_DELTA, 1000, DIVERGING_ABOVE),
    ]
    for poles in ([0.5, -0.3, 0.2 + 0.4j, 0.2 - 0.4j],
                  [0.9, -0.6, 0.1, 0.7j, -0.7j],
                  [0.8 + 0.1j, 0.8 - 0.1j, -0.5, 0.3, 0.6j, -0.6j]):
        zeros = [0.4 - 0.2 * k for k in range(len(poles) - 1)]
        delta = RationalTF(from_roots(zeros, -0.01), from_roots(poles))
        cases.append((delta, 3000, None))
    for delta, steps, init in cases:
        got = fhn_simulate(model, delta, steps, init=init)
        want = reference_fhn_simulate(model, delta, steps, init=init)
        _assert_same_trajectory(got, want, (delta, steps, init))
        for arr in (got.x, got.y):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert len(got.x) == len(got.y)
        assert not np.shares_memory(got.x, got.y)
        if init == DIVERGING_INIT:
            assert got.diverged and got.x[-1] < -1e6
        if init == DIVERGING_ABOVE:
            assert got.diverged and got.x[-1] > 1e6


_STABLE_POLE = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)


@st.composite
def _stable_filters(draw):
    poles = draw(st.lists(_STABLE_POLE, max_size=6))
    zeros = draw(st.lists(st.floats(-2.0, 2.0), max_size=len(poles)))
    gain = draw(st.floats(0.0, 0.05, exclude_min=True)) \
        * draw(st.sampled_from([-1.0, 1.0]))
    return RationalTF(from_roots(zeros, gain), from_roots(poles))


@settings(max_examples=60, deadline=None)
@given(_stable_filters())
@example(RationalTF(from_roots([0.0, 0.75, -2.0], 2.2250738585e-313),
                    from_roots([0.0, 0.0, 0.0])))  # a subnormal gain
def test_simulate_matches_reference_on_random_filters(delta):
    model = FHNModel()
    _assert_same_trajectory(fhn_simulate(model, delta, 300),
                            reference_fhn_simulate(model, delta, 300), delta)


def test_step_loop_is_cached_and_named_per_order():
    loop = casestudies._step_loop(3)
    assert casestudies._step_loop(3) is loop
    assert loop.__code__.co_filename == "<fhn_simulate step loop, order 3>"
    # squares by multiplication, never by libm's pow
    assert "**" not in casestudies._STEP_LOOP + casestudies._STEP_TAP


def test_simulate_squares_correctly_rounded():
    # x0**2 through libm's pow rounds 1 ulp away from the exact square on
    # some platforms, and the step then lands 1 ulp off (1.876504406926767)
    model, (x0, y0) = FHNModel(tau=1.0), (1.1502398141533718, 0.3)
    A = model.A
    square = float(Fraction(x0) ** 2)
    want = ((A * x0 + (1.0 - A) * (y0 + 0.0 - model.current))
            / (1.0 + (A - 1.0) * square / 3.0))
    traj = fhn_simulate(model, None, 1, init=(x0, y0))
    assert traj.x[1] == want == 1.8765044069267673


@pytest.mark.parametrize("steps", [2**61, 2**70])
def test_simulate_unallocatable_steps_is_value_error(steps):
    # (steps + 1) doubles exceed sys.maxsize bytes, which CPython refuses
    # before allocating (2**70 does not even fit an index)
    with pytest.raises(ValueError, match=f"steps = {steps}"):
        fhn_simulate(FHNModel(), None, steps)
