import math
import sys
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rirkit.polycore as polycore
from conftest import (low_degree_polynomials, mp_quadratic_roots, random_tf,
                      reference_poly_roots)
from rirkit.polycore import (
    Polynomial,
    RootSet,
    from_roots,
    poly_eval,
    poly_roots,
)


def test_rootset_flat_is_stored_once_outside_the_fields():
    rs = RootSet(roots=(1.0 + 0j, -0.5 + 0j), multiplicities=(2, 1),
                 residual=0.0, radii=(0.0, 0.0))
    before = (repr(rs), hash(rs))
    flat = rs.flat
    assert flat == (1.0 + 0j, 1.0 + 0j, -0.5 + 0j)
    assert rs.flat is flat
    assert (repr(rs), hash(rs)) == before
    assert rs == RootSet(roots=rs.roots, multiplicities=(2, 1), residual=0.0,
                         radii=(1.0, 1.0))
    assert "flat" not in repr(rs)


def test_eval_factored_root():
    p = Polynomial([1.0, -3.0, 2.0])  # (z-1)(z-2)
    assert p(1.0) == 0.0
    assert p(2.0) == 0.0


def test_eval_constant():
    p = Polynomial([1.0])
    assert p(37.2) == 1.0
    assert p(-1j) == 1.0


def test_eval_near_cancellation():
    # direct arithmetic oracle: 1 - 2.000985 + 1.000994
    p = Polynomial([1.0, -2.000985, 1.000994])
    expected = 1.0 - 2.000985 + 1.000994
    assert abs(p(1.0) - expected) <= 1e-12
    assert abs(p(1.0) - 9.0e-6) <= 1e-12


def test_roots_quadratic():
    rs = poly_roots(Polynomial([1.0, -3.0, 2.0]))
    got = sorted(r.real for r in rs.flat)
    assert np.allclose(got, [1.0, 2.0], atol=1e-9)


def test_roots_conjugate_pair():
    rs = poly_roots(Polynomial([1.0, 0.0, 1.0]))
    got = sorted(rs.flat, key=lambda z: z.imag)
    assert abs(got[0] + 1j) < 1e-9
    assert abs(got[1] - 1j) < 1e-9


def test_roots_degree8_from_monomials():
    known = [2.0, -1.5, 0.5, -0.25, 1 + 1j, 1 - 1j, -0.3 + 0.8j, -0.3 - 0.8j]
    p = from_roots(known, leading=2.0)
    got = sorted(poly_roots(p).flat, key=lambda z: (z.real, z.imag))
    want = sorted((complex(r) for r in known), key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-7


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError, match="undefined roots"):
        poly_roots(Polynomial([0.0, 0.0]))


@pytest.mark.parametrize("coeffs, match", [
    # 1e-320 vanishes at the scale of 1e300
    ([1e-320, 1e300, 1.0], "leading one underflows"),
    # c_2/c_0 = 1e310 at unit scale, though the roots ~1e155j are doubles
    ([1e-310, 0.0, 1.0, 1.0], "companion entry"),
    # the root -1e310
    ([1e-300, 1e10], "root lies beyond"),
], ids=["spread", "companion", "root"])
def test_roots_doubles_cannot_hold_raise(coeffs, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            poly_roots(Polynomial(coeffs))


def test_roots_of_subnormal_coefficients():
    # scaled to unit order before the Newton step, which overflowed on the
    # subnormal p' values; the roots are those of the stored coefficients
    # (rounded to subnormal precision), by mpmath.polyroots at 50 digits
    p = from_roots([0.0, 0.75, -2.0], 2.2250738585e-313)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = poly_roots(p)
    want = [-1.9999999999919257, 0.0, 0.7500000000030279]
    assert sorted(r.real for r in rs.flat) == pytest.approx(want, abs=1e-15)
    assert all(r.imag == 0.0 for r in rs.flat)
    assert rs.residual <= 1e-322


def test_roots_residual_bound():
    rng = np.random.default_rng(11)
    inputs = []
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, deg + 1)
        coeffs[0] = rng.uniform(0.5, 1.5)
        inputs.append(coeffs)
    # a plant numerator with two real roots 0.05 apart outside the disk
    inputs.append(np.array([1.0, 6.745640947358542, 17.381309539022823,
                            20.35914700767102, 9.174150631293426]))
    # plant denominators whose bare companion eigenvalues miss the rounding
    # floor; the Newton step brings them under it
    inputs.append(np.array([
        1.0, 1.7876024103495043, 0.44312230848070605, -0.7074635744849165,
        -0.505632087406702, -0.13256735167449188, -0.01920716961208889,
        -0.002225616046617541, -0.0002802702601651515,
        -2.8484799114008476e-05, -1.6900507140222137e-06,
        -6.308155361821442e-08, -2.5386830282055357e-09]))
    inputs.append(np.array([
        1.0, -2.198283041597094, 1.4381182491987108, -0.22070478560418627,
        -0.057076708658555936, 0.018779625838870787, -0.002066834464591483,
        0.00011055151246707699, -4.254233147410726e-06,
        4.3300612546538596e-07]))
    for coeffs in inputs:
        p = Polynomial(coeffs)
        rs = poly_roots(p)
        assert rs.total == p.degree
        assert rs.residual < 1e-8 * (1.0 + np.max(np.abs(coeffs)))
        for r in rs.roots:
            assert abs(p(r)) <= polycore._horner_bound(p.coeffs, abs(r))


@pytest.mark.parametrize("coeffs, want", [
    ([1.0, 0.0, 0.0, 0.0], {0.0: 3}),
    ([1.0, -0.3, 0.0, 0.0], {0.0: 2, 0.3: 1}),
    ([1.0, -1.0, 0.25], {0.5: 2}),
    ([2.0, -1.0], {0.5: 1}),
    ([1.0, 0.0, 1.0], {1j: 1, -1j: 1}),
])
def test_roots_exact_multiplicities(coeffs, want):
    # zero and exact multiple roots make p or p' vanish at the eigenvalue,
    # where a Newton step would divide 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = poly_roots(Polynomial(coeffs))
    assert sorted(rs.multiplicities) == sorted(want.values())
    for r, m in zip(rs.roots, rs.multiplicities):
        assert any(abs(r - w) <= 1e-12 and m == k for w, k in want.items())


def test_double_root_multiplicity():
    rs = poly_roots(from_roots([1.0, 1.0, 0.5]))
    by_mult = {m: r for r, m in zip(rs.roots, rs.multiplicities)}
    assert set(rs.multiplicities) == {1, 2}
    assert abs(by_mult[2] - 1.0) < 1e-6
    assert abs(by_mult[1] - 0.5) < 1e-6


def test_tiny_constant_term_leaves_two_simple_roots():
    # the roots +-1e-8j are far apart against their disks (~4e-23), so they
    # are not one double root at 0
    rs = poly_roots(Polynomial([1.0, 0.0, 1e-16]))
    assert rs.multiplicities == (1, 1)
    assert sorted(r.imag for r in rs.roots) == pytest.approx([-1e-8, 1e-8])


def test_overlapping_simple_disks_alone_merge_nothing():
    # denominator of plant 177 of the seed-1 degree 9-12 benchmark family:
    # the real poles -0.6713853 and -0.6713635, 2.18e-5 apart, have simple
    # disks of radius 5.5e-5, but the disk of a double root about their
    # mean, 1.0e-5, does not hold them both
    rs = poly_roots(Polynomial([
        1.0, 4.650512098483215, 8.861144573258201, 8.59815671783004,
        3.833996109958923, -0.3710102420838126, -1.4152090472706673,
        -0.7732382252817755, -0.19242917311766672, -0.015195853084078052,
        0.0008380295946881853, -0.0008009377398071249,
        -0.00024209771046610572]))
    assert rs.multiplicities == (1,) * 12
    pair = [(r, rho) for r, rho in zip(rs.flat, rs.radii)
            if abs(r + 0.67138) < 1e-4]
    assert len(pair) == 2 and abs(pair[0][0] - pair[1][0]) < min(
        rho for _, rho in pair)


def test_near_double_roots_form_one_cluster_whose_disk_holds_both():
    # eigenvalue approximants of a double root lie ~sqrt(eps) apart
    p = from_roots([0.3, 0.7]) * from_roots([0.7, -0.2])
    rs = poly_roots(Polynomial(p.coeffs))
    assert sorted(rs.multiplicities) == [1, 1, 2]
    c = rs.roots[rs.multiplicities.index(2)]
    rho = rs.radii[rs.flat.index(c)]
    assert abs(c - 0.7) <= rho < 1e-6


def test_given_roots_ulps_apart_cluster_past_a_far_overlap():
    # given roots 2 ulps apart have simple disks of radius ~100, which reach
    # the root at 0 too; the three together are no cluster, but the close
    # pair is one double root whose disk stays inside the circle
    p = from_roots([-0.95, -0.9499999999999998, 0.0])
    rs = p.roots()
    assert rs.multiplicities == (2, 1)
    assert rs.sides(1.0) == (-1, -1, -1)
    assert abs(rs.roots[0] + 0.95) <= rs.radii[0] < 1e-6


def test_reconstruction_invariant_degrees_up_to_12():
    rng = np.random.default_rng(23)
    for _ in range(40):
        deg = int(rng.integers(1, 13))
        coeffs = rng.uniform(-1, 1, deg + 1)
        coeffs[0] = rng.uniform(0.5, 1.5) * np.sign(coeffs[0] or 1.0)
        p = Polynomial(coeffs)
        rs = poly_roots(p)
        rebuilt = from_roots(rs.flat, leading=p.coeffs[0])
        scale = np.max(np.abs(p.coeffs))
        err = np.max(np.abs(np.array(rebuilt.coeffs) - np.array(p.coeffs)))
        assert err <= 1e-6 * scale


def _assert_conjugate_closed(p):
    # exact: the root multiset equals its own conjugate, bit for bit
    flat = poly_roots(p).flat
    assert Counter(flat) == Counter(r.conjugate() for r in flat)


def test_conjugate_closure():
    rng = np.random.default_rng(5)
    for _ in range(25):
        deg = int(rng.integers(2, 11))
        p = Polynomial(rng.uniform(-1, 1, deg + 1))
        if p.degree < 1:
            continue
        _assert_conjugate_closed(p)


# (modulus, angle, split): split 0 gives one conjugate pair, a small split
# a second pair that far from the first in modulus and angle
_NEAR_DOUBLE_PAIR = st.tuples(
    st.floats(0.2, 2.0), st.floats(0.05, np.pi - 0.05),
    st.one_of(st.just(0.0), st.floats(1e-10, 1e-4)))


@given(st.lists(_NEAR_DOUBLE_PAIR, min_size=1, max_size=6),
       st.lists(st.floats(-2.0, 2.0), max_size=6))
@settings(max_examples=100, deadline=None)
def test_conjugate_closure_with_near_double_pairs(pairs, reals):
    roots = list(reals)
    for r, th, split in pairs:
        roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        if split:
            w = r * (1.0 + split) * np.exp(1j * (th + split))
            roots += [w, np.conj(w)]
    assume(len(roots) <= 24)
    p = Polynomial(np.poly(roots).real)
    assert p.degree == len(roots)
    _assert_conjugate_closed(p)


def _near_real_pair_roots(rng):
    """r +- delta j, delta = 10^U(-16, -9) (1 + |r|) off the axis, with up to
    four further real roots or conjugate pairs."""
    r = rng.uniform(-2.0, 2.0)
    delta = 10.0 ** rng.uniform(-16.0, -9.0) * (1.0 + abs(r))
    roots = [complex(r, delta), complex(r, -delta)]
    for _ in range(int(rng.integers(0, 5))):
        if rng.random() < 0.5:
            roots.append(complex(rng.uniform(-2.0, 2.0)))
        else:
            w = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0))
            roots += [w, w.conjugate()]
    return roots


def test_near_real_pairs_keep_exact_conjugates():
    # no tolerance snaps a root onto the axis: each non-real root, solved or
    # given, comes with its exact conjugate as often
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = from_roots(_near_real_pair_roots(rng),
                       leading=10.0 ** rng.uniform(-3.0, 3.0))
        for rs in (p.roots(), poly_roots(p)):
            assert rs.total == p.degree
            assert Counter(rs.flat) == Counter(r.conjugate() for r in rs.flat)


def test_near_real_pair_apart_from_its_disks_stays_complex():
    # z^2 - 2 r z + r^2 + delta^2: the pair's simple disks, 1.3e-10, do not
    # reach across its 9.4e-10 gap, so it is two complex roots, not a real
    # double root
    r, delta = 0.002899175954593325, 4.7e-10
    rs = Polynomial([1.0, -2.0 * r, r * r + delta * delta]).roots()
    assert rs.multiplicities == (1, 1)
    assert all(z.imag != 0.0 for z in rs.roots)


def test_given_roots_not_conjugate_closed_are_solved():
    # 0.5 + 1e-17j has no conjugate among the given roots, so the expansion
    # z - 0.5 is solved rather than keeping it
    assert from_roots([0.5 + 1e-17j]).roots().flat == (0.5 + 0j,)


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_eval_linear_in_leading_term(tail, re, im):
    # Horner consistency: p(z) = lead * z^n + rest(z)
    coeffs = [1.0] + tail
    p = Polynomial(coeffs)
    assert p.degree == len(tail)
    z = complex(re, im)
    rest = Polynomial(tail) if tail else Polynomial([0.0])
    assert abs(p(z) - (z ** len(tail) + poly_eval(rest, z))) < 1e-9


def test_trim_leading_zeros():
    p = Polynomial([0.0, 0.0, 2.0, 1.0])
    assert p.degree == 1
    assert p.coeffs == (2.0, 1.0)


def test_zero_polynomial_flag():
    p = Polynomial([0.0, 0.0])
    assert p.is_zero and p.degree == 0 and p.coeffs == (0.0,)


def test_roots_cached_per_instance(solved):
    p = Polynomial([1.0, -0.5, 0.25, 2.0])
    before = (p, hash(p), repr(p))
    first = p.roots()
    assert p.roots() is first
    assert len(solved) == 1
    # the cache is no field: equality, hash and repr are those of the coeffs
    assert (p, hash(p), repr(p)) == before
    assert p == Polynomial([1.0, -0.5, 0.25, 2.0])
    Polynomial([1.0, -0.5, 0.25, 2.0]).roots()  # a new instance solves anew
    assert len(solved) == 2


_ROOT = st.tuples(st.floats(min_value=0.1, max_value=3.0),
                  st.floats(min_value=0.0, max_value=np.pi))


@given(st.lists(_ROOT, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_roots_agree_with_companion_eigenvalues(polar):
    # an angle within 0.05 of the real axis stands for a real root, any
    # other for a conjugate pair
    roots = []
    for r, th in polar:
        if th < 0.05 or th > np.pi - 0.05:
            roots.append(complex(r if th < 0.05 else -r))
        else:
            roots.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
    assume(2 <= len(roots) <= 12)
    sep = min(abs(a - b) for i, a in enumerate(roots) for b in roots[:i])
    assume(sep >= 0.02)
    p = from_roots(roots)
    rs = poly_roots(p)
    assert rs.total == p.degree
    # from_roots hands its roots to the cache: roots() solves nothing
    with mock.patch.object(polycore, "poly_roots",
                           side_effect=AssertionError("solved again")):
        assert from_roots(roots).roots().total == p.degree
    eig = np.linalg.eigvals(np.polynomial.polynomial.polycompanion(
        np.asarray(p.coeffs[::-1])))
    dp = np.polyder(p.coeffs)
    eps = np.finfo(float).eps
    for r in rs.flat:
        # forward error is at most backward error over |p'(r)|
        backward = rs.residual + eps * float(
            np.polyval(np.abs(p.coeffs), abs(r)))
        tol = 1e3 * p.degree * backward / abs(np.polyval(dp, r))
        assert np.min(np.abs(eig - r)) <= tol
        # the generating roots are an oracle free of any eigenvalue solver
        assert np.min(np.abs(np.asarray(roots) - r)) <= tol


def _solved_draw(rng):
    """A random_tf plant with its num and den solved, as an analysis leaves
    them (random_tf's own roots are the generating ones)."""
    n_stable, n_unstable = int(rng.integers(0, 4)), int(rng.integers(1, 3))
    g = random_tf(rng, n_stable, n_unstable,
                  int(rng.integers(0, n_stable + n_unstable + 1)))
    num, den = Polynomial(g.num.coeffs), Polynomial(g.den.coeffs)
    num.roots(), den.roots()
    return num, den


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_product_roots_are_the_union_of_the_factors(seed):
    rng = np.random.default_rng(seed)
    (gn, gd), (fn, fd) = _solved_draw(rng), _solved_draw(rng)
    eps = np.finfo(float).eps
    for p, q in ((gd, fd), (gn, fn), (gn, fd)):
        pq = p * q
        union = polycore._root_set(pq, list(p.roots().flat + q.roots().flat),
                                   None, pq.coeffs)
        if union is None:
            continue  # the union missed the bound: the fallback test's case
        assert pq.roots() == union
        rs = poly_roots(pq)
        assert sorted(union.multiplicities) == sorted(rs.multiplicities)
        dpq = np.polyder(pq.coeffs)
        for r, m in zip(union.roots, union.multiplicities):
            # forward error is at most backward error over |p'(r)|, for
            # the union's root and for the solved one alike
            backward = (max(union.residual, rs.residual) + eps
                        * float(np.polyval(np.abs(pq.coeffs), abs(r))))
            tol = 1e3 * pq.degree * backward / abs(np.polyval(dpq, r))
            assert min(abs(r - s) for s, k in zip(rs.roots, rs.multiplicities)
                       if k == m) <= tol


def test_product_whose_factor_roots_miss_the_bound_is_solved(solved):
    # p(z) p(-z) is even: its odd coefficients cancel to rounding, so its
    # own majorant sum |a_k| |r|^k is too small for p's and q's roots
    rts = np.linspace(0.95, 0.99, 7)
    p, q = Polynomial(np.poly(rts)), Polynomial(np.poly(-rts))
    p.roots(), q.roots()
    pq = p * q
    assert pq.degree == 14
    assert any(abs(pq(r)) > polycore._horner_bound(pq.coeffs, abs(r))
               for r in p.roots().flat + q.roots().flat)
    solved.clear()
    rs = pq.roots()
    assert solved == [pq]
    assert rs == poly_roots(pq) and rs.total == 14


def _assert_forward_error(coeffs, roots, exact):
    """Each root lies within 4 n times its backward error over |p'(r)| of
    the nearest exact root, with backward error |p(r)| + eps sum |a_k|
    |r|^k; all in mpmath at 50 digits, so no value over- or underflows.
    (On 10,000 seeded draws of the kinds below the largest error was half
    of n times the backward error over |p'(r)|.)"""
    import mpmath

    n = len(coeffs) - 1
    with mpmath.workdps(50):
        a = [mpmath.mpf(c) for c in coeffs]
        da = [c * (n - k) for k, c in enumerate(a[:-1])]
        eps = mpmath.mpf(np.finfo(float).eps)
        for r in roots:
            z = mpmath.mpc(r)
            err = min(abs(z - x) for x in exact)
            backward = (abs(mpmath.polyval(a, z))
                        + eps * mpmath.polyval([abs(c) for c in a], abs(z)))
            assert err * abs(mpmath.polyval(da, z)) <= 4 * n * backward


_UNIT = st.floats(min_value=-10.0, max_value=10.0)
_SIGN = st.sampled_from((-1.0, 1.0))


@st.composite
def _quadratics(draw):
    """(a, b, c) with real roots, a complex pair, a near-double root or
    b = 0, as stored after rounding."""
    kind = draw(st.sampled_from(("real", "complex", "near_double", "b_zero")))
    a = draw(_SIGN) * draw(st.floats(min_value=0.1, max_value=10.0))
    if kind == "real":
        r1, r2 = draw(_UNIT), draw(_UNIT)
        return a, -a * (r1 + r2), a * r1 * r2
    if kind == "complex":
        re, im = draw(_UNIT), draw(st.floats(min_value=1e-8, max_value=10.0))
        return a, -2.0 * a * re, a * (re * re + im * im)
    if kind == "near_double":
        r = draw(_SIGN) * draw(st.floats(min_value=0.1, max_value=10.0))
        d = r * draw(_SIGN) * draw(st.floats(min_value=1e-12, max_value=1e-4))
        return a, -a * (2.0 * r + d), a * r * (r + d)
    return a, 0.0, draw(_UNIT)


@given(_quadratics())
@example((-1.0, -6.0, -9.0))  # an exact double root
@settings(max_examples=120, deadline=None)
def test_quadratic_roots_match_mpmath(coeffs):
    roots = polycore._quadratic_roots(*coeffs)
    if isinstance(roots[0], complex):
        # a negative discriminant gives an exact conjugate pair
        assert roots[1] == roots[0].conjugate() and roots[0].imag != 0.0
    else:
        assert all(isinstance(r, float) for r in roots)
    _assert_forward_error(coeffs, roots, mp_quadratic_roots(*coeffs))


def _spread(max_exponent):
    """sign * U(1, 10) * 10**k, k an integer from -300 to max_exponent."""
    return st.builds(lambda s, m, k: s * m * 10.0 ** k, _SIGN,
                     st.floats(min_value=1.0, max_value=10.0),
                     st.integers(min_value=-300, max_value=max_exponent))


_SPREAD = _spread(300)


@given(st.tuples(_SPREAD, _SPREAD, _SPREAD))
@settings(max_examples=80, deadline=None)
def test_degree_two_roots_of_spread_coefficients_match_mpmath(coeffs):
    # poly_roots scales by a power of two before the closed form, so no
    # coefficient spread over- or underflows the discriminant.  It raises
    # where that scaling underflows the leading coefficient, or where the
    # larger root lies beyond the double range.
    p = Polynomial(coeffs)
    shift = -math.frexp(max(map(abs, coeffs)))[1]
    exact = (None if math.ldexp(abs(coeffs[0]), shift) == 0.0
             else mp_quadratic_roots(*coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if exact is None or max(map(abs, exact)) > sys.float_info.max:
            with pytest.raises(ValueError):
                poly_roots(p)
            return
        rs = poly_roots(p)
    assert rs.total == 2
    _assert_forward_error(coeffs, rs.flat, exact)


@given(_SPREAD, st.lists(st.one_of(_SPREAD, st.just(0.0)), max_size=12))
@settings(max_examples=100, deadline=None)
def test_polynomial_keeps_every_coefficient_after_a_nonzero_first(lead, tail):
    coeffs = [lead] + tail
    assert Polynomial(coeffs).coeffs == tuple(coeffs)


@given(st.lists(_spread(25), max_size=8))
@settings(max_examples=100, deadline=None)
def test_from_roots_degree_is_the_root_count(roots):
    # roots up to 1e26 give coefficients up to ~1e210 after the leading 1
    assert from_roots(roots).degree == len(roots)


@given(low_degree_polynomials())
@example(Polynomial([1.0, -3.0, 2.0]))  # two real roots
@example(Polynomial([1.0, 0.0, 1.0]))  # a complex pair
@example(Polynomial([2.0, -1.0, 0.0, 0.0]))  # exact roots at 0
@settings(max_examples=300, deadline=None)
def test_low_degree_roots_are_the_complex_polish_bit_for_bit(p):
    # a real root polished in float arithmetic is the real part of the
    # complex recurrence with zero imaginary parts, so every RootSet, and
    # its flat tuple as the multiplicity loop built it, keeps its bits
    try:
        ref = reference_poly_roots(p)
    except ValueError:
        with pytest.raises(ValueError):
            poly_roots(p)
        return
    rs = poly_roots(p)
    flat = tuple(r for r, m in zip(ref.roots, ref.multiplicities)
                 for _ in range(m))
    assert repr((rs, rs.flat)) == repr((ref, flat))


@pytest.mark.parametrize("coeffs", [
    np.array([1 + 2j, 3.0]), [1 + 2j, 3.0], np.array([1.0 + 0j]),
    [np.complex128(1.0), 2.0], ["1", 2.0], np.array(["1.0"]),
    [True, 2.0], [np.True_, 2.0], np.array([True, False]),
    [[1.0, 2.0]], np.ones((2, 2)), [], [10 ** 400], 1 + 2j, True, None,
    {3.0, 1.0}, {1.0: 2.0}])
def test_polynomial_takes_only_real_number_sequences(coeffs):
    with pytest.raises(ValueError):
        Polynomial(coeffs)


def test_polynomial_takes_ints_and_numpy_real_scalars_as_floats():
    p = Polynomial([2, np.float32(0.5), np.int64(-3), np.float64(1.25)])
    assert p.coeffs == (2.0, 0.5, -3.0, 1.25)
    assert all(type(c) is float for c in p.coeffs)
    assert Polynomial(np.array([0, 1, 2])).coeffs == (1.0, 2.0)
    assert Polynomial([Fraction(1, 4), 2]).coeffs == (0.25, 2.0)
    for one in (2, 2.0, np.float32(2.0), np.array(2.0)):  # one coefficient
        assert Polynomial(one).coeffs == (2.0,)
