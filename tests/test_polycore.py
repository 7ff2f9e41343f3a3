import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rirkit.polycore import (
    Polynomial,
    _aberth,
    from_roots,
    poly_eval,
    poly_roots,
)


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


def test_roots_residual_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, deg + 1)
        coeffs[0] = rng.uniform(0.5, 1.5)
        p = Polynomial(coeffs)
        rs = poly_roots(p)
        assert rs.total == p.degree
        assert rs.residual < 1e-8 * (1.0 + np.max(np.abs(coeffs)))


def test_double_root_multiplicity():
    rs = poly_roots(from_roots([1.0, 1.0, 0.5]))
    by_mult = {m: r for r, m in zip(rs.roots, rs.multiplicities)}
    assert set(rs.multiplicities) == {1, 2}
    assert abs(by_mult[2] - 1.0) < 1e-6
    assert abs(by_mult[1] - 0.5) < 1e-6


def test_derivative_basic():
    assert Polynomial([1.0, -3.0, 2.0]).derivative().coeffs == (2.0, -3.0)
    d = Polynomial([5.0]).derivative()
    assert d.is_zero and d.coeffs == (0.0,)


def test_derivative_cubic_against_finite_differences():
    p = Polynomial([1.0, -3.0, 3.0, -1.0])  # (z-1)^3
    dp = p.derivative()
    assert np.allclose(dp.coeffs, [3.0, -6.0, 3.0])
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(5):
        z = np.exp(1j * rng.uniform(0, np.pi))
        fd = (p(z + h) - p(z - h)) / (2 * h)
        assert abs(dp(z) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_derivative_fd_property_unit_circle():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(25):
        deg = int(rng.integers(1, 10))
        p = Polynomial(rng.uniform(-2, 2, deg + 1))
        if p.is_zero:
            continue
        dp = p.derivative()
        z = np.exp(1j * rng.uniform(0, np.pi))
        fd = (p(z + h) - p(z - h)) / (2 * h)
        assert abs(dp(z) - fd) <= 1e-4 * (1.0 + abs(fd))


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


def test_conjugate_closure():
    rng = np.random.default_rng(5)
    for _ in range(25):
        deg = int(rng.integers(2, 11))
        p = Polynomial(rng.uniform(-1, 1, deg + 1))
        if p.degree < 1:
            continue
        flat = poly_roots(p).flat
        for r in flat:
            if abs(r.imag) > 1e-9:
                assert any(abs(r - np.conj(s)) < 1e-9 for s in flat)


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_eval_linear_in_leading_term(tail, re, im):
    # Horner consistency: p(z) = lead * z^n + rest(z)
    coeffs = [1.0] + tail
    p = Polynomial(coeffs)
    if p.degree != len(tail):
        return  # leading trim collapsed the degree
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


def test_roots_cached_per_instance(monkeypatch):
    import rirkit.polycore as polycore

    calls = []

    def counting(p, *args, **kwargs):
        calls.append(p)
        return poly_roots(p, *args, **kwargs)

    monkeypatch.setattr(polycore, "poly_roots", counting)
    p = Polynomial([1.0, -0.5, 0.25, 2.0])
    before = (p, hash(p), repr(p))
    first = p.roots()
    assert p.roots() is first
    assert len(calls) == 1
    # the cache is no field: equality, hash and repr are those of the coeffs
    assert (p, hash(p), repr(p)) == before
    assert p == Polynomial([1.0, -0.5, 0.25, 2.0])
    Polynomial([1.0, -0.5, 0.25, 2.0]).roots()  # a new instance solves anew
    assert len(calls) == 2


def test_aberth_stops_at_rounding_floor():
    # a plant numerator on which the steps stall near 1e-13, above the step
    # tolerance, once the roots are as accurate as rounding allows
    monic = np.array([1.0, 6.745640947358542, 17.381309539022823,
                      20.35914700767102, 9.174150631293426])
    z, converged = _aberth(monic, max_iter=60)
    assert converged
    want = np.roots(monic)
    for r in z:
        assert np.min(np.abs(want - r)) <= 1e-12 * abs(r)


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
    eig = np.linalg.eigvals(np.polynomial.polynomial.polycompanion(
        np.asarray(p.coeffs[::-1])))
    dp = p.derivative()
    eps = np.finfo(float).eps
    for r in rs.flat:
        # forward error is at most backward error over |p'(r)|
        backward = rs.residual + eps * float(
            np.polyval(np.abs(p.coeffs), abs(r)))
        tol = 1e3 * p.degree * backward / abs(dp(r))
        assert np.min(np.abs(eig - r)) <= tol
