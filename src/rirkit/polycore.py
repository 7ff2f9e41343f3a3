"""Real-coefficient polynomial arithmetic and complex root finding.

Coefficients are stored in descending powers of z (leading first).  Roots
come in closed form to degree 2 and as companion-matrix eigenvalues past it,
each polished by one Newton step on the polynomial's own coefficients; a
product takes its factors' roots where they are its own to rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Polynomial",
    "RootSet",
    "poly_eval",
    "poly_roots",
    "from_roots",
]

TRIM_TOL = 1e-12
CLUSTER_TOL = 1e-7
CONJ_PAIR_TOL = 1e-9


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in descending powers of z.

    Leading coefficients within TRIM_TOL of the largest (relative) are
    trimmed at construction.  The zero polynomial is degree 0 with a single
    zero coefficient and ``is_zero`` set.
    """

    coeffs: tuple[float, ...]
    is_zero: bool = field(default=False, compare=False)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        vals = arr.tolist()
        if not all(map(math.isfinite, vals)):
            raise ValueError("coefficients must be finite")
        scale = max(map(abs, vals))
        if scale == 0.0:
            object.__setattr__(self, "coeffs", (0.0,))
            object.__setattr__(self, "is_zero", True)
            return
        lead = next(k for k, c in enumerate(vals) if abs(c) > TRIM_TOL * scale)
        object.__setattr__(self, "coeffs", tuple(vals[lead:]))
        object.__setattr__(self, "is_zero", False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return poly_eval(self, z)

    def roots(self) -> "RootSet":
        """Clustered roots, found once per instance.

        A product made by ``*`` takes the union of its factors' roots when
        each is a root of the product's own coefficients to within Horner's
        rounding bound, and is solved like any other polynomial otherwise.
        Until its roots are first read, a product keeps both factors (and
        their cached roots) alive.  Reading them reads the factors' roots
        first, solving any factor not yet solved, so in a chain
        ``p * q * r`` it recurses one level per factor and caches the roots
        of every intermediate product.
        The cache lives in the instance ``__dict__`` outside the dataclass
        fields, so equality, hashing and repr are unaffected; a ``RootSet``
        is immutable, so sharing it is safe.
        """
        if "_roots" not in self.__dict__:
            factors = self.__dict__.pop("_factors", None)
            rs = None
            if factors is not None:
                z = factors[0].roots().flat + factors[1].roots().flat
                if len(z) == self.degree:
                    rs = _root_set(self, z, self.coeffs)
            self.__dict__["_roots"] = poly_roots(self) if rs is None else rs
        return self.__dict__["_roots"]

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial([0.0])
            product = Polynomial(np.convolve(self.coeffs, other.coeffs))
            product.__dict__["_factors"] = (self, other)
            return product
        k = float(other)
        return Polynomial([c * k for c in self.coeffs])

    __rmul__ = __mul__

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = (0.0,) * (n - len(a)) + a
        b = (0.0,) * (n - len(b)) + b
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1.0) * other


@dataclass(frozen=True)
class RootSet:
    """Clustered roots of a polynomial.

    ``roots[i]`` carries multiplicity ``multiplicities[i]``; the counts sum
    to the polynomial degree.  ``residual`` is max |p(root)| over the
    cluster representatives.
    """

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    residual: float

    @cached_property
    def flat(self) -> tuple[complex, ...]:
        """Roots repeated according to multiplicity, built on first use.

        The tuple is cached in the instance ``__dict__``, outside the
        dataclass fields, so ``==``, ``hash`` and ``repr`` ignore it.
        """
        out: list[complex] = []
        for r, m in zip(self.roots, self.multiplicities):
            out.extend([r] * m)
        return tuple(out)

    @property
    def total(self) -> int:
        return sum(self.multiplicities)


def poly_eval(p: Polynomial, z):
    """Horner evaluation; accepts scalars or arrays."""
    if isinstance(z, complex) or np.isscalar(z):
        acc = 0.0 + 0.0j if isinstance(z, complex) else 0.0
        for c in p.coeffs:
            acc = acc * z + c
        return acc
    z = np.asarray(z)
    acc = np.zeros_like(z, dtype=complex if np.iscomplexobj(z) else float)
    for c in p.coeffs:
        acc = acc * z + c
    return acc


def from_roots(roots, leading: float = 1.0) -> Polynomial:
    """Expand leading * prod (z - r_i), symmetrizing to real coefficients.

    The roots are cached for ``roots()`` unless trimming changes the degree
    or the expansion misses one by more than the rounding bound on
    prod (z + |r_i|), as roots that are not conjugate-closed do.
    """
    roots = np.asarray(roots, dtype=complex).reshape(-1)
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [1.0, -r])
    # conjugate-paired inputs give real coefficients up to rounding
    p = Polynomial(leading * coeffs.real)
    if p.is_zero or p.degree != len(roots):
        return p
    majorant = abs(leading) * np.atleast_1d(np.poly(-np.abs(roots)))
    rs = _root_set(p, roots.tolist(), majorant)
    if rs is not None:
        p.__dict__["_roots"] = rs
    return p


def _horner_bound(coeffs, absz: float) -> float:
    """Rounding bound 4 n eps sum |a_k| |z|^k on a Horner value p(z)."""
    acc = 0.0
    for c in coeffs:
        acc = acc * absz + abs(c)
    return 4.0 * max(len(coeffs) - 1, 1) * sys.float_info.epsilon * acc


def _cluster(roots: list[complex], tol: float):
    """Cluster centres (running means) and counts of roots within tol of
    each other, in ascending (real, imag) order."""
    order = sorted(roots, key=lambda z: (z.real, z.imag))
    centers: list[complex] = []
    counts: list[int] = []
    for z in order:
        for k, c in enumerate(centers):
            if abs(z - c) <= tol:
                centers[k] = (c * counts[k] + z) / (counts[k] + 1)
                counts[k] += 1
                break
        else:
            centers.append(z)
            counts.append(1)
    return centers, counts


def _quadratic_roots(a: float, b: float, c: float):
    """Both roots of a x^2 + b x + c, a nonzero, free of cancellation: the
    floats q/a and c/q with q = -(b + sign(b) sqrt(b^2 - 4ac))/2 (q = 0 only
    at the double root 0), or for a negative discriminant an exact
    conjugate pair of complex numbers (Higham 2002, section 1.8)."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        re, im = -b / (2.0 * a), math.sqrt(-disc) / abs(2.0 * a)
        return complex(re, im), complex(re, -im)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return (q / a, c / q) if q != 0.0 else (0.0, 0.0)


def poly_roots(p: Polynomial) -> RootSet:
    """All complex roots of p, clustered by multiplicity.

    Past degree 2 the roots are the eigenvalues of the balanced companion
    matrix that ``np.roots`` builds (LAPACK, backward stable up to scaling);
    degree 1 is -c1/c0, degree 2 ``_quadratic_roots``, and a trailing zero
    coefficient an exact root at 0.  One Newton step on p's own coefficients,
    in Python complex arithmetic, brings each to Horner's rounding floor.  Both
    run on an exact power-of-two rescaling, so subnormal p' cannot overflow the
    step.  The step is skipped where p or p' is exactly zero (zero and exact
    multiple roots).
    Raises ValueError for the zero polynomial (roots undefined).
    """
    if p.is_zero:
        raise ValueError("undefined roots: zero polynomial")
    if p.degree == 0:
        return RootSet(roots=(), multiplicities=(), residual=0.0)
    shift = -math.frexp(max(map(abs, p.coeffs)))[1]
    c = [math.ldexp(a, shift) for a in p.coeffs]
    n = len(c)
    while c[n - 1] == 0.0:
        n -= 1
    if n > 3:
        companion = np.diag(np.ones(n - 2), -1)
        companion[0, :] = -np.array(c[1:n]) / c[0]
        z = np.linalg.eigvals(companion).tolist()
    elif n == 3:
        z = list(_quadratic_roots(*c[:3]))
    else:
        z = [-c[1] / c[0]] if n == 2 else []
    z += [0.0] * (len(c) - n)
    dc = [a * (len(c) - 1 - k) for k, a in enumerate(c[:-1])]
    polished = []
    for r in z:
        r = complex(r)
        pv, dv = complex(c[0]), complex(dc[0])
        for a in c[1:]:
            pv = pv * r + a
        for a in dc[1:]:
            dv = dv * r + a
        if pv != 0.0 and dv != 0.0:
            r -= pv / dv
        polished.append(r)
    return _root_set(p, polished, None)


def _root_set(p: Polynomial, z: list[complex], majorant):
    """Snap near-real roots to the axis and cluster approximate roots z of p.

    Complex roots come in exact conjugate pairs from LAPACK's real eigensolver
    and ``_quadratic_roots``, and the Newton step in ``poly_roots`` keeps them
    exact, so only roots within CONJ_PAIR_TOL (1 + |z|) of the real axis need
    symmetrizing.  Unless ``majorant`` is None, None comes back when a cluster
    centre r has |p(r)| above ``_horner_bound(majorant, |r|)``.
    """
    z = [complex(r.real) if abs(r.imag) <= CONJ_PAIR_TOL * (1.0 + abs(r))
         else r for r in z]
    centers, counts = _cluster(z, CLUSTER_TOL)
    values = [abs(poly_eval(p, c)) for c in centers]
    if majorant is not None and any(
            v > _horner_bound(majorant, abs(c))
            for v, c in zip(values, centers)):
        return None
    return RootSet(roots=tuple(centers), multiplicities=tuple(counts),
                   residual=float(max(values, default=0.0)))
