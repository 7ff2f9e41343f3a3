"""Real-coefficient polynomial arithmetic and complex root finding.

Coefficients are stored in descending powers of z (leading first).  Roots
are the eigenvalues of the balanced companion matrix, each polished by one
Newton step on the polynomial's own coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Polynomial",
    "RootSet",
    "poly_eval",
    "poly_roots",
    "poly_derivative",
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
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        scale = np.max(np.abs(arr))
        if scale == 0.0:
            object.__setattr__(self, "coeffs", (0.0,))
            object.__setattr__(self, "is_zero", True)
            return
        nz = np.nonzero(np.abs(arr) > TRIM_TOL * scale)[0]
        arr = arr[nz[0]:]
        object.__setattr__(self, "coeffs", tuple(float(c) for c in arr))
        object.__setattr__(self, "is_zero", False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return poly_eval(self, z)

    def derivative(self) -> "Polynomial":
        return poly_derivative(self)

    def roots(self) -> "RootSet":
        """Clustered roots, solved once per instance.

        The cache lives in the instance ``__dict__`` outside the dataclass
        fields, so equality, hashing and repr are unaffected; a ``RootSet``
        is immutable, so sharing it is safe.
        """
        if "_roots" not in self.__dict__:
            self.__dict__["_roots"] = poly_roots(self)
        return self.__dict__["_roots"]

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial([0.0])
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(np.asarray(self.coeffs) * float(other))

    __rmul__ = __mul__

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        b = np.zeros(n)
        a[n - len(self.coeffs):] = self.coeffs
        b[n - len(other.coeffs):] = other.coeffs
        return Polynomial(a + b)

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
    if np.isscalar(z) or isinstance(z, complex):
        acc = 0.0 + 0.0j if isinstance(z, complex) else 0.0
        for c in p.coeffs:
            acc = acc * z + c
        return acc
    z = np.asarray(z)
    acc = np.zeros_like(z, dtype=complex if np.iscomplexobj(z) else float)
    for c in p.coeffs:
        acc = acc * z + c
    return acc


def poly_derivative(p: Polynomial) -> Polynomial:
    """Formal derivative; a constant maps to the zero polynomial."""
    if p.degree == 0:
        return Polynomial([0.0])
    n = p.degree
    return Polynomial([c * (n - k) for k, c in enumerate(p.coeffs[:-1])])


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
    rs = _root_set(p, roots)
    majorant = abs(leading) * np.poly(-np.abs(roots))
    if all(abs(poly_eval(p, c)) <= _horner_bound(majorant, abs(c))
           for c in rs.roots):
        p.__dict__["_roots"] = rs
    return p


def _horner_bound(coeffs, absz):
    """Rounding bound 4 n eps sum |a_k| |z|^k on a Horner value p(z)."""
    n = max(len(coeffs) - 1, 1)
    return 4.0 * n * np.finfo(float).eps * np.polyval(np.abs(coeffs), absz)


def _cluster(roots: np.ndarray, tol: float):
    order = np.lexsort((roots.imag, roots.real))
    centers: list[complex] = []
    counts: list[int] = []
    for idx in order:
        z = roots[idx]
        placed = False
        for k, c in enumerate(centers):
            if abs(z - c) <= tol:
                centers[k] = (c * counts[k] + z) / (counts[k] + 1)
                counts[k] += 1
                placed = True
                break
        if not placed:
            centers.append(complex(z))
            counts.append(1)
    return centers, counts


def poly_roots(p: Polynomial) -> RootSet:
    """All complex roots of p, clustered by multiplicity.

    ``np.roots`` gives the eigenvalues of the balanced companion matrix,
    backward stable up to coefficient scaling; one Newton step on p's own
    coefficients brings them to Horner's rounding floor.  Both run on an
    exact power-of-two rescaling, so subnormal p' cannot overflow the step.
    The step is skipped where p or p' is exactly zero (zero and exact
    multiple roots).
    Raises ValueError for the zero polynomial (roots undefined).
    """
    if p.is_zero:
        raise ValueError("undefined roots: zero polynomial")
    if p.degree == 0:
        return RootSet(roots=(), multiplicities=(), residual=0.0)
    c = np.ldexp(p.coeffs, -np.frexp(max(map(abs, p.coeffs)))[1])
    z = np.roots(c).astype(complex)
    pv = np.polyval(c, z)
    dv = np.polyval(np.polyder(c), z)
    step = (pv != 0.0) & (dv != 0.0)
    z[step] -= pv[step] / dv[step]
    return _root_set(p, z)


def _root_set(p: Polynomial, z: np.ndarray) -> RootSet:
    """Snap near-real roots to the axis and cluster approximate roots z of p.

    ``np.roots`` returns LAPACK's exact conjugate pairs for real p, and the
    Newton step in ``poly_roots`` keeps them exact, so only roots within
    CONJ_PAIR_TOL (1 + |z|) of the real axis need symmetrizing.
    """
    z = np.where(np.abs(z.imag) <= CONJ_PAIR_TOL * (1.0 + np.abs(z)),
                 z.real, z)
    centers, counts = _cluster(z, CLUSTER_TOL)
    residual = max((abs(poly_eval(p, c)) for c in centers), default=0.0)
    return RootSet(roots=tuple(centers), multiplicities=tuple(counts),
                   residual=float(residual))
