"""Real-coefficient polynomial arithmetic and complex root finding.

Coefficients are stored in descending powers of z (leading first).  The
root finder is a simultaneous-iteration (Aberth-Ehrlich) scheme with a
deflation fallback; it is deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Leading near-zeros (relative to the largest coefficient) are trimmed at
    construction.  The zero polynomial is degree 0 with a single zero
    coefficient and ``is_zero`` set.
    """

    coeffs: tuple[float, ...]
    is_zero: bool = field(default=False, compare=False)

    def __init__(self, coeffs, trim_tol: float = TRIM_TOL):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        scale = np.max(np.abs(arr))
        if scale == 0.0:
            object.__setattr__(self, "coeffs", (0.0,))
            object.__setattr__(self, "is_zero", True)
            return
        nz = np.nonzero(np.abs(arr) > trim_tol * scale)[0]
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

    def roots(self, cluster_tol: float = CLUSTER_TOL) -> "RootSet":
        """Clustered roots, solved once per instance and tolerance.

        The cache lives in the instance ``__dict__`` outside the dataclass
        fields, so equality, hashing and repr are unaffected; a ``RootSet``
        is immutable, so sharing it is safe.
        """
        cache = self.__dict__.setdefault("_roots", {})
        if cluster_tol not in cache:
            cache[cluster_tol] = poly_roots(self, cluster_tol=cluster_tol)
        return cache[cluster_tol]

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

    @property
    def flat(self) -> tuple[complex, ...]:
        """Roots repeated according to multiplicity."""
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
    """Expand leading * prod (z - r_i), symmetrizing to real coefficients."""
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [1.0, -complex(r)])
    # conjugate-paired inputs give real coefficients up to rounding
    return Polynomial(leading * coeffs.real)


def _initial_guesses(monic: np.ndarray) -> np.ndarray:
    n = len(monic) - 1
    radius = 1.0 + float(np.max(np.abs(monic[1:])))
    # irrational angular offset keeps guesses off the real axis
    angles = 2.0 * np.pi * (np.arange(n) + 0.354) / n + 0.618
    return radius * np.exp(1j * angles)


def _horner_bound(coeffs, absz):
    """Rounding bound 4 n eps sum |a_k| |z|^k on a Horner value p(z)."""
    n = max(len(coeffs) - 1, 1)
    return 4.0 * n * np.finfo(float).eps * np.polyval(np.abs(coeffs), absz)


def _aberth(monic: np.ndarray, max_iter: int = 500, tol: float = 1e-14):
    """Aberth-Ehrlich simultaneous iteration on a monic polynomial.

    A root is frozen once its residual is within Horner's rounding bound
    (Bini 1996) and its step is below 1e-10 (1 + |z|): past that point the
    steps are rounding noise and can stay above ``tol`` indefinitely.
    Requiring the small step as well keeps a multiple root's approximants
    from freezing apart.  Converged when every root is frozen or its step
    is below ``tol``.
    """
    n = len(monic) - 1
    dmonic = np.polyder(monic)
    z = _initial_guesses(monic)
    active = np.ones(n, dtype=bool)
    for _ in range(max_iter):
        pv = np.polyval(monic, z)
        dv = np.polyval(dmonic, z)
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        # coincident approximants (multiple roots mid-iteration) need a guard
        small = np.abs(diff) < 1e-300
        diff = np.where(small, 1e-300, diff)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = np.sum(inv, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = np.where(active, w / denom, 0.0)
        at_floor = np.abs(pv) <= _horner_bound(monic, np.abs(z))
        z = z - step
        size = np.abs(step)
        scale = 1.0 + np.abs(z)
        active &= ~(at_floor & (size <= 1e-10 * scale))
        if np.all(~active | (size <= tol * scale)):
            return z, True
    return z, False


def _deflation_fallback(monic: np.ndarray) -> np.ndarray:
    """Find roots one at a time by Newton iteration plus deflation."""
    roots: list[complex] = []
    work = monic.astype(complex)
    while len(work) > 1:
        if len(work) == 2:
            roots.append(-work[1] / work[0])
            break
        dwork = np.polyder(work)
        best = None
        radius = 1.0 + float(np.max(np.abs(work[1:] / work[0])))
        for k in range(8):
            z = radius * np.exp(1j * (0.5 + 2.0 * np.pi * k / 8.0)) * 0.7
            for _ in range(200):
                pv = np.polyval(work, z)
                dv = np.polyval(dwork, z)
                if abs(dv) < 1e-300:
                    z = z * (1.0 + 1e-8) + 1e-8
                    continue
                dz = pv / dv
                z = z - dz
                if abs(dz) < 1e-14 * (1.0 + abs(z)):
                    break
            pv = abs(np.polyval(work, z))
            if best is None or pv < best[1]:
                best = (z, pv)
        roots.append(best[0])
        work, _ = np.polydiv(work, np.array([1.0, -best[0]]))
    return np.asarray(roots)


def _symmetrize_conjugates(roots: np.ndarray, pair_tol: float) -> np.ndarray:
    """Force the root multiset of a real polynomial to be conjugate-closed."""
    out = roots.copy()
    scale = 1.0 + np.abs(out)
    real_mask = np.abs(out.imag) <= pair_tol * scale
    out[real_mask] = out[real_mask].real
    pending = [i for i in range(len(out)) if not real_mask[i]]
    used: set[int] = set()
    for i in pending:
        if i in used:
            continue
        best_j, best_d = None, np.inf
        for j in pending:
            if j == i or j in used:
                continue
            d = abs(out[i] - np.conj(out[j]))
            if d < best_d:
                best_j, best_d = j, d
        if best_j is None:
            out[i] = out[i].real  # unpaired leftover collapses to the axis
            continue
        used.add(i)
        used.add(best_j)
        avg = 0.5 * (out[i] + np.conj(out[best_j]))
        out[i] = avg
        out[best_j] = np.conj(avg)
    return out


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


def poly_roots(p: Polynomial, cluster_tol: float = CLUSTER_TOL,
               pair_tol: float = CONJ_PAIR_TOL) -> RootSet:
    """All complex roots of p, clustered by multiplicity.

    Raises ValueError for the zero polynomial (roots undefined).
    """
    if p.is_zero:
        raise ValueError("undefined roots: zero polynomial")
    if p.degree == 0:
        return RootSet(roots=(), multiplicities=(), residual=0.0)
    monic = np.asarray(p.coeffs) / p.coeffs[0]
    z, converged = _aberth(monic)
    if not converged:
        resid = np.max(np.abs(np.polyval(monic, z)))
        if resid > 1e-10 * (1.0 + np.max(np.abs(monic))):
            z = _deflation_fallback(monic)
    z = _symmetrize_conjugates(z, pair_tol)
    centers, counts = _cluster(z, cluster_tol)
    residual = max((abs(poly_eval(p, c)) for c in centers), default=0.0)
    return RootSet(roots=tuple(centers), multiplicities=tuple(counts),
                   residual=float(residual))
