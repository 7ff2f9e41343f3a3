"""Real-coefficient polynomial arithmetic and complex root finding.

Coefficients are stored in descending powers of z (leading first).  Roots
come in closed form to degree 2 and as companion-matrix eigenvalues past it,
each polished by one Newton step on the polynomial's own coefficients; a
product takes its factors' roots where they are its own to rounding.  Each
root carries an inclusion disk, which ``RootSet.sides`` places on circles.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Polynomial",
    "RootSet",
    "poly_eval",
    "poly_roots",
    "from_roots",
]

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in descending powers of z.

    The coefficients are a sequence or 1-d array of real numbers
    (``numbers.Real``: Python and numpy ints and floats among them), or one
    such number, stored as floats.  Complex, bool and string values raise
    ValueError, as do infinities, NaNs and unordered containers (sets and
    dicts); a complex part is never dropped.
    Leading zeros are dropped at construction, and only exact zeros: the
    degree is the number of coefficients after the first nonzero one,
    however small it is against the rest.  The zero polynomial is degree 0
    with a single zero coefficient and ``is_zero`` set.
    """

    coeffs: tuple[float, ...]
    is_zero: bool = field(default=False, compare=False)

    def __init__(self, coeffs):
        if isinstance(coeffs, np.ndarray):
            coeffs = coeffs.tolist()
        elif isinstance(coeffs, (set, frozenset, dict)):
            raise ValueError("coefficients must be an ordered sequence")
        try:
            vals = [c if type(c) is float else _real(c) for c in coeffs]
        except TypeError:  # not a sequence: one coefficient
            vals = [_real(coeffs)]
        if not vals:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not all(map(math.isfinite, vals)):
            raise ValueError("coefficients must be finite")
        lead = 0
        while vals[lead] == 0.0:
            lead += 1
            if lead == len(vals):
                self.__dict__.update(coeffs=(0.0,), is_zero=True)
                return
        self.__dict__.update(coeffs=tuple(vals[lead:]), is_zero=False)

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
                    rs = _root_set(self, z, None, self.coeffs)
            self.__dict__["_roots"] = poly_roots(self) if rs is None else rs
        return self.__dict__["_roots"]

    def __mul__(self, other):
        if isinstance(other, Polynomial):
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

    ``roots[i]`` carries multiplicity ``multiplicities[i]``, and the
    ``radii[i]`` given with it is its inclusion radius (``_cluster``); the
    counts sum to the polynomial degree.  ``residual`` is max |p(root)| over
    the cluster representatives.  ``flat`` and ``radii``, the roots and
    their radii repeated according to multiplicity, live in the instance
    ``__dict__``, outside the dataclass fields, so ``==``, ``hash`` and
    ``repr`` ignore them.
    """

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    residual: float

    def __init__(self, roots, multiplicities, residual, radii):
        flat, rad = tuple(roots), tuple(radii)
        if len(flat) != sum(multiplicities):
            flat, rad = ([x for x, m in zip(xs, multiplicities)
                          for _ in range(m)] for xs in (flat, rad))
        self.__dict__.update(roots=roots, multiplicities=multiplicities,
                             residual=residual, flat=tuple(flat),
                             radii=tuple(rad), _sides={})

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

    def sides(self, radius: float) -> tuple[int, ...]:
        """-1, 0 or 1 for each root of ``flat`` as its disk lies inside,
        reaches or lies outside the circle |z| = radius; kept per radius."""
        seen = self._sides
        if radius not in seen:
            seen[radius] = tuple([0 if abs(abs(r) - radius) <= rho else
                                  (1 if abs(r) > radius else -1)
                                  for r, rho in zip(self.flat, self.radii)])
        return seen[radius]


def _real(c) -> float:
    """c as a float, where c is a real number (bool is not)."""
    if isinstance(c, bool) or not isinstance(c, numbers.Real):
        raise ValueError(f"coefficients must be real numbers, got {c!r}")
    try:
        return float(c)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"coefficient {c} exceeds the float range") from None


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

    The roots are cached for ``roots()`` where they are conjugate-closed,
    each non-real root with its exact conjugate as often, and the expansion
    misses none by more than the rounding bound on prod (z + |r_i|).
    """
    roots = np.asarray(roots, dtype=complex).reshape(-1)
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [1.0, -r])
    # conjugate-paired inputs give real coefficients up to rounding
    p = Polynomial(leading * coeffs.real)
    given = roots.tolist()
    if p.is_zero or Counter(given) != Counter(np.conj(roots).tolist()):
        return p
    majorant = abs(leading) * np.atleast_1d(np.poly(-np.abs(roots)))
    rs = _root_set(p, given, None, majorant.tolist())
    if rs is not None:
        p.__dict__["_roots"] = rs
    return p


def _horner_bound(coeffs, absz: float) -> float:
    """Rounding bound 4 n eps sum |a_k| |z|^k on a Horner value p(z)."""
    acc = 0.0
    for c in coeffs:
        acc = acc * absz + abs(c)
    return 4.0 * max(len(coeffs) - 1, 1) * _EPS * acc


def _cluster_disk(p: Polynomial, members: list[complex]):
    """Mean c of k approximate roots of p and (k! eta / |p^(k)(c)|)^(1/k),
    eta Horner's bound at c: out to that radius p's Taylor term of order k
    outweighs rounding (Rump 2003); inf where the term is 0, 0 where eta is
    too."""
    k, n = len(members), len(p.coeffs) - 1
    c = complex(math.fsum(w.real for w in members) / k,
                math.fsum(w.imag for w in members) / k)
    t = 0.0  # p^(k)(c) / k!
    for i, a in enumerate(p.coeffs[:n - k + 1]):
        t = t * c + a * math.comb(n - i, k)
    eta = _horner_bound(p.coeffs, abs(c))
    return c, (eta / abs(t)) ** (1.0 / k) if t else eta and math.inf


def _cluster(p: Polynomial, roots: list[complex], radii: list[float]):
    """Centres, radii and counts of the clusters of approximate roots of p
    with simple-root radii ``radii``, ascending by (real, imag) of centre.

    Roots whose simple-root disks overlap, directly or through others, are
    one cluster where ``_cluster_disk`` holds them all; a group it does not
    hold drops its longest overlaps and splits again, down to single roots,
    and equal roots always merge.  The rule reads the roots as a set, so
    conjugate-closed roots give conjugate-closed clusters.
    """
    if len(roots) < 2:
        return roots, radii, (1,) * len(roots)
    if len(roots) == 2 and abs(roots[0] - roots[1]) > radii[0] + radii[1]:
        if (roots[1].real, roots[1].imag) < (roots[0].real, roots[0].imag):
            roots, radii = roots[::-1], radii[::-1]
        return roots, radii, (1, 1)
    order = sorted(zip(roots, radii), key=lambda t: (t[0].real, t[0].imag))
    n, reach, links = len(order), max(radii), []
    for i, (r, rho) in enumerate(order):
        for j in range(i + 1, n):  # ascending real parts
            w, s = order[j]
            if w.real - r.real > rho + reach:
                break
            if abs(w - r) <= rho + s:
                links.append((abs(w - r), i, j))
    if not links:
        return (*zip(*order), (1,) * n)
    out, todo = [], [(range(n), links)]
    while todo:
        members, links = todo.pop()
        part = {i: (i,) for i in members}
        for _, i, j in links:
            if part[i] is not part[j]:
                joined = part[i] + part[j]
                for h in joined:
                    part[h] = joined
        for i in members:
            group = part[i]
            if len(group) == 1:
                out.append((*order[i], 1))
            elif group[0] == i:  # each group once, at its first member
                inner = [t for t in links if part[t[1]] is group]
                zs = [order[h][0] for h in group]
                c, rho = _cluster_disk(p, zs)
                cut = max(inner)[0]
                if cut == 0.0 or all(abs(r - c) <= rho for r in zs):
                    out.append((zs[0] if cut == 0.0 else c, rho, len(zs)))
                else:
                    todo.append((group, [t for t in inner if t[0] < cut]))
    return zip(*sorted(out, key=lambda t: (t[0].real, t[0].imag)))


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
    in Python complex arithmetic, brings each to Horner's rounding floor; a
    real root steps in float arithmetic, which gives the real parts of the
    complex steps with zero imaginary parts, bit for bit.  Both run on an
    exact power-of-two rescaling, so subnormal p' cannot overflow the step.
    The same pass forms Horner's bound eta = 4 n eps sum |a_k| |r|^k, and
    each root's inclusion radius is n eta / |p'(r)| before the step: as
    p'/p = sum 1/(r - z_i), that disk holds a root of p + e for each
    |e| <= eta (inf where p'(r) is 0, and 0 where eta is too: an exact 0).
    The step is skipped where p or p' is exactly zero (zero and exact
    multiple roots).
    Raises ValueError for the zero polynomial (roots undefined) and where
    doubles cannot hold the answer: where the coefficients spread beyond
    ~2**1074, so that the rescaling underflows the leading one to 0, where
    past degree 2 a companion entry c_k/c_0 overflows, and where a polished
    root's modulus is not finite.
    """
    if p.is_zero:
        raise ValueError("undefined roots: zero polynomial")
    shift = -math.frexp(max(map(abs, p.coeffs)))[1]
    c = [math.ldexp(a, shift) for a in p.coeffs]
    if c[0] == 0.0:
        raise ValueError("coefficients spread beyond the double range: the "
                         "leading one underflows at the largest's scale")
    n = len(c)
    while c[n - 1] == 0.0:
        n -= 1
    if n > 3:
        row = [-a / c[0] for a in c[1:n]]
        if not all(map(math.isfinite, row)):
            raise ValueError("coefficients spread beyond the double range: "
                             "a companion entry c_k/c_0 overflows")
        companion = np.diag(np.ones(n - 2), -1)
        companion[0, :] = row
        z = np.linalg.eigvals(companion).tolist()
    elif n == 3:
        z = list(_quadratic_roots(*c[:3]))
    else:
        z = [-c[1] / c[0]] if n == 2 else []
    z += [0.0] * (len(c) - n)
    m, polished, radii = len(c) - 1, [], []
    # p, p' on the coefficients c_k (m - k), and Horner's bound on |c_k|
    rows = [(a, a * (m - k), abs(a)) for k, a in enumerate(c[1:m], 1)]
    c0, d0, e0, em = c[0], c[0] * m, abs(c[0]), abs(c[m])
    scale = 4.0 * m * m * _EPS  # m eta / |p'(r)|, eta = 4 m eps ev
    for r in z:
        if r.imag == 0.0:  # float steps: the complex ones' real parts
            r = r.real
        pv, dv, ev, a = c0, d0, e0, abs(r)
        for ck, dk, ek in rows:
            pv = pv * r + ck
            dv = dv * r + dk
            ev = ev * a + ek
        pv = pv * r + c[m]
        if pv != 0.0 and dv != 0.0:
            r -= pv / dv
        if not math.isfinite(math.hypot(r.real, r.imag)):
            raise ValueError(f"a root lies beyond the double range: {r}")
        polished.append(complex(r))
        ev = ev * a + em
        radii.append(scale * ev / abs(dv) if dv else ev and math.inf)
    return _root_set(p, polished, radii, None)


def _root_set(p: Polynomial, z: list[complex], radii, majorant):
    """Cluster approximate roots z of p, which are conjugate-closed.

    ``radii`` are z's simple-root radii, or None for given roots: then None
    comes back where some r has |p(r)| above eta =
    ``_horner_bound(majorant, |r|)``, and the radii are formed on eta.
    """
    if radii is None:
        m, radii = len(p.coeffs) - 1, []
        rows = [(a, abs(b)) for a, b in zip(p.coeffs, majorant)]
        for r in z:  # p(r), p'(r) and _horner_bound(majorant, |r|)
            pv = dv = ev = 0.0
            a = abs(r)
            for ck, mk in rows:
                dv = dv * r + pv
                pv = pv * r + ck
                ev = ev * a + mk
            eta = 4.0 * max(m, 1) * _EPS * ev
            if abs(pv) > eta:
                return None
            radii.append(m * eta / abs(dv) if dv else eta and math.inf)
    centers, radii, counts = _cluster(p, z, radii)
    values = [abs(poly_eval(p, c)) for c in centers]
    return RootSet(roots=tuple(centers), multiplicities=tuple(counts),
                   residual=float(max(values, default=0.0)), radii=radii)
