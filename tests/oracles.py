"""Independent reference implementations that only the tests use.

None of these is on a path to a reported result; each one recomputes
something the package computes another way, so the tests can compare the
two exactly:

* :class:`MVPoly` - sparse multivariate polynomials with exact (int or
  Fraction) coefficients, used to expand the Gram determinant literally;
* :func:`even_moment_by_expansion` - E V^(2k) in T3 from the full sparse
  expansion of D^k, against the Lagrange-identity expansion of
  ``simplexmoments.tetra``;
* :func:`centered_integral_by_loop` and :func:`pair_integral_by_dict` -
  the two integrals of ``simplexmoments.tetra`` by a triple binomial loop
  and a dict-keyed bivariate product, against the engine's products of
  integer coefficient lists;
* :func:`even_moment_by_slots` - the same moments by the six-slot
  decomposition of D and a six-deep binomial loop for the free case's
  coupled integral, the engine that wrote the frozen tables;
* :func:`gram_volume` - simplex volumes by an exact Gram determinant (or a
  singular-value product), against the Monte Carlo volume kernel;
* :func:`simplex_volumes_unblocked` - the Monte Carlo volume kernel over
  all rows at once, the form that froze the Monte Carlo goldens, against
  the row-blocked kernel;
* :func:`sample_uniform_points_first` - uniform points in a body, a
  prism's base points all drawn before its heights into arrays of their
  own, against the prism draw through edge planes;
* :func:`sample_boundary_unblocked` - the prism boundary sampler's draws
  filled over all points at once through boolean masks, the form that
  froze the sampler goldens, against the block-wise fill;
* :func:`monomial_integral_T3` and :func:`boundary_residual` - the
  per-point factorial integral and the distance to a body's boundary;
* :func:`solve_fraction_free` - an exact Bareiss solve of a square
  rational system, against the Newton-form Hermite interpolant and the
  Lagrange weights of the node search;
* :func:`ref_mul`, :func:`ref_divmod` and :func:`ref_derivative` -
  schoolbook arithmetic on coefficient lists, lowest degree first, which
  builds the test polynomials and the rational references that the
  integer remainder sequences are checked against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Mapping, Sequence, Tuple

import numpy as np

from simplexmoments._expansion import _fact
from simplexmoments.errors import UsageError
from simplexmoments.geometry import Body, _margins
from simplexmoments.mc import _boundary_faces, _draw, sample_uniform
from simplexmoments.tetra import CASE_FIXED, CASE_FREE, _normalize_case


def _exact(value):
    """An int stays an int, so integer polynomials multiply in int arithmetic."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected exact rational, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


class MVPoly:
    """Sparse multivariate polynomial with exact coefficients.

    Terms are stored as a dict from exponent tuples (one nonnegative int per
    variable) to nonzero coefficients. Instances are never mutated after
    construction.
    """

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        self.variables = tuple(variables)
        nvars = len(self.variables)
        clean: dict = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not match {nvars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = _exact(coeff)
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self._terms = clean

    @classmethod
    def _from_terms(cls, variables, terms: dict) -> "MVPoly":
        out = cls(variables)
        out._terms = terms
        return out

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MVPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "MVPoly":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MVPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): 1})

    def terms(self) -> dict:
        return dict(self._terms)

    def coefficient(self, exps: tuple):
        return self._terms.get(tuple(exps), 0)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point given in variable order."""
        values = [Fraction(_exact(v)) for v in point]
        if len(values) != len(self.variables):
            raise ValueError("point length does not match variable count")
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = Fraction(coeff)
            for val, e in zip(values, exps):
                if e:
                    term *= val**e
            total += term
        return total

    def _check_compatible(self, other: "MVPoly") -> None:
        if self.variables != other.variables:
            raise ValueError("polynomials are over different variable tuples")

    def __add__(self, other):
        if not isinstance(other, MVPoly):
            other = MVPoly.constant(self.variables, other)
        self._check_compatible(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return MVPoly._from_terms(self.variables, terms)

    def __neg__(self):
        return MVPoly._from_terms(self.variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MVPoly):
            other = MVPoly.constant(self.variables, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MVPoly):
            return mv_mul(self, other)
        scalar = _exact(other)
        terms = {e: c * scalar for e, c in self._terms.items()} if scalar else {}
        return MVPoly._from_terms(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return mv_pow(self, k)

    def __eq__(self, other):
        if not isinstance(other, MVPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms


def mv_mul(a: MVPoly, b: MVPoly) -> MVPoly:
    """Exact product of two sparse polynomials over the same variables."""
    a._check_compatible(b)
    terms: dict = {}
    for ea, ca in a._terms.items():
        for eb, cb in b._terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = terms.get(key, 0) + ca * cb
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
    return MVPoly._from_terms(a.variables, terms)


def mv_pow(p: MVPoly, k: int) -> MVPoly:
    """``p ** k`` by binary exponentiation (k >= 0)."""
    if k < 0:
        raise ValueError("negative power of a polynomial")
    result = MVPoly.constant(p.variables, 1)
    base = p
    while k:
        if k & 1:
            result = mv_mul(result, base)
        k >>= 1
        if k:
            base = mv_mul(base, base)
    return result


# ---------------------------------------------------------------------------
# even moments of the triangle area in T3 by literal expansion of D^k


def monomial_integral_T3(l: int, m: int, n: int) -> Fraction:
    """Exact integral of x^l y^m z^n over the standard tetrahedron:
    l! m! n! / (l+m+n+3)!."""
    num = math.factorial(l) * math.factorial(m) * math.factorial(n)
    return Fraction(num, math.factorial(l + m + n + 3))


def build_gram_poly(case: str, integral: bool = False) -> MVPoly:
    """Exact Gram-determinant polynomial D = 4 (triangle area)^2.

    Free case: variables (x0, y0, z0, x1, y1, z1, x2, y2, z2) and edge
    vectors u = X1 - X0, v = X2 - X0, integer coefficients.  Fixed-centroid
    case: variables (x1, ..., z2) with u = X1 - c, v = X2 - c for
    c = (1/3, 1/3, 1/3); with ``integral`` set the edge vectors are
    3 (X - c) = 3 X - 1 instead, so the polynomial is 81 D with integer
    coefficients.
    """
    case = _normalize_case(case)
    if case == CASE_FREE:
        names = ("x0", "y0", "z0", "x1", "y1", "z1", "x2", "y2", "z2")
        var = [MVPoly.variable(names, n) for n in names]
        u = [var[3 + a] - var[a] for a in range(3)]
        v = [var[6 + a] - var[a] for a in range(3)]
    else:
        names = ("x1", "y1", "z1", "x2", "y2", "z2")
        var = [MVPoly.variable(names, n) for n in names]
        scale, offset = (3, 1) if integral else (1, Fraction(1, 3))
        u = [scale * var[a] - offset for a in range(3)]
        v = [scale * var[3 + a] - offset for a in range(3)]
    uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    vv = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    uv = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    return uu * vv - uv * uv


def even_moment_by_expansion(case: str, k: int) -> Fraction:
    """E V^(2k) by explicit expansion of D^k and per-point integration.

    Builds the full sparse polynomial D^k on integer coefficients (the
    fixed-centroid case expands (81 D)^k and divides by 81^k at the end)
    and contracts every monomial block (x_i, y_i, z_i) with the exact
    tetrahedron monomial integral, over one common denominator.
    Exponential in k; an independent cross-check for small k.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise UsageError("moment half-order k must be a nonnegative integer")
    case = _normalize_case(case)
    if k == 0:
        return Fraction(1)
    power = build_gram_poly(case, integral=True) ** k
    scale = 81**k if case == CASE_FIXED else 1
    npoints = len(power.variables) // 3
    # every block integral times (4k+3)! is an integer: no block exceeds degree 4k
    den = math.factorial(4 * k + 3)
    weight = {}
    total = 0
    for exps, coeff in power.terms().items():
        for b in range(0, len(exps), 3):
            block = exps[b : b + 3]
            if block not in weight:
                weight[block] = int(monomial_integral_T3(*block) * den)
            coeff *= weight[block]
        total += coeff
    return Fraction(6**npoints * total, 4**k * scale * den**npoints)


# ---------------------------------------------------------------------------
# the engine's two integrals by direct loops


@lru_cache(maxsize=None)
def centered_integral_by_loop(e: Tuple[int, int, int]) -> int:
    """Numerator of the tetrahedron integral of prod_a (w_a - 1/3)^e_a.

    The value of the integral is the returned integer divided by
    3^|e| (|e|+3)!.  Symmetric in the entries of e, so callers should pass
    a sorted tuple to share cache entries.
    """
    d = sum(e)
    total = 0
    for s0 in range(e[0] + 1):
        for s1 in range(e[1] + 1):
            for s2 in range(e[2] + 1):
                ds = s0 + s1 + s2
                sign = -1 if (d - ds) % 2 else 1
                total += (
                    sign
                    * math.comb(e[0], s0)
                    * math.comb(e[1], s1)
                    * math.comb(e[2], s2)
                    * 3**ds
                    * _fact(s0)
                    * _fact(s1)
                    * _fact(s2)
                    * (_fact(d + 3) // _fact(ds + 3))
                )
    return total


def pair_integral_by_dict(cols: Tuple[Tuple[int, int], ...]) -> int:
    """Numerator of the triple-tetrahedron integral of
    prod_a (X1 - X0)_a^e_a (X2 - X0)_a^f_a, for cols = ((e_a, f_a))_a.

    The value is the returned integer divided by
    (|e|+3)! (|f|+3)! (|e|+|f|+3)!.  Expand both differences binomially and
    let r and s be the powers of X0 taken from the first and the second;
    integrating X1 and X2 leaves X0^(r+s) weighted by
    prod_a e_a!/r_a! f_a!/s_a!, so the integral is
    e! f! sum_(m,n) (-1)^(m+n) T(m,n) / ((|e|-m+3)! (|f|-n+3)! (m+n+3)!),
    where T(m,n) is the x^m y^n coefficient of prod_a P_(e_a,f_a)(x, y)
    and P_(p,q) = sum_(r<=p, s<=q) C(r+s, r) x^r y^s.
    """
    t = {(0, 0): 1}
    for p, q in cols:
        nxt: dict = {}
        for (m, n), c in t.items():
            for r in range(p + 1):
                for s in range(q + 1):
                    key = (m + r, n + s)
                    nxt[key] = nxt.get(key, 0) + c * math.comb(r + s, r)
        t = nxt
    de, df = (sum(c) for c in zip(*cols))
    total = 0
    for (m, n), c in t.items():
        c *= (_fact(de + 3) // _fact(de - m + 3)) * (_fact(df + 3) // _fact(df - n + 3))
        total += (-1) ** (m + n) * c * (_fact(de + df + 3) // _fact(m + n + 3))
    for p, q in cols:
        total *= _fact(p) * _fact(q)
    return total


# ---------------------------------------------------------------------------
# even moments of the triangle area in T3 by the six-slot decomposition
#
# D = sum_a u_a^2 (|v|^2 - v_a^2) - 2 sum_{a<b} (u_a v_a)(u_b v_b), and the
# multinomial theorem over the six slots.  A slot pattern fixes the
# u-exponent vector outright, and the diagonal factors (|v|^2 - v_a^2)
# expand through three short binomial sums, so every pattern yields a small
# family of split monomials u^e v^f with known integer weights.  The free
# case integrates each one with a six-deep binomial loop over the three
# coupled points.


@lru_cache(maxsize=None)
def _edge_pair_integral_num(e: Tuple[int, int, int], f: Tuple[int, int, int]) -> int:
    """Numerator of the triple-tetrahedron integral of
    prod_a (X1 - X0)_a^e_a (X2 - X0)_a^f_a.

    The value is the returned integer divided by
    (|e|+3)! (|f|+3)! (|e|+|f|+3)!.  Both difference factors expand
    binomially in the X0 coordinates; the three points then integrate
    independently as factorial ratios.
    """
    de, df = sum(e), sum(f)
    total = 0
    for i in itertools.product(*(range(a + 1) for a in e)):
        di = sum(i)
        ci = (
            math.comb(e[0], i[0])
            * math.comb(e[1], i[1])
            * math.comb(e[2], i[2])
            * _fact(i[0])
            * _fact(i[1])
            * _fact(i[2])
            * (_fact(de + 3) // _fact(di + 3))
        )
        si = (de - di) % 2
        rest = (e[0] - i[0], e[1] - i[1], e[2] - i[2])
        for j in itertools.product(*(range(b + 1) for b in f)):
            dj = sum(j)
            cj = (
                math.comb(f[0], j[0])
                * math.comb(f[1], j[1])
                * math.comb(f[2], j[2])
                * _fact(j[0])
                * _fact(j[1])
                * _fact(j[2])
                * (_fact(df + 3) // _fact(dj + 3))
            )
            g0 = rest[0] + f[0] - j[0]
            g1 = rest[1] + f[1] - j[1]
            g2 = rest[2] + f[2] - j[2]
            dg = g0 + g1 + g2
            cg = (
                _fact(g0)
                * _fact(g1)
                * _fact(g2)
                * (_fact(de + df + 3) // _fact(dg + 3))
            )
            sign = -1 if (si + (df - dj)) % 2 else 1
            total += sign * ci * cj * cg
    return total


def _edge_pair_num(e: Tuple[int, int, int], f: Tuple[int, int, int]) -> int:
    # the integral is invariant under simultaneous coordinate permutations
    # and under swapping the two difference vectors; canonicalize so the
    # cache sees one representative per orbit
    best = None
    for perm in itertools.permutations((0, 1, 2)):
        pe = tuple(e[q] for q in perm)
        pf = tuple(f[q] for q in perm)
        for key in (pe + pf, pf + pe):
            if best is None or key < best:
                best = key
    return _edge_pair_integral_num(best[:3], best[3:])


def _centered_num(e: Tuple[int, int, int]) -> int:
    return centered_integral_by_loop(tuple(sorted(e)))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _slot_patterns(k: int):
    """Multinomial patterns over the six slots of the Gram decomposition.

    Yields (weight, diag, e_u, g) where weight is the signed integer
    multiplier, diag = (k11, k22, k33) counts the diagonal slots, e_u is
    the complete u-exponent vector, and g is the off-diagonal part of the
    v-exponent vector (the diagonal v-part still needs the binomial sums).
    """
    for kap in _compositions(k, 6):
        k11, k22, k33, k12, k13, k23 = kap
        off = k12 + k13 + k23
        mult = _fact(k) // (
            _fact(k11) * _fact(k22) * _fact(k33) * _fact(k12) * _fact(k13) * _fact(k23)
        )
        weight = mult * (-2) ** off
        e_u = (2 * k11 + k12 + k13, 2 * k22 + k12 + k23, 2 * k33 + k13 + k23)
        g = (k12 + k13, k12 + k23, k13 + k23)
        yield weight, (k11, k22, k33), e_u, g


def _diag_binomials(diag: Tuple[int, int, int], g: Tuple[int, int, int]):
    """Expansion of prod_a (|v|^2 - v_a^2)^diag_a into v-exponent vectors.

    Yields (binomial weight, f) pairs; f already includes the off-diagonal
    contribution g.
    """
    k11, k22, k33 = diag
    for i in range(k11 + 1):
        ci = math.comb(k11, i)
        for j in range(k22 + 1):
            cij = ci * math.comb(k22, j)
            for l in range(k33 + 1):
                w = cij * math.comb(k33, l)
                f = (
                    g[0] + 2 * j + 2 * l,
                    g[1] + 2 * i + 2 * (k33 - l),
                    g[2] + 2 * (k11 - i) + 2 * (k22 - j),
                )
                yield w, f


def _even_moment_fixed(k: int) -> Fraction:
    acc = 0
    for weight, diag, e_u, g in _slot_patterns(k):
        ju = _centered_num(e_u)
        inner = 0
        for w, f in _diag_binomials(diag, g):
            inner += w * _centered_num(f)
        acc += weight * ju * inner
    den = 3 ** (2 * k) * _fact(2 * k + 3)
    return Fraction(36, 4**k) * Fraction(acc, den * den)


def _even_moment_free(k: int) -> Fraction:
    acc = 0
    for weight, diag, e_u, g in _slot_patterns(k):
        inner = 0
        for w, f in _diag_binomials(diag, g):
            inner += w * _edge_pair_num(e_u, f)
        acc += weight * inner
    d2k = _fact(2 * k + 3)
    return Fraction(216, 4**k) * Fraction(acc, d2k * d2k * _fact(4 * k + 3))


def even_moment_by_slots(case: str, k: int) -> Fraction:
    """E V^(2k) by the six-slot decomposition of the Gram determinant."""
    case = _normalize_case(case)
    if k == 0:
        return Fraction(1)
    if case == CASE_FIXED:
        return _even_moment_fixed(k)
    return _even_moment_free(k)


# ---------------------------------------------------------------------------
# simplex volumes and boundary distance


def _det_fraction(rows) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def _gram_det_exact(pts) -> Fraction:
    base = pts[0]
    vecs = [[Fraction(a) - Fraction(b) for a, b in zip(p, base)] for p in pts[1:]]
    gram = [[sum(x * y for x, y in zip(u, v)) for v in vecs] for u in vecs]
    return _det_fraction(gram)


def gram_volume(points) -> float:
    """(n-1)-dimensional volume of the convex hull of n points in R^d.

    For n points the value is sqrt(det(M^T M)) / (n-1)! where the columns of
    M are the edge vectors from the first point.  Rational inputs go through
    exact determinant arithmetic with a single floating square root at the
    end; floating inputs use a singular-value product, which is stable for
    nearly degenerate point sets.

    Degenerate (affinely dependent) inputs give 0.  Raises UsageError for
    fewer than two points, for more than d+1 points, or for ragged input.
    """
    pts = [tuple(p) for p in points]
    n = len(pts)
    if n < 2:
        raise UsageError("gram_volume needs at least two points")
    d = len(pts[0])
    if any(len(p) != d for p in pts[1:]):
        raise UsageError("all points must have the same dimension")
    if n > d + 1:
        raise UsageError(
            "at most d+1 = %d points can be affinely independent in "
            "dimension %d, got %d" % (d + 1, d, n)
        )
    if all(isinstance(c, Rational) for p in pts for c in p):
        return math.sqrt(_gram_det_exact(pts)) / math.factorial(n - 1)
    mat = np.asarray(pts, dtype=float)
    edges = mat[1:] - mat[0]
    sing = np.linalg.svd(edges, compute_uv=False)
    return float(np.prod(sing)) / math.factorial(n - 1)


def simplex_volumes_unblocked(pts: np.ndarray) -> np.ndarray:
    """(n-1)-volumes of an (m, n, d) vertex array, all m rows at once.

    Modified Gram-Schmidt on the edges p_j - p_0 with whole-batch
    temporaries; a zero residual divides by 1, so a repeated vertex gives
    volume exactly 0.
    """
    n = pts.shape[1]
    gram = np.ones(pts.shape[0])
    residuals = []
    for j in range(1, n):
        r = pts[:, j, :] - pts[:, 0, :]
        for u, uu in residuals:
            r -= (np.einsum("md,md->m", r, u) / uu)[:, None] * u
        rr = np.einsum("md,md->m", r, r)
        gram *= rr
        residuals.append((r, np.where(rr > 0.0, rr, 1.0)))
    return np.sqrt(gram) / math.factorial(n - 1)


def sample_uniform_points_first(body: Body, gen: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform points in a catalog body, shape (size, d): a prism's
    base points all drawn first, in one piece (recursing for a prism base),
    then all its heights; any other body's points by ``mc._draw``."""
    if body.kind != "product":
        return _draw(body, gen, size)[:, : body.dim].copy()
    base = sample_uniform_points_first(body.base, gen, size)
    heights = gen.random(size) * float(body.height)
    return np.column_stack([base, heights])


def sample_boundary_unblocked(body: Body, gen: np.random.Generator, size: int):
    """``size`` uniform points on the boundary of a prism K x [0, h], and the
    mask of those on its flat faces, with whole-array boolean masks.

    The draws, in stream order: one face choice a point; then face by face,
    for the face's rows in row order, base points (a flat face) or edge
    parameters followed by heights (a side face).
    """
    faces, h = _boundary_faces(body)
    weights = np.array([area for _tag, _payload, area in faces])
    choice = gen.choice(len(faces), size=size, p=weights / weights.sum())
    pts = np.empty((size, body.dim))
    for idx, (tag, payload, _area) in enumerate(faces):
        sel = choice == idx
        count = int(sel.sum())
        if not count:
            continue
        if tag == "flat":
            pts[sel, :-1] = sample_uniform(body.base, gen, count)
            pts[sel, -1] = payload
        else:
            (sx, sy), (ex, ey) = payload
            s = gen.random(count)
            pts[sel, 0] = sx + s * (ex - sx)
            pts[sel, 1] = sy + s * (ey - sy)
            pts[sel, -1] = gen.random(count) * h
    return pts, choice < 2


def boundary_residual(body: Body, point) -> float:
    """Distance from the point to the body's boundary (0 exactly on it)."""
    pt = tuple(point)
    if len(pt) != body.dim:
        raise UsageError(
            "point has dimension %d, body has dimension %d" % (len(pt), body.dim)
        )
    return abs(min(_margins(body, pt)))


def solve_fraction_free(rows, rhs) -> list[Fraction]:
    """Exact solve of a square rational system via Bareiss elimination."""
    n = len(rows)
    aug = []
    for row, b in zip(rows, rhs):
        values = [Fraction(v) for v in list(row) + [b]]
        den = math.lcm(*(v.denominator for v in values))
        aug.append([int(v * den) for v in values])
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if aug[r][k]), None)
        if piv is None:
            raise UsageError("linear system is singular")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                aug[i][j] = (aug[i][j] * aug[k][k] - aug[i][k] * aug[k][j]) // prev
            aug[i][k] = 0
        prev = aug[k][k]
    xs = [Fraction(0)] * n
    for i in reversed(range(n)):
        total = Fraction(aug[i][n])
        for j in range(i + 1, n):
            total -= aug[i][j] * xs[j]
        xs[i] = total / aug[i][i]
    return xs


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def ref_mul(*factors):
    """Product of coefficient lists ([1] for no factors)."""
    out = [1]
    for b in factors:
        prod = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        out = _trim(prod)
    return out


def ref_divmod(a, b):
    """Schoolbook long division over Fraction coefficient lists."""
    r = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * max(0, len(a) - db)
    for i in range(len(r) - 1, db - 1, -1):
        f = r[i] / b[-1]
        q[i - db] = f
        for j, c in enumerate(b):
            r[i - db + j] -= f * c
    return _trim(q), _trim(r)


def ref_derivative(a):
    return [i * c for i, c in enumerate(a) if i]
