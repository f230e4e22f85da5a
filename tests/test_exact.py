"""Tests for exact rational polynomials, root counts and sign certification."""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction as F

import pytest

from oracles import MVPoly, _trim, mv_mul, mv_pow, ref_derivative, ref_divmod, ref_mul
from simplexmoments import certificates, chords, exact, lp
from simplexmoments.errors import UsageError
from simplexmoments.exact import (
    UniPoly,
    _deflate_root,
    _derivative_ints,
    _descartes_variations,
    _gcd_ints,
    _int_coeffs,
    _isolate,
    _odd_multiplicity_part,
    format_rational,
    parse_rational,
    sturm_nonneg_on_interval,
    uni_eval,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def eval_mv_naive(poly: MVPoly, values) -> F:
    """Term-by-term evaluation, independent of MVPoly.evaluate internals."""
    total = F(0)
    for exps, coeff in poly.terms().items():
        term = coeff
        for v, e in zip(values, exps):
            term *= F(v) ** e
        total += term
    return total


def eval_uni_powersum(p: UniPoly, x) -> F:
    """Plain power-sum evaluation as an oracle for Horner."""
    return sum((c * F(x) ** i for i, c in enumerate(p.coeffs)), F(0))


def random_unipoly(rng: random.Random, max_degree=10, coeff_range=6) -> UniPoly:
    deg = rng.randint(0, max_degree)
    coeffs = [F(rng.randint(-coeff_range, coeff_range),
               rng.randint(1, 4)) for _ in range(deg + 1)]
    return UniPoly(coeffs)


def random_mvpoly(rng: random.Random, variables, nterms=5, max_exp=3) -> MVPoly:
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = terms.get(exps, F(0)) + F(rng.randint(-9, 9), rng.randint(1, 5))
    return MVPoly(variables, terms)


# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value,text", [
    (F(3, 4), "3/4"),
    (F(-3, 4), "-3/4"),
    (F(5), "5"),
    (F(0), "0"),
    (F(6, 4), "3/2"),
])
def test_format_rational(value, text):
    assert format_rational(value) == text


def test_parse_format_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        q = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert parse_rational(format_rational(q)) == q


def test_parse_rejects_floats():
    with pytest.raises(ValueError):
        parse_rational("0.25")


@pytest.mark.parametrize("text", ["1/0", "-3/0", " 0/0 ", 1, None])
def test_parse_rejects_zero_denominators_and_non_strings(text):
    with pytest.raises(ValueError):
        parse_rational(text)


# the library's numeric entries, each applied to one bad value
NUMERIC_ENTRIES = {
    "UniPoly": lambda v: UniPoly((1, v)),
    "uni_eval": lambda v: uni_eval(UniPoly((1,)), v),
    "sturm_nonneg_on_interval": lambda v: sturm_nonneg_on_interval(UniPoly((1,)), 0, v),
    "hermite_interpolate": lambda v: certificates.hermite_interpolate((v,), ()),
    "build_certificate": lambda v: certificates.build_certificate("lower", (v,), (), None, 1),
    "verify_bound_polynomial": lambda v: certificates.verify_bound_polynomial(
        UniPoly((0, 1)), "lower", v),
    "upper_sqrt_rational": lambda v: certificates.upper_sqrt_rational(v),
    "node_search": lambda v: lp.node_search(None, 1, 4, v, "lower"),
    "parse_rational": lambda v: parse_rational(v),
    "from_sides": lambda v: chords.TriangleSpec.from_sides(v, 1.0, 1.0),
    "edgepoint_moment": lambda v: chords.edgepoint_moment(
        chords.TriangleSpec.from_sides(1.0, 1.0, 1.0), v, 2),
    "rationalize": lambda v: lp.rationalize(v, 64),
}
_EXACT_ENTRIES = ("UniPoly", "uni_eval", "sturm_nonneg_on_interval", "hermite_interpolate",
                  "build_certificate", "verify_bound_polynomial", "upper_sqrt_rational",
                  "node_search")


@pytest.mark.parametrize(
    "entry, bad",
    [(entry, bad) for entry in _EXACT_ENTRIES for bad in (0.5, None, "x")]
    + [("parse_rational", bad) for bad in ("x", "1/0", None)]
    + [(entry, bad) for entry in ("from_sides", "edgepoint_moment")
       for bad in ("x", None, F(10**400))]
    + [("rationalize", bad) for bad in (math.nan, math.inf, None)],
    ids=lambda v: "10**400" if isinstance(v, F) else None,
)
def test_numeric_entries_refuse_bad_values_with_usage_errors(entry, bad):
    # these leaked a bare TypeError, ValueError or OverflowError
    with pytest.raises(UsageError):
        NUMERIC_ENTRIES[entry](bad)


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------

def test_mvpoly_zero_coefficients_dropped():
    p = MVPoly(("x", "y"), {(1, 0): F(2), (0, 1): F(0)})
    assert p.num_terms() == 1
    assert p.coefficient((0, 1)) == 0


def test_mvpoly_mul_matches_pointwise_products():
    rng = random.Random(11)
    variables = ("x", "y", "z")
    for _ in range(30):
        a = random_mvpoly(rng, variables)
        b = random_mvpoly(rng, variables)
        prod = mv_mul(a, b)
        point = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in variables]
        assert prod.evaluate(point) == eval_mv_naive(a, point) * eval_mv_naive(b, point)


def test_mv_pow_matches_repeated_multiplication():
    rng = random.Random(13)
    variables = ("x", "y")
    p = random_mvpoly(rng, variables, nterms=4, max_exp=2)
    acc = MVPoly.constant(variables, 1)
    for k in range(5):
        assert mv_pow(p, k) == acc
        acc = mv_mul(acc, p)


def test_mvpoly_add_sub_neg():
    rng = random.Random(17)
    variables = ("x", "y")
    a = random_mvpoly(rng, variables)
    b = random_mvpoly(rng, variables)
    point = [F(2, 3), F(-1, 2)]
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a - b).evaluate(point) == a.evaluate(point) - b.evaluate(point)
    assert (-a).evaluate(point) == -a.evaluate(point)
    assert (a - a).is_zero()


def test_mvpoly_rejects_mismatched_variables():
    a = MVPoly(("x",), {(1,): F(1)})
    b = MVPoly(("y",), {(1,): F(1)})
    with pytest.raises(ValueError):
        mv_mul(a, b)


def test_mvpoly_total_degree_sentinel():
    assert MVPoly.zero(("x",)).total_degree() == -1
    assert MVPoly.constant(("x",), 3).total_degree() == 0


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def test_uni_eval_matches_powersum_oracle():
    rng = random.Random(19)
    for _ in range(50):
        p = random_unipoly(rng)
        x = F(rng.randint(-8, 8), rng.randint(1, 5))
        assert uni_eval(p, x) == eval_uni_powersum(p, x)


def test_unipoly_degree_sentinel_and_trim():
    assert UniPoly(()).degree == -1
    assert UniPoly((0, 0)).degree == -1
    assert UniPoly((1, 0)).degree == 0
    # equal after trimming, hashed alike, and never equal to a bare tuple
    assert UniPoly((1, 2, 0)) == UniPoly((1, 2))
    assert hash(UniPoly((1, 2, 0))) == hash(UniPoly((1, 2)))
    assert UniPoly((1, 2)) != (1, 2)
    assert repr(UniPoly((1, 2, 0))) == "UniPoly(degree=1)"


def test_primitive_is_positive_integer_primitive():
    p = UniPoly((F(-2, 3), F(4, 9), F(-8, 3)))
    prim = _int_coeffs(p)
    assert prim[-1] > 0
    assert all(type(c) is int for c in prim) and math.gcd(*prim) == 1
    # same roots: primitive is a nonzero scalar multiple
    ratio = p.coeffs[0] / prim[0]
    assert all(a == ratio * b for a, b in zip(p.coeffs, prim))
    assert ratio < 0


def test_gcd_contains_common_factor():
    rng = random.Random(31)
    for _ in range(15):
        f = ref_mul([-rng.randint(-3, 3), 1], [-rng.randint(-3, 3), 1])
        g = ref_mul(f, random_unipoly(rng, max_degree=3).coeffs)
        h = ref_mul(f, random_unipoly(rng, max_degree=3).coeffs)
        if not g or not h:
            continue
        d, _, _ = _gcd_ints(_int_coeffs(UniPoly(g)), _int_coeffs(UniPoly(h)))
        # f divides the gcd
        _, r = ref_divmod([F(c) for c in d], f)
        assert not r


def test_odd_part_of_planted_multiplicities():
    # every multiplicity 1-6 is planted: the odd part keeps the factors of
    # multiplicity 1, 3 and 5, each once
    rng = random.Random(37)
    seen = set()
    for _ in range(15):
        roots = rng.sample(range(-6, 7), 3)
        mults = rng.sample(range(1, 7), 3)
        seen.update(mults)
        p = UniPoly(ref_mul(*([-r, 1] for r, m in zip(roots, mults) for _ in range(m))))
        odd = UniPoly(ref_mul(*([-r, 1] for r, m in zip(roots, mults) if m % 2)))
        assert _odd_multiplicity_part(_int_coeffs(p)) == _int_coeffs(odd)
    assert seen == set(range(1, 7))


def test_squarefree_part_has_no_repeated_roots():
    # the squarefree part is the gcd cofactor a / gcd(a, a')
    p = UniPoly(ref_mul(*[[-1, 1]] * 3, *[[2, 1]] * 2, [-F(1, 2), 1]))
    a = _int_coeffs(p)
    sf = _gcd_ints(a, _derivative_ints(a))[1]
    assert len(sf) == 4
    assert _gcd_ints(sf, _derivative_ints(sf))[0] == [1]


def test_odd_multiplicity_part_keeps_only_crossings():
    p = UniPoly(ref_mul(*[[-1, 1]] * 2, *[[1, 1]] * 3, [-3, 1]))
    odd = UniPoly(_odd_multiplicity_part(_int_coeffs(p)))
    assert uni_eval(odd, 1) != 0
    assert uni_eval(odd, -1) == 0
    assert uni_eval(odd, 3) == 0
    assert odd.degree == 2


def test_deep_multiplicities_are_decided():
    # roots of multiplicity 12-14 take one gcd per level; both ends of
    # [0, 1] are nonnegative, so each proof isolates the crossings
    third, half = [-F(1, 3), 1], [-F(1, 2), 1]
    cross = UniPoly(ref_mul(*[third] * 13, *[[-F(2, 3), 1]] * 13, *[half] * 12, [1, 0, 1]))
    assert _odd_multiplicity_part(_int_coeffs(cross)) == [2, -9, 11, -9, 9]
    assert sturm_nonneg_on_interval(cross, 0, 1) == (
        False, "interior-sign-change", F(8, 21), uni_eval(cross, F(8, 21)))
    touch = UniPoly(ref_mul(*[third] * 14, *[half] * 12, *[[2, -1]] * 13, [1, 0, 1]))
    assert _odd_multiplicity_part(_int_coeffs(touch)) == [-2, 1, -2, 1]
    assert sturm_nonneg_on_interval(touch, 0, 1) == (True, "no-interior-sign-change", None, None)


# ---------------------------------------------------------------------------
# root counts by Descartes bisection
# ---------------------------------------------------------------------------

def int_roots(*roots) -> list[int]:
    """Primitive integer list with these simple rational roots."""
    return _int_coeffs(UniPoly(ref_mul(*([-F(r), 1] for r in roots))))


def isolated_count(q, lo, hi, roots_in) -> int:
    """The number of pieces ``_isolate(q, lo, hi)`` returns, after checking
    that they are increasing, disjoint and inside (lo, hi], and that each
    holds exactly one root by the reference count ``roots_in(a, b)`` of the
    roots in (a, b]."""
    pieces = _isolate(q, lo, hi)
    ends = [lo] + [x for piece in pieces for x in piece] + [hi]
    assert all(a <= b for a, b in zip(ends, ends[1:])), (pieces, lo, hi)
    assert all(a < b and roots_in(a, b) == 1 for a, b in pieces), (pieces, lo, hi)
    return len(pieces)


def planted_count(q, lo, hi, roots) -> int:
    return isolated_count(q, lo, hi, lambda a, b: sum(1 for r in roots if a < r <= b))


def test_root_count_known_roots():
    q = int_roots(1, 2, 3)
    assert planted_count(q, F(0), F(4), (1, 2, 3)) == 3
    assert planted_count(q, F(3, 2), F(5, 2), (1, 2, 3)) == 1
    assert planted_count(q, F(4), F(10), (1, 2, 3)) == 0
    # (lo, hi]: a root at hi counts, a root at lo does not
    assert planted_count(q, F(1), F(3), (1, 2, 3)) == 2
    assert planted_count(q, F(0), F(1), (1, 2, 3)) == 1
    # 1/2, 1/4 and 3/4 are the first bisection midpoints of (0, 1]
    roots = (F(1, 4), F(1, 2), F(3, 4), F(7, 8))
    assert planted_count(int_roots(*roots), F(0), F(1), roots) == 4


def test_sturm_no_phantom_roots_for_positive_definite_quadratic():
    # a negative discriminant: no real root to count
    p = UniPoly((1, F(-1, 2), F(4, 3)))
    assert _isolate(_int_coeffs(p), F(-1), F(2)) == []
    assert sturm_nonneg_on_interval(p, -1, 2)


def test_nonneg_simple_cases():
    t = UniPoly((0, 1))
    assert sturm_nonneg_on_interval(UniPoly((1, -2, 1)), 0, 2)
    assert sturm_nonneg_on_interval(UniPoly((1, 0, 1)), -5, 5)
    assert not sturm_nonneg_on_interval(UniPoly((-1, 2, -1)), 0, 2)
    res = sturm_nonneg_on_interval(t, -1, 1)
    assert not res
    assert uni_eval(t, res.witness) == res.witness_value < 0
    assert sturm_nonneg_on_interval(t, 0, 1)  # crossing exactly at the endpoint
    assert sturm_nonneg_on_interval(UniPoly(()), 0, 1)


def test_nonneg_even_touch_inside_interval():
    # touches zero at 1/3 and 2/3 but never crosses
    p = ref_mul(*[[-F(1, 3), 1]] * 2, *[[-F(2, 3), 1]] * 2)
    assert sturm_nonneg_on_interval(UniPoly(p), 0, 1)
    assert not sturm_nonneg_on_interval(UniPoly(-c for c in p), 0, 1)


def test_nonneg_irrational_crossing():
    p = UniPoly((-2, 0, 1))  # crosses at sqrt(2)
    res = sturm_nonneg_on_interval(p, 0, 2)
    assert not res
    assert res.witness_value < 0
    assert sturm_nonneg_on_interval(p, 2, 5)


def test_nonneg_single_point_and_bad_interval():
    t = UniPoly((0, 1))
    assert sturm_nonneg_on_interval(t, F(1, 2), F(1, 2))
    assert not sturm_nonneg_on_interval(t, -F(1, 2), -F(1, 2))
    with pytest.raises(ValueError):
        sturm_nonneg_on_interval(t, 1, 0)


def test_nonneg_reversed_interval_is_a_usage_error():
    with pytest.raises(UsageError, match="interval end -1 precedes start 0"):
        sturm_nonneg_on_interval(UniPoly((0, 1)), 0, -1)


def test_nonneg_negative_only_in_interior():
    # negative strictly inside, zero at both ends, no odd-multiplicity roots
    p = UniPoly(-c for c in ref_mul(*[[0, 1]] * 2, *[[-1, 1]] * 2))
    res = sturm_nonneg_on_interval(p, 0, 1)
    assert not res
    assert res.witness_value < 0


def test_nonneg_agrees_with_dense_grid():
    """Randomized check against a 10^4-point rational grid.

    The grid can only refute nonnegativity; certified-true polynomials must
    never show a negative grid value, and certified-false results must carry
    an exactly-negative witness.
    """
    rng = random.Random(43)
    grid_n = 10**4
    lo, hi = F(-1), F(2)
    for _ in range(12):
        p = random_unipoly(rng, max_degree=10, coeff_range=4)
        res = sturm_nonneg_on_interval(p, lo, hi)
        if res:
            step = (hi - lo) / grid_n
            assert all(uni_eval(p, lo + i * step) >= 0
                       for i in range(grid_n + 1))
        else:
            assert lo <= res.witness <= hi
            assert uni_eval(p, res.witness) == res.witness_value
            assert res.witness_value < 0


def test_nonneg_finds_witness_between_close_crossings():
    # negative only on (1/3 - 10^-15, 1/3 + 10^-15): no uniform grid of
    # practical size has a point there
    p = ref_mul(*[[-F(1, 3), 1]] * 2)
    p[0] -= F(1, 10**30)
    p = UniPoly(p)
    res = sturm_nonneg_on_interval(p, 0, 1)
    assert not res
    assert res.reason == "interior-sign-change"
    assert abs(res.witness - F(1, 3)) < F(1, 10**15)
    assert uni_eval(p, res.witness) == res.witness_value < 0


def test_nonneg_witness_with_many_crossings_and_touch_points():
    # four crossings, so both ends are positive: at bisection midpoints of
    # [0, 1] and off them, with a touch point between two crossings
    for roots, touch in (((F(1, 4), F(1, 2), F(3, 4), F(7, 8)), F(3, 8)),
                         ((F(1, 5), F(2, 5), F(3, 5), F(4, 5)), F(1, 2))):
        p = UniPoly(ref_mul(*[[-touch, 1]] * 2, *([-r, 1] for r in roots)))
        res = sturm_nonneg_on_interval(p, 0, 1)
        assert res.reason == "interior-sign-change"
        assert 0 < res.witness < 1
        assert uni_eval(p, res.witness) == res.witness_value < 0


# ---------------------------------------------------------------------------
# integer remainder sequences against a rational Euclidean reference
# ---------------------------------------------------------------------------

def ref_monic(a):
    return [c / a[-1] for c in a]


def ref_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over the rationals."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a) if a else a


def ref_yun(p):
    """Textbook Yun decomposition with monic factors."""
    p = ref_monic(_trim(p))
    if len(p) < 2:
        return []
    dp = ref_derivative(p)
    g = ref_gcd(p, dp)
    w, y = ref_divmod(p, g)[0], ref_divmod(dp, g)[0]
    out, i = [], 1
    while len(w) > 1:
        dw = ref_derivative(w)
        z = _trim([(y[k] if k < len(y) else 0) - (dw[k] if k < len(dw) else 0)
                   for k in range(max(len(y), len(dw)))])
        if not z:
            out.append((i, ref_monic(w)))
            break
        f = ref_gcd(w, z)
        if len(f) > 1:
            out.append((i, f))
        w, y = ref_divmod(w, f)[0], ref_divmod(z, f)[0]
        i += 1
    return out


def ref_sturm(p):
    """Rational Sturm sequence of the monic squarefree part."""
    p = _trim(p)
    sq = ref_monic(ref_divmod(p, ref_gcd(p, ref_derivative(p)))[0])
    chain = [sq]
    if len(sq) > 1:
        chain.append(ref_derivative(sq))
        while len(chain[-1]) > 1:
            r = ref_divmod(chain[-2], chain[-1])[1]
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def is_positive_multiple(p: UniPoly, ref) -> bool:
    if len(p.coeffs) != len(ref):
        return False
    ratio = p.coeffs[-1] / ref[-1]
    return ratio > 0 and all(c == ratio * r for c, r in zip(p.coeffs, ref))


def is_integer_primitive(p: UniPoly) -> bool:
    return (all(c.denominator == 1 for c in p.coeffs)
            and math.gcd(*(c.numerator for c in p.coeffs)) == 1)


def random_factored(rng: random.Random) -> list:
    """Rational multiple of a product of powers of small factors."""
    p = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.7:
            factor = [-F(rng.randint(-9, 9), rng.randint(1, 6)), 1]
        else:
            factor = [F(rng.randint(1, 9), rng.randint(1, 4)), 0, 1]
        p = ref_mul(p, *[factor] * rng.randint(1, 4))
    if rng.random() < 0.3:
        q = random_unipoly(rng, max_degree=3, coeff_range=3).coeffs
        p = _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                   for i in range(max(len(p), len(q)))])
    return p


def test_gcd_matches_rational_euclid():
    rng = random.Random(47)
    for _ in range(40):
        f = random_factored(rng)
        a, b = ref_mul(f, random_factored(rng)), ref_mul(f, random_factored(rng))
        g = UniPoly(_gcd_ints(_int_coeffs(UniPoly(a)), _int_coeffs(UniPoly(b)))[0])
        assert is_integer_primitive(g)
        assert is_positive_multiple(g, ref_gcd(a, b))


def test_heuristic_gcd_retries_after_a_failed_candidate(monkeypatch):
    # a = t - 5, b = t - 39: the first point is 2 * 5 + 29 = 39, a root of b,
    # so gcd(a(39), b(39)) = 34 reads back as t - 5, which does not divide b
    failed = []
    exact_quo = exact._exact_quo

    def spy(a, b):
        try:
            return exact_quo(a, b)
        except ArithmeticError:
            failed.append(b)
            raise

    monkeypatch.setattr(exact, "_exact_quo", spy)
    a, b = [-5, 1], [-39, 1]
    assert UniPoly(_gcd_ints(a, b)[0]) == UniPoly(ref_gcd([F(c) for c in a], [F(c) for c in b])) \
        == UniPoly((1,))
    assert failed == [[-5, 1]]


def random_int_poly(rng: random.Random, degree: int, bits: int) -> list[int]:
    lead = rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)
    return [rng.randint(-2 ** bits, 2 ** bits) for _ in range(degree)] + [lead]


def coprime_mod(a, b, prime=2 ** 61 - 1) -> bool:
    """True when a and b are coprime modulo a prime, which proves them coprime.

    The prime must divide neither leading coefficient. A common factor h
    over the integers then keeps its degree modulo the prime (lc(h) divides
    lc(a)), so a constant gcd modulo the prime rules it out.
    """
    assert a[-1] % prime and b[-1] % prime
    a, b = [c % prime for c in a], [c % prime for c in b]
    while b:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            f, shift = a[-1] * inv % prime, len(a) - len(b)
            a = [(c - f * b[i - shift]) % prime if i >= shift else c
                 for i, c in enumerate(a)]
            a = _trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) == 1


def test_heuristic_gcd_on_large_coefficients():
    # sized like the degree-30 upper error polynomial: degrees 20-32 with
    # 200-400 bit coefficients and a planted common factor of degree 4-10.
    # The rational reference is too slow here (seconds per pair), so the
    # gcd is proved directly: it divides both with exact cofactors, and the
    # cofactors are coprime.
    rng = random.Random(61)
    for _ in range(20):
        f = random_int_poly(rng, rng.randint(4, 10), rng.randint(60, 120))
        ai, bi = (ref_mul(f, random_int_poly(rng, rng.randint(20, 32) - (len(f) - 1),
                                             rng.randint(140, 280)))
                  for _ in range(2))
        assert 200 <= max(abs(c).bit_length() for c in ai + bi) <= 400
        g, qa, qb = exact._gcd_ints(ai, bi)
        assert g == _int_coeffs(UniPoly(f))
        assert ref_mul(g, qa) == ai and ref_mul(g, qb) == bi
        assert coprime_mod(qa, qb)
    ai, bi = random_int_poly(rng, 25, 2000), random_int_poly(rng, 24, 2000)
    assert coprime_mod(ai, bi)
    assert exact._gcd_ints(ai, bi) == ([1], ai, bi)


def test_yun_and_odd_part_match_rational_reference():
    rng = random.Random(53)
    for _ in range(40):
        p = random_factored(rng)
        odd = [F(1)]
        for m, f in ref_yun(p):
            if m % 2:
                odd = ref_mul(odd, f)
        got = UniPoly(_odd_multiplicity_part(_int_coeffs(UniPoly(p))))
        assert is_integer_primitive(got)
        assert is_positive_multiple(got, odd)
    assert _odd_multiplicity_part(_int_coeffs(UniPoly((F(-3, 2),)))) == [1]


def sturm_count(chain, lo, hi) -> int:
    """Distinct roots in (lo, hi] of chain[0], from a Sturm sequence given as
    coefficient lists: sign changes at lo minus those at hi, zero values
    skipped, so a root at either end counts as if the end sat just to its
    right."""
    def changes(x):
        signs = [v > 0 for v in (uni_eval(UniPoly(q), x) for q in chain) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return changes(lo) - changes(hi)


def test_root_count_matches_rational_sturm():
    # squarefree polynomials with roots planted at lo, at hi, at bisection
    # midpoints of (lo, hi], off them, and outside, with complex pairs
    # within 10^-12 of the real axis
    rng = random.Random(59)
    for _ in range(120):
        lo = F(rng.randint(-9, 9), rng.randint(1, 6))
        width = F(rng.randint(1, 12), rng.randint(1, 6))
        hi = lo + width
        midpoints = [lo + width * F(j, 2 ** m) for m in (1, 2, 3) for j in range(1, 2 ** m, 2)]
        pool = [lo, hi] + midpoints + [lo + width * F(rng.randint(1, 99), 100),
                                      hi + width * F(rng.randint(1, 99), 100),
                                      lo - width * F(rng.randint(1, 99), 100)]
        roots = set(rng.sample(pool, rng.randint(1, 6)))
        p = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))]
        for r in roots:
            p = ref_mul(p, [-r, 1])
        for centre in set(rng.sample(midpoints + [lo, hi], rng.randint(0, 2))):
            # the pair centre +- i 10^-e, not a root of p
            p = ref_mul(p, [centre * centre + F(1, 10 ** (2 * rng.randint(1, 12))),
                            -2 * centre, 1])
        q = _int_coeffs(UniPoly(p))
        count = planted_count(q, lo, hi, roots)
        assert count == sum(1 for r in roots if lo < r <= hi), (p, lo, hi)
        assert count == sturm_count(ref_sturm(p), lo, hi)


def test_canonical_error_polynomials_match_golden_file():
    # generated by the Fraction Euclidean implementation that the integer
    # remainder sequences replaced
    with open(os.path.join(DATA, "sturm_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["polynomials"]
    canonical = {
        "lower": (certificates.LOWER_SINGLE_NODES, certificates.LOWER_DOUBLE_NODES,
                  certificates.FREE_BPRIME),
        "upper": (certificates.UPPER_SINGLE_NODES, certificates.UPPER_DOUBLE_NODES,
                  certificates.FIXED_BPRIME),
    }
    assert [entry["side"] for entry in golden] == ["lower", "upper"]

    def text(p):
        return [format_rational(c) for c in p.coeffs]

    for entry in golden:
        singles, doubles, bprime = canonical[entry["side"]]
        assert entry["interval"] == ["0", format_rational(bprime)]
        g = certificates.error_polynomial(
            certificates.hermite_interpolate(singles, doubles), entry["side"])
        assert text(g) == entry["error_polynomial"]
        # the odd part is the product of the frozen odd-multiplicity factors
        odd = _odd_multiplicity_part(_int_coeffs(g))
        assert odd == _int_coeffs(UniPoly(ref_mul(
            *([parse_rational(c) for c in item["factor"]]
              for item in entry["yun"] if item["multiplicity"] % 2))))
        assert text(UniPoly(odd)) == entry["odd_part"]
        # the frozen chain starts with the crossings the proof counts
        crossings = _deflate_root(_deflate_root(odd, F(0)), bprime)
        assert text(UniPoly(crossings)) == entry["chain"][0]


def test_root_count_matches_the_golden_chains():
    # the frozen Sturm chains of the canonical crossings count their roots
    with open(os.path.join(DATA, "sturm_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["polynomials"]
    lower_single = certificates.LOWER_SINGLE_NODES[1]
    seen = set()
    for entry in golden:
        chain = [[parse_rational(c) for c in q] for q in entry["chain"]]
        crossings = _int_coeffs(UniPoly(chain[0]))
        for lo, hi in ((F(0), parse_rational(entry["interval"][1])), (F(-2), F(2)),
                       (F(-1), F(0)), (F(0), F(1)), (F(1, 2), lower_single),
                       (lower_single, F(1)), (F(-1, 3), F(1, 3)), (F(1), F(4))):
            count = isolated_count(crossings, lo, hi, lambda a, b: sturm_count(chain, a, b))
            assert count == sturm_count(chain, lo, hi), (entry["side"], lo, hi)
            seen.add((entry["side"], count))
    # the lower crossings hold its single node 47/54, past B' = 13/15
    assert ("lower", 1) in seen and ("lower", 0) in seen


# ---------------------------------------------------------------------------
# Descartes' rule before the root count
# ---------------------------------------------------------------------------

def assert_descartes_bounds_sturm(q: UniPoly, lo, hi) -> int:
    """V >= the root count in (lo, hi), with equal parity, for a squarefree
    q that does not vanish at hi; returns V. The count comes from the
    rational Sturm sequence, and ``exact._isolate`` must agree with it."""
    ints = _int_coeffs(q)
    v = _descartes_variations(ints, F(lo), F(hi))
    chain = ref_sturm(list(q.coeffs))
    roots = sturm_count(chain, F(lo), F(hi))
    assert isolated_count(ints, F(lo), F(hi), lambda a, b: sturm_count(chain, a, b)) == roots, \
        (q.coeffs, lo, hi)
    assert v >= roots and (v - roots) % 2 == 0, (q.coeffs, lo, hi, v, roots)
    return v


def test_descartes_bounds_the_golden_crossings():
    with open(os.path.join(DATA, "sturm_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["polynomials"]
    for entry in golden:
        lo, hi = (parse_rational(x) for x in entry["interval"])
        odd = _int_coeffs(UniPoly(parse_rational(c) for c in entry["odd_part"]))
        crossings = _deflate_root(_deflate_root(odd, lo), hi)
        # both canonical proofs finish without a root count
        assert assert_descartes_bounds_sturm(UniPoly(crossings), lo, hi) == 0


def test_descartes_bounds_sturm_on_planted_roots():
    rng = random.Random(2026)
    for case in range(330):
        width = F(rng.randint(1, 12), rng.randint(1, 6))
        lo = [-width / rng.randint(2, 5), F(0), F(rng.randint(1, 9), rng.randint(1, 9))][case % 3]
        hi = lo + width
        q = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))]
        roots = set()
        for _ in range(rng.randint(1, 5)):
            inside = lo + width * F(rng.randint(1, 99), 100)
            outside = rng.choice([lo - width, hi]) + width * F(rng.randint(1, 99), 100)
            roots.add(inside if rng.random() < 0.6 else outside)
        for r in roots:
            q = ref_mul(q, [-r, 1])
        for _ in range(rng.randint(0, 2)):
            # a complex pair within 10^-k of a real double root in (lo, hi)
            centre = lo + width * F(rng.randint(1, 999), 1000)
            q = ref_mul(q, [centre * centre + F(1, 10 ** rng.randint(1, 12)), -2 * centre, 1])
        assert_descartes_bounds_sturm(UniPoly(q), lo, hi)


@pytest.fixture
def transforms(monkeypatch):
    """Every (q, lo, hi) that ``exact._descartes_variations`` transforms."""
    seen = []
    variations = exact._descartes_variations

    def spy(q, lo, hi):
        seen.append((tuple(q), lo, hi))
        return variations(q, lo, hi)

    monkeypatch.setattr(exact, "_descartes_variations", spy)
    return seen


def test_descartes_variations_without_a_root_go_to_sturm(transforms):
    # a complex pair near 1/2: two variations, no real root, so the
    # bisection halves (0, 1] and isolates nothing
    p = ref_mul(*[[-F(1, 2), 1]] * 2)
    p[0] += F(1, 1000)
    p = UniPoly(p)
    q = _int_coeffs(p)
    assert _descartes_variations(q, F(0), F(1)) == 2
    assert _isolate(q, F(0), F(1)) == []
    del transforms[:]
    assert sturm_nonneg_on_interval(p, 0, 1).reason == "no-interior-sign-change"
    assert transforms[0] == (tuple(q), F(0), F(1)) and len(transforms) > 1
    # the canonical certificates show no variation: one transform each
    del transforms[:]
    for side, singles, doubles, bprime in (
        ("lower", certificates.LOWER_SINGLE_NODES, certificates.LOWER_DOUBLE_NODES,
         certificates.FREE_BPRIME),
        ("upper", certificates.UPPER_SINGLE_NODES, certificates.UPPER_DOUBLE_NODES,
         certificates.FIXED_BPRIME),
    ):
        poly = certificates.hermite_interpolate(singles, doubles)
        result = certificates.verify_bound_polynomial(poly, side, bprime * bprime, bprime)
        assert result.reason == "no-interior-sign-change"
    assert [t[1:] for t in transforms] == [(F(0), certificates.FREE_BPRIME),
                                          (F(0), certificates.FIXED_BPRIME)]


def test_each_piece_is_transformed_once_per_decision(transforms):
    # the failed proofs of the golden cases isolate their crossings and
    # open the witness gaps without transforming any piece again
    with open(os.path.join(DATA, "nonneg_golden.json"), encoding="utf-8") as fh:
        cases = [case for case in json.load(fh)["cases"]
                 if case["reason"] == "interior-sign-change"]
    assert len(cases) == 81
    for case in cases:
        del transforms[:]
        p = UniPoly(parse_rational(c) for c in case["coefficients"])
        res = sturm_nonneg_on_interval(p, *(parse_rational(x) for x in case["interval"]))
        assert res.reason == "interior-sign-change"
        assert len(set(transforms)) == len(transforms), case


def test_crossings_10_to_the_minus_400_apart(transforms):
    # p < 0 only between its two roots; their isolation halves (0, 1] about
    # 1330 times, each piece transformed once
    r = F(1, 3)
    s = r + F(1, 10 ** 400)
    res = sturm_nonneg_on_interval(UniPoly(ref_mul([-r, 1], [-s, 1])), 0, 1)
    assert res.reason == "interior-sign-change"
    assert r < res.witness < s and res.witness_value < 0
    assert len(transforms) < 3000


def test_nonneg_matches_golden_outcomes():
    # about 400 seeded cases frozen before the proof ran on integer lists:
    # planted rational roots of multiplicity 1-3 (some on an end), complex
    # pairs within 10^-12 of a real double root, small constant shifts, and
    # intervals with lo < 0, lo = 0, lo > 0 and lo == hi
    with open(os.path.join(DATA, "nonneg_golden.json"), encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) > 400
    for case in cases:
        p = UniPoly(parse_rational(c) for c in case["coefficients"])
        res = sturm_nonneg_on_interval(p, *(parse_rational(x) for x in case["interval"]))
        got = [None if q is None else format_rational(q) for q in res[2:]]
        assert [res.nonnegative, res.reason] + got == [
            case["nonnegative"], case["reason"], case["witness"], case["witness_value"]], case


def test_nonneg_without_a_positive_sample_is_an_error(monkeypatch):
    # no nonzero p vanishes at every sample tried; if one seemed to, the
    # proof must not answer "nonnegative" without a positive value
    p = UniPoly((F(1, 4), -1, 1))  # (t - 1/2)**2
    horner = exact._horner

    def vanishing_on_p(coeffs, x):
        return 0 if coeffs == p.coeffs else horner(coeffs, x)

    monkeypatch.setattr(exact, "_horner", vanishing_on_p)
    with pytest.raises(ArithmeticError):
        sturm_nonneg_on_interval(p, 0, 1)
