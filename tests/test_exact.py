"""Tests for exact rational polynomials and Sturm certification."""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction as F

import pytest

from oracles import MVPoly, _trim, mv_mul, mv_pow, ref_derivative, ref_divmod, ref_mul
from simplexmoments import certificates, exact
from simplexmoments.exact import (
    SturmChain,
    UniPoly,
    _deflate_root,
    _derivative_ints,
    _descartes_variations,
    _gcd_ints,
    _int_coeffs,
    _odd_multiplicity_part,
    _squarefree_ints,
    _yun_ints,
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


def test_primitive_is_positive_integer_primitive():
    p = UniPoly((F(-2, 3), F(4, 9), F(-8, 3)))
    prim = _int_coeffs(p, positive_lead=True)
    assert prim[-1] > 0
    assert all(type(c) is int for c in prim) and math.gcd(*prim) == 1
    # same roots: primitive is a nonzero scalar multiple
    ratio = p.coeffs[0] / prim[0]
    assert all(a == ratio * b for a, b in zip(p.coeffs, prim))
    assert ratio < 0
    # without positive_lead the multiple is positive
    assert _int_coeffs(p) == [-c for c in prim]


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


def test_yun_reconstructs_multiplicities():
    rng = random.Random(37)
    for _ in range(15):
        roots = rng.sample(range(-6, 7), 3)
        mults = [rng.randint(1, 3) for _ in range(3)]
        p = UniPoly(ref_mul(*([-r, 1] for r, m in zip(roots, mults) for _ in range(m))))
        rebuilt = UniPoly(ref_mul(*(f for m, f in _yun_ints(_int_coeffs(p, positive_lead=True))
                                    for _ in range(m))))
        assert _int_coeffs(rebuilt, positive_lead=True) == _int_coeffs(p, positive_lead=True)


def test_squarefree_part_has_no_repeated_roots():
    p = UniPoly(ref_mul(*[[-1, 1]] * 3, *[[2, 1]] * 2, [-F(1, 2), 1]))
    sf = _squarefree_ints(_int_coeffs(p, positive_lead=True))
    assert len(sf) == 4
    assert _gcd_ints(sf, _derivative_ints(sf))[0] == [1]


def test_odd_multiplicity_part_keeps_only_crossings():
    p = UniPoly(ref_mul(*[[-1, 1]] * 2, *[[1, 1]] * 3, [-3, 1]))
    odd = UniPoly(_odd_multiplicity_part(_int_coeffs(p, positive_lead=True)))
    assert uni_eval(odd, 1) != 0
    assert uni_eval(odd, -1) == 0
    assert uni_eval(odd, 3) == 0
    assert odd.degree == 2


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------

def test_sturm_chain_root_count_known_roots():
    p = UniPoly(ref_mul([-1, 1], [-2, 1], [-3, 1]))
    chain = SturmChain(p)
    assert chain.count_roots(0, 4) == 3
    assert chain.count_roots(F(3, 2), F(5, 2)) == 1
    assert chain.count_roots(4, 10) == 0
    # multiplicities are collapsed by the squarefree reduction
    chain2 = SturmChain(UniPoly(ref_mul(*[[-1, 1]] * 4, [-2, 1])))
    assert chain2.count_roots(0, 3) == 2


def test_sturm_chain_remainder_relation_up_to_positive_scale():
    rng = random.Random(41)
    for _ in range(10):
        p = random_unipoly(rng, max_degree=8)
        if p.degree < 2:
            continue
        chain = SturmChain(p).chain
        for i in range(2, len(chain)):
            r = ref_divmod([F(c) for c in chain[i - 2]], chain[i - 1])[1]
            # chain[i] is a strictly positive multiple of -r
            neg = [-c for c in r]
            ratio = None
            for a, b in zip(chain[i], neg):
                if b:
                    ratio = a / b
                    break
            assert ratio is not None and ratio > 0
            assert all(a == ratio * b for a, b in zip(chain[i], neg))


def test_sturm_no_phantom_roots_for_positive_definite_quadratic():
    # leading-coefficient sign handling: the final chain element here is a
    # negative constant and must stay negative after rescaling
    p = UniPoly((1, F(-1, 2), F(4, 3)))
    chain = SturmChain(p)
    assert chain.count_roots(-1, 2) == 0
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
    assert _gcd_ints([], []) == ([], [], [])
    assert _gcd_ints([], _int_coeffs(UniPoly((1, -2))))[0] == [-1, 2]


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
        assert g == _int_coeffs(UniPoly(f), positive_lead=True)
        assert ref_mul(g, qa) == ai and ref_mul(g, qb) == bi
        assert coprime_mod(qa, qb)
    ai, bi = random_int_poly(rng, 25, 2000), random_int_poly(rng, 24, 2000)
    assert coprime_mod(ai, bi)
    assert exact._gcd_ints(ai, bi) == ([1], ai, bi)


def test_yun_and_odd_part_match_rational_reference():
    rng = random.Random(53)
    for _ in range(40):
        p = random_factored(rng)
        ints = _int_coeffs(UniPoly(p), positive_lead=True)
        got = [(m, UniPoly(f)) for m, f in _yun_ints(ints)]
        ref = ref_yun(p)
        assert [m for m, _ in got] == [m for m, _ in ref]
        for (_, factor), (_, ref_factor) in zip(got, ref):
            assert is_integer_primitive(factor)
            assert is_positive_multiple(factor, ref_factor)
        odd = [F(1)]
        for m, f in ref:
            if m % 2:
                odd = ref_mul(odd, f)
        assert is_positive_multiple(UniPoly(_odd_multiplicity_part(ints)), odd)
        squarefree = UniPoly(_squarefree_ints(ints))
        assert is_positive_multiple(squarefree, ref_sturm(p)[0])
    assert _yun_ints(_int_coeffs(UniPoly((F(-3, 2),)), positive_lead=True)) == []


def test_sturm_chain_matches_rational_reference():
    rng = random.Random(59)
    for _ in range(40):
        p = random_factored(rng)
        chain = [UniPoly(q) for q in SturmChain(UniPoly(p)).chain]
        ref = ref_sturm(p)
        assert len(chain) == len(ref)
        for q, r in zip(chain, ref):
            assert is_integer_primitive(q)
            assert is_positive_multiple(q, r)


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
        ints = _int_coeffs(g, positive_lead=True)
        assert [{"multiplicity": m, "factor": text(UniPoly(f))} for m, f in _yun_ints(ints)] \
            == entry["yun"]
        assert text(UniPoly(_squarefree_ints(ints))) == entry["squarefree_part"]
        odd = _odd_multiplicity_part(ints)
        assert text(UniPoly(odd)) == entry["odd_part"]
        crossings = _deflate_root(_deflate_root(odd, F(0)), bprime)
        assert [text(UniPoly(q)) for q in SturmChain(UniPoly(crossings)).chain] == entry["chain"]


# ---------------------------------------------------------------------------
# Descartes' rule before the Sturm chain
# ---------------------------------------------------------------------------

def assert_descartes_bounds_sturm(q: UniPoly, lo, hi) -> int:
    """V >= the Sturm root count in (lo, hi), with equal parity, for a
    squarefree q that does not vanish at hi; returns V."""
    v = _descartes_variations(_int_coeffs(q), F(lo), F(hi))
    roots = SturmChain(q).count_roots(lo, hi)
    assert v >= roots and (v - roots) % 2 == 0, (q.coeffs, lo, hi, v, roots)
    return v


def test_descartes_bounds_the_golden_crossings():
    with open(os.path.join(DATA, "sturm_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["polynomials"]
    for entry in golden:
        lo, hi = (parse_rational(x) for x in entry["interval"])
        odd = _int_coeffs(UniPoly(parse_rational(c) for c in entry["odd_part"]))
        crossings = _deflate_root(_deflate_root(odd, lo), hi)
        # both canonical proofs finish without a Sturm chain
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


def test_descartes_variations_without_a_root_go_to_sturm(monkeypatch):
    built = []

    class CountingChain(SturmChain):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    monkeypatch.setattr(exact, "SturmChain", CountingChain)
    # a complex pair near 1/2: two variations, no real root
    p = ref_mul(*[[-F(1, 2), 1]] * 2)
    p[0] += F(1, 1000)
    p = UniPoly(p)
    assert _descartes_variations(_int_coeffs(p), F(0), F(1)) == 2
    assert SturmChain(p).count_roots(0, 1) == 0
    assert sturm_nonneg_on_interval(p, 0, 1).reason == "no-interior-sign-change"
    assert built == [UniPoly(_int_coeffs(p, positive_lead=True))]
    # the canonical certificates take the Descartes branch and build no chain
    del built[:]
    for side, singles, doubles, bprime in (
        ("lower", certificates.LOWER_SINGLE_NODES, certificates.LOWER_DOUBLE_NODES,
         certificates.FREE_BPRIME),
        ("upper", certificates.UPPER_SINGLE_NODES, certificates.UPPER_DOUBLE_NODES,
         certificates.FIXED_BPRIME),
    ):
        poly = certificates.hermite_interpolate(singles, doubles)
        result = certificates.verify_bound_polynomial(poly, side, bprime * bprime, bprime)
        assert result.reason == "no-interior-sign-change"
    assert built == []


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
