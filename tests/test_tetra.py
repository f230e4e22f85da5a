"""Tests for the exact tetrahedron triangle-area moment engine."""

import itertools
import json
import math
import os
import random
from fractions import Fraction as F

import pytest

import simplexmoments.tetra as tetra_mod
from oracles import (
    _edge_pair_integral_num,
    build_gram_poly,
    even_moment_by_expansion,
    even_moment_by_slots,
    monomial_integral_T3,
)
from simplexmoments.errors import CapacityError, UsageError, VerificationError
from simplexmoments.tetra import (
    CASE_FIXED,
    CASE_FREE,
    FREE_KMAX_LIMIT,
    MomentTable,
    _pair_num,
    even_moment,
    moment_table,
)


# the tables the verdict prices, written by the six-slot engine
FIXTURE_TABLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "fixtures", "tables"
)

# frozen exact values for k = 1..5 (2nd through 10th moments)
FREE_MOMENTS = [
    F(9, 1600),
    F(27, 196000),
    F(3161, 379330560),
    F(93957, 106247680000),
    F(209022679, 1551386124288000),
]
FIXED_MOMENTS = [
    F(7, 2400),
    F(11, 529200),
    F(2839, 10973491200),
    F(29419, 6224027040000),
    F(4134139, 36352301290905600),
]


# --------------------------------------------------------------------------
# oracles


def gram_det_exact(x0, x1, x2):
    """4 (area)^2 of the triangle (x0, x1, x2), straight from the vectors."""
    u = tuple(F(a) - F(b) for a, b in zip(x1, x0))
    v = tuple(F(a) - F(b) for a, b in zip(x2, x0))
    uu = sum(a * a for a in u)
    vv = sum(a * a for a in v)
    uv = sum(a * b for a, b in zip(u, v))
    return uu * vv - uv * uv


def multinomial_sum_moment(case, k):
    """E V^(2k) via the multinomial theorem over the terms of D itself.

    Expands D^k as a sum over multisets of k terms of D, then contracts each
    resulting monomial with the per-point tetrahedron integrals.
    """
    poly = build_gram_poly(case)
    terms = list(poly.terms().items())
    npoints = 3 if case == CASE_FREE else 2
    total = F(0)
    for combo in itertools.combinations_with_replacement(range(len(terms)), k):
        counts = {}
        for idx in combo:
            counts[idx] = counts.get(idx, 0) + 1
        mult = math.factorial(k)
        coeff = F(1)
        exps = [0] * (3 * npoints)
        for idx, c in counts.items():
            mult //= math.factorial(c)
            coeff *= terms[idx][1] ** c
            for pos, e in enumerate(terms[idx][0]):
                exps[pos] += c * e
        contrib = mult * coeff
        for b in range(npoints):
            contrib *= monomial_integral_T3(
                exps[3 * b], exps[3 * b + 1], exps[3 * b + 2]
            )
        total += contrib
    return F(6**npoints, 4**k) * total


def random_rational_point(rng):
    return tuple(F(rng.randint(0, 12), 13) for _ in range(3))


# --------------------------------------------------------------------------
# the Gram polynomial


def test_gram_poly_unit_triangle():
    poly = build_gram_poly(CASE_FREE)
    pt = (0, 0, 0, 1, 0, 0, 0, 1, 0)
    assert poly.evaluate(pt) == 1


def test_gram_poly_fixed_degenerate():
    poly = build_gram_poly(CASE_FIXED)
    # X1 == X2 means zero area
    pt = (F(1, 7), F(2, 7), F(3, 7), F(1, 7), F(2, 7), F(3, 7))
    assert poly.evaluate(pt) == 0


def test_gram_poly_degrees():
    for case in (CASE_FREE, CASE_FIXED):
        poly = build_gram_poly(case)
        assert poly.total_degree() == 4
        # at most quadratic in each point block
        for exps in poly.terms():
            blocks = [sum(exps[3 * b : 3 * b + 3]) for b in range(len(exps) // 3)]
            assert max(blocks) <= 4
            for b, db in enumerate(blocks):
                if case == CASE_FIXED or b > 0:
                    assert db <= 2


def test_gram_poly_matches_direct_determinant():
    rng = random.Random(61)
    free = build_gram_poly(CASE_FREE)
    fixed = build_gram_poly(CASE_FIXED)
    c3 = (F(1, 3), F(1, 3), F(1, 3))
    for _ in range(100):
        x0 = random_rational_point(rng)
        x1 = random_rational_point(rng)
        x2 = random_rational_point(rng)
        assert free.evaluate(x0 + x1 + x2) == gram_det_exact(x0, x1, x2)
        assert fixed.evaluate(x1 + x2) == gram_det_exact(c3, x1, x2)


# --------------------------------------------------------------------------
# even moments


def test_even_moment_zero_order():
    assert even_moment(CASE_FREE, 0) == 1
    assert even_moment(CASE_FIXED, 0) == 1


def test_even_moment_free_values():
    for k, want in enumerate(FREE_MOMENTS, start=1):
        assert even_moment(CASE_FREE, k) == want


def test_even_moment_fixed_values():
    for k, want in enumerate(FIXED_MOMENTS, start=1):
        assert even_moment(CASE_FIXED, k) == want


def test_even_moment_case_alias_and_errors():
    assert even_moment("fixed", 1) == FIXED_MOMENTS[0]
    with pytest.raises(UsageError):
        even_moment("plane", 1)
    with pytest.raises(UsageError):
        even_moment(CASE_FREE, -1)
    with pytest.raises(UsageError):
        even_moment(CASE_FREE, 1.5)


def test_even_moment_capacity_guard(monkeypatch):
    with pytest.raises(CapacityError) as err:
        even_moment(CASE_FREE, FREE_KMAX_LIMIT + 1)
    assert "capacity" in str(err.value)
    # both limits are named, and they sit above the priced orders k<=7, k<=15
    assert "k<=9" in str(err.value) and "k<=16" in str(err.value)
    # the guard reads the module limits at call time
    monkeypatch.setattr(tetra_mod, "FREE_KMAX_LIMIT", 1)
    monkeypatch.setattr(tetra_mod, "FIXED_KMAX_LIMIT", 2)
    assert even_moment(CASE_FREE, 1) == FREE_MOMENTS[0]
    with pytest.raises(CapacityError):
        even_moment(CASE_FIXED, 3)


def test_expansion_route_agrees_with_engine():
    for case in (CASE_FREE, CASE_FIXED):
        for k in (1, 2):
            assert even_moment_by_expansion(case, k) == even_moment(case, k)


def test_multinomial_sum_route_agrees_free_k2():
    # multinomial-sum form versus iterated multiplication, exact equality
    want = even_moment_by_expansion(CASE_FREE, 2)
    assert multinomial_sum_moment(CASE_FREE, 2) == want
    assert want == FREE_MOMENTS[1]


def test_expansion_route_fixed_high_orders():
    # the two largest fixed-centroid table entries via the independent
    # full-expansion route
    assert even_moment_by_expansion(CASE_FIXED, 4) == FIXED_MOMENTS[3]
    assert even_moment_by_expansion(CASE_FIXED, 5) == FIXED_MOMENTS[4]


def test_pair_integral_matches_the_binomial_loop():
    # the coordinate-factorised pair integral against the six-deep loop, on
    # every pair of exponent vectors up to total degree 4 each
    vectors = [e for d in range(5) for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    for e in vectors:
        for f in vectors:
            assert _pair_num(e, f) == _edge_pair_integral_num(e, f), (e, f)


def test_slot_route_agrees_with_engine():
    for case, k_max in ((CASE_FREE, 5), (CASE_FIXED, 10)):
        for k in range(k_max + 1):
            assert even_moment_by_slots(case, k) == even_moment(case, k), (case, k)


@pytest.mark.slow
def test_slot_route_agrees_on_every_priced_order():
    for case, k_max in ((CASE_FREE, 7), (CASE_FIXED, 15)):
        for k in range(k_max + 1):
            assert even_moment_by_slots(case, k) == even_moment(case, k), (case, k)


@pytest.mark.parametrize(
    "case, k_max, name", [(CASE_FREE, 7, "free_moments.json"), (CASE_FIXED, 15, "fixed_moments.json")]
)
def test_priced_orders_match_the_fixture_tables(case, k_max, name):
    with open(os.path.join(FIXTURE_TABLES, name), encoding="utf-8") as fh:
        frozen = json.load(fh)
    assert frozen["case"] == case
    assert moment_table(case, k_max).to_json()["entries"] == frozen["entries"]


# --------------------------------------------------------------------------
# moment tables and checkpointing


def test_moment_table_values_and_check():
    table = moment_table(CASE_FREE, 3)
    assert table.value(0) == 1
    for k in range(1, 4):
        assert table.value(k) == FREE_MOMENTS[k - 1]
    with pytest.raises(UsageError):
        table.value(9)


def test_moment_table_detects_bad_entries():
    good = moment_table(CASE_FIXED, 2)
    bad = MomentTable(
        good.case, good.k_max, ((0, F(1)), (1, F(1, 10)), (2, F(1, 5)))
    )
    with pytest.raises(VerificationError):
        bad.check()
    with pytest.raises(VerificationError):
        MomentTable(good.case, 1, ((0, F(2)), (1, F(1, 10)))).check()


def test_moment_table_json_roundtrip():
    table = moment_table(CASE_FIXED, 2)
    back = MomentTable.from_json(table.to_json())
    assert back == table


def test_moment_table_checkpoint_resume(tmp_path, monkeypatch):
    path = str(tmp_path / "free.json")
    moment_table(CASE_FREE, 2, checkpoint=path)
    with open(path) as fh:
        data = json.load(fh)
    assert data["case"] == CASE_FREE
    assert [item["k"] for item in data["entries"]] == [0, 1, 2]
    assert data["entries"][1]["value"] == "9/1600"

    calls = []
    real = tetra_mod.even_moment

    def counting(case, k):
        calls.append(k)
        return real(case, k)

    monkeypatch.setattr(tetra_mod, "even_moment", counting)
    table = moment_table(CASE_FREE, 3, checkpoint=path)
    # only the missing order is recomputed
    assert calls == [3]
    assert table.value(3) == FREE_MOMENTS[2]
    # the checkpoint now carries the new entry as well
    with open(path) as fh:
        data = json.load(fh)
    assert [item["k"] for item in data["entries"]] == [0, 1, 2, 3]


def test_checkpoint_is_written_once_per_run(tmp_path, monkeypatch):
    path = str(tmp_path / "free.json")
    writes = []
    real = tetra_mod._write_checkpoint

    def counting(path, case, known):
        writes.append(sorted(known))
        real(path, case, known)

    monkeypatch.setattr(tetra_mod, "_write_checkpoint", counting)
    moment_table(CASE_FREE, 3, checkpoint=path)
    assert writes == [[0, 1, 2, 3]]
    # nothing missing, nothing written
    moment_table(CASE_FREE, 2, checkpoint=path)
    assert writes == [[0, 1, 2, 3]]


def test_moment_table_refuses_before_any_work(tmp_path, monkeypatch):
    path = str(tmp_path / "free.json")
    moment_table(CASE_FREE, 2, checkpoint=path)

    def forbidden(case, k):
        raise AssertionError("even_moment called for k=%d" % k)

    monkeypatch.setattr(tetra_mod, "even_moment", forbidden)
    with pytest.raises(CapacityError):
        moment_table("free", 10)
    # checkpointed orders above the limit are fine; a missing one is not
    monkeypatch.setattr(tetra_mod, "FREE_KMAX_LIMIT", 1)
    assert moment_table(CASE_FREE, 2, checkpoint=path).value(2) == FREE_MOMENTS[1]
    with pytest.raises(CapacityError):
        moment_table(CASE_FREE, 3, checkpoint=path)


def test_moment_table_checkpoint_case_mismatch(tmp_path):
    path = str(tmp_path / "table.json")
    moment_table(CASE_FREE, 1, checkpoint=path)
    with pytest.raises(UsageError):
        moment_table(CASE_FIXED, 1, checkpoint=path)


def test_checkpoint_bytes_are_frozen(tmp_path):
    # the frozen file was written by the hand-built serializer that
    # MomentTable.to_json replaced; checkpoints must not change a byte
    path = tmp_path / "free.json"
    moment_table(CASE_FREE, 3, checkpoint=str(path))
    frozen = os.path.join(os.path.dirname(__file__), "data", "free_checkpoint_k3.json")
    with open(frozen, "rb") as fh:
        assert path.read_bytes() == fh.read()
    assert not os.path.exists(str(path) + ".tmp")


def test_checkpoint_without_case_is_usage_error(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"entries": [{"k": 0, "value": "1"}]}), encoding="utf-8")
    with pytest.raises(UsageError):
        moment_table(CASE_FREE, 1, checkpoint=str(path))
