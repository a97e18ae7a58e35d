"""Chern vector positivity and the 1 - t^k factorization engine.

The nef check is cross-validated against a deliberately naive evaluator
(cofactor determinants, no partition cap, no caching); the factorization
engine against its defining product identity and against the closed-form
family list at the minimal ambient dimension.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagnest import chern
from flagnest.chern import (
    ChernVector,
    NefResult,
    chern_from_poly,
    cyclotomic,
    factor_unit_minus_tk,
    nef_feasible,
    partition_str,
    schur_minor,
    schwarzenberger_s33,
)
from flagnest.errors import InternalInconsistencyError, UnsupportedInputError
from flagnest.exactpoly import UniPoly


# --- naive oracle -----------------------------------------------------------


def _cofactor_det(m):
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * Fraction(m[0][j]) * _cofactor_det(minor)
    return total


def _naive_partitions(weight, cap):
    if weight == 0:
        yield ()
        return
    for first in range(min(cap, weight), 0, -1):
        for rest in _naive_partitions(weight - first, first):
            yield (first,) + rest


def test_partitions_of_eight():
    parts = list(_naive_partitions(8, 8))
    assert len(parts) == 22
    assert len(set(parts)) == 22
    for lam in parts:
        assert sum(lam) == 8
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def test_partitions_max_part():
    capped = list(_naive_partitions(8, 2))
    assert len(capped) == 5
    assert all(lam[0] <= 2 for lam in capped)
    assert list(_naive_partitions(0, 0)) == [()]


def naive_nef(entries, ambient):
    """Reference nef check: every Schur determinant, cofactor expansion."""

    def e(i):
        return Fraction(entries[i]) if 0 <= i < len(entries) else Fraction(0)

    for weight in range(1, ambient + 1):
        for lam in _naive_partitions(weight, weight):
            t = len(lam)
            mat = [[e(lam[i] - (i + 1) + (j + 1)) for j in range(t)] for i in range(t)]
            if _cofactor_det(mat) < 0:
                return False
    return True


# --- Schur minors -----------------------------------------------------------


def test_schur_minor_examples():
    c = ChernVector((1, 2, 2, 1), 6)
    assert schur_minor(c, (1, 1)) == 2
    assert schur_minor(c, (2,)) == 2
    assert schur_minor(ChernVector((1, 1, 1), 6), (2, 2)) == 1


def test_schur_minor_weight_precondition():
    c = ChernVector((1, 1), 2)
    with pytest.raises(UnsupportedInputError):
        schur_minor(c, (2, 1))
    with pytest.raises(UnsupportedInputError):
        schur_minor(c, (1, 2))


def test_schur_minor_rational_entries():
    c = ChernVector((1, Fraction(1, 2)), 3)
    assert schur_minor(c, (1, 1)) == Fraction(1, 4)


# --- nef feasibility --------------------------------------------------------


def test_nef_examples():
    assert nef_feasible(ChernVector((1, 2, 2, 1), 5)).feasible
    res = nef_feasible(ChernVector((1, 1, 0, 1), 6))
    assert not res.feasible
    assert res.witness == (2, 1)
    assert res.value == -1
    assert nef_feasible(ChernVector((1, 0, 0, 0), 6)).feasible


def test_nef_case_one_vector_dies_at_dim_six():
    res = nef_feasible(ChernVector((1, 2, 2, 1), 6))
    assert not res.feasible
    assert res.witness == (2, 1, 1, 1, 1)
    assert res.value == -1
    assert naive_nef((1, 2, 2, 1), 6) is False
    assert naive_nef((1, 2, 2, 1), 5) is True


def test_nef_all_ones_boundary():
    for d in range(2, 7):
        entries = tuple([1] * (d + 1))
        assert nef_feasible(ChernVector(entries, d)).feasible
        res = nef_feasible(ChernVector(entries, d + 1))
        assert not res.feasible


def test_nef_matches_naive_on_random_vectors():
    rng = random.Random(987123)
    for _ in range(500):
        length = rng.randint(1, 4)
        entries = (1,) + tuple(rng.randint(0, 3) for _ in range(length))
        ambient = rng.randint(length, 8)
        got = nef_feasible(ChernVector(entries, ambient)).feasible
        assert got == naive_nef(entries, ambient), (entries, ambient)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=4, max_value=7),
)
def test_nef_matches_naive_property(tail, ambient):
    entries = (1,) + tuple(tail)
    got = nef_feasible(ChernVector(entries, ambient)).feasible
    assert got == naive_nef(entries, ambient)


def test_nef_witness_is_genuinely_negative():
    res = nef_feasible(ChernVector((1, 3, 1, 2), 7))
    if not res.feasible:
        c = ChernVector((1, 3, 1, 2), 7)
        assert schur_minor(c, res.witness) == res.value < 0


# --- one-pass kernel against the per-partition scan ----------------------------


def scan_nef(c):
    """Reference: one `schur_minor` determinant per partition, weight
    ascending, in `_naive_partitions` order; the first negative wins."""
    cap = c.effective_degree
    if cap == 0:
        return NefResult(True)
    for weight in range(1, c.ambient_dim + 1):
        for lam in _naive_partitions(weight, cap):
            val = schur_minor(c, lam)
            if val < 0:
                return NefResult(False, lam, val)
    return NefResult(True)


@pytest.fixture
def cold_nef():
    """nef_feasible with an empty cache, so the recursion really runs."""
    nef_feasible.cache_clear()
    return nef_feasible


def test_nef_equals_scan_on_integral_vectors(cold_nef):
    rng = random.Random(20240611)
    for _ in range(300):
        length = rng.randint(1, 6)
        entries = (1,) + tuple(rng.randint(-1, 5) for _ in range(length))
        c = ChernVector(entries, rng.randint(length, 12))
        assert cold_nef(c) == scan_nef(c), c


def test_nef_equals_scan_on_half_integral_vectors(cold_nef):
    rng = random.Random(4417)
    for _ in range(200):
        length = rng.randint(1, 5)
        entries = (1,) + tuple(Fraction(rng.randint(-1, 8), 2) for _ in range(length))
        c = ChernVector(entries, rng.randint(length, 12))
        res = cold_nef(c)
        assert res == scan_nef(c), c
        assert res.value is None or type(res.value) is Fraction


def test_nef_equals_scan_on_all_ones_vectors(cold_nef):
    for d in range(1, 28):
        for ambient in (d, d + 1):
            c = ChernVector((1,) * (d + 1), ambient)
            assert cold_nef(c) == scan_nef(c), c


def test_nef_witness_disagreement_is_internal_error(cold_nef, monkeypatch):
    monkeypatch.setattr(chern, "schur_minor", lambda c, lam: Fraction(-7))
    with pytest.raises(InternalInconsistencyError):
        cold_nef(ChernVector((1, 1, 0, 1), 6))


# --- sparse propagation against the dense level-by-level scan ----------------


def _partitions_of_length(t, max_part, max_weight):
    """The partitions with exactly t parts, each at most `max_part`, of
    weight at most `max_weight`, first part descending."""
    if t == 0:
        yield ()
        return
    for first in range(min(max_part, max_weight - (t - 1)), 0, -1):
        for rest in _partitions_of_length(t - 1, first, max_weight - first):
            yield (first,) + rest


def dense_nef(c):
    """Reference: the same first-column expansion evaluated at every
    partition of each length, not only at those with a nonzero child."""
    cap = c.effective_degree
    e = list(c.entries[: cap + 1])
    max_weight = c.ambient_dim if cap else 0
    witness, found = None, 0
    prev = {(): 1}
    t = 0
    while t < max_weight:
        t += 1
        level = {}
        for lam in _partitions_of_length(t, cap, max_weight):
            val, head, sign = 0, (), 1
            for k in range(t):
                i = lam[k] - k
                if i < 0:
                    break
                if e[i]:
                    sub = prev.get(head + lam[k + 1 :])
                    if sub:
                        val += sign * e[i] * sub
                head += (lam[k] + 1,)
                sign = -sign
            if val:
                level[lam] = val
                if val < 0 and (witness is None or chern._order_key(lam) < chern._order_key(witness)):
                    witness, found = lam, val
        if witness is not None:
            max_weight = sum(witness)
        prev = level
    if witness is None:
        return NefResult(True)
    return NefResult(False, witness, Fraction(found))


def _census_split_vectors(max_k):
    """Both sides of every split of 1 - t^k into (1 - t) and cyclotomic
    factors, for 2 <= k <= max_k, that has nonnegative coefficients and fits
    the minimal ambient dimension k - 1."""
    out = set()
    for k in range(2, max_k + 1):
        factors = [UniPoly([1, -1])] + [cyclotomic(d) for d in range(2, k + 1) if k % d == 0]
        for mask in range(1 << len(factors)):
            pe, g = UniPoly([1]), UniPoly([1])
            for idx, f in enumerate(factors):
                if mask >> idx & 1:
                    pe = pe * f
                else:
                    g = g * f
            for side in (pe, g.substitute_neg()):
                if all(x >= 0 for x in side.coeffs) and side.degree <= k - 1:
                    out.add((side.coeffs, k - 1))
    return sorted(out)


def test_nef_equals_dense_scan_on_census_split_vectors(cold_nef):
    census = _census_split_vectors(40)
    assert len(census) > 400
    for coeffs, ambient in census:
        c = ChernVector(coeffs, ambient)
        assert cold_nef(c) == dense_nef(c), c


def test_nef_equals_dense_scan_on_integral_vectors(cold_nef):
    rng = random.Random(61803)
    for _ in range(400):
        length = rng.randint(1, 7)
        entries = (1,) + tuple(rng.randint(-2, 6) for _ in range(length))
        c = ChernVector(entries, rng.randint(length, 14))
        assert cold_nef(c) == dense_nef(c), c


def test_nef_equals_dense_scan_on_half_integral_vectors(cold_nef):
    rng = random.Random(27182)
    for _ in range(200):
        length = rng.randint(1, 6)
        entries = (1,) + tuple(Fraction(rng.randint(-2, 9), 2) for _ in range(length))
        c = ChernVector(entries, rng.randint(length, 12))
        assert cold_nef(c) == dense_nef(c), c


def test_nef_equals_dense_scan_on_all_ones_and_binomials(cold_nef):
    for d in range(1, 31):
        for ambient in (d, d + 1):
            c = ChernVector((1,) * (d + 1), ambient)
            assert cold_nef(c) == dense_nef(c), c
    for d in range(1, 23):
        binomial = tuple(math.comb(d, i) for i in range(d + 1))
        for ambient in (d, d + 1):
            c = ChernVector(binomial, ambient)
            res = cold_nef(c)
            assert res.feasible  # c(O(1)^d) is nef on every ambient
            assert res == dense_nef(c), c


# --- first-Chern-class consequences ------------------------------------------


def lemma_c1_consequences(c):
    """What nefness forces on the low entries of an integral Chern vector.

    Writing r for the effective degree and s = min(r - 1, ambient // 2):
    entries stay strictly positive up to r (zeroes only as a tail), and for
    s >= 1 the prefix is either all ones (through s + 1) or all >= 2
    (through s).  A nef-feasible input that violates this exposes a bug, so
    violations raise InternalInconsistencyError rather than returning.
    """
    if not c.integral:
        raise UnsupportedInputError("consequence report requires an integral vector")
    nef = nef_feasible(c)
    if not nef:
        raise UnsupportedInputError(
            f"consequence report requires a nef-feasible vector; witness {nef.witness}"
        )
    r_eff = c.effective_degree
    if any(c.entries[i] <= 0 for i in range(1, r_eff + 1)):
        raise InternalInconsistencyError(f"{c} has a non-positive entry below its effective degree")
    s = max(min(r_eff - 1, c.ambient_dim // 2), 0)
    all_ones = all(c.entry(i) == 1 for i in range(1, s + 2))
    geq_two = all(c.entry(i) >= 2 for i in range(1, s + 1))
    if s >= 1 and not (all_ones or geq_two):
        raise InternalInconsistencyError(f"{c} fits neither prefix branch (s={s})")
    return {
        "effective_degree": r_eff,
        "s": s,
        "first_zero_tail_ok": True,
        "all_ones_prefix": all_ones,
        "geq_two_prefix": geq_two,
    }


def test_c1_consequences_branches():
    ones = lemma_c1_consequences(ChernVector((1, 1, 1, 1), 3))
    assert ones["all_ones_prefix"] and ones["first_zero_tail_ok"]
    geq = lemma_c1_consequences(ChernVector((1, 2, 2, 1), 5))
    assert geq["geq_two_prefix"] and not geq["all_ones_prefix"]
    assert geq["s"] == 2
    vac = lemma_c1_consequences(ChernVector((1, 3, 0, 0), 6))
    assert vac["s"] == 0
    assert vac["effective_degree"] == 1


def test_c1_consequences_preconditions():
    with pytest.raises(UnsupportedInputError):
        lemma_c1_consequences(ChernVector((1, Fraction(1, 2)), 4))
    with pytest.raises(UnsupportedInputError):
        lemma_c1_consequences(ChernVector((1, 1, 0, 1), 6))


# --- Schwarzenberger parity ---------------------------------------------------


def test_schwarzenberger_examples():
    assert schwarzenberger_s33(ChernVector((1, 2, 2, 1), 5)) is False
    assert schwarzenberger_s33(ChernVector((1, 1, 1, 1), 5)) is True
    assert schwarzenberger_s33(ChernVector((1, 2, 3, 6), 6)) is True


def test_schwarzenberger_preconditions():
    with pytest.raises(UnsupportedInputError):
        schwarzenberger_s33(ChernVector((1, 2, 2), 5))
    with pytest.raises(UnsupportedInputError):
        schwarzenberger_s33(ChernVector((1, 1, 1, 1), 2))


# --- cyclotomic split engine --------------------------------------------------


def _all_ones(degree):
    return UniPoly([1] * (degree + 1))


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == UniPoly([-1, 1])
    assert cyclotomic(2) == UniPoly([1, 1])
    assert cyclotomic(6) == UniPoly([1, -1, 1])
    assert cyclotomic(12) == UniPoly([1, 0, -1, 0, 1])
    prod = UniPoly([1])
    for d in (1, 2, 3, 6):
        prod = prod * cyclotomic(d)
    assert prod == UniPoly([-1, 0, 0, 0, 0, 0, 1])


def test_factor_small_cases():
    assert factor_unit_minus_tk(2, 1) == ((UniPoly([1, 1]), UniPoly([1, 1])),)
    assert factor_unit_minus_tk(2, 6) == ((UniPoly([1, 1]), UniPoly([1, 1])),)
    got4 = factor_unit_minus_tk(4, 3)
    assert got4 == (
        (UniPoly([1, 1]), _all_ones(3)),
        (_all_ones(3), UniPoly([1, 1])),
    )
    assert factor_unit_minus_tk(4, 4) == ()


def test_factor_k6_contains_selfpaired_vector():
    case1 = UniPoly([1, 2, 2, 1])
    got5 = factor_unit_minus_tk(6, 5)
    assert (case1, case1) in got5
    assert len(got5) == 3
    assert factor_unit_minus_tk(6, 6) == ()


def test_factor_three_families_at_minimal_ambient():
    for k in range(2, 19):
        expected = {(_all_ones(k - 1), UniPoly([1, 1]))}
        if k % 2 == 0:
            expected.add((UniPoly([1, 1]), _all_ones(k - 1)))
        if k == 6:
            expected.add((UniPoly([1, 2, 2, 1]), UniPoly([1, 2, 2, 1])))
        got = factor_unit_minus_tk(k, k - 1)
        assert got == tuple(sorted(expected, key=lambda pq: (pq[0].coeffs, pq[1].coeffs))), k


def test_factor_product_identity_and_integrality():
    for k in range(2, 15):
        target = UniPoly([1] + [0] * (k - 1) + [-1])
        for pe, pf in factor_unit_minus_tk(k, k - 1):
            assert pe * pf.substitute_neg() == target
            for coef in list(pe.coeffs) + list(pf.coeffs):
                assert Fraction(coef).denominator == 1


def test_factor_matches_splits_built_from_scratch():
    """The subset-product table gives the same pairs as multiplying out
    both sides of every split afresh."""
    factor_unit_minus_tk.cache_clear()
    for k in range(2, 37):
        factors = [UniPoly([1, -1])] + [cyclotomic(d) for d in range(2, k + 1) if k % d == 0]
        for ambient in (k - 1, k + 2):
            expected = []
            for mask in range(1 << len(factors)):
                pe, g = UniPoly([1]), UniPoly([1])
                for idx, f in enumerate(factors):
                    if mask >> idx & 1:
                        pe = pe * f
                    else:
                        g = g * f
                pf = g.substitute_neg()
                sides = (pe, pf)
                if all(x >= 0 for side in sides for x in side.coeffs) and all(
                    side.degree <= ambient and nef_feasible(chern_from_poly(side, ambient))
                    for side in sides
                ):
                    expected.append(sides)
            expected.sort(key=lambda pq: (pq[0].coeffs, pq[1].coeffs))
            assert factor_unit_minus_tk(k, ambient) == tuple(expected), (k, ambient)


def test_factor_preconditions():
    with pytest.raises(UnsupportedInputError):
        factor_unit_minus_tk(1, 5)
    with pytest.raises(UnsupportedInputError):
        factor_unit_minus_tk(7, 5)


def test_c1_consequences_hold_on_engine_output():
    for k in range(2, 13):
        for pe, pf in factor_unit_minus_tk(k, k - 1):
            for poly in (pe, pf):
                report = lemma_c1_consequences(chern_from_poly(poly, k - 1))
                assert report["first_zero_tail_ok"]


# --- serialization -------------------------------------------------------------


def test_chern_vector_serialization():
    c = ChernVector((1, 2, 2, 1), 6)
    assert str(c) == "[1,2,2,1]@dim6"
    assert partition_str((2, 1)) == "(2,1)"


def test_chern_vector_validation():
    with pytest.raises(UnsupportedInputError):
        ChernVector((2, 1), 4)
    with pytest.raises(UnsupportedInputError):
        ChernVector((1, 1, 1), 1)
    assert not ChernVector((1, Fraction(1, 2)), 4).integral


def test_chern_vectors_and_nef_results_are_values(value_type):
    value_type(ChernVector, ((1, 2, 1), 4), [((1, 2, 2), 4), ((1, 2, 1), 5)])
    witness = (False, (2, 1), Fraction(-1))
    value_type(
        NefResult,
        witness,
        [(True, (2, 1), Fraction(-1)), (False, (3,), Fraction(-1)), (False, (2, 1), Fraction(-2))],
    )
