"""Exact arithmetic layer: Gaussian rationals, dense univariate polynomials
over Q, graded multivariate polynomials, and the products of series with
graded coefficients that the presentations are built from."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnest.exactpoly import (
    GaussRat,
    GradedPoly,
    UniPoly,
    exact_div,
)
from flagnest.cohomology import GradedPresentation, _neg, _product, in_relation_slice, slice_dimension
from flagnest.dynkin import diagram, marked

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
gauss = st.builds(GaussRat, rationals, rationals)
small_polys = st.lists(st.integers(min_value=-6, max_value=6), max_size=6).map(UniPoly)


@given(gauss, gauss, gauss)
def test_gauss_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(gauss, gauss)
def test_gauss_division_inverts_multiplication(a, b):
    if a.is_zero():
        return
    assert (a * b) / a == b


@given(gauss, gauss)
def test_gauss_conjugation(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    norm = a * a.conj()
    assert norm.im == 0
    assert norm.re >= 0


def test_gauss_basics():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)
    assert GaussRat.of(Fraction(1, 2)) == GaussRat(Fraction(1, 2), 0)
    assert GaussRat(0, 0).is_zero()
    assert not GaussRat(0, 1).is_zero()
    # parts are in normal form: an int where integral, else a Fraction
    q = GaussRat(2, 4) / GaussRat(1, 2)
    assert (type(q.re), type(q.im)) == (int, int) and q == 2
    half_i = GaussRat(1) / GaussRat(0, -2)
    assert (half_i.re, half_i.im) == (0, Fraction(1, 2)) and type(half_i.re) is int
    with pytest.raises(ZeroDivisionError):
        GaussRat(1) / GaussRat(0)


def test_unipoly_square_of_1221():
    p = UniPoly([1, 2, 2, 1])
    sq = p * p
    assert sq.coeffs == (1, 4, 8, 10, 8, 4, 1)
    assert sq.coeff(3) == 10


def test_unipoly_degree_conventions():
    assert UniPoly().degree is None
    assert UniPoly([0, 0]).degree is None
    assert UniPoly([5]).degree == 0
    assert UniPoly.t(3).degree == 3
    assert UniPoly([1, 0, 2, 0]).coeffs == (1, 0, 2)


def test_unipoly_substitute_neg():
    p = UniPoly([1, 2, 3, 4])
    assert p.substitute_neg().coeffs == (1, -2, 3, -4)
    assert p.substitute_neg().substitute_neg() == p


def test_unipoly_evaluate():
    p = UniPoly([1, 1, 1])
    assert p.evaluate(2) == 7
    assert p.evaluate(Fraction(1, 2)) == Fraction(7, 4)


def test_unipoly_str_signs():
    assert str(UniPoly([1, -1])) == "1 - t"
    assert str(UniPoly([-2, 0, -1, Fraction(-3, 2)])) == "-2 - t^2 - 3/2t^3"
    assert str(UniPoly([0, Fraction(1, 3), 2])) == "1/3t + 2t^2"


@given(small_polys, small_polys)
def test_exact_div_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p


def test_exact_div_rejects_inexact():
    assert exact_div(UniPoly([1, 1, 1]), UniPoly([1, 1])) is None
    assert exact_div(UniPoly([1, 0, 0, 0, 0, 0, -1]), UniPoly([1, 1])) is not None


def test_graded_poly_ring_basics():
    gens = (("h", 1), ("k", 2))
    h = GradedPoly.generator(gens, "h")
    k = GradedPoly.generator(gens, "k")
    p = (h + k) ** 2
    assert p == h * h + 2 * (h * k) + k * k
    assert p.coefficient({"h": 1, "k": 1}) == 2
    assert p.coefficient({"h": 2}) == 1
    assert p.homogeneous_degree() is None
    assert (h * k).homogeneous_degree() == 3


def test_graded_poly_substitute():
    gens = (("h", 1), ("k", 2))
    h = GradedPoly.generator(gens, "h")
    k = GradedPoly.generator(gens, "k")
    p = k + h * h
    q = p.substitute("k", -(h * h))
    assert q.is_zero()


# ---------------------------------------------------------------------------
# Reference arithmetic.  Polynomials are dicts {exponent tuple: Fraction} with
# no zero values, and every operation is the plain textbook one: the
# arithmetic the int-coefficient kernel must reproduce term for term.

REF_GENS = (("x", 1), ("y", 2), ("z", 1))


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def _ref_neg(p):
    return {e: -c for e, c in p.items()}


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out = _ref_add(out, {e: c1 * c2})
    return out


def _ref_pow(p, n):
    out = {(0,) * len(REF_GENS): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_substitute(p, idx, value):
    out = {}
    for e, c in p.items():
        rest = tuple(0 if i == idx else x for i, x in enumerate(e))
        out = _ref_add(out, _ref_mul({rest: c}, _ref_pow(value, e[idx])))
    return out


def _ref_umul(a, b, mul=operator.mul, add=operator.add, zero=Fraction(0)):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def _ref_exact_div(p, q):
    """Long division over Fractions; None when the remainder is nonzero."""
    rem = [Fraction(c) for c in p]
    quot = [Fraction(0)] * (len(p) - len(q) + 1)
    for k in range(len(quot) - 1, -1, -1):
        factor = rem[k + len(q) - 1] / Fraction(q[-1])
        quot[k] = factor
        for j, b in enumerate(q):
            rem[k + j] -= factor * b
    return quot if not any(rem) else None


def _random_scalar(rng):
    if rng.random() < 0.25:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
    return rng.randint(-5, 5)


def _random_terms(rng, size=5, top=3):
    terms = {}
    for _ in range(rng.randint(0, size)):
        e = tuple(rng.randint(0, top) for _ in REF_GENS)
        terms[e] = terms.get(e, 0) + _random_scalar(rng)
    return terms


def _ref(terms):
    out = {}
    for e, c in terms.items():
        out = _ref_add(out, {e: Fraction(c)})
    return out


def _assert_normal(coeffs):
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def _assert_matches(poly, ref):
    assert poly.terms == ref
    _assert_normal(poly.terms.values())


@pytest.mark.parametrize("seed", range(30))
def test_graded_arithmetic_matches_fraction_reference(seed):
    rng = random.Random(seed)
    ta, tb, tv = _random_terms(rng), _random_terms(rng), _random_terms(rng, size=3, top=1)
    a, b, v = (GradedPoly(REF_GENS, t) for t in (ta, tb, tv))
    ra, rb, rv = _ref(ta), _ref(tb), _ref(tv)
    _assert_matches(a, ra)
    _assert_matches(a + b, _ref_add(ra, rb))
    _assert_matches(a - b, _ref_add(ra, _ref_neg(rb)))
    _assert_matches(a - a, {})
    _assert_matches(a * b, _ref_mul(ra, rb))
    _assert_matches(a**0, _ref_pow(ra, 0))
    _assert_matches(a**3, _ref_pow(ra, 3))
    scale = _random_scalar(rng)
    _assert_matches(a * scale, _ref_mul(ra, _ref({(0, 0, 0): scale})))
    _assert_matches(a + scale, _ref_add(ra, _ref({(0, 0, 0): scale})))
    for idx, (name, _) in enumerate(REF_GENS):
        _assert_matches(a.substitute(name, v), _ref_substitute(ra, idx, rv))
    assert (a == 0) == (not ra)


def test_scaling_by_fraction_restores_ints():
    x = GradedPoly.generator(REF_GENS, "x")
    half = x * Fraction(1, 2)
    _assert_matches(half, {(1, 0, 0): Fraction(1, 2)})
    _assert_matches(half * Fraction(4), {(1, 0, 0): Fraction(2)})
    _assert_matches(half * 2, {(1, 0, 0): Fraction(1)})
    _assert_matches(half + half, {(1, 0, 0): Fraction(1)})
    _assert_matches(GradedPoly(REF_GENS, {(0, 1, 0): Fraction(6, 3)}), {(0, 1, 0): Fraction(2)})


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        GradedPoly(REF_GENS, {(1, 0, 0): 0.5})
    with pytest.raises(TypeError):
        UniPoly([1, 0.5])


@pytest.mark.parametrize(
    "coeff", [GradedPoly.const(REF_GENS, 1), GaussRat(1), GaussRat(0, 1)], ids=["graded", "gauss-real", "gauss"]
)
def test_unipoly_holds_rationals_only(coeff):
    # a series over a graded ring is a coefficient tuple in cohomology, never a UniPoly
    with pytest.raises(TypeError):
        UniPoly([coeff])
    with pytest.raises(TypeError):
        UniPoly([1, 1]) * coeff


@pytest.mark.parametrize("seed", range(30))
def test_unipoly_arithmetic_matches_fraction_reference(seed):
    rng = random.Random(seed)
    a = [_random_scalar(rng) for _ in range(rng.randint(1, 6))]
    b = [_random_scalar(rng) for _ in range(rng.randint(1, 6))]
    pa, pb = UniPoly(a), UniPoly(b)
    fa = [Fraction(c) for c in a] + [Fraction(0)] * 6
    fb = [Fraction(c) for c in b] + [Fraction(0)] * 6
    for got, want in (
        (pa + pb, [x + y for x, y in zip(fa, fb)]),
        (pa * pb, _ref_umul(fa, fb)),
        (pa.substitute_neg(), [-x if k % 2 else x for k, x in enumerate(fa)]),
    ):
        assert got == UniPoly(want)
        _assert_normal(got.coeffs)


@pytest.mark.parametrize("seed", range(40))
def test_exact_div_matches_fraction_reference(seed):
    rng = random.Random(seed)
    q = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [rng.choice((-3, -2, 2, 3, 5))]
    r = [_random_scalar(rng) for _ in range(rng.randint(1, 5))]
    p = UniPoly(q) * UniPoly(r)
    if p.is_zero():
        return
    got = exact_div(p, UniPoly(q))
    assert got == UniPoly(_ref_exact_div(list(p.coeffs), q))
    assert got == UniPoly(r)
    _assert_normal(got.coeffs)
    bumped = p + UniPoly([1])
    want = _ref_exact_div(list(bumped.coeffs), q)
    got = exact_div(bumped, UniPoly(q))
    assert (got is None) == (want is None)
    if got is not None:
        assert got == UniPoly(want)
        _assert_normal(got.coeffs)


def test_exact_div_non_monic_int_divisor():
    # (2 + 3t)(1 - t + 4t^2) divided by the non-monic 2 + 3t
    q = UniPoly([2, 3])
    p = q * UniPoly([1, -1, 4])
    got = exact_div(p, q)
    assert got.coeffs == (1, -1, 4)
    _assert_normal(got.coeffs)
    # a rational quotient: (1 + t) / 2 and (1 + t) / (3 + 3t)
    half = exact_div(UniPoly([1, 1]), UniPoly([2]))
    assert half.coeffs == (Fraction(1, 2), Fraction(1, 2))
    _assert_normal(half.coeffs)
    third = exact_div(UniPoly([1, 1]), UniPoly([3, 3]))
    assert third.coeffs == (Fraction(1, 3),)
    _assert_normal(third.coeffs)
    assert exact_div(UniPoly([1, 1]), UniPoly([1, 3])) is None


@pytest.mark.parametrize("seed", range(20))
def test_unipoly_with_graded_coefficients_matches_reference(seed):
    # a univariate series with graded-ring coefficients is a coefficient
    # tuple, multiplied by cohomology._product
    rng = random.Random(seed)
    ta = [_random_terms(rng, size=3, top=2) for _ in range(rng.randint(1, 4))]
    tb = [_random_terms(rng, size=3, top=2) for _ in range(rng.randint(1, 4))]
    pa = tuple(GradedPoly(REF_GENS, t) for t in ta)
    pb = tuple(GradedPoly(REF_GENS, t) for t in tb)
    want = _ref_umul([_ref(t) for t in ta], [_ref(t) for t in tb], _ref_mul, _ref_add, {})
    got = _product(pa, pb)
    assert len(got) == len(want)
    for c, w in zip(got, want):
        _assert_matches(c, w)
    neg = _neg(pa)
    assert len(neg) == len(pa)
    for k, (c, t) in enumerate(zip(neg, ta)):
        assert c == GradedPoly(REF_GENS, t) * (-1 if k % 2 else 1)


def _toy_presentation(relations, gens=(("x", 1), ("y", 1))):
    rels = tuple(GradedPoly(gens, r) for r in relations)
    return GradedPresentation(marked(diagram("A", 2), {1}), gens, rels), gens


def test_slice_membership_with_non_unit_pivot():
    # one relation 3x + 7y: reducing it divides by 3, which must stay exact
    pres, gens = _toy_presentation([{(1, 0): 3, (0, 1): 7}])
    assert slice_dimension(pres, 1) == 1
    assert slice_dimension(pres, 2) == 1
    assert slice_dimension(pres, 3) == 1
    assert in_relation_slice(pres, GradedPoly(gens, {(1, 0): 6, (0, 1): 14}))
    assert in_relation_slice(pres, GradedPoly(gens, {(1, 0): 1, (0, 1): Fraction(7, 3)}))
    assert not in_relation_slice(pres, GradedPoly(gens, {(1, 0): 1, (0, 1): 2}))
    assert in_relation_slice(pres, GradedPoly(gens, {(2, 0): 3, (1, 1): 7}))
    assert not in_relation_slice(pres, GradedPoly(gens, {(2, 0): 1}))
    # two relations 2x^2 + 3xy and 5y^2: pivots 2 and 5
    pres, gens = _toy_presentation([{(2, 0): 2, (1, 1): 3}, {(0, 2): 5}])
    assert slice_dimension(pres, 2) == 1
    assert slice_dimension(pres, 3) == 0
    assert in_relation_slice(pres, GradedPoly(gens, {(2, 0): 1, (1, 1): Fraction(3, 2), (0, 2): 1}))
    assert not in_relation_slice(pres, GradedPoly(gens, {(1, 1): 1}))
    # 5x - y - 2z, 9x - 6y + z and their sum: rank 2, which floating-point
    # elimination gets wrong (it finds rank 3)
    xyz = (("x", 1), ("y", 1), ("z", 1))
    r1, r2 = {(1, 0, 0): 5, (0, 1, 0): -1, (0, 0, 1): -2}, {(1, 0, 0): 9, (0, 1, 0): -6, (0, 0, 1): 1}
    r3 = {e: r1[e] + r2[e] for e in r1}
    pres, gens = _toy_presentation([r1, r2, r3], xyz)
    assert slice_dimension(pres, 1) == 1
    assert in_relation_slice(pres, GradedPoly(gens, r3))


def test_gaussian_rationals_are_values(value_type):
    value_type(GaussRat, (1, Fraction(1, 2)), [(2, Fraction(1, 2)), (1, 3)])
    # a real Gaussian rational is its real part, hash included
    assert GaussRat(2) == 2 and hash(GaussRat(2)) == hash(2)
    half = Fraction(1, 2)
    assert GaussRat(half) == half and hash(GaussRat(half)) == hash(half)
