"""Tests for the explicit section constructions and their solvers."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnest.constructions import (
    DRecursionReport,
    FormSpace,
    IsotropicFlag,
    Octonion,
    hyperbolic_space,
    nesting_A,
    nesting_A_cohomology_solver,
    nesting_B3,
    nesting_B3_chern_solver,
    nesting_D,
    nesting_D_recursion_checker,
    octonion_identity_trials,
    random_anisotropic_vector,
    random_invertible_octonion,
    random_isotropic_basis,
    random_null_octonion,
    section_trials,
    verify_section,
)
from flagnest.errors import UnsupportedInputError
from flagnest.exactpoly import GaussRat
from flagnest.linalg import row_echelon


def test_symplectic_space_validation():
    with pytest.raises(UnsupportedInputError):
        FormSpace(3, ((0,) * 3,) * 3, -1)
    with pytest.raises(UnsupportedInputError):
        FormSpace(2, ((0, 1), (1, 0)), -1)
    with pytest.raises(UnsupportedInputError):
        FormSpace(2, ((0, 0), (0, 0)), -1)
    s = hyperbolic_space(2, -1)
    e1 = (1, 0, 0, 0)
    f1 = (0, 0, 1, 0)
    assert s.pairing(e1, f1) == 1
    assert s.pairing(f1, e1) == -1
    for sign in (0, 2, -2, 1.0, True):
        with pytest.raises(UnsupportedInputError):
            FormSpace(2, ((0, 1), (-1, 0)), sign)


def test_nesting_A_needs_an_alternating_form():
    with pytest.raises(UnsupportedInputError):
        nesting_A(hyperbolic_space(2, 1), (1, 0, 0, 0))


def test_nesting_A_int_and_fraction_inputs_agree():
    s = hyperbolic_space(3, -1)
    v = (2, 0, -1, 5, 1, 4)
    assert nesting_A(s, v) == nesting_A(s, tuple(Fraction(c) for c in v))
    pt, hyperplane = nesting_A(s, v)
    assert not any(isinstance(x, float) for row in (pt,) + hyperplane for x in row)
    with pytest.raises(TypeError):
        nesting_A(s, (2.0, 0, -1, 5, 1, 4))


def test_nesting_A_point_lies_on_its_hyperplane():
    s = hyperbolic_space(2, -1)
    point = (Fraction(1), Fraction(2), Fraction(0), Fraction(-3))
    pt, hyperplane = nesting_A(s, point)
    assert len(hyperplane) == 3
    assert all(s.pairing(point, w) == 0 for w in hyperplane)
    assert verify_section("A", s, point, (pt, hyperplane))


def test_nesting_A_rejects_zero_vector():
    s = hyperbolic_space(2, -1)
    with pytest.raises(UnsupportedInputError):
        nesting_A(s, (0, 0, 0, 0))
    with pytest.raises(UnsupportedInputError):
        nesting_A(s, (1, 0, 0))


def test_nesting_A_is_projective():
    s = hyperbolic_space(3, -1)
    v = (Fraction(2), Fraction(0), Fraction(-1), Fraction(5), Fraction(1), Fraction(4))
    doubled = tuple(2 * c for c in v)
    assert nesting_A(s, v) == nesting_A(s, doubled)


def test_nesting_A_is_total_in_dimension_two():
    s = hyperbolic_space(1, -1)
    pt, hyperplane = nesting_A(s, (3, 7))
    assert len(hyperplane) == 1
    assert hyperplane[0][0] * pt[1] == hyperplane[0][1] * pt[0]


@given(st.integers(min_value=1, max_value=60))
def test_nesting_A_scaling_never_changes_output(k):
    s = hyperbolic_space(2, -1)
    v = (Fraction(1), Fraction(-2), Fraction(3), Fraction(0))
    assert nesting_A(s, tuple(k * c for c in v)) == nesting_A(s, v)


def test_cohomology_solver_parity():
    assert nesting_A_cohomology_solver(3) == frozenset({2})
    assert nesting_A_cohomology_solver(4) == frozenset()
    for m in range(2, 21):
        expected = frozenset({2}) if m % 2 else frozenset()
        assert nesting_A_cohomology_solver(m) == expected
    assert (1 - 2) ** 6 == 1
    with pytest.raises(UnsupportedInputError):
        nesting_A_cohomology_solver(1)


def unit(i):
    return Octonion.unit(i)


def conj(x):
    return Octonion((x.coords[0],) + tuple(-c for c in x.coords[1:]))


def test_octonion_table_matches_defining_relations():
    assert unit(1) * unit(2) == unit(3)
    assert unit(2) * unit(1) == unit(3) * -1
    assert unit(1) * unit(4) == unit(5)
    assert unit(1) * unit(6) == unit(7)
    assert unit(2) * unit(4) == unit(6) * -1
    assert unit(4) * unit(2) == unit(6)
    assert unit(2) * unit(5) == unit(7)
    assert unit(3) * unit(4) == unit(7)
    assert unit(3) * unit(5) == unit(6)
    for i in range(1, 8):
        assert unit(i) * unit(i) == unit(0) * -1


def test_octonion_conjugation_and_norm():
    x = Octonion((1, 2, 0, 0, -1, 0, 0, 3))
    assert conj(x).coords[0] == GaussRat(1)
    assert conj(x).coords[1] == GaussRat(-2)
    assert unit(0).norm() == GaussRat(1)
    null = Octonion((0, 1, GaussRat(0, 1), 0, 0, 0, 0, 0))
    assert null.norm().is_zero()
    rng = random.Random(11)
    for _ in range(200):
        y = Octonion(tuple(GaussRat(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(8)))
        coord_sum = GaussRat(0)
        for c in y.coords:
            coord_sum = coord_sum + c * c
        assert conj(y) * y == unit(0) * coord_sum


coordinate = st.integers(min_value=-4, max_value=4)
octonions = st.builds(
    lambda res, ims: Octonion(tuple(GaussRat(a, b) for a, b in zip(res, ims))),
    st.lists(coordinate, min_size=8, max_size=8),
    st.lists(coordinate, min_size=8, max_size=8),
)


@given(octonions, octonions)
def test_octonion_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(octonions, octonions)
def test_octonion_left_alternative(x, y):
    assert x * (x * y) == (x * x) * y


def test_octonion_identity_trials_pass():
    report = octonion_identity_trials(200, seed=5)
    assert report.ok
    assert report.passed == 200


def test_null_octonion_generator():
    rng = random.Random(3)
    for _ in range(20):
        x = random_null_octonion(rng)
        assert not x.is_zero()
        assert x.coords[0].is_zero()
        assert (x * x).is_zero()
        assert x.norm().is_zero()


def test_nesting_B3_plane_through_point():
    rng = random.Random(7)
    x = random_null_octonion(rng)
    a = Octonion((1, 0, 2, 0, 0, 1, 0, 0))
    plane = nesting_B3(a, x)
    assert len(plane) == 3
    assert verify_section("B3", a, x, plane)


def test_nesting_B3_unit_anchor_is_left_multiplication_kernel():
    x = Octonion((0, 1, GaussRat(0, 1), 0, 0, 0, 0, 0))
    plane = nesting_B3(unit(0), x)
    for row in plane:
        assert (x * Octonion(row)).is_zero()


def test_nesting_B3_rejects_bad_inputs():
    null = Octonion((0, 1, GaussRat(0, 1), 0, 0, 0, 0, 0))
    with pytest.raises(UnsupportedInputError):
        nesting_B3(null, null)  # anchor not invertible
    good_anchor = unit(0)
    with pytest.raises(UnsupportedInputError):
        nesting_B3(good_anchor, Octonion.unit(1))  # square is -1, not on the quadric
    with pytest.raises(UnsupportedInputError):
        nesting_B3(good_anchor, Octonion((1, 1, GaussRat(0, 1), 0, 0, 0, 0, 0)))
    with pytest.raises(UnsupportedInputError):
        nesting_B3(good_anchor, Octonion((0,) * 8))


def test_nesting_B3_random_trials():
    report = section_trials("B3", 0, 25, seed=12)
    assert report.ok


def test_B3_chern_solver_two_branches():
    assert nesting_B3_chern_solver() == ((0, (2, 2, 1)), (1, (1, 1, 0)))
    ell = 1
    assert ell * (ell**3 - 2 * ell**2 + 2 * ell - 1) == 0


def test_quadratic_space_validation():
    with pytest.raises(UnsupportedInputError):
        FormSpace(2, ((0, 1), (-1, 0)), 1)
    with pytest.raises(UnsupportedInputError):
        FormSpace(2, ((1, 0), (0, 0)), 1)
    qs = hyperbolic_space(3, 1)
    e1 = (1, 0, 0, 0, 0, 0)
    f1 = (0, 0, 0, 1, 0, 0)
    assert qs.pairing(e1, f1) == 1
    assert qs.pairing(e1, e1) == 0


def test_isotropic_flag_validation():
    line = ((Fraction(1), Fraction(0), Fraction(0), Fraction(0)),)
    plane = (
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
    )
    with pytest.raises(UnsupportedInputError):
        IsotropicFlag((line, plane))  # not nested
    with pytest.raises(UnsupportedInputError):
        IsotropicFlag((plane, plane))  # dimensions must strictly increase


def test_nesting_D_hyperbolic_example():
    qs = hyperbolic_space(4, 1)
    vn = tuple(
        tuple(Fraction(1 if k == i else 0) for k in range(8)) for i in range(4)
    )
    v = (Fraction(1), 0, 0, 0, Fraction(1), 0, 0, 0)
    flag = nesting_D(qs, vn, v)
    assert flag.dimensions() == (3, 4, 5)
    expected_small = tuple(
        tuple(Fraction(1 if k == i else 0) for k in range(8)) for i in (1, 2, 3)
    )
    assert flag.spaces[0] == expected_small
    assert qs.is_isotropic(flag.spaces[0])


def test_nesting_D_is_scale_invariant():
    qs = hyperbolic_space(4, 1)
    vn = random_isotropic_basis(random.Random(2), 4)
    v = (Fraction(1), 0, 0, 0, Fraction(2), 0, 0, 0)
    tripled = tuple(3 * Fraction(c) for c in v)
    assert nesting_D(qs, vn, v) == nesting_D(qs, vn, tripled)


def test_nesting_D_int_and_fraction_inputs_agree():
    qs = hyperbolic_space(4, 1)
    vn = random_isotropic_basis(random.Random(2), 4)
    v = (1, 0, 3, 0, 2, 0, -1, 0)
    as_fractions = tuple(tuple(Fraction(c) for c in row) for row in vn)
    flag = nesting_D(qs, vn, v)
    assert flag == nesting_D(qs, as_fractions, tuple(Fraction(c) for c in v))
    assert not any(isinstance(x, float) for m in flag.spaces for row in m for x in row)
    assert verify_section("D", qs, (vn, v), flag)
    with pytest.raises(TypeError):
        nesting_D(qs, vn, (1.0, 0, 3, 0, 2, 0, -1, 0))


def test_nesting_D_rejects_bad_inputs():
    qs = hyperbolic_space(4, 1)
    vn = tuple(
        tuple(Fraction(1 if k == i else 0) for k in range(8)) for i in range(4)
    )
    with pytest.raises(UnsupportedInputError):
        nesting_D(qs, vn, (Fraction(1),) + (Fraction(0),) * 7)  # isotropic direction
    bad_rows = vn[:3] + ((Fraction(0),) * 4 + (Fraction(1),) + (Fraction(0),) * 3,)
    with pytest.raises(UnsupportedInputError):
        nesting_D(qs, bad_rows, (Fraction(1), 0, 0, 0, Fraction(1), 0, 0, 0))
    with pytest.raises(UnsupportedInputError):
        nesting_D(qs, vn[:3], (Fraction(1), 0, 0, 0, Fraction(1), 0, 0, 0))


def test_nesting_D_random_trials():
    for n in (4, 5):
        report = section_trials("D", n, 20, seed=n)
        assert report.ok, report.failure


def test_nesting_A_random_trials():
    report = section_trials("A", 3, 20, seed=9)
    assert report.ok


def test_section_trials_reject_ranks_below_the_construction():
    for kind, n in (("A", 0), ("A", -4), ("D", 1)):
        with pytest.raises(UnsupportedInputError):
            section_trials(kind, n, 5, seed=1)


def test_verify_section_detects_tampering():
    s = hyperbolic_space(2, -1)
    point = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    pt, hyperplane = nesting_A(s, point)
    wrong = ((Fraction(0), Fraction(0), Fraction(1), Fraction(0)),) + hyperplane[1:]
    assert not verify_section("A", s, point, (pt, wrong))
    with pytest.raises(UnsupportedInputError):
        verify_section("E8", s, point, (pt, hyperplane))


def test_recursion_checker_comes_back_empty():
    for n in (4, 6):
        report = nesting_D_recursion_checker(n)
        assert isinstance(report, DRecursionReport)
        assert report.empty
        assert report.chain_solutions == ()
        assert report.final_candidates == ((2, 1),)
    with pytest.raises(UnsupportedInputError):
        nesting_D_recursion_checker(3)


def _span_text(rows):
    """The reduced row echelon form of a span, one exact entry at a time."""
    return ";".join(
        ",".join(repr(x) if isinstance(x, GaussRat) else str(Fraction(x)) for x in row)
        for row in row_echelon(rows)[0]
    )


def test_seeded_construction_outputs_are_pinned():
    # spans, not bases: two bases of one span reduce to the same rows
    lines = []
    for n in (2, 3, 4):
        rng = random.Random(100 + n)
        s = hyperbolic_space(n, -1)
        for _ in range(5):
            point = tuple(rng.randint(-9, 9) for _ in range(2 * n))
            if any(point):
                pt, hyperplane = nesting_A(s, point)
                lines.append(f"A{n} {_span_text([pt])} | {_span_text(hyperplane)}")
    rng = random.Random(33)
    for _ in range(5):
        a = random_invertible_octonion(rng)
        x = random_null_octonion(rng)
        lines.append(f"B3 {_span_text(nesting_B3(a, x))}")
    for n in (4, 5, 6):
        rng = random.Random(200 + n)
        qs = hyperbolic_space(n, 1)
        for _ in range(5):
            vn = random_isotropic_basis(rng, n)
            v = random_anisotropic_vector(rng, qs)
            flag = nesting_D(qs, vn, v)
            lines.append(f"D{n} " + " | ".join(_span_text(m) for m in flag.spaces))
    assert len(lines) == 35
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "455b831f5add91d1573790e79977133740e6facb7066e5b12ccf37859bac60b0"


def test_octonions_and_flags_are_values(value_type):
    coords = tuple(GaussRat(k, 1) for k in range(8))
    value_type(Octonion, (coords,), [((GaussRat(9),) + coords[1:],)])
    e = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    value_type(IsotropicFlag, (((e[0],), (e[0], e[1])),), [(((e[1],), (e[0], e[1])),)])
