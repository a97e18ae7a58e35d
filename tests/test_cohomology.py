import gc
from fractions import Fraction

import pytest

from flagnest.acceptance import _reference_elimination
from flagnest.cohomology import (
    GradedPresentation,
    degree_ledger,
    eliminate_even_generators,
    eliminated_target,
    homogeneous_monomials,
    in_relation_slice,
    presentation,
    pullback_identities_check,
    pullback_product_collapse_check,
    slice_dimension,
)
from flagnest.dynkin import diagram, marked
from flagnest.errors import InternalInconsistencyError, UnsupportedInputError
from flagnest.exactpoly import GradedPoly


def pres(family, n, marks):
    return presentation(marked(diagram(family, n), marks))


def rel_by_degree(p):
    out = {}
    for r in p.relations:
        out.setdefault(r.homogeneous_degree(), []).append(r)
    return out


# ---------------------------------------------------------------------------
# Single-mark presentations


def test_projective_space_presentation():
    p = pres("A", 4, {1})
    assert p.generators == (("H", 1), ("A1", 1), ("A2", 2), ("A3", 3))
    h = GradedPoly.generator(p.generators, "H")
    expected = [
        GradedPoly.generator(p.generators, f"A{i}") - h**i * (-1 if i % 2 else 1)
        for i in (1, 2, 3)
    ]
    expected.append(h**5)
    assert list(p.relations) == expected


def test_odd_quadric_presentation():
    p = pres("B", 3, {1})
    assert p.generators == (("H", 1), ("K2", 2), ("K4", 4))
    assert sorted(p.rel_degrees) == [2, 4, 6]


def test_even_quadric_presentation():
    p = pres("D", 4, {1})
    assert p.generators == (("H", 1), ("K2", 2), ("K4", 4), ("eta", 3))
    rels = rel_by_degree(p)
    h, eta = (GradedPoly.generator(p.generators, x) for x in ("H", "eta"))
    assert h * eta in rels[4]
    assert rels[7] == [h**7]


def test_maximal_isotropic_presentations():
    p = pres("B", 3, {3})
    assert sorted(p.rel_degrees) == [2, 4, 6]
    pd = pres("D", 4, {4})
    assert sorted(pd.rel_degrees) == [2, 4, 4, 6, 8]
    assert GradedPoly.generator(pd.generators, "Q4") in pd.relations


def test_top_relation_coefficients():
    # Coeff_2(Q(t)Q(-t)) = 2Q_2 - Q_1^2
    p = pres("B", 4, {4})
    c2 = rel_by_degree(p)[2][0]
    assert c2.coefficient({"Q2": 1}) == 2
    assert c2.coefficient({"Q1": 2}) == -1


# ---------------------------------------------------------------------------
# Two-mark presentations and the {1, n} dispatch


def test_full_flag_rank_two_betti_numbers():
    p = pres("A", 2, {1, 2})
    assert [slice_dimension(p, d) for d in range(5)] == [1, 2, 2, 1, 0]
    pb = pres("B", 2, {1, 2})
    assert [slice_dimension(pb, d) for d in range(6)] == [1, 2, 2, 2, 1, 0]


def test_one_n_marks_use_isotropic_flag_generators():
    p = pres("B", 3, {1, 3})
    assert p.generators == (("q1", 1), ("b1", 1), ("b2", 2))
    # type A has no such presentation; {1, n} falls back to the first-node shape
    pa = pres("A", 4, {1, 4})
    names = [n for n, _ in pa.generators]
    assert names == ["h", "a1", "a2", "a3", "s1"]


def test_two_step_relation_degrees():
    assert sorted(pres("A", 5, {1, 3}).rel_degrees) == [1, 2, 3, 4, 5, 6]
    assert sorted(pres("C", 4, {1, 2}).rel_degrees) == [2, 4, 6, 8]
    # type D adds one extra relation of degree n in both two-step shapes
    assert sorted(pres("D", 5, {1, 2}).rel_degrees) == [2, 4, 5, 6, 8, 10]
    assert sorted(pres("D", 4, {2, 4}).rel_degrees) == [2, 4, 4, 6, 8]


def test_d_type_extra_relations_are_products():
    p = pres("D", 5, {1, 2})
    h, a1, eta3 = (GradedPoly.generator(p.generators, x) for x in ("h", "a1", "eta3"))
    assert h * a1 * eta3 in p.relations
    q = pres("D", 4, {2, 4})
    q2, b2 = (GradedPoly.generator(q.generators, x) for x in ("q2", "b2"))
    assert q2 * b2 in q.relations


def test_unsupported_shapes_raise():
    for family, n, marks in [
        ("A", 4, {4}),
        ("A", 4, {2}),
        ("B", 4, {2}),
        ("D", 5, {4}),
        ("D", 5, {1, 4}),
        ("A", 4, {1, 2, 3}),
        ("D", 6, {2, 3}),
    ]:
        with pytest.raises(UnsupportedInputError):
            pres(family, n, marks)
    with pytest.raises(UnsupportedInputError):
        presentation(marked(diagram("G", 2), {1}))


def test_presentation_is_cached():
    assert pres("C", 3, {1, 2}) is pres("C", 3, {1, 2})


def test_relation_degree_inventory_across_ranks():
    for family, lo in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, 11):
            assert pres(family, n, {1}).rel_degrees
            if family != "A":
                top = pres(family, n, {n})
                evens = list(range(2, 2 * n + 1, 2))
                extra = [n] if family == "D" else []
                assert sorted(top.rel_degrees) == sorted(evens + extra)
            limit = {"A": n, "B": n - 1, "C": n - 1, "D": n - 2}[family]
            for r in range(2, limit + 1):
                first = pres(family, n, {1, r})
                if family == "A":
                    assert sorted(first.rel_degrees) == list(range(1, n + 2))
                else:
                    evens = list(range(2, 2 * n + 1, 2))
                    extra = [n] if family == "D" else []
                    assert sorted(first.rel_degrees) == sorted(evens + extra)


def test_pullback_identities_examples():
    assert pullback_identities_check("A", 4, 2)
    assert pullback_identities_check("B", 3, 2)
    assert pullback_identities_check("D", 4, 2)


def test_pullback_identities_sweep():
    for family, lo in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, 9):
            for r in range(2, n + 1):
                assert pullback_identities_check(family, n, r)


def test_pullback_identities_preconditions():
    with pytest.raises(UnsupportedInputError):
        pullback_identities_check("A", 4, 1)
    with pytest.raises(UnsupportedInputError):
        pullback_identities_check("E", 6, 2)


def test_pullback_product_collapses_small():
    assert pullback_product_collapse_check("B", 3, 2)
    assert pullback_product_collapse_check("C", 4, 3)


# ---------------------------------------------------------------------------
# Even-generator elimination


def test_eliminate_lagrangian_rank_two():
    e = eliminate_even_generators(pres("B", 2, {2}))
    assert e.generators == (("Q1", 1),)
    assert len(e.relations) == 1
    q1 = GradedPoly.generator(e.generators, "Q1")
    assert e.relations[0] == q1**4 * Fraction(1, 4)


def test_eliminate_examples():
    e = eliminate_even_generators(pres("C", 3, {3}))
    assert e.generators == (("Q1", 1), ("Q3", 3))
    assert sorted(e.rel_degrees) == [4, 6]
    q1, q3 = (GradedPoly.generator(e.generators, x) for x in ("Q1", "Q3"))
    assert e.relations[0] == q1**4 * Fraction(1, 4) - q1 * q3 * 2
    assert e.relations[1] == -(q3**2)

    d = eliminate_even_generators(pres("D", 4, {4}))
    assert d.generators == (("Q1", 1), ("Q3", 3))
    assert sorted(d.rel_degrees) == [4, 6]


def test_eliminate_generator_and_relation_degrees():
    for family, lo in (("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, 13):
            e = eliminate_even_generators(pres(family, n, {n}))
            degs = [d for _, d in e.generators]
            assert all(d % 2 for d in degs)
            if family == "D":
                assert max(degs) == (n - 1 if n % 2 == 0 else n - 2)
            else:
                assert max(degs) == (n if n % 2 else n - 1)
            ledger = degree_ledger(e)
            assert ledger["min_relation_degree"] > ledger["max_generator_degree"]


def test_eliminate_is_memoized():
    d = diagram("B", 5)
    assert eliminated_target(d) is eliminated_target(d)
    _, ledger = eliminated_target(d)
    with pytest.raises(TypeError):
        ledger["max_generator_degree"] = 0
    assert ledger["generator_degrees"] == (1, 3, 5)


def test_eliminate_rejects_other_shapes():
    with pytest.raises(UnsupportedInputError):
        eliminate_even_generators(pres("B", 3, {1}))


def test_eliminate_equals_chained_substitution_reference():
    for family, lo in (("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, 17):
            p = pres(family, n, {n})
            got, want = eliminate_even_generators(p), _reference_elimination(p)
            assert got == want, f"{family}{n}"
            # the same normal form: an int where integral, else a Fraction
            for g, w in zip(got.relations, want.relations):
                assert {e: type(c) for e, c in g.terms.items()} == {
                    e: type(c) for e, c in w.terms.items()
                }


def _with_relations(p, relations):
    return GradedPresentation(p.variety, p.generators, tuple(relations))


def test_eliminate_rejects_a_lead_coefficient_other_than_two():
    p = pres("B", 3, {3})
    q2 = GradedPoly.generator(p.generators, "Q2")
    rels = list(p.relations)
    rels[0] = rels[0] + q2  # 3*Q2 - Q1^2
    with pytest.raises(InternalInconsistencyError, match="not solvable for Q2"):
        eliminate_even_generators(_with_relations(p, rels))
    # a second relation in a solved degree is not solvable either
    with pytest.raises(InternalInconsistencyError, match="not solvable for Q2"):
        eliminate_even_generators(_with_relations(p, [p.relations[0]] + list(p.relations)))


def test_eliminate_rejects_a_halving_with_a_remainder():
    p = pres("B", 3, {3})
    q1, q2 = (GradedPoly.generator(p.generators, x) for x in ("Q1", "Q2"))
    rels = list(p.relations)
    # 2*Q2 - Q1^2/4: with Q1 = 2*q1, Q2 = -rest/2 = q1^2/2 has no int coefficient
    rels[0] = q2 * 2 - q1 * q1 * Fraction(1, 4)
    with pytest.raises(InternalInconsistencyError, match="non-integral"):
        eliminate_even_generators(_with_relations(p, rels))


def test_eliminated_relations_resubstitute_into_original_ideal():
    for family, lo in (("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, 7):
            orig = pres(family, n, {n})
            e = eliminate_even_generators(orig)
            lift = {nm: GradedPoly.generator(orig.generators, nm) for nm, _ in e.generators}
            for rel in e.relations:
                lifted = GradedPoly.zero(orig.generators)
                for expo, c in rel.terms.items():
                    term = GradedPoly.const(orig.generators, c)
                    for (nm, _), ex in zip(e.generators, expo):
                        for _ in range(ex):
                            term = term * lift[nm]
                    lifted = lifted + term
                assert in_relation_slice(orig, lifted)


# ---------------------------------------------------------------------------
# Ledgers and slices


def test_degree_ledger_simplifies_linear_generators():
    led = degree_ledger(pres("A", 4, {1}))
    assert led == {
        "generator_degrees": [1],
        "relation_degrees": [5],
        "max_generator_degree": 1,
        "min_relation_degree": 5,
    }
    led_b = degree_ledger(pres("B", 5, {1}))
    assert led_b["generator_degrees"] == [1]
    assert led_b["relation_degrees"] == [10]
    led_d = degree_ledger(pres("D", 6, {1}))
    assert led_d["generator_degrees"] == [1, 5]
    assert led_d["max_generator_degree"] == 5
    assert led_d["min_relation_degree"] == 6


# (family, rank, marks, generator degrees, relation degrees): one variety of
# each presentation shape ({1}, {n}, {1, r}, {r, n}) per family at two ranks,
# taken from the ledger that restarted its scan after every pivot
LEDGER_PINS = [
    ("A", 5, (1,), [1], [6]),
    ("A", 5, (1, 3), [1, 1, 2], [4, 5, 6]),
    ("A", 8, (1,), [1], [9]),
    ("A", 8, (1, 3), [1, 1, 2], [7, 8, 9]),
    ("B", 5, (1,), [1], [10]),
    ("B", 5, (5,), [1, 3, 5], [6, 8, 10]),
    ("B", 5, (1, 3), [1, 1, 2], [6, 8, 10]),
    ("B", 5, (3, 5), [1, 1, 2, 3], [4, 6, 8, 10]),
    ("B", 8, (1,), [1], [16]),
    ("B", 8, (8,), [1, 3, 5, 7], [10, 12, 14, 16]),
    ("B", 8, (1, 3), [1, 1, 2], [12, 14, 16]),
    ("B", 8, (3, 8), [1, 1, 2, 3, 3, 5], [6, 8, 10, 12, 14, 16]),
    ("C", 5, (1,), [1], [10]),
    ("C", 5, (5,), [1, 3, 5], [6, 8, 10]),
    ("C", 5, (1, 3), [1, 1, 2], [6, 8, 10]),
    ("C", 5, (3, 5), [1, 1, 2, 3], [4, 6, 8, 10]),
    ("C", 8, (1,), [1], [16]),
    ("C", 8, (8,), [1, 3, 5, 7], [10, 12, 14, 16]),
    ("C", 8, (1, 3), [1, 1, 2], [12, 14, 16]),
    ("C", 8, (3, 8), [1, 1, 2, 3, 3, 5], [6, 8, 10, 12, 14, 16]),
    ("D", 5, (1,), [1, 4], [5, 9]),
    ("D", 5, (5,), [1, 3], [6, 8]),
    ("D", 5, (1, 3), [1, 1, 2, 2], [5, 6, 8, 10]),
    ("D", 5, (3, 5), [1, 1, 2, 3], [4, 5, 6, 8, 10]),
    ("D", 8, (1,), [1, 7], [8, 15]),
    ("D", 8, (8,), [1, 3, 5, 7], [8, 10, 12, 14, 16]),
    ("D", 8, (1, 3), [1, 1, 2, 5], [8, 12, 14, 16]),
    ("D", 8, (3, 8), [1, 1, 2, 3, 3, 5], [6, 8, 8, 10, 12, 14, 16]),
]


@pytest.mark.parametrize(
    "family,n,marks,gens,rels",
    LEDGER_PINS,
    ids=[f"{f}{n}{m}".replace(" ", "") for f, n, m, _, _ in LEDGER_PINS],
)
def test_degree_ledger_is_pinned_on_every_shape(family, n, marks, gens, rels):
    assert degree_ledger(pres(family, n, set(marks))) == {
        "generator_degrees": gens,
        "relation_degrees": rels,
        "max_generator_degree": max(gens),
        "min_relation_degree": min(rels),
    }


def test_degree_ledger_eliminated_spinor():
    led = degree_ledger(eliminate_even_generators(pres("B", 5, {5})))
    assert led["max_generator_degree"] == 5
    assert led["min_relation_degree"] == 6
    led_d = degree_ledger(eliminate_even_generators(pres("D", 5, {5})))
    assert led_d["max_generator_degree"] == 3
    assert led_d["min_relation_degree"] == 6


def test_quadric_middle_slice_is_two_dimensional():
    for n in (4, 5, 6):
        p = pres("D", n, {1})
        dims = [slice_dimension(p, d) for d in range(2 * n - 3)]
        assert dims[0] == 1
        assert dims[n - 1] == 2
        assert all(dims[d] == 1 for d in range(1, 2 * n - 3) if d != n - 1)


def test_slice_membership():
    p = pres("A", 2, {1, 2})
    h, a1, s1 = (GradedPoly.generator(p.generators, x) for x in ("h", "a1", "s1"))
    assert in_relation_slice(p, h + a1 + s1)
    assert not in_relation_slice(p, h)
    assert in_relation_slice(p, GradedPoly.zero(p.generators))
    with pytest.raises(UnsupportedInputError):
        in_relation_slice(p, h + h * a1)


def test_homogeneous_monomials_enumeration():
    gens = (("x", 1), ("y", 2))
    assert set(homogeneous_monomials(gens, 4)) == {(4, 0), (2, 1), (0, 2)}
    assert homogeneous_monomials(gens, 0) == [(0, 0)]
    assert homogeneous_monomials(gens, -1) == []


def test_presentation_json_export():
    doc = pres("B", 2, {2}).to_json()
    assert doc["variety"] == "B2(2)"
    assert doc["generators"] == [{"name": "Q1", "degree": 1}, {"name": "Q2", "degree": 2}]
    assert all(isinstance(r, dict) for r in doc["relations"])
    assert {"Q2": "2", "Q1^2": "-1"} in doc["relations"]


def test_homogeneous_monomials_leaves_no_reference_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert homogeneous_monomials((("x", 1), ("y", 2), ("z", 3)), 6)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_presentations_are_unhashable_values(value_type):
    gens, renamed = (("x", 1), ("y", 2)), (("x", 1), ("z", 2))
    v = marked(diagram("A", 2), {1})
    rels = (GradedPoly(gens, {(2, 0): 1, (0, 1): -1}),)
    value_type(
        GradedPresentation,
        (v, gens, rels),
        [
            (marked(diagram("A", 2), {2}), gens, rels),
            (v, renamed, (GradedPoly(renamed, rels[0].terms),)),
            (v, gens, (GradedPoly(gens, {(2, 0): 1, (0, 1): 1}),)),
        ],
        hashable=False,  # a GradedPoly is unhashable
    )
