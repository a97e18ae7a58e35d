"""Diagram combinatorics: Cartan matrices, degrees, root counts, marked
variety dimensions, automorphisms, deletion components and restriction
tags.

The reference root list below and the Cartan-matrix component oracle are
independent of how `dynkin` builds components and counts Levi roots."""

import copy
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnest import dynkin
from flagnest.cohomology import degree_ledger, presentation
from flagnest.dynkin import (
    apply_automorphism,
    cartan_matrix,
    closed_neighborhoods,
    component_containing,
    coxeter_number,
    diagram,
    diagram_automorphisms,
    fundamental_degrees,
    marked,
    nontrivial_automorphisms,
    parse_diagram,
    parse_marked,
    restriction_tag,
    variety_dimension,
)
from flagnest.errors import UnsupportedInputError


def test_cartan_matrix_conventions():
    assert cartan_matrix(diagram("B", 2)) == ((2, -1), (-2, 2))
    c3 = cartan_matrix(diagram("C", 3))
    assert c3[2][1] == -1
    assert c3[1][2] == -2
    g2 = cartan_matrix(diagram("G2", 2))
    assert g2 == ((2, -1), (-3, 2))
    a3 = cartan_matrix(diagram("A", 3))
    assert a3 == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_low_rank_normalizations():
    assert diagram("C", 2) == diagram("B", 2)
    assert diagram("D", 3) == diagram("A", 3)
    # as text the aliases are refused: their node labels differ from B2's and A3's
    for text, stored in (("C2", "B2"), ("d3", "A3")):
        with pytest.raises(UnsupportedInputError, match=f"is stored as {stored}; write {stored}"):
            parse_diagram(text)
    with pytest.raises(UnsupportedInputError):
        diagram("D", 2)
    with pytest.raises(UnsupportedInputError):
        diagram("A", 0)


def test_raw_diagrams_keep_the_rank_bound_and_the_stored_names():
    # a raw DynkinDiagram skips diagram(), yet the kernels must not answer
    # for a rank the CLI refuses or for a diagram stored under another name
    with pytest.raises(UnsupportedInputError, match="rank 100 outside the supported 1..61"):
        variety_dimension(marked(dynkin.DynkinDiagram("A", 100), [1]))
    with pytest.raises(UnsupportedInputError, match="D3 is stored as A3; mark A3"):
        degree_ledger(presentation(marked(dynkin.DynkinDiagram("D", 3), [1])))
    with pytest.raises(UnsupportedInputError, match="C2 is stored as B2; mark B2"):
        marked(dynkin.DynkinDiagram("C", 2), [1])
    for fam, rank in (("D", 2), ("D", 1), ("B", 1), ("C", 1)):
        with pytest.raises(UnsupportedInputError):
            marked(dynkin.DynkinDiagram(fam, rank), [1])
    for rank in (0, -1, dynkin.MAX_RANK + 1):
        with pytest.raises(UnsupportedInputError, match="outside the supported"):
            dynkin.DynkinDiagram("A", rank)
    # the aliases stay constructible, so a query posed on one is refused by name
    assert str(dynkin.DynkinDiagram("C", 2)) == "C2"
    assert variety_dimension(marked(dynkin.DynkinDiagram("A", 61), [1])) == 61


def test_g2_has_rank_two_only():
    g2 = dynkin.DynkinDiagram("G2", 2)
    assert g2 == diagram("G2", 2)
    assert variety_dimension(marked(g2, [1])) == 5
    for rank in (1, 3):
        with pytest.raises(UnsupportedInputError, match=f"G2 has rank 2, not {rank}"):
            dynkin.DynkinDiagram("G2", rank)


def test_ranks_above_the_supported_bound_are_rejected():
    top = dynkin.MAX_RANK
    for fam in ("A", "B", "C", "D"):
        assert diagram(fam, top) == dynkin.DynkinDiagram(fam, top)
        with pytest.raises(UnsupportedInputError) as exc:
            diagram(fam, top + 1)
        assert str(exc.value) == f"rank {top + 1} is above the supported maximum {top}"
    with pytest.raises(UnsupportedInputError):
        parse_diagram("A999999999999")
    assert parse_diagram("G2") == diagram("G", 2)


def test_parse_round_trips():
    assert parse_diagram("B3") == diagram("B", 3)
    assert parse_diagram("G2") == diagram("G2", 2)
    m = parse_marked("D4(2,4)")
    assert m.diagram == diagram("D", 4)
    assert m.marked == frozenset({2, 4})
    assert str(m) == "D4(2,4)" and parse_marked(str(m)) == m
    for d in (diagram("A", 1), diagram("C", 5), diagram("D", 7), diagram("G2", 2)):
        assert parse_diagram(str(d)) == d
    with pytest.raises(UnsupportedInputError):
        parse_marked("B3()")


def test_fundamental_degrees_table_order():
    assert fundamental_degrees(diagram("A", 4)) == [2, 3, 4, 5]
    assert fundamental_degrees(diagram("B", 3)) == [2, 4, 6]
    assert fundamental_degrees(diagram("C", 4)) == [2, 4, 6, 8]
    assert fundamental_degrees(diagram("D", 5)) == [2, 4, 6, 8, 5]
    assert fundamental_degrees(diagram("G2", 2)) == [2, 6]


def test_coxeter_numbers():
    assert coxeter_number(diagram("A", 5)) == 6
    assert coxeter_number(diagram("B", 4)) == 8
    assert coxeter_number(diagram("C", 3)) == 6
    assert coxeter_number(diagram("D", 6)) == 10
    assert coxeter_number(diagram("G2", 2)) == 6


def positive_roots(d):
    """All positive roots as coefficient vectors over the simple roots, listed
    from their expressions in the orthonormal basis e_i: the reference that
    the Levi root counts of `variety_dimension` are checked against."""
    n = d.rank
    roots = []

    def vec(pairs):
        v = [0] * n
        for idx, val in pairs:
            v[idx - 1] += val
        return tuple(v)

    def ones(lo, hi):  # alpha_lo + ... + alpha_hi
        return [(k, 1) for k in range(lo, hi + 1)]

    def twos(lo, hi):
        return [(k, 2) for k in range(lo, hi + 1)]

    if d.family == "A":
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                roots.append(vec(ones(i, j)))
    elif d.family == "B":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                roots.append(vec(ones(i, j - 1)))  # e_i - e_j
            roots.append(vec(ones(i, n)))  # e_i
            for j in range(i + 1, n + 1):
                roots.append(vec(ones(i, j - 1) + twos(j, n)))  # e_i + e_j
    elif d.family == "C":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                roots.append(vec(ones(i, j - 1)))  # e_i - e_j
            for j in range(i + 1, n + 1):
                roots.append(vec(ones(i, j - 1) + twos(j, n - 1) + [(n, 1)]))  # e_i + e_j
            roots.append(vec(twos(i, n - 1) + [(n, 1)]))  # 2 e_i
    elif d.family == "D":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                roots.append(vec(ones(i, j - 1)))  # e_i - e_j
        for i in range(1, n):
            roots.append(vec(ones(i, n - 2) + [(n, 1)]))  # e_i + e_n
        for i in range(1, n):
            for j in range(i + 1, n):
                roots.append(vec(ones(i, j - 1) + twos(j, n - 2) + [(n - 1, 1), (n, 1)]))  # e_i + e_j
    else:  # G2
        roots = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]
    return roots


def test_positive_root_counts():
    assert len(positive_roots(diagram("A", 4))) == 10
    assert len(positive_roots(diagram("B", 3))) == 9
    assert len(positive_roots(diagram("C", 4))) == 16
    assert len(positive_roots(diagram("D", 5))) == 20
    assert len(positive_roots(diagram("G2", 2))) == 6
    for d in _diagrams_up_to(9):
        roots = positive_roots(d)
        assert len(set(roots)) == len(roots)
        assert dynkin._root_count(d) == len(roots)


def test_variety_dimensions_closed_forms():
    for n in range(2, 9):
        assert variety_dimension(marked(diagram("A", n), {1})) == n
        assert variety_dimension(marked(diagram("B", n), {1})) == 2 * n - 1
        assert variety_dimension(marked(diagram("B", n), {n})) == n * (n + 1) // 2
        if n >= 3:
            assert variety_dimension(marked(diagram("C", n), {1})) == 2 * n - 1
            assert variety_dimension(marked(diagram("C", n), {n})) == n * (n + 1) // 2
        if n >= 4:
            assert variety_dimension(marked(diagram("D", n), {1})) == 2 * n - 2
            assert variety_dimension(marked(diagram("D", n), {n})) == n * (n - 1) // 2


def test_full_flag_dimension_is_root_count():
    d = diagram("B", 3)
    assert variety_dimension(marked(d, {1, 2, 3})) == 9


def test_automorphism_groups():
    assert diagram_automorphisms(diagram("B", 5)) == ((1, 2, 3, 4, 5),)
    assert diagram_automorphisms(diagram("C", 4)) == ((1, 2, 3, 4),)
    assert diagram_automorphisms(diagram("G2", 2)) == ((1, 2),)
    a4 = diagram_automorphisms(diagram("A", 4))
    assert (4, 3, 2, 1) in a4 and len(a4) == 2
    d5 = diagram_automorphisms(diagram("D", 5))
    assert (1, 2, 3, 5, 4) in d5 and len(d5) == 2
    d4 = diagram_automorphisms(diagram("D", 4))
    # the order matters: canonical marks take the first symmetry that reaches them
    assert d4 == (
        (1, 2, 3, 4), (1, 2, 4, 3), (3, 2, 1, 4), (3, 2, 4, 1), (4, 2, 1, 3), (4, 2, 3, 1),
    )
    for sigma in d4:
        assert sigma[1] == 2
        assert apply_automorphism(sigma, {1, 3, 4}) == frozenset({1, 3, 4})


def test_automorphisms_preserve_cartan_matrix():
    for d in (diagram("A", 5), diagram("D", 4), diagram("D", 6)):
        c = cartan_matrix(d)
        for sigma in diagram_automorphisms(d):
            for i in d.nodes:
                for j in d.nodes:
                    assert c[i - 1][j - 1] == c[sigma[i - 1] - 1][sigma[j - 1] - 1]


def test_delete_nodes_splits_d5():
    comps = dynkin._components(diagram("D", 5), frozenset({2}))
    assert [c.diagram for c in comps] == [diagram("A", 1), diagram("A", 3)]
    assert comps[0].nodes == (1,)
    tail = comps[1]
    assert tail.parent_nodes == frozenset({3, 4, 5})
    # the lone fork node 3 is the middle of the A3, walked from fork 4
    assert tail.nodes == (4, 3, 5)
    assert [tail.own_node(p) for p in (4, 3, 5)] == [1, 2, 3]
    assert component_containing(diagram("D", 5), {2}, 1) is comps[0]
    assert component_containing(diagram("D", 5), {2}, 5) is tail


def test_delete_nodes_keeps_double_edge_orientation():
    comps = dynkin._components(diagram("C", 4), frozenset({1, 2}))
    assert len(comps) == 1
    sub = comps[0]
    assert component_containing(diagram("C", 4), {1, 2}, 3) is sub
    assert sub.diagram == diagram("B", 2)
    # C2 is stored as B2, so the short node 4 comes first
    assert sub.nodes == (4, 3)
    c = cartan_matrix(sub.diagram)
    assert c[1][0] == -2


def test_component_containing():
    comp = component_containing(diagram("D", 5), {2}, 4)
    assert comp.parent_nodes == frozenset({3, 4, 5})
    with pytest.raises(UnsupportedInputError):
        component_containing(diagram("D", 5), {2}, 2)


def _diagrams_up_to(max_rank):
    out = [diagram("G2", 2)]
    for fam, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        out += [diagram(fam, n) for n in range(lo, max_rank + 1)]
    return out


def test_memoized_deletions_match_fresh_computation():
    cases = [
        (d, frozenset(removed))
        for d in _diagrams_up_to(9)
        for size in range(4)
        for removed in combinations(d.nodes, size)
    ]
    # fill the memo in one order, read it back in the reverse order through
    # component_containing with other argument types, and compare with the
    # uncached split
    for d, removed in cases:
        dynkin._components(d, removed)
    for d, removed in reversed(cases):
        fresh = dynkin._components.__wrapped__(d, removed)
        assert dynkin._components(d, removed) == fresh
        for node in d.nodes:
            if node in removed:
                with pytest.raises(UnsupportedInputError):
                    component_containing(d, set(removed), node)
            else:
                (want,) = [c for c in fresh if node in c.parent_nodes]
                assert component_containing(d, list(removed), node) == want
                assert component_containing(d, sorted(removed), node) is (
                    component_containing(d, tuple(removed), node)
                )


def test_memoized_cartan_and_automorphisms_match_fresh_computation():
    for d in _diagrams_up_to(9):
        assert cartan_matrix(d) == cartan_matrix.__wrapped__(d)
        assert cartan_matrix(d) is cartan_matrix(d)
        fresh = diagram_automorphisms.__wrapped__(d)
        assert diagram_automorphisms(d) == fresh
        others = [p for p in fresh if p != tuple(d.nodes)]
        assert nontrivial_automorphisms(d) == tuple(others)
        if d.family in ("B", "C", "G2") or d.rank == 1:
            assert nontrivial_automorphisms(d) == ()


def test_variety_dimension_counts_the_roots_meeting_the_marks():
    for d in _diagrams_up_to(9):
        roots = positive_roots(d)
        for size in range(1, d.rank + 1):
            for marks in combinations(d.nodes, size):
                want = sum(1 for root in roots if any(root[i - 1] for i in marks))
                assert variety_dimension(marked(d, marks)) == want, (d, marks)
    with pytest.raises(UnsupportedInputError):
        variety_dimension(marked(diagram("A", 3), ()))


def test_components_are_the_connected_pieces_of_the_cartan_matrix():
    for d in _diagrams_up_to(9):
        c = cartan_matrix(d)
        for size in range(d.rank + 1):
            for removed in combinations(d.nodes, size):
                comps = dynkin._components(d, frozenset(removed))
                labels = [p for comp in comps for p in comp.nodes]
                assert sorted(labels) == [i for i in d.nodes if i not in removed]
                assert [min(comp.nodes) for comp in comps] == sorted(min(comp.nodes) for comp in comps)
                for comp in comps:
                    assert comp.parent_nodes == frozenset(comp.nodes)
                    restricted = tuple(tuple(c[p - 1][q - 1] for q in comp.nodes) for p in comp.nodes)
                    assert cartan_matrix(comp.diagram) == restricted, (d, removed, comp)
                for a, b in combinations(comps, 2):
                    assert all(c[p - 1][q - 1] == 0 for p in a.nodes for q in b.nodes)


def test_memoized_values_are_immutable():
    d = diagram("D", 5)
    removed = frozenset({2})
    for f, args in (
        (cartan_matrix, (d,)),
        (diagram_automorphisms, (d,)),
        (dynkin._components, (d, removed)),
    ):
        value = f(*args)
        with pytest.raises(TypeError):
            value[0] = value[0]
        with pytest.raises(AttributeError):
            value.append(value[0])
        with pytest.raises(TypeError):
            value[0][0] = 99
        assert f(*args) == f.__wrapped__(*args)
    assert component_containing(d, {2}, 4).parent_nodes == frozenset({3, 4, 5})


def test_restriction_tag_values():
    parent = diagram("B", 3)
    sub = component_containing(parent, {1}, 2)
    assert sub.diagram == diagram("B", 2)
    assert restriction_tag(parent, sub, 1) == (1, 0)
    a_parent = diagram("A", 4)
    a_sub = component_containing(a_parent, {2}, 3)
    assert restriction_tag(a_parent, a_sub, 2) == (1, 0)
    with pytest.raises(UnsupportedInputError):
        restriction_tag(a_parent, a_sub, 3)


@given(st.integers(min_value=2, max_value=8), st.data())
def test_dimension_is_automorphism_invariant(n, data):
    d = diagram("A", n)
    nodes = data.draw(
        st.sets(st.integers(min_value=1, max_value=n), min_size=1), label="marks"
    )
    m = marked(d, nodes)
    for sigma in diagram_automorphisms(d):
        image = marked(d, apply_automorphism(sigma, nodes))
        assert variety_dimension(image) == variety_dimension(m)


def test_diagrams_and_components_are_values(value_type):
    a3, b2 = diagram("A", 3), diagram("B", 2)
    value_type(dynkin.DynkinDiagram, ("A", 3), [("B", 3), ("A", 4)])
    value_type(dynkin.MarkedDiagram, (a3, {1}), [(diagram("A", 4), {1}), (a3, {2})])
    value_type(dynkin.Component, (b2, (3, 4)), [(diagram("A", 2), (3, 4)), (b2, (4, 3))])
    assert repr(dynkin.MarkedDiagram(a3, {1})) == (
        "MarkedDiagram(diagram=DynkinDiagram(family='A', rank=3), marked=frozenset({1}))"
    )


def test_components_compare_without_their_node_set():
    comp = component_containing(diagram("D", 5), {2}, 4)
    twin = copy.deepcopy(comp)
    twin.__dict__["parent_nodes"] = frozenset()
    assert twin == comp and hash(twin) == hash(comp)


def test_stored_diagrams_are_interned():
    for d in _diagrams_up_to(12):
        assert diagram(d.family, d.rank) is d
        assert diagram(d.family.lower(), d.rank) is d
    assert diagram("C", 2) is diagram("B", 2) and diagram("D", 3) is diagram("A", 3)
    assert parse_diagram("D5") is diagram("D", 5) and parse_marked("G2(1)").diagram is diagram("G2", 2)
    # a raw diagram is validated and compares by value, but is not the stored one
    raw = dynkin.DynkinDiagram("A", 3)
    assert raw == diagram("A", 3) and raw is not diagram("A", 3)
    with pytest.raises(UnsupportedInputError):
        dynkin.DynkinDiagram("A", 62)


def test_deletion_components_hold_the_stored_diagrams():
    seen = {}
    for d in _diagrams_up_to(9):
        for size in range(d.rank + 1):
            for removed in combinations(d.nodes, size):
                for comp in dynkin._components(d, frozenset(removed)):
                    sub = comp.diagram
                    assert sub is diagram(sub.family, sub.rank), (d, removed)
                    # equal components of different deletions are one instance
                    assert seen.setdefault((sub.family, sub.rank, comp.nodes), comp) is comp


def test_closed_neighborhoods_are_each_node_with_its_neighbors():
    for d in _diagrams_up_to(12):
        table = closed_neighborhoods(d)
        assert table is closed_neighborhoods(d) and len(table) == d.rank
        c = cartan_matrix(d)
        for i in d.nodes:
            linked = {j for j in d.nodes if j != i and c[i - 1][j - 1] != 0}
            assert table[i - 1] == {i} | linked, (d, i)


_COUNT_DIAGRAM_COMPARISONS = """
from flagnest import classifier, dynkin, errors
compare = errors.Value.__eq__
calls = []

def counting(self, other):
    if type(self) is type(other) is dynkin.DynkinDiagram:
        calls.append((self, other))
    return compare(self, other)

errors.Value.__eq__ = counting
classifier.enumerate_nestings(8, "all-subsets")
print(len(calls))
"""


def test_cold_enumeration_compares_no_two_diagrams():
    # every diagram the sweep meets is the stored instance, so each memo
    # keyed on a diagram is found by identity; a fresh process keeps the
    # memos cold
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_DIAGRAM_COMPARISONS],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "0\n"
