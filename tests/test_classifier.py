import copy
import gc
import json
import re
from itertools import combinations

import pytest

from flagnest import classifier, cohomology
from flagnest.classifier import (
    EXISTS,
    NOT_EXISTS,
    NestingQuery,
    ObstructionOutcome,
    TraceStep,
    _canonical_marks,
    _curve_tag_blocks,
    _positive,
    classify,
    enumerate_nestings,
    obstruct_first_node,
    obstruct_last_node,
)
from flagnest.cohomology import last_flag_generators, presentation
from flagnest.dynkin import (
    DynkinDiagram,
    apply_automorphism,
    diagram,
    diagram_automorphisms,
    marked,
)
from flagnest.errors import InternalInconsistencyError, UnsupportedInputError
from flagnest.exactpoly import UniPoly


def query(fam, n, kept, forgotten):
    return NestingQuery(diagram(fam, n), frozenset(kept), frozenset(forgotten))


def rules(decision):
    return [step.rule for step in decision.trace]


# ---------------------------------------------------------------------------
# query validation


def test_query_rejects_bad_mark_sets():
    with pytest.raises(UnsupportedInputError):
        query("A", 4, [1], [1])
    with pytest.raises(UnsupportedInputError):
        query("A", 4, [], [2])
    with pytest.raises(UnsupportedInputError):
        query("A", 4, [1], [5])
    with pytest.raises(UnsupportedInputError):
        query("A", 4, [0], [2])


def test_query_rejects_aliased_diagram_labels():
    # C2 collapses to B2 with the node meanings swapped, so marks posed on a
    # raw C2 object would be ambiguous
    with pytest.raises(UnsupportedInputError):
        NestingQuery(DynkinDiagram("C", 2), frozenset([1]), frozenset([2]))


def test_validation_holds_after_valid_queries_on_the_same_diagram():
    for fam, n in (("B", 2), ("A", 3), ("A", 4)):
        assert query(fam, n, [1], [2]).key() == (fam, n, (1,), (2,))
    for raw in (DynkinDiagram("C", 2), DynkinDiagram("D", 3), DynkinDiagram("D", 2)):
        for _ in range(2):
            with pytest.raises(UnsupportedInputError):
                NestingQuery(raw, frozenset([1]), frozenset([2]))
    with pytest.raises(UnsupportedInputError, match="disjoint"):
        query("A", 4, [1, 2], [2, 3])
    with pytest.raises(UnsupportedInputError, match="nonempty"):
        query("A", 4, [1], [])
    for bad in (0, 5, -1):
        with pytest.raises(UnsupportedInputError, match=f"node {bad} outside 1..4"):
            query("A", 4, [1, bad], [2])
        with pytest.raises(UnsupportedInputError, match=f"node {bad} outside 1..4"):
            query("A", 4, [1], [2, bad])


@pytest.mark.parametrize(
    "raw,kept,forgotten,message",
    [
        (DynkinDiagram("C", 2), [1], [2],
         "C2 is stored as B2; pose the query on B2 so the node labels are unambiguous"),
        (DynkinDiagram("D", 3), [1], [2],
         "D3 is stored as A3; pose the query on A3 so the node labels are unambiguous"),
        (DynkinDiagram("A", 4), [], [2], "both mark sets must be nonempty"),
        (DynkinDiagram("A", 4), [1, 3], [3, 4], "mark sets must be disjoint"),
        (DynkinDiagram("A", 4), [0], [2], "node 0 outside 1..4"),
        (DynkinDiagram("A", 4), [1], [2, 5], "node 5 outside 1..4"),
        # a float mark must not be truncated onto a node: A5(1,5) has a section
        (DynkinDiagram("A", 5), [1.7], [5], "node 1.7 is not an integer"),
        (DynkinDiagram("A", 5), [1], ["x"], "node 'x' is not an integer"),
        (DynkinDiagram("A", 5), [True], [5], "node True is not an integer"),
    ],
    ids=["C2", "D3", "empty", "overlap", "node0", "node-rank-plus-one", "float", "str", "bool"],
)
def test_query_error_messages(raw, kept, forgotten, message):
    # twice: the second query meets whatever the first left memoized
    for _ in range(2):
        with pytest.raises(UnsupportedInputError) as exc:
            NestingQuery(raw, frozenset(kept), frozenset(forgotten))
        assert str(exc.value) == message


def test_query_key_is_sorted_and_computed_once():
    q = query("D", 6, [5, 1, 3], [6, 2])
    assert q.key() == ("D", 6, (1, 3, 5), (2, 6))
    assert q.key() is q.key()
    assert q == query("D", 6, [1, 3, 5], [2, 6])
    assert hash(q) == hash(query("D", 6, [1, 3, 5], [2, 6]))


def test_canonical_marks_leave_canonical_queries_unchanged():
    d = diagram("A", 5)
    assert _canonical_marks(d, (1,), (4,)) == (((1,), (4,)), None)
    assert _canonical_marks(d, (5,), (2,)) == (((1,), (4,)), (5, 4, 3, 2, 1))
    canon = classify(query("A", 5, [1], [4]))
    assert "diagram-symmetry" not in rules(canon)
    moved = classify(query("A", 5, [5], [2]))
    assert rules(moved)[0] == "diagram-symmetry"
    assert moved.trace[0].data == {
        "permutation": [5, 4, 3, 2, 1],
        "from": {"I": [5], "J": [2]},
        "to": {"I": [1], "J": [4]},
    }
    assert moved.trace[1:] == canon.trace


@pytest.mark.parametrize(
    "fam,n,kept,forgotten",
    [("A", 7, [7], [2]), ("D", 6, [1, 6], [5]), ("D", 4, [4], [1, 3])],
)
def test_repeated_non_canonical_query_gives_the_same_decision(fam, n, kept, forgotten):
    posed = query(fam, n, kept, forgotten)
    memoized = len(forgotten) == 1  # only one-mark decisions are cached
    first = classify(posed)
    again = classify(query(fam, n, kept, forgotten))
    if memoized:
        assert classifier._DECISION_CACHE[posed.key()][1] is first.trace
    else:
        assert posed.key() not in classifier._DECISION_CACHE
    classifier._DECISION_CACHE.clear()
    cold = classify(query(fam, n, kept, forgotten))
    assert first.query == again.query == cold.query == posed
    assert first.to_json() == again.to_json() == cold.to_json()
    assert rules(cold)[0] == "diagram-symmetry"
    if memoized:
        assert classify(posed).trace is cold.trace
        assert classifier._DECISION_CACHE[posed.key()][1] is cold.trace
    else:
        assert posed.key() not in classifier._DECISION_CACHE
        assert classify(posed).to_json() == cold.to_json()


# ---------------------------------------------------------------------------
# the positive list


def test_point_hyperplane_chain_exists():
    for n in (3, 5, 7, 9):
        dec = classify(query("A", n, [1], [n]))
        assert dec.result == EXISTS
        assert dec.trace[-1].rule == "explicit-section"
        assert "nesting_A" in dec.trace[-1].data["construction"]


def test_octonion_case_exists_with_doubled_cubic():
    dec = classify(query("B", 3, [1], [3]))
    assert dec.exists
    pairs = dec.trace[-1].data["surviving_pairs"]
    assert pairs == [["1 + 2t + 2t^2 + t^3", "1 + 2t + 2t^2 + t^3"]]
    assert "nesting_B3" in dec.trace[-1].data["construction"]


def test_spinor_flag_exists_in_both_directions():
    for n in (4, 5, 6, 8):
        assert classify(query("D", n, [n - 1], [n])).exists
        assert classify(query("D", n, [n], [n - 1])).exists
    # the triality images on rank four
    assert classify(query("D", 4, [1], [4])).exists
    assert classify(query("D", 4, [4], [1])).exists
    assert "nesting_D" in classify(query("D", 5, [4], [5])).trace[-1].data["construction"]


def test_positive_foldings_inventory():
    for source, label, target_rank in (
        (("A", 3), "A3->C2", 2), (("D", 4), "D4->B3", 3), (("B", 3), "B3->G2", 2)
    ):
        d = diagram(*source)
        (kept, forgotten), _, folding, pairs = _positive(d)
        assert folding == label
        # disjoint pairs of nodes of d, each folded onto one target node
        folded = [i for pair in pairs for i in pair]
        assert len(set(folded)) == len(folded) and set(folded) <= set(d.nodes)
        assert d.rank - len(pairs) == target_rank
        blocked, data = _curve_tag_blocks(d, kept, forgotten, (1,) * d.rank)
        assert not blocked and data["folding"] == label


def test_positive_folding_pairs():
    assert _positive(diagram("A", 5))[2:] == ("A5->C3", ((1, 5), (2, 4)))  # node 3 alone
    assert _positive(diagram("D", 6))[2:] == ("D6->B5", ((5, 6),))
    assert _positive(diagram("B", 3))[2:] == ("B3->G2", ((1, 3),))
    for fam, n in (("A", 4), ("C", 3), ("C", 4), ("B", 4)):
        assert _positive(diagram(fam, n)) is None


def test_curve_tag_is_checked_on_the_folded_pairs():
    for fam, n, tag, constant in (
        ("A", 3, (1, 0, 1), True),
        ("A", 3, (1, 0, 2), False),
        ("D", 4, (0, 1, 2, 2), True),
        ("D", 4, (0, 1, 2, 1), False),
        ("B", 3, (2, 0, 2), True),
        ("B", 3, (0, 0, 1), False),
    ):
        d = diagram(fam, n)
        (kept, forgotten), *_ = _positive(d)
        blocked, data = _curve_tag_blocks(d, kept, forgotten, tag)
        assert data["posed_tag"] == list(tag)  # the standard pose needs no relabeling
        assert data["constant_on_fibers"] is constant and blocked is not constant


def test_curve_tag_off_the_positive_list_is_an_internal_error():
    with pytest.raises(InternalInconsistencyError, match="no positive pose on C3"):
        _curve_tag_blocks(diagram("C", 3), 1, 3, (1, 0, 0))


def test_positive_list_is_what_enumeration_finds():
    rows = enumerate_nestings(12)["exists"]
    assert len(rows) == 15
    diagrams = [
        diagram(fam, n) for fam, lo in (("A", 2), ("B", 2), ("C", 3), ("D", 4)) for n in range(lo, 13)
    ]
    listed = [d for d in diagrams if _positive(d) is not None]
    assert [str(d) for d in listed] == [row["diagram"] for row in rows]
    for d, row in zip(listed, rows):
        (kept, forgotten), *_ = _positive(d)
        assert _canonical_marks(d, (kept,), (forgotten,))[0] == (tuple(row["I"]), tuple(row["J"]))


# ---------------------------------------------------------------------------
# negative singletons and the traces that close them


def test_even_projective_space_fails_by_parity():
    dec = classify(query("A", 4, [1], [4]))
    assert dec.result == NOT_EXISTS
    assert "coxeter-parity" in rules(dec)
    assert dec.trace[-1].rule == "splitting-degree-scan"
    assert dec.trace[-1].data["admissible_degrees"] == []


def test_rank_three_parity_is_cited():
    # both minimal-mark varieties are projective spaces, so the integrality
    # constraint on rank-three Chern classes removes the last candidate
    for fam, n in (("A", 5), ("C", 3)):
        dec = classify(query(fam, n, [1], [3]))
        assert dec.result == NOT_EXISTS
        cited = [s for s in dec.trace if s.rule == "rank-three-chern-parity"]
        assert cited and cited[0].data["rejected_quotients"] == ["1 + 2t + 2t^2 + t^3"]
        assert dec.trace[-1].rule == "chern-factorization"
        assert dec.trace[-1].data["survivors"] == []


def test_quadric_point_cases_fail_through_factorization():
    for fam, n, r in (("B", 4, 2), ("B", 5, 5), ("C", 4, 4), ("D", 5, 2), ("D", 6, 3)):
        dec = classify(query(fam, n, [1], [r]))
        assert dec.result == NOT_EXISTS, (fam, n, r)


def test_near_spinor_marks_on_even_quadric_delegate():
    dec = classify(query("D", 8, [1], [7]))
    assert dec.result == NOT_EXISTS
    assert "spinor-restriction" in rules(dec)


def test_isotropic_side_obstruction_shapes():
    assert classify(query("D", 5, [5], [1])).trace[-1].rule == "dimension-drop"
    assert classify(query("C", 6, [6], [2])).trace[-1].rule == "generator-degree-gap"
    assert classify(query("B", 4, [4], [3])).trace[-1].rule == "missing-relation-degree"
    dec = classify(query("D", 5, [5], [2]))
    assert dec.result == NOT_EXISTS
    assert "degree-two-collapse" in rules(dec)


def test_interior_mark_needs_posed_tag():
    # the kept subdiagram is a D4 entered through the unswapped extremal node,
    # so the tag must be moved into the standard pose before the fiber test
    dec = classify(query("D", 5, [2], [5]))
    assert dec.result == NOT_EXISTS
    last = dec.trace[-1]
    assert last.rule == "rational-curve-tag"
    assert last.data["constant_on_fibers"] is False
    assert last.data["tag"] != last.data["posed_tag"]


def test_g2_is_a_recorded_fact():
    dec = classify(query("G2", 2, [1], [2]))
    assert dec.result == NOT_EXISTS
    assert rules(dec) == ["exceptional-rank-two"]


# ---------------------------------------------------------------------------
# several marks on either side


def test_triality_pair_blocked():
    dec = classify(query("D", 4, [3], [1, 4]))
    assert dec.result == NOT_EXISTS
    assert dec.trace[-1].rule == "triality-exclusion"
    dec = classify(query("D", 4, [3, 4], [1]))
    assert dec.trace[-1].rule == "triality-exclusion"


def test_many_marked_queries_fail():
    for fam, n, kept, forgotten in (
        ("D", 6, [3, 6], [5]),
        ("D", 6, [1, 6], [5]),
        ("B", 4, [1, 4], [2]),
        ("A", 6, [2, 4], [3]),
        ("D", 5, [1, 2], [5]),
    ):
        dec = classify(query(fam, n, kept, forgotten))
        assert dec.result == NOT_EXISTS, (fam, n, kept, forgotten)


def test_many_unmarked_fails_when_one_leg_fails():
    dec = classify(query("A", 5, [1], [3, 5]))
    assert dec.result == NOT_EXISTS
    assert "unmark-projection" in rules(dec)


# ---------------------------------------------------------------------------
# trace structure invariants


def closing_rules(dec):
    if dec.result == EXISTS:
        return {"explicit-section"}
    return {
        "chern-factorization",
        "coxeter-parity",
        "splitting-degree-scan",
        "generator-degree-gap",
        "dimension-drop",
        "missing-relation-degree",
        "rational-curve-tag",
        "exceptional-rank-two",
        "triality-exclusion",
    }


def test_every_trace_closes_properly():
    # single marks and the multi-mark queries of all-subsets enumeration, so
    # the subquery and curve-tag steps are covered; a TraceStep does not
    # check its own strings, so every step's rule and anchor are checked here
    for fam, lo in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, 7):
            d = diagram(fam, n)
            pairs = list(classifier._mark_pairs(d, "singletons"))
            pairs += list(classifier._mark_pairs(d, "all-subsets"))
            for kept, forgotten in pairs:
                dec = classify(NestingQuery(d, frozenset(kept), frozenset(forgotten)))
                assert dec.trace[-1].rule in closing_rules(dec)
                for step in dec.trace:
                    assert step.rule.strip()
                    assert step.anchor.strip()


def test_decisions_are_equivariant_and_deterministic():
    d = diagram("D", 4)
    base = classify(NestingQuery(d, frozenset([1]), frozenset([3])))
    for sigma in diagram_automorphisms(d):
        moved = NestingQuery(
            d, apply_automorphism(sigma, [1]), apply_automorphism(sigma, [3])
        )
        assert classify(moved).result == base.result
    q = query("D", 6, [3, 6], [5])
    a = json.dumps(classify(q).to_json(), sort_keys=True)
    b = json.dumps(classify(q).to_json(), sort_keys=True)
    assert a == b


def test_decision_json_shape():
    dec = classify(query("B", 3, [1], [3]))
    blob = dec.to_json()
    assert set(blob) == {"query", "result", "trace"}
    assert blob["query"] == {"diagram": "B3", "I": [1], "J": [3]}
    for step in blob["trace"]:
        assert set(step) == {"rule", "anchor", "data"}
    json.dumps(blob)  # everything must be serializable


def test_every_decision_path_enforces_closers(monkeypatch):
    # a reduction closes nothing; a construction cannot close a negative
    # decision, nor a computation a positive one; and a result must be known
    for result, rule in (
        (EXISTS, "fiber-restriction"),
        (NOT_EXISTS, "fiber-restriction"),
        (NOT_EXISTS, "explicit-section"),
        (EXISTS, "chern-factorization"),
        ("maybe", "explicit-section"),
    ):

        def decide(store, d, kept, forgotten):
            steps = []
            store.step(steps, rule, "closer under test", dict)
            return result, steps

        monkeypatch.setattr(classifier, "_decide", decide)
        monkeypatch.setattr(classifier, "_DECISION_CACHE", {})
        with pytest.raises(InternalInconsistencyError, match="must close"):
            classify(query("A", 3, [1], [3]))
        with pytest.raises(InternalInconsistencyError, match="must close"):
            enumerate_nestings(3)


# ---------------------------------------------------------------------------
# the obstruction pipelines called directly


def test_first_node_pipeline():
    assert obstruct_first_node("B", 4, 2).obstructed
    assert obstruct_first_node("A", 6, 6).obstructed
    assert obstruct_first_node("D", 8, 7).obstructed
    out = obstruct_first_node("B", 3, 3)
    assert not out.obstructed
    assert [[str(a), str(b)] for a, b in out.survivors] == [
        ["1 + 2t + 2t^2 + t^3", "1 + 2t + 2t^2 + t^3"]
    ]
    out = obstruct_first_node("A", 5, 5)
    assert not out.obstructed
    assert [str(a) for a, _ in out.survivors] == ["1 + t + t^2 + t^3 + t^4 + t^5"]
    with pytest.raises(UnsupportedInputError):
        obstruct_first_node("A", 5, 1)
    with pytest.raises(UnsupportedInputError):
        obstruct_first_node("G2", 2, 2)


# Two first-node filters are proved never to reject, so a split that would
# trip one can only come from a broken sweep; B3 has h = 6 and r = 2 admits
# a quotient of degree 2.
@pytest.mark.parametrize(
    "pe,pf,message",
    [
        ([1, 1, 1], [1], "lacks the factor 1 + t"),  # no factor 1 + t in P_E
        ([1, 1], [1, 0, -1], "has odd terms"),  # k = P_F(-t) / (1 - t) = 1 + t
    ],
    ids=["hyperplane-class-factor", "even-factor-parity"],
)
def test_first_node_invariants_raise_on_a_crafted_split(monkeypatch, pe, pf, message):
    monkeypatch.setattr(
        classifier, "factor_unit_minus_tk", lambda h, ambient: ((UniPoly(pe), UniPoly(pf)),)
    )
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        obstruct_first_node("B", 3, 2)


def test_last_node_pipeline():
    assert not obstruct_last_node("D", 6, 5).obstructed
    assert not obstruct_last_node("D", 4, 1).obstructed
    assert obstruct_last_node("B", 2, 1).obstructed
    out = obstruct_last_node("B", 4, 3)
    assert out.obstructed
    assert out.steps[-1].data["pairing_coefficient"] == -2
    mirrored = obstruct_last_node("D", 7, 2)
    assert mirrored.obstructed
    assert mirrored.steps[0].rule == "mirror-presentation"
    with pytest.raises(UnsupportedInputError):
        obstruct_last_node("B", 4, 4)
    with pytest.raises(UnsupportedInputError):
        obstruct_last_node("A", 5, 2)


def _isotropic_flags(max_rank):
    for family, lo in (("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, max_rank + 1):
            for r in range(1, n):
                yield family, n, r


def test_last_flag_generator_table_matches_presentation():
    for family, n, r in _isotropic_flags(12):
        flag = presentation(marked(diagram(family, n), [r, n]))
        assert last_flag_generators(n, r) == flag.generators, (family, n, r)


def test_last_node_outcomes_equal_on_cold_and_warm_caches():
    ledger_values = 0
    for family, n, r in _isotropic_flags(12):
        cohomology.presentation.cache_clear()
        cohomology.eliminated_target.cache_clear()
        cold = obstruct_last_node(family, n, r)
        expected = copy.deepcopy(cold)
        # the ledger degrees a trace carries are the shared tuples, which no
        # caller can append to
        for step in cold.steps:
            for key in ("target_generator_degrees", "target_relation_degrees"):
                if key in step.data:
                    assert isinstance(step.data[key], tuple), (family, n, r, key)
                    ledger_values += 1
        assert obstruct_last_node(family, n, r) == expected, (family, n, r)
    assert ledger_values


# ---------------------------------------------------------------------------
# enumeration


RANK8_POSITIVES = [
    {"diagram": "A3", "I": [1], "J": [3]},
    {"diagram": "A5", "I": [1], "J": [5]},
    {"diagram": "A7", "I": [1], "J": [7]},
    {"diagram": "B3", "I": [1], "J": [3]},
    {"diagram": "D4", "I": [1], "J": [3]},
    {"diagram": "D5", "I": [4], "J": [5]},
    {"diagram": "D6", "I": [5], "J": [6]},
    {"diagram": "D7", "I": [6], "J": [7]},
    {"diagram": "D8", "I": [7], "J": [8]},
]


def test_enumerate_rank_eight_singletons():
    rep = enumerate_nestings(8, "singletons")
    assert rep["exists"] == RANK8_POSITIVES
    assert rep["counts"]["exists"] == 9
    assert rep["counts"]["exists"] + rep["counts"]["not_exists"] == rep["classified"]
    assert rep == enumerate_nestings(8, "singletons")


def test_enumerate_all_subsets_adds_no_positives():
    rep = enumerate_nestings(5, "all-subsets")
    single = enumerate_nestings(5, "singletons")
    assert rep["exists"] == single["exists"]
    assert rep["classified"] > single["classified"]


def test_all_subsets_count_equals_brute_force_orbit_count():
    # every query is taken to its whole orbit under the diagram symmetries,
    # so the count depends on no choice of canonical representative
    total = 0
    for fam, lo in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, 10):
            autos = diagram_automorphisms(diagram(fam, n))
            orbits = set()
            for size in range(2, min(4, n) + 1):
                for union in combinations(range(1, n + 1), size):
                    for k in range(1, size):
                        for kept in combinations(union, k):
                            forgotten = set(union) - set(kept)
                            orbits.add(frozenset(
                                (apply_automorphism(s, kept), apply_automorphism(s, forgotten))
                                for s in autos
                            ))
            total += len(orbits)
    assert enumerate_nestings(9, "all-subsets")["classified"] == total


def test_enumeration_caches_only_one_mark_decisions_and_freezes_them():
    enabled = gc.isenabled()
    classifier._DECISION_CACHE.clear()
    enumerate_nestings(8, "all-subsets")
    assert gc.isenabled() == enabled
    cache = classifier._DECISION_CACHE
    assert cache and all(len(forgotten) == 1 for _, _, _, forgotten in cache)
    # enumeration keeps its verdicts in a store of its own: classify() caches
    # only the subqueries posed to it, a tenth of the 3 369 one-mark entries
    # left when enumeration kept every one-mark trace there
    assert len(cache) <= 336
    assert gc.get_freeze_count() >= len(cache)
    # frozen objects sit in the permanent generation, which get_objects skips
    collected = {id(obj) for obj in gc.get_objects()}
    assert not any(id(dec) in collected for dec in cache.values())


@pytest.mark.parametrize("max_rank,mode", [(12, "singletons"), (8, "all-subsets")])
def test_enumeration_leaves_no_cyclic_garbage(monkeypatch, max_rank, mode):
    # enumeration collects once, before its first diagram, and not after
    # each one: deciding makes no reference cycle, so a per-diagram
    # collection would free nothing.  With the freeze patched out every
    # object stays visible to the collector, which is kept off meanwhile.
    monkeypatch.setattr(gc, "freeze", lambda: None)
    classifier._DECISION_CACHE.clear()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        enumerate_nestings(max_rank, mode)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("max_rank,mode", [(8, "all-subsets"), (12, "singletons")])
def test_enumeration_verdicts_are_what_classify_traces_close_on(monkeypatch, max_rank, mode):
    # enumeration keeps (result, closing rule) per class and builds no
    # trace; each pair must be classify()'s result and last traced rule
    verdicts = {}
    decide = classifier._canonical_decision

    def recording(store, d, kept, forgotten):
        pair = decide(store, d, kept, forgotten)
        if isinstance(store, classifier._Verdicts):
            verdicts[d, kept, forgotten] = pair
        return pair

    monkeypatch.setattr(classifier, "_canonical_decision", recording)
    rep = enumerate_nestings(max_rank, mode)
    assert len(verdicts) == rep["classified"]
    monkeypatch.setattr(classifier, "_DECISION_CACHE", {})
    for (d, kept, forgotten), pair in verdicts.items():
        decision = classify(NestingQuery(d, frozenset(kept), frozenset(forgotten)))
        assert pair == (decision.result, decision.trace[-1].rule)


def test_enumeration_validates_only_the_queries_it_poses(monkeypatch):
    # enumeration decides canonical mark tuples directly; only a cascade
    # subquery that misses the decision cache becomes a NestingQuery
    calls = []
    validate = NestingQuery.__init__

    def counting(self, *args):
        calls.append(1)
        validate(self, *args)

    monkeypatch.setattr(NestingQuery, "__init__", counting)
    monkeypatch.setattr(classifier, "_DECISION_CACHE", {})
    rep = enumerate_nestings(8, "all-subsets")
    assert rep["classified"] > 8000
    assert 0 < len(calls) < 100


def test_enumerate_validates_arguments():
    with pytest.raises(UnsupportedInputError):
        enumerate_nestings(2)
    with pytest.raises(UnsupportedInputError):
        enumerate_nestings(6, "everything")


def test_queries_steps_and_outcomes_are_values(value_type):
    d5, b5, one, two = diagram("D", 5), diagram("B", 5), frozenset({1}), frozenset({2})
    value_type(
        NestingQuery,
        (d5, one, two),
        [(b5, one, two), (d5, frozenset({3}), two), (d5, one, frozenset({3}))],
    )
    step = ("coxeter-parity", "h is odd", {"h": 9})
    value_type(
        TraceStep,
        step,
        [("other", "h is odd", {"h": 9}), ("coxeter-parity", "other", {"h": 9}),
         ("coxeter-parity", "h is odd", {"h": 7})],
        hashable=False,  # step data is a dict
    )
    steps, split = (TraceStep(*step),), ((UniPoly([1, 1]), UniPoly([1, -1])),)
    value_type(
        ObstructionOutcome,
        (False, steps, split),
        [(True, steps, split), (False, (), split), (False, steps, ())],
        hashable=False,
    )


def test_queries_compare_without_their_key():
    query = NestingQuery(diagram("D", 5), frozenset({1}), frozenset({2}))
    twin = copy.deepcopy(query)
    twin.__dict__["_key"] = ()
    assert twin == query and hash(twin) == hash(query)
