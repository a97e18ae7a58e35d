"""Run the full acceptance battery, one test per check.

Each test prints a single pass/fail line (visible with -s or on failure) and
asserts the check passed, so a red run names the failing behaviour directly.
"""

from flagnest import acceptance, classifier


def _run(check):
    result = check()
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'} ({result.detail})")
    assert result.passed, f"{result.name}: {result.detail}"


def test_singleton_enumeration_reproduces_positive_list():
    _run(acceptance.check_singleton_enumeration)


def test_subset_enumeration_adds_no_positives():
    _run(acceptance.check_subset_enumeration)


def test_factorization_survey_matches_census_and_naive_search():
    _run(acceptance.check_factorization_families)


def test_rank_three_parity_gate_rejects_doubled_cubic():
    _run(acceptance.check_rank_three_parity)


def test_randomized_section_trials_all_verify():
    _run(acceptance.check_randomized_sections)


def test_construction_solvers_land_on_known_answers():
    _run(acceptance.check_construction_solvers)


def test_pullback_identities_and_degree_gaps():
    _run(acceptance.check_pullback_identities)


def test_dimension_closed_forms():
    _run(acceptance.check_dimension_formulas)


def test_check_registry_is_complete():
    assert len(acceptance.CHECKS) == 8
    names = [check.__name__ for check in acceptance.CHECKS]
    assert len(set(names)) == 8
    assert all(name.startswith("check_") for name in names)


def test_singleton_check_judges_closers_by_its_own_list(monkeypatch):
    """A closer that the classifier was made to accept still fails the
    check: the check reads the paper's closing rules from its own list."""
    real = classifier._decide

    def decide(store, d, kept, forgotten):
        result, steps = real(store, d, kept, forgotten)
        if (str(d), kept, forgotten) == ("A4", (1,), (2,)):
            store.step(steps, "fiber-restriction", "reduction only", dict)
        return result, steps

    closers = dict(classifier._CLOSERS)
    closers[classifier.NOT_EXISTS] = closers[classifier.NOT_EXISTS] | {"fiber-restriction"}
    monkeypatch.setattr(classifier, "_decide", decide)
    monkeypatch.setattr(classifier, "_CLOSERS", closers)
    monkeypatch.setattr(classifier, "_DECISION_CACHE", {})
    result = acceptance.check_singleton_enumeration()
    assert not result.passed
    # the A4 query, its mirror image, and the queries that splice its trace
    assert "unfinished traces: [('A4', 1, 2, 'fiber-restriction')," in result.detail
