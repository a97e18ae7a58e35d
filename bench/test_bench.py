"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The traced-run tests run each workload once plain and once traced (about
six minutes in all, most of it self-check).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer
from workloads import WORKLOADS, classify_queries, query_mix

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Which layers each workload is meant to exercise (README.md, "Layers").
LAYERS = {
    "enumerate-singletons": [
        "classifier.classify", "classifier.enumerate_nestings",
        "classifier.obstruct_first_node", "classifier.obstruct_last_node",
        "chern.factor_unit_minus_tk", "chern.nef_feasible", "chern.schur_minor",
        "chern.cyclotomic", "cohomology.presentation",
        "cohomology.eliminate_even_generators", "cohomology.degree_ledger",
        "exactpoly.GradedPoly.__mul__", "exactpoly.GradedPoly.substitute",
        "exactpoly.UniPoly.__mul__", "exactpoly.exact_div",
    ],
    "enumerate-subsets": [
        "classifier.classify", "classifier.enumerate_nestings",
        "dynkin.component_containing", "dynkin.diagram_automorphisms",
        "dynkin.cartan_matrix", "dynkin.restriction_tag",
    ],
    "classify-cold": [
        "cli.main", "classifier.classify", "classifier.obstruct_first_node",
        "classifier.obstruct_last_node", "chern.factor_unit_minus_tk",
        "chern.nef_feasible", "chern.schur_minor", "cohomology.presentation",
        "cohomology.eliminate_even_generators", "exactpoly.GradedPoly.__mul__",
        "exactpoly.UniPoly.__mul__",
    ],
    "self-check": [
        "constructions.section_trials.A", "constructions.section_trials.B3",
        "constructions.section_trials.D", "constructions.octonion_identity_trials",
        "constructions.verify_section", "constructions.nesting_D",
        "linalg.row_echelon", "linalg.determinant", "cohomology.in_relation_slice",
        "cohomology.pullback_identities_check",
        "cohomology.pullback_product_collapse_check",
    ],
}

IDLE_OUTSIDE_SELF_CHECK = [
    "constructions.section_trials.A", "constructions.section_trials.B3",
    "constructions.section_trials.D", "constructions.verify_section",
    "constructions.nesting_D", "constructions.octonion_identity_trials",
    "linalg.determinant",
]


def test_same_seed_same_queries():
    assert classify_queries(7) == classify_queries(7)
    assert classify_queries(7) != classify_queries(8)


def test_query_mix_is_recorded():
    queries = classify_queries(3)
    assert len(queries) == 101
    assert query_mix(queries) == {"interior": 47, "end_mark": 54}


def test_oracle_counts_match_this_commit():
    assert oracle.expected_enumeration(14, "singletons")[0] == 3006
    assert oracle.expected_enumeration(11, "all-subsets")[0] == 46442
    assert len(oracle.expected_enumeration(14, "singletons")[1]) == 18
    assert len(oracle.expected_enumeration(11, "all-subsets")[1]) == 14


def test_oracle_positive_list():
    assert oracle.exists("A", 5, {5}, {1})
    assert not oracle.exists("A", 6, {1}, {6})
    assert oracle.exists("B", 3, {1}, {3}) and not oracle.exists("B", 3, {3}, {1})
    assert oracle.exists("D", 4, {3}, {4}) and not oracle.exists("D", 4, {2}, {4})
    assert oracle.exists("D", 7, {7}, {6}) and not oracle.exists("D", 7, {1}, {7})
    assert not oracle.exists("C", 3, {1}, {3})
    assert not oracle.exists("D", 4, {1, 3}, {4})


def test_benchmark_json_names_what_the_harness_reports():
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.per_layer_names()
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in SPEC["per_layer"])


def _traced(workload):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_traced_run(workload):
    # run.py fails a traced run whose stdout differs from the plain run's.
    result, metrics = _traced(workload)
    assert result["correct"], result
    for layer in LAYERS[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
    if workload == "self-check":
        return
    for layer in IDLE_OUTSIDE_SELF_CHECK:
        assert metrics[f"{layer}.calls"] == 0, layer
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["linalg.row_echelon.self_s"] < 0.01 * self_total


def _self_check_pair(detail):
    plain = run.Sample(["self-check"], 50.0, 50.0, 40.0, 0, b"a: pass\nb: pass\n", "")
    traced = run.Sample(
        ["self-check"], 80.0, 80.0, 40.0, 1, b"a: pass\nb: fail\n", "",
        spans={"checks": {"b": {"passed": False, "detail": detail}}},
        error="self-check: checks failed: ['b']",
    )
    return plain, traced


def test_traced_gate_overrun_is_reported_by_name():
    plain, traced = _self_check_pair("7x100 section trials in 31.20s")
    assert run.compare_traced("self-check", [plain], [traced]) == ["b"]
    assert traced.error is None


def test_traced_wrong_answer_fails():
    plain, traced = _self_check_pair("7x100 section trials in 9.20s; failures: [('D', 5)]")
    assert run.compare_traced("self-check", [plain], [traced]) == []
    assert "differs" in traced.error
