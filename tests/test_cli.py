import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagnest import classifier, cli
from flagnest.acceptance import CheckResult
from flagnest.constructions import TrialReport
from flagnest.errors import InternalInconsistencyError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_positive(capsys):
    code, out, _ = run(capsys, "classify", "--diagram", "D5", "--marked", "4", "--unmark", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D5(4,5) -> D5(4): exists"
    assert lines[1] == "trace:"
    assert lines[-1].endswith("explicit-section")


def test_classify_text_negative_exit_zero(capsys):
    code, out, _ = run(capsys, "classify", "--diagram", "A4", "--marked", "1", "--unmark", "4")
    assert code == 0
    assert "A4(1,4) -> A4(1): not_exists" in out
    assert "coxeter-parity" in out


def test_classify_trace_flag_shows_anchors(capsys):
    base = ("classify", "--diagram", "B3", "--marked", "1", "--unmark", "3")
    _, plain, _ = run(capsys, *base)
    _, traced, _ = run(capsys, *base, "--trace")
    assert "[" not in plain
    assert "chern-factorization [" in traced
    assert len(traced) > len(plain)


def test_classify_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "classify", "--diagram", "B3", "--marked", "1", "--unmark", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "flagnest/1"
    assert doc["result"] == "exists"
    assert doc["query"] == {"diagram": "B3", "I": [1], "J": [3]}
    assert doc["trace"][-1]["rule"] == "explicit-section"
    assert json.loads(json.dumps(doc)) == doc


def test_classify_rejects_overlapping_marks(capsys):
    code, out, err = run(capsys, "classify", "--diagram", "A4", "--marked", "1,2", "--unmark", "2")
    assert code == 2
    assert out == ""
    assert "unsupported input" in err


def test_classify_bad_diagram_exits_two(capsys):
    code, _, err = run(capsys, "classify", "--diagram", "Z9", "--marked", "1", "--unmark", "2")
    assert code == 2
    assert "Z9" in err


@pytest.mark.parametrize(
    "argv,alias,stored",
    [
        (("classify", "--diagram", "C2", "--marked", "1", "--unmark", "2"), "C2", "B2"),
        (("classify", "--diagram", "D3", "--marked", "2", "--unmark", "3"), "D3", "A3"),
        (("explain", "C2(1)"), "C2", "B2"),
        (("explain", "D3(1)"), "D3", "A3"),
    ],
    ids=["classify-C2", "classify-D3", "explain-C2", "explain-D3"],
)
def test_aliased_diagram_text_exits_two(capsys, argv, alias, stored):
    # C2 and D3 are stored as B2 and A3 under other node labels, so reading
    # the given labels as the stored diagram's would answer another question
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"flagnest: unsupported input: {alias} is stored as {stored}; "
        f"write {stored} so the node labels are unambiguous\n"
    )


def _limit_memory():
    # a regression here would allocate per-node tables until memory runs out
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _fresh_python(*args):
    """Run the interpreter with args in a new process, under the suite's
    environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=_limit_memory,
    )


@pytest.mark.parametrize(
    "argv,rank",
    [
        (["classify", "--diagram", "A999999999999", "--marked", "1", "--unmark", "2"], 999999999999),
        (["enumerate", "--max-rank", "999999999999"], 62),
        (["verify-construction", "A", "--n", "999999999999", "--trials", "1"], 999999999999),
        (["verify-construction", "D", "--n", "62", "--trials", "1"], 62),
    ],
    ids=["classify", "enumerate", "verify-A", "verify-D"],
)
def test_ranks_above_the_supported_bound_exit_two(argv, rank):
    proc = _fresh_python("-m", "flagnest.cli", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"flagnest: unsupported input: rank {rank} is above the supported maximum 61\n"
    assert proc.stdout == ""


def test_bad_node_list_is_a_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--diagram", "A4", "--marked", "x", "--unmark", "2")
    assert code == 64
    assert "comma-separated" in err


def test_missing_flag_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "classify", "--diagram", "A4", "--marked", "1")
    assert code == 64


def test_unknown_verb_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_enumerate_text_rank_four(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-rank", "4")
    assert code == 0
    assert out == (
        "classified 51 classes up to rank 4 (singletons)\n"
        "exists 3, not_exists 48\n"
        "  A3(1,3) -> A3(1)\n"
        "  B3(1,3) -> B3(1)\n"
        "  D4(1,3) -> D4(1)\n"
    )


def test_enumerate_json_is_deterministic(capsys):
    args = ("enumerate", "--max-rank", "5", "--mode", "all-subsets", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "flagnest/1"
    assert doc["counts"]["exists"] == len(doc["exists"])
    assert doc["classified"] == doc["counts"]["exists"] + doc["counts"]["not_exists"]


def test_enumerate_bad_mode_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "enumerate", "--max-rank", "4", "--mode", "everything")
    assert code == 64


def test_explain_text(capsys):
    code, out, _ = run(capsys, "explain", "B3(3)")
    assert code == 0
    assert "Q1 (degree 1)" in out
    assert "degree 2: 2*Q2 - Q1^2" in out
    assert "reduced degrees: generators [1, 3], relations [4, 6]" in out


def test_explain_json(capsys):
    code, out, _ = run(capsys, "explain", "A4(1)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "flagnest/1"
    assert doc["presentation"]["variety"] == "A4(1)"
    names = [g["name"] for g in doc["presentation"]["generators"]]
    assert "H" in names
    assert "generator_degrees" in doc["degree_ledger"]


@pytest.mark.parametrize(
    "variety",
    ["D4(1,3)", "A3(1 2)", "D4(1\t2)", "A3(1\n2)", "A3(1,,2)", "A3(,1)", "A3(1,)"],
    ids=[
        "no-shape", "space-separated", "tab-separated", "newline-separated",
        "empty-middle-item", "empty-first-item", "empty-last-item",
    ],
)
def test_explain_unsupported_shape_exits_two(capsys, variety):
    code, out, err = run(capsys, "explain", variety)
    assert code == 2 and out == ""
    assert err.startswith("flagnest: unsupported input: ") and err.count("\n") == 1


def test_verify_construction_b3_defaults(capsys):
    code, out, _ = run(capsys, "verify-construction", "B3", "--trials", "20", "--seed", "7")
    assert code == 0
    assert out == "pass\n"


def test_verify_construction_json(capsys):
    code, out, _ = run(
        capsys, "verify-construction", "D", "--n", "4", "--trials", "5", "--seed", "11",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "flagnest/1"
    assert doc["kind"] == "D"
    assert doc["n"] == 4
    assert doc["trials"] == 5
    assert doc["passed"] is True
    assert doc["failure"] is None


def test_verify_construction_requires_rank_for_a_and_d(capsys):
    code, _, err = run(capsys, "verify-construction", "A", "--trials", "5")
    assert code == 64
    assert "--n is required" in err


def test_verify_construction_b3_rejects_other_ranks(capsys):
    code, _, err = run(capsys, "verify-construction", "B3", "--n", "4")
    assert code == 2
    assert "rank 3" in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_construction_rejects_vacuous_trial_counts(capsys, trials):
    code, out, err = run(capsys, "verify-construction", "A", "--n", "3", "--trials", trials)
    assert code == 64
    assert out == ""
    assert "--trials must be at least 1" in err


@pytest.mark.parametrize("n", ["-4", "0"])
def test_verify_construction_a_rejects_nonpositive_rank(capsys, n):
    code, out, err = run(capsys, "verify-construction", "A", "--n", n, "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "flagnest: unsupported input: the point-hyperplane construction needs n >= 1\n"


def test_verify_construction_failure_path(capsys, monkeypatch):
    bad = TrialReport(kind="A", trials=5, passed=4, failure={"seed": "3", "what": "mismatch"})
    monkeypatch.setattr(cli, "section_trials", lambda *a, **k: bad)
    code, out, _ = run(capsys, "verify-construction", "A", "--n", "3", "--trials", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "fail"
    assert json.loads(lines[1]) == {"seed": "3", "what": "mismatch"}


def test_self_check_lines_carry_no_timings(capsys, monkeypatch):
    fake = [
        CheckResult(name="alpha", passed=True, detail="took 1.23s"),
        CheckResult(name="beta", passed=False, detail="bad"),
    ]
    monkeypatch.setattr(cli, "run_all", lambda: fake)
    code, out, _ = run(capsys, "self-check")
    assert code == 1
    assert out == "alpha: pass\nbeta: fail\n"


def test_self_check_failure_detail_goes_to_stderr(capsys, monkeypatch):
    fake = [
        CheckResult(name="alpha", passed=True, detail="all 12 agree"),
        CheckResult(name="beta", passed=False, detail="B4: expected 3 survivors, got 2"),
        CheckResult(name="gamma", passed=False, detail="took 31.0s, budget 30s"),
    ]
    monkeypatch.setattr(cli, "run_all", lambda: fake)
    detail = "beta: B4: expected 3 survivors, got 2\ngamma: took 31.0s, budget 30s\n"
    code, out, err = run(capsys, "self-check")
    assert code == 1
    assert out == "alpha: pass\nbeta: fail\ngamma: fail\n"
    assert err == detail
    code, out, err = run(capsys, "self-check", "--format", "json")
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "alpha", "passed": True},
        {"name": "beta", "passed": False},
        {"name": "gamma", "passed": False},
    ]
    assert err == detail


def test_self_check_json(capsys, monkeypatch):
    fake = [CheckResult(name="alpha", passed=True, detail="x")]
    monkeypatch.setattr(cli, "run_all", lambda: fake)
    code, out, _ = run(capsys, "self-check", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "schema": "flagnest/1",
        "checks": [{"name": "alpha", "passed": True}],
        "passed": True,
    }


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "enumerate", "--max-rank", "4", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["counts"]["exists"] == 3


def test_unwritable_out_is_an_io_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "classify", "--diagram", "A4", "--marked", "1", "--unmark", "4",
        "--out", str(target),
    )
    assert code == 74
    assert out == ""
    assert err == f"flagnest: cannot write {target}: No such file or directory\n"


def test_closed_stdout_pipe_is_an_io_error():
    # without PYTHONUNBUFFERED stdout is block-buffered, so the output lands
    # in the buffer and only a flush meets the pipe whose read end is closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flagnest.cli", "classify", "--diagram", "A4",
             "--marked", "1", "--unmark", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 74
    assert proc.stderr == "flagnest: cannot write stdout: Broken pipe\n"


def test_internal_inconsistency_exits_seventy(capsys, monkeypatch):
    def broken(ns):
        raise InternalInconsistencyError("degree ledger disagrees")

    monkeypatch.setitem(cli._HANDLERS, "classify", broken)
    code, out, err = run(capsys, "classify", "--diagram", "A4", "--marked", "1", "--unmark", "4")
    assert code == 70
    assert out == ""
    assert err == "flagnest: internal error: degree ledger disagrees\n"


def test_help_and_version_exit_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["--version"]) == 0


def _all_subsets_outputs(capsys, max_rank):
    """Exit code, stdout and stderr of main() on the classify JSON and
    --trace text of every all-subsets query up to max_rank."""
    outputs = []
    for fam, lo in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, max_rank + 1):
            for size in range(2, min(4, n) + 1):
                for union in combinations(range(1, n + 1), size):
                    for k in range(1, size):
                        for kept in combinations(union, k):
                            forgotten = [node for node in union if node not in kept]
                            argv = ["classify", "--diagram", f"{fam}{n}",
                                    "--marked", ",".join(map(str, kept)),
                                    "--unmark", ",".join(map(str, forgotten))]
                            for extra in (["--format", "json"], ["--trace"]):
                                outputs.append(run(capsys, *argv, *extra))
    return outputs


def test_traces_do_not_depend_on_what_was_enumerated(capsys, monkeypatch):
    # enumeration decides on verdicts in a store of its own, so classify()
    # traces the same bytes cold and after an enumeration in the process
    monkeypatch.setattr(classifier, "_DECISION_CACHE", {})
    cold = _all_subsets_outputs(capsys, 6)
    monkeypatch.setattr(classifier, "_DECISION_CACHE", {})
    classifier.enumerate_nestings(6, "all-subsets")
    assert _all_subsets_outputs(capsys, 6) == cold


# Every verb but self-check, --trace on and off, JSON then text, a usage
# error (64) and unsupported input (2), each call following a different one.
MIXED_ARGV = [
    ["classify", "--diagram", "B13", "--marked", "13", "--unmark", "4", "--trace"],
    ["classify", "--diagram", "B13", "--marked", "13", "--unmark", "4"],
    ["classify", "--diagram", "D5", "--marked", "1", "--unmark", "5", "--format", "json"],
    ["classify", "--diagram", "D5", "--marked", "1", "--unmark", "5", "--format", "text"],
    ["enumerate", "--max-rank", "5", "--format", "json"],
    ["classify", "--diagram", "C2", "--marked", "1", "--unmark", "2"],
    ["enumerate", "--max-rank", "5", "--mode", "all-subsets"],
    ["explain", "D5(1,3)", "--format", "json"],
    ["classify", "--diagram", "A3", "--marked", "1,x", "--unmark", "2"],
    ["explain", "D5(1,3)"],
    ["verify-construction", "D", "--trials", "3"],
    ["verify-construction", "B3", "--trials", "2", "--format", "json"],
    ["enumerate", "--max-rank", "5"],
    ["--version"],
]


def test_main_answers_each_call_in_one_process_as_a_fresh_process(capsys):
    # main() reuses one parser for the life of the process; no call may see
    # what an earlier one parsed
    warm = [run(capsys, *argv) for argv in MIXED_ARGV]
    assert {code for code, _, _ in warm} == {0, 2, 64}
    for argv, (code, out, err) in zip(MIXED_ARGV, warm):
        proc = _fresh_python("-m", "flagnest.cli", *argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


def test_importing_the_cli_generates_no_code():
    # a cold CLI call is mostly start-up: the value types are plain classes,
    # so importing the package loads no dataclass machinery
    generators = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    proc = _fresh_python(
        "-c", f"import sys, flagnest.cli; print([m for m in {generators} if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_json():
    # only a call that writes JSON pays for importing json
    proc = _fresh_python("-c", "import sys, flagnest.cli; print('json' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # the console script freezes what is left alive before teardown; main()
    # itself changes nothing process-wide
    frozen = gc.get_freeze_count()
    assert run(capsys, "classify", "--diagram", "D5", "--marked", "4", "--unmark", "5")[0] == 0
    assert gc.get_freeze_count() == frozen


# Node lists as users mistype them, on a diagram of rank 0, 3 or 62: items
# that are empty or padded with whitespace, repeated nodes, the nodes 0 and
# n + 1, signed nodes, and ints far past any rank (the last too long for
# int()).  Node n itself is left out: the classify call below keeps or
# forgets it.
_PADDING = st.sampled_from(["", " ", "\t", "  "])


def _node_list_case(name_rank):
    name, rank = name_rank
    nodes = (
        st.sampled_from([0, *range(1, rank), rank + 1, 10**30]).map(str)
        | st.sampled_from(["+1", "-0"])
        | st.just("9" * 5000)
    )
    item = st.just("") | st.tuples(_PADDING, nodes, _PADDING).map("".join)
    return st.tuples(st.just(name_rank), st.lists(item, min_size=1, max_size=4).map(",".join))


_NODE_LIST_CASES = st.sampled_from([("A0", 0), ("A3", 3), ("B3", 3), ("A62", 62)]).flatmap(
    _node_list_case
)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=80, deadline=None)
@example((("A3", 3), "1,,2"))
@example((("A3", 3), ",1"))
@example((("A3", 3), "1,"))
@example((("A3", 3), "+1"))
@example((("A3", 3), "-0"))
@given(_NODE_LIST_CASES)
def test_explain_and_classify_read_node_lists_alike(case):
    (name, rank), nodes = case
    calls = {
        "explain": ["explain", f"{name}({nodes})"],
        "kept": ["classify", "--diagram", name, "--marked", nodes, "--unmark", str(rank)],
        "forgotten": ["classify", "--diagram", name, "--marked", str(rank), "--unmark", nodes],
    }
    accepted = {}
    for verb, argv in calls.items():
        code, out, err = _call(argv)
        assert code in (0, 2, 64), (argv, code, err)
        assert "Traceback" not in err, argv
        assert _call(argv) == (code, out, err), argv
        accepted[verb] = code == 0
    # the list either names nodes of the diagram or it does not, whichever
    # verb reads it
    assert len(set(accepted.values())) == 1, (calls, accepted)
