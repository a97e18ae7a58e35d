"""Knockout: every first-node filter that can reject and every branch that
closes a last-node obstruction is load-bearing.

Each mutant is a copy of the package with one branch disabled by editing
its anchor line.  A fresh `enumerate --max-rank 10` on the copy must then
fail: either it exits 70, an internal inconsistency caught by the
cross-checks, or the positives it reports differ from the closed-form
list below.  The unmutated copy must exit 0 and report that list.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagnest"
MAX_RANK = 10

# name: (anchor line as written in classifier.py, what replaces it)
MUTANTS = {
    # first-node filters: the rejection is dropped, so the split survives
    "quotient-degree-exceeds-rank": ('reason = "quotient-degree-exceeds-rank"', "pass"),
    "subbundle-degree-exceeds-corank": ('reason = "subbundle-degree-exceeds-corank"', "pass"),
    "even-factor-degree-exceeds-corank": ('reason = "even-factor-degree-exceeds-corank"', "pass"),
    "rank-three-chern-parity": ('reason = "rank-three-chern-parity"', "pass"),
    # last-node branches that close an obstruction: the branch never runs
    "generator-degree-gap": ('if flag_max < led["max_generator_degree"]:', "if False:"),
    "dimension-drop": ("if dim_image < dim_source:", "if False:"),
    "missing-relation-degree": (
        'if family in ("B", "C") and r == n - 1 and n % 2 == 0:', "if False:"
    ),
    "degree-two-collapse": (
        'if family == "D" and n % 2 == 1 and r in (2, n - 2):', "if False:"
    ),
}


def expected_positives(max_rank):
    """One representative per symmetry orbit of the sections that exist:
    A_n, n odd, (1)|(n); B_3 (1)|(3); D_n (n - 1)|(n), which on D_4 the
    triality orbit lists as (1)|(3)."""
    rows = [(f"A{n}", [1], [n]) for n in range(3, max_rank + 1, 2)]
    rows.append(("B3", [1], [3]))
    rows.append(("D4", [1], [3]))
    rows += [(f"D{n}", [n - 1], [n]) for n in range(5, max_rank + 1)]
    return sorted(rows)


def _enumerate_copy(root: Path, anchor=None, replacement=None):
    copy = root / "flagnest"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if anchor is not None:
        path = copy / "classifier.py"
        text = path.read_text(encoding="utf-8")
        assert text.count(anchor) == 1, anchor
        path.write_text(text.replace(anchor, replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root))  # the copy, not this checkout
    return subprocess.run(
        [sys.executable, "-m", "flagnest.cli", "enumerate", "--max-rank", str(MAX_RANK),
         "--format", "json"],
        capture_output=True, text=True, timeout=60, env=env, cwd=root,
    )


def _positives(stdout):
    return sorted((row["diagram"], row["I"], row["J"]) for row in json.loads(stdout)["exists"])


def test_unmutated_copy_reports_the_closed_form_positives(tmp_path):
    proc = _enumerate_copy(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert _positives(proc.stdout) == expected_positives(MAX_RANK)


@pytest.mark.parametrize("name", MUTANTS)
def test_disabling_a_branch_is_caught(tmp_path, name):
    proc = _enumerate_copy(tmp_path, *MUTANTS[name])
    assert proc.returncode in (0, 70), proc.stderr
    if proc.returncode == 0:
        assert _positives(proc.stdout) != expected_positives(MAX_RANK)
    else:
        assert proc.stderr.startswith("flagnest: internal error: ")
