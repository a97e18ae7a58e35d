"""The benchmark's workloads: which CLI processes one pass runs, and their checks.

A pass is the unit a workload repeats: one `enumerate` process, or the whole
list of seeded `classify` queries, each in a fresh process.  Every check
compares the CLI's stdout with `oracle`, never with the package itself.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import oracle

# classify-cold: the ranks at which every end node is kept once, and the
# largest rank of the interior-mark queries (which start at rank 3, D at 4).
END_MARK_RANKS = range(8, 14)
INTERIOR_MAX_RANK = 14

SELF_CHECK_COUNT = 8


class WrongAnswer(Exception):
    """The CLI's output disagrees with the oracle."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[int], List[List[str]]]  # seed -> CLI argument lists of one pass
    check: Callable[[List[str], str], int]  # (arguments, stdout) -> classes decided
    deadline_s: int = 170  # a run that takes longer is stopped and fails


# ---------------------------------------------------------------------------
# enumerate


def _enumerate_args(max_rank: int, mode: str, fmt: str) -> List[str]:
    return ["enumerate", "--max-rank", str(max_rank), "--mode", mode, "--format", fmt]


def _check_enumeration(max_rank: int, mode: str, classified: int, rows) -> int:
    """rows: (diagram, I, J) triples the CLI reported as positive."""
    want_count, want_positive = oracle.expected_enumeration(max_rank, mode)
    if classified != want_count:
        raise WrongAnswer(f"classified {classified} classes, expected {want_count}")
    got = set()
    for name, kept, forgotten in rows:
        family, rank = name[0], int(name[1:])
        if not oracle.exists(family, rank, kept, forgotten):
            raise WrongAnswer(f"{name} I={kept} J={forgotten} reported positive")
        got.add(oracle.orbit_key(family, rank, kept, forgotten))
    if len(got) != len(rows) or got != want_positive:
        raise WrongAnswer(f"positive classes {sorted(got)} != {sorted(want_positive)}")
    return classified


def _check_enumerate_json(args: List[str], stdout: str) -> int:
    doc = json.loads(stdout)
    rows = [(r["diagram"], tuple(r["I"]), tuple(r["J"])) for r in doc["exists"]]
    counts = doc["counts"]
    if (counts["exists"], counts["not_exists"]) != (len(rows), doc["classified"] - len(rows)):
        raise WrongAnswer(f"counts {counts} do not add up")
    return _check_enumeration(int(args[2]), args[4], doc["classified"], rows)


_HEAD_RE = re.compile(r"classified (\d+) classes up to rank (\d+) \((\S+)\)$")
_COUNTS_RE = re.compile(r"exists (\d+), not_exists (\d+)$")
_ROW_RE = re.compile(r"  ([A-D]\d+)\(([\d,]+)\) -> \1\(([\d,]+)\)$")


def _check_enumerate_text(args: List[str], stdout: str) -> int:
    lines = stdout.splitlines()
    head = _HEAD_RE.match(lines[0])
    counts = _COUNTS_RE.match(lines[1])
    if not head or not counts:
        raise WrongAnswer(f"unexpected header {lines[:2]}")
    classified = int(head.group(1))
    rows = []
    for line in lines[2:]:
        row = _ROW_RE.match(line)
        if not row:
            raise WrongAnswer(f"unexpected row {line!r}")
        union = {int(x) for x in row.group(2).split(",")}
        kept = {int(x) for x in row.group(3).split(",")}
        rows.append((row.group(1), tuple(sorted(kept)), tuple(sorted(union - kept))))
    if (int(counts.group(1)), int(counts.group(2))) != (len(rows), classified - len(rows)):
        raise WrongAnswer(f"counts line {lines[1]!r} does not add up")
    return _check_enumeration(int(args[2]), args[4], classified, rows)


# ---------------------------------------------------------------------------
# classify-cold


def _ends(family: str, rank: int) -> Tuple[int, ...]:
    return (1, rank - 1, rank) if family == "D" else (1, rank)


def classify_queries(seed: int) -> List[Tuple[str, int, int, int]]:
    """Seeded (family, rank, kept, forgotten) singleton queries, 101 of them.

    The strata are fixed and the seed picks the nodes inside each one:
    - end marks: each family, each rank in END_MARK_RANKS and each end node
      of the diagram is kept once, and any other node is forgotten
      (54 queries);
    - interior marks: each family at each rank up to INTERIOR_MAX_RANK keeps
      one interior node and forgets a node between it and node 1
      (47 queries).
    An end-mark query at rank 13 costs up to 10 times an interior one, so
    drawing families, ranks and ends at random made the percentiles depend
    more on the seed than on the program.  For the same reason an interior
    query forgets a node on the node-1 side: one forgetting a node on the
    other side is reduced by the cascade to an end-mark query on a smaller
    diagram of seeded rank, a cost the end-mark strata already cover at fixed
    ranks.  The end-mark ranks stop at 13 so that p90 (10 of the 101 samples
    above it) falls among end-mark queries of nearly equal cost; with rank 14
    it fell on a drop from 0.56 to 0.45 s.  Rank 16 end-mark queries take 2
    to 6 s each, depending on the forgotten node.
    """
    rng = random.Random(seed)
    queries = []
    for family in "ABCD":
        for rank in END_MARK_RANKS:
            for kept in _ends(family, rank):
                forgotten = rng.choice([x for x in range(1, rank + 1) if x != kept])
                queries.append((family, rank, kept, forgotten))
        for rank in range(4 if family == "D" else 3, INTERIOR_MAX_RANK + 1):
            kept = rng.choice([x for x in range(2, rank) if x not in _ends(family, rank)])
            queries.append((family, rank, kept, rng.randrange(1, kept)))
    rng.shuffle(queries)
    return queries


def query_mix(queries) -> Dict[str, int]:
    end = sum(1 for family, rank, kept, _ in queries if kept in _ends(family, rank))
    return {"interior": len(queries) - end, "end_mark": end}


def _classify_commands(seed: int) -> List[List[str]]:
    return [
        ["classify", "--diagram", f"{family}{rank}", "--marked", str(kept), "--unmark", str(gone)]
        for family, rank, kept, gone in classify_queries(seed)
    ]


def _check_classify(args: List[str], stdout: str) -> int:
    name, kept, gone = args[2], int(args[4]), int(args[6])
    verdict = "exists" if oracle.exists(name[0], int(name[1:]), {kept}, {gone}) else "not_exists"
    union = ",".join(str(x) for x in sorted({kept, gone}))
    want = f"{name}({union}) -> {name}({kept}): {verdict}"
    first = stdout.split("\n", 1)[0]
    if first != want:
        raise WrongAnswer(f"{first!r} != {want!r}")
    return 1


# ---------------------------------------------------------------------------
# self-check (run by hand; see README.md)

_CHECK_RE = re.compile(r"([a-z0-9-]+): (pass|fail)$")


def _check_self_check(args: List[str], stdout: str) -> int:
    lines = stdout.splitlines()
    results = [_CHECK_RE.match(line) for line in lines]
    if len(lines) != SELF_CHECK_COUNT or not all(results):
        raise WrongAnswer(f"expected {SELF_CHECK_COUNT} check lines, got {lines}")
    failed = [m.group(1) for m in results if m.group(2) == "fail"]
    if failed:
        raise WrongAnswer(f"checks failed: {failed}")
    return 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate-singletons",
            "cold enumerate at rank 14: every class decided once, so the chern "
            "and cohomology kernels do the work",
            lambda seed: [_enumerate_args(14, "singletons", "json")],
            _check_enumerate_json,
        ),
        Workload(
            "enumerate-subsets",
            "cold all-subsets enumerate at rank 11: half the classify calls hit "
            "the decision cache, so the classifier cascade and dynkin do the work",
            lambda seed: [_enumerate_args(11, "all-subsets", "text")],
            _check_enumerate_text,
        ),
        Workload(
            "classify-cold",
            "101 seeded classify queries, one fresh process each: start-up and "
            "cold kernels, no cache shared between queries",
            _classify_commands,
            _check_classify,
        ),
        Workload(
            "self-check",
            "the acceptance battery, the only verb that runs constructions and "
            "the pullback checks; too long for the benchmark's time budget",
            lambda seed: [["self-check"]],
            _check_self_check,
            deadline_s=600,
        ),
    )
}
