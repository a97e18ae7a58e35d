"""Command-line front end.

Five verbs: classify one nesting query, enumerate a rank range, explain a
presentation, verify a construction with seeded random trials, and self-check
(the full acceptance battery).  Output goes to stdout or --out as text or
JSON; identical argv always produces identical bytes.

Exit codes: 0 success, 1 a verification or self-check found a failure,
2 unsupported mathematical input, 64 argv did not parse, 70 an internal
inconsistency (a bug in flagnest, reported as one stderr line), 74 the output
could not be written.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import Iterable, Optional, Tuple

from . import WIRE_SCHEMA, __version__
from .acceptance import run_all
from .classifier import NestingQuery, classify, enumerate_nestings
from .cohomology import degree_ledger, presentation
from .constructions import section_trials
from .dynkin import parse_diagram, parse_marked, read_nodes
from .errors import InternalInconsistencyError, UnsupportedInputError


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 for usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")

    def exit(self, status=0, message=None):
        # argparse exits 0 only once --help or --version is printed: flush
        # stdout as a verb's output is flushed, so a closed pipe exits 74
        if status == 0 and _emit("", None):
            status = 74
        super().exit(status, message)


def _node_list(text: str) -> Tuple[int, ...]:
    nodes = read_nodes(text)
    if nodes is None:
        raise argparse.ArgumentTypeError(f"expected comma-separated node numbers, got {text!r}")
    return nodes


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: parse_args keeps no state between
    calls, and building it is most of a warm main() call."""
    parser = _Parser(
        prog="flagnest",
        description="classify nestings of rational homogeneous varieties",
    )
    parser.add_argument(
        "--version", action="version", version=f"flagnest {__version__}"
    )
    sub = parser.add_subparsers(dest="verb", metavar="VERB", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("classify", help="decide a single nesting query")
    p.add_argument("--diagram", required=True, help='diagram, e.g. "D5"')
    for flag, marks in (("--marked", "kept downstairs"), ("--unmark", "the projection forgets")):
        p.add_argument(flag, required=True, type=_node_list, help=f"marks {marks}, comma-separated")
    p.add_argument(
        "--trace",
        action="store_true",
        help="show anchors and data for every trace step (text format)",
    )
    _add_output_flags(p)

    p = sub.add_parser("enumerate", help="classify every query up to a rank bound")
    p.add_argument("--max-rank", required=True, type=int, help="largest rank to scan")
    p.add_argument(
        "--mode",
        choices=("singletons", "all-subsets"),
        default="singletons",
        help="single marks only, or every small mark pair",
    )
    _add_output_flags(p)

    p = sub.add_parser("explain", help="print a cohomology presentation")
    p.add_argument("variety", help='marked diagram, e.g. "B3(3)" or "D5(1,3)"')
    _add_output_flags(p)

    p = sub.add_parser(
        "verify-construction", help="run seeded random trials of one construction"
    )
    p.add_argument("kind", choices=("A", "B3", "D"), help="which construction")
    p.add_argument("--n", type=int, default=None, help="rank (fixed at 3 for B3)")
    p.add_argument("--trials", type=int, default=100, help="number of random trials")
    p.add_argument("--seed", type=int, default=7, help="random seed")
    _add_output_flags(p)

    p = sub.add_parser("self-check", help="run the acceptance battery")
    _add_output_flags(p)

    return parser


def _json(value, indent: Optional[int] = None) -> str:
    import json  # loaded only by the calls that write JSON

    return json.dumps(value, indent=indent, sort_keys=True)


def _dump(doc: dict) -> str:
    return _json(doc, 2) + "\n"


def _marked_str(diagram_name: str, nodes: Iterable[int]) -> str:
    return f"{diagram_name}({','.join(str(n) for n in sorted(set(nodes)))})"


def _cmd_classify(ns) -> Tuple[int, str]:
    d = parse_diagram(ns.diagram)
    query = NestingQuery(d, frozenset(ns.marked), frozenset(ns.unmark))
    decision = classify(query)
    if ns.format == "json":
        doc = {"schema": WIRE_SCHEMA}
        doc.update(decision.to_json())
        return 0, _dump(doc)
    name = str(d)
    lines = [
        f"{_marked_str(name, set(ns.marked) | set(ns.unmark))}"
        f" -> {_marked_str(name, ns.marked)}: {decision.result}"
    ]
    lines.append("trace:")
    for idx, step in enumerate(decision.trace, 1):
        if ns.trace:
            data = _json(step.to_json()["data"])
            lines.append(f"  {idx}. {step.rule} [{step.anchor}] {data}")
        else:
            lines.append(f"  {idx}. {step.rule}")
    return 0, "\n".join(lines) + "\n"


def _cmd_enumerate(ns) -> Tuple[int, str]:
    report = enumerate_nestings(ns.max_rank, ns.mode)
    if ns.format == "json":
        doc = {"schema": WIRE_SCHEMA}
        doc.update(report)
        return 0, _dump(doc)
    lines = [
        f"classified {report['classified']} classes up to rank"
        f" {report['max_rank']} ({report['mode']})",
        f"exists {report['counts']['exists']},"
        f" not_exists {report['counts']['not_exists']}",
    ]
    for row in report["exists"]:
        total = _marked_str(row["diagram"], list(row["I"]) + list(row["J"]))
        base = _marked_str(row["diagram"], row["I"])
        lines.append(f"  {total} -> {base}")
    return 0, "\n".join(lines) + "\n"


def _cmd_explain(ns) -> Tuple[int, str]:
    v = parse_marked(ns.variety)
    p = presentation(v)
    ledger = degree_ledger(p)
    if ns.format == "json":
        doc = {
            "schema": WIRE_SCHEMA,
            "presentation": p.to_json(),
            "degree_ledger": ledger,
        }
        return 0, _dump(doc)
    lines = [str(v)]
    lines.append("generators:")
    for name, degree in p.generators:
        lines.append(f"  {name} (degree {degree})")
    lines.append("relations:")
    for rel, degree in zip(p.relations, p.rel_degrees):
        lines.append(f"  degree {degree}: {rel}")
    lines.append(
        "reduced degrees:"
        f" generators {ledger['generator_degrees']},"
        f" relations {ledger['relation_degrees']}"
    )
    return 0, "\n".join(lines) + "\n"


def _cmd_verify(ns) -> Tuple[int, str]:
    n = 3 if ns.kind == "B3" and ns.n is None else ns.n
    if ns.kind == "B3" and n != 3:
        raise UnsupportedInputError("the B3 construction has rank 3 only")
    report = section_trials(ns.kind, n, ns.trials, ns.seed)
    if ns.format == "json":
        doc = {
            "schema": WIRE_SCHEMA,
            "kind": ns.kind,
            "n": n,
            "trials": report.trials,
            "seed": ns.seed,
            "passed": report.ok,
            "failure": report.failure,
        }
        return (0 if report.ok else 1), _dump(doc)
    if report.ok:
        return 0, "pass\n"
    witness = _json(report.failure)
    return 1, f"fail\n{witness}\n"


def _cmd_self_check(ns) -> Tuple[int, str]:
    results = run_all()
    ok = all(r.passed for r in results)
    for r in results:
        if not r.passed:
            print(f"{r.name}: {r.detail}", file=sys.stderr)
    if ns.format == "json":
        doc = {
            "schema": WIRE_SCHEMA,
            "checks": [{"name": r.name, "passed": r.passed} for r in results],
            "passed": ok,
        }
        return (0 if ok else 1), _dump(doc)
    lines = [f"{r.name}: {'pass' if r.passed else 'fail'}" for r in results]
    return (0 if ok else 1), "\n".join(lines) + "\n"


_HANDLERS = {
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "explain": _cmd_explain,
    "verify-construction": _cmd_verify,
    "self-check": _cmd_self_check,
}


def _emit(text: str, out: Optional[str]) -> int:
    """Write text to stdout, or to the file `out`: 0 when written, else 74
    after one stderr line."""
    try:
        if out is None:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError:
                # what is still buffered is flushed again at exit: send it nowhere
                with open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
                raise
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        target = "stdout" if out is None else out
        print(f"flagnest: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 74
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.verb == "verify-construction" and ns.kind != "B3" and ns.n is None:
            parser.error(f"--n is required for kind {ns.kind}")
        if ns.verb == "verify-construction" and ns.trials < 1:
            parser.error(f"--trials must be at least 1, got {ns.trials}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = _HANDLERS[ns.verb](ns)
    except UnsupportedInputError as exc:
        print(f"flagnest: unsupported input: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"flagnest: internal error: {exc}", file=sys.stderr)
        return 70
    return _emit(text, ns.out) or code


def run() -> None:
    # the console script: main() leaves the process as it found it, and the
    # objects it leaves alive are frozen so that teardown does not collect them
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
