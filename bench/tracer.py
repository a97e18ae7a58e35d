"""Per-layer spans around flagnest's public functions, installed from outside.

`Tracer.install()` wraps each function in TARGETS and every check in
`acceptance.CHECKS`, then rebinds every reference to the original it can find:
module globals (including names bound by `from ... import`), tuples and
dicts held in module globals (`acceptance.CHECKS`, `cli._HANDLERS`), and
class attributes (so `__rmul__ = __mul__` aliases are caught too).

Each span records calls, self time (its duration minus the time covered by
wrapped calls it made) and total time (outermost activations only, so a
recursive function is not counted twice).  A few spans also count the work
they did or wasted; see `per_layer_names` for the full list.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# (module, attribute path) of every wrapped function, in report order.
TARGETS = (
    ("cli", "main"),
    ("classifier", "classify"),
    ("classifier", "obstruct_first_node"),
    ("classifier", "obstruct_last_node"),
    ("classifier", "enumerate_nestings"),
    ("dynkin", "component_containing"),
    ("dynkin", "diagram_automorphisms"),
    ("dynkin", "cartan_matrix"),
    ("dynkin", "restriction_tag"),
    ("chern", "factor_unit_minus_tk"),
    ("chern", "nef_feasible"),
    ("chern", "schur_minor"),
    ("chern", "cyclotomic"),
    ("cohomology", "presentation"),
    ("cohomology", "eliminate_even_generators"),
    ("cohomology", "degree_ledger"),
    ("cohomology", "in_relation_slice"),
    ("cohomology", "pullback_identities_check"),
    ("cohomology", "pullback_product_collapse_check"),
    ("linalg", "row_echelon"),
    ("linalg", "determinant"),
    ("exactpoly", "GradedPoly.__mul__"),
    ("exactpoly", "GradedPoly.substitute"),
    ("exactpoly", "UniPoly.__mul__"),
    ("exactpoly", "exact_div"),
    ("constructions", "section_trials"),
    ("constructions", "octonion_identity_trials"),
    ("constructions", "verify_section"),
    ("constructions", "nesting_D"),
)

SECTION_KINDS = ("A", "B3", "D")

ACCEPTANCE_CHECKS = (
    "check_singleton_enumeration",
    "check_subset_enumeration",
    "check_factorization_families",
    "check_rank_three_parity",
    "check_randomized_sections",
    "check_construction_solvers",
    "check_pullback_identities",
    "check_dimension_formulas",
)

# A classify call whose only wrapped callees are these was answered from the
# decision cache: canonicalizing the labels is all it did.
CANONICALIZATION = frozenset({"dynkin.diagram_automorphisms"})


def span_names() -> List[str]:
    names = []
    for module, attr in TARGETS:
        if (module, attr) == ("constructions", "section_trials"):
            names += [f"constructions.section_trials.{kind}" for kind in SECTION_KINDS]
        else:
            names.append(f"{module}.{attr}")
    return names


def per_layer_names() -> List[str]:
    """Every per-layer metric name, as the benchmark reports them."""
    names = ["cli.import_s"]
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s", f"{span}.total_s"]
    names += [
        "classifier.classify.hit_ratio",
        "chern.factor_unit_minus_tk.kept_ratio",
        "chern.nef_feasible.feasible_ratio",
        "linalg.row_echelon.cells",
    ]
    names += [f"acceptance.{check}.total_s" for check in ACCEPTANCE_CHECKS]
    names.append("trace.overhead_s")
    return names


def _divisor_count(k: int) -> int:
    return sum(1 for d in range(1, k + 1) if k % d == 0)


class Tracer:
    def __init__(self):
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, self_s, total_s]
        self.counts: Counter = Counter()
        self.checks: Dict[str, dict] = {}
        self.missing: List[str] = []
        self._stack: List[list] = []  # open spans: [child seconds, wrapped callees]
        self._depth: Counter = Counter()

    def wrap(self, name: str, fn: Callable, on_exit: Optional[Callable] = None) -> Callable:
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, set()]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if not depth[name]:
                    stat[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1].add(name)
            if on_exit is not None:
                on_exit(args, result, frame[1])
            return result

        return wrapper

    # -- counters taken where the work happens --------------------------------

    def _on_classify(self, args, result, callees):
        if callees <= CANONICALIZATION:
            self.counts["classify_hits"] += 1

    def _on_factor(self, args, result, callees):
        if callees:  # a cache hit opens no span; only a miss tries the splits
            self.counts["factor_kept"] += len(result)
            self.counts["factor_splits"] += 2 ** _divisor_count(args[0])

    def _on_nef(self, args, result, callees):
        self.counts["nef_feasible"] += bool(result)

    def _on_echelon(self, args, result, callees):
        rows = args[0]
        self.counts["echelon_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _on_check(self, args, result, callees):
        self.checks[result.name] = {"passed": result.passed, "detail": result.detail}

    # -- installation -----------------------------------------------------------

    def install(self) -> Callable:
        """Wrap every target in the imported flagnest package; return cli.main."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("flagnest.")]
        hooks = {
            "classifier.classify": self._on_classify,
            "chern.factor_unit_minus_tk": self._on_factor,
            "chern.nef_feasible": self._on_nef,
            "linalg.row_echelon": self._on_echelon,
        }
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            owner = sys.modules.get(f"flagnest.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None)
            if orig is None:
                self.missing.append(name)
                continue
            if name == "constructions.section_trials":
                wrapper = self._wrap_section_trials(orig)
            else:
                wrapper = self.wrap(name, orig, hooks.get(name))
            _rebind(modules, orig, wrapper)
        acceptance = sys.modules.get("flagnest.acceptance")
        for check in getattr(acceptance, "CHECKS", ()):
            wrapper = self.wrap(f"acceptance.{check.__name__}", check, self._on_check)
            _rebind(modules, check, wrapper)
        return sys.modules["flagnest.cli"].main

    def _wrap_section_trials(self, orig: Callable) -> Callable:
        per_kind = {k: self.wrap(f"constructions.section_trials.{k}", orig) for k in SECTION_KINDS}

        @functools.wraps(orig)
        def section_trials(kind, *args, **kwargs):
            return per_kind.get(kind, orig)(kind, *args, **kwargs)

        return section_trials

    def dump(self, path: str, import_s: float) -> None:
        doc = {
            "import_s": import_s,
            "spans": self.spans,
            "counts": dict(self.counts),
            "checks": self.checks,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(modules, orig, replacement) -> None:
    """Point every reference to `orig` held by `modules` at `replacement`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, replacement)
            elif isinstance(value, tuple) and any(v is orig for v in value):
                setattr(module, key, tuple(replacement if v is orig else v for v in value))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = replacement
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for k, v in list(vars(value).items()):
                    if v is orig:
                        setattr(value, k, replacement)


def summarize(docs: List[dict]) -> Dict[str, float]:
    """Sum span dumps from several processes into the per-layer metrics."""
    spans: Dict[str, List[float]] = {}
    counts: Counter = Counter()
    import_s = 0.0
    for doc in docs:
        import_s += doc["import_s"]
        counts.update(doc["counts"])
        for name, (calls, self_s, total_s) in doc["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
    metrics: Dict[str, float] = {"cli.import_s": import_s}
    for name in span_names():
        calls, self_s, total_s = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.total_s"] = total_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["classifier.classify.hit_ratio"] = ratio(
        counts["classify_hits"], spans.get("classifier.classify", (0,))[0]
    )
    metrics["chern.factor_unit_minus_tk.kept_ratio"] = ratio(
        counts["factor_kept"], counts["factor_splits"]
    )
    metrics["chern.nef_feasible.feasible_ratio"] = ratio(
        counts["nef_feasible"], spans.get("chern.nef_feasible", (0,))[0]
    )
    metrics["linalg.row_echelon.cells"] = counts["echelon_cells"]
    for check in ACCEPTANCE_CHECKS:
        metrics[f"acceptance.{check}.total_s"] = spans.get(f"acceptance.{check}", (0, 0, 0.0))[2]
    return metrics
