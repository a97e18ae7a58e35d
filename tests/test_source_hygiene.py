"""Source hygiene of the package: no dead definitions, public or private, no
unused imports, no unread parameters, no hand-rolled memo tables, no
module but the CLI importing the acceptance oracles, those oracles
taking from the classifier only the query type, its two entry points
and the canonical marks, the comparison rule of the value types
written once, in `errors`, and no module but `dynkin` building a raw
`DynkinDiagram`.

A module-level function or class, or a method in a class body, that nothing
in the package refers to is code no decision, CLI verb or self-check
reaches; an import that its module never uses, or a parameter that its
function never reads, is dead weight.  A pure function is memoized with
`functools.cache` over an immutable value, not in a module-level dict.  The
checks read the source with `ast` only, so they import nothing from the
package.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagnest"


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _referenced_names(node):
    """How often each name or attribute name is used under `node`."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree):
    """(qualified name, node) of each module-level function or class and of
    each method in a module-level class body.  Dunder methods are left out:
    Python calls them without naming them."""
    for defn in tree.body:
        if isinstance(defn, (ast.FunctionDef, ast.ClassDef)):
            yield defn.name, defn
        if isinstance(defn, ast.ClassDef):
            for method in defn.body:
                if isinstance(method, ast.FunctionDef) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield f"{defn.name}.{method.name}", method


def _unreferenced_definitions(private: bool):
    modules = _modules()
    used = sum((_referenced_names(tree) for tree in modules.values()), Counter())
    return [
        f"{mod}.{qualname}"
        for mod, tree in modules.items()
        for qualname, defn in _definitions(tree)
        if defn.name.startswith("_") == private
        # uses inside the definition's own body do not count
        and used[defn.name] == _referenced_names(defn)[defn.name]
    ]


def test_every_public_definition_is_referenced_in_the_package():
    assert _unreferenced_definitions(private=False) == []


def test_every_private_definition_is_referenced_in_the_package():
    assert _unreferenced_definitions(private=True) == []


def test_no_module_has_an_unused_import():
    unused = []
    for mod, tree in _modules().items():
        used = _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{mod}: {alias.name}")
    assert unused == []


def test_every_parameter_is_read():
    unread = []
    for mod, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{mod}.{getattr(fn, 'name', '<lambda>')}: {p.arg}"
                for p in params
                if p is not None
                and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
                and p.arg not in read
            ]
    assert unread == []


# Module-level mutable containers that are not pure memos: the CLI's verb
# table and the classifier's decision cache (it stores one-mark decisions
# only, under two keys).
MUTABLE_GLOBALS = {"cli._HANDLERS", "classifier._DECISION_CACHE"}


def test_no_module_level_mutable_container_but_the_allowed_ones():
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for mod, tree in _modules().items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            if isinstance(stmt.value, displays):
                found += [f"{mod}.{ast.unparse(t)}" for t in targets]
    assert sorted(set(found) - MUTABLE_GLOBALS) == []
    # an allowed container that is gone must leave the list too
    assert sorted(MUTABLE_GLOBALS - set(found)) == []


def test_only_the_cli_imports_the_acceptance_checks():
    """The self-check oracles stay off the decision path: no module but the
    CLI front end imports `acceptance`."""
    importers = set()
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                paths = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            else:
                continue
            if any("acceptance" in path.split(".") for path in paths):
                importers.add(mod)
    assert sorted(importers) == ["cli"]


def test_acceptance_reads_only_the_classifier_entry_points():
    """The oracles stay independent of the code they check: `acceptance`
    takes from `classifier` the query, its two entry points and the
    canonical marks, never a rule table or a cascade step."""
    imported = set()
    for node in ast.walk(_modules()["acceptance"]):
        if isinstance(node, ast.ImportFrom) and node.module == "classifier":
            imported |= {alias.name for alias in node.names}
        if isinstance(node, ast.Import):
            assert not any(alias.name.endswith("classifier") for alias in node.names)
    assert imported == {"NestingQuery", "classify", "enumerate_nestings", "_canonical_marks"}


def test_value_types_compare_only_through_errors():
    """`errors.Value` holds the one `__eq__` and `__hash__` of the value
    types and `errors.Frozen` the one field store: no module calls
    `object.__setattr__`, every class on `Value` names its compared fields
    in `_compared`, and no class on `Frozen` or `Value` writes its own
    `__eq__` or `__hash__` (it may set `__hash__ = None`), except `GaussRat`,
    which also equals an int or a Fraction."""
    found = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                found.append(f"{mod}: object.__setattr__")
            if not isinstance(node, ast.ClassDef) or node.name in ("Value", "GaussRat"):
                continue
            bases = {ast.unparse(base) for base in node.bases}
            if not bases & {"Frozen", "Value"}:
                continue
            # the body's methods and assignments, each with its source
            body = {}
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    body[stmt.name] = "def"
                elif isinstance(stmt, ast.Assign):
                    body.update((ast.unparse(t), ast.unparse(stmt.value)) for t in stmt.targets)
            if "Value" in bases and "_compared" not in body:
                found.append(f"{mod}.{node.name}: no _compared")
            if "__eq__" in body or body.get("__hash__", "None") != "None":
                found.append(f"{mod}.{node.name}: own __eq__ or __hash__")
    assert found == []


def test_only_dynkin_builds_a_raw_diagram():
    """`dynkin` interns the stored diagrams: `diagram()` and the deletion
    components build each one once, so a memo keyed on a diagram finds it
    by identity.  A `DynkinDiagram(...)` call in another module would bring
    back equal but distinct diagrams, each one compared field by field on
    every memo lookup."""
    found = [
        f"{mod}: line {node.lineno}"
        for mod, tree in _modules().items()
        if mod != "dynkin"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "DynkinDiagram"
    ]
    assert found == []
