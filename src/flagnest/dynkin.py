"""Classical Dynkin diagrams and their combinatorics.

Covers families A, B, C, D plus the rank-2 exceptional diagram G2: Cartan
matrices, fundamental degrees, dimensions of the marked homogeneous varieties
from Levi root counts, diagram automorphisms, node deletion with component
re-identification, and the restriction tags of bundles over a rational
curve.

Numbering follows the usual conventions: A/B/C are paths 1..n with the
multiple edge at the far end (B: arrow toward node n, C: arrow toward node
n-1 side, i.e. C[n][n-1] = -1, C[n-1][n] = -2); D is the path 1..n-2 with
the two fork nodes n-1 and n attached to n-2.
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import attrgetter
from typing import FrozenSet, List, Optional, Tuple

from .errors import UnsupportedInputError, Value

FAMILIES = ("A", "B", "C", "D", "G2")

# The largest rank a diagram may have: the largest ranks with a measured cold
# `classify` time in the README (A61, B60).  Far larger ranks only exhaust
# memory building per-node tables, so they are rejected as unsupported input.
MAX_RANK = 61


class DynkinDiagram(Value):
    _compared = attrgetter("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in FAMILIES:
            raise UnsupportedInputError(f"unknown family {family!r}")
        if family == "G2" and rank != 2:
            raise UnsupportedInputError(f"G2 has rank 2, not {rank}")
        if not 1 <= rank <= MAX_RANK:
            raise UnsupportedInputError(f"rank {rank} outside the supported 1..{MAX_RANK}")
        self._store(family=family, rank=rank)

    def __str__(self):
        return f"{self.family}{self.rank}" if self.family != "G2" else "G2"

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)


@functools.lru_cache(maxsize=None, typed=True)
def _stored(family: str, rank: int) -> DynkinDiagram:
    """The one instance of each stored diagram (see the memo note below);
    typed, so a rank of another type that compares equal stays apart."""
    return DynkinDiagram(family, rank)


def diagram(family: str, rank: int) -> DynkinDiagram:
    """Validated, normalized diagram constructor.

    Low-rank coincidences collapse to a single representative: C2 -> B2 and
    D3 -> A3, with other node labels, so text input (parse_diagram) rejects
    C2 and D3.  D2 (disconnected) is rejected.
    """
    family = family.upper()
    if family == "G" or family == "G2":
        if family == "G2" or rank == 2:
            return _stored("G2", 2)
        raise UnsupportedInputError("G2 is the only supported exceptional diagram")
    if rank > MAX_RANK:
        raise UnsupportedInputError(f"rank {rank} is above the supported maximum {MAX_RANK}")
    if family == "A":
        if rank < 1:
            raise UnsupportedInputError("A requires rank >= 1")
        return _stored("A", rank)
    if family == "B":
        if rank < 2:
            raise UnsupportedInputError("B requires rank >= 2")
        return _stored("B", rank)
    if family == "C":
        if rank < 2:
            raise UnsupportedInputError("C requires rank >= 2")
        if rank == 2:
            return _stored("B", 2)
        return _stored("C", rank)
    if family == "D":
        if rank == 2:
            raise UnsupportedInputError("D2 is disconnected")
        if rank < 2:
            raise UnsupportedInputError("D requires rank >= 3")
        if rank == 3:
            return _stored("A", 3)
        return _stored("D", rank)
    raise UnsupportedInputError(f"unknown family {family!r}")


_DIAGRAM_RE = re.compile(r"^([ABCDabcd]|[Gg]2?)(\d+)?$")


def parse_diagram(text: str) -> DynkinDiagram:
    m = _DIAGRAM_RE.match(text.strip())
    if not m:
        raise UnsupportedInputError(f"cannot parse diagram {text!r}")
    fam, rank = m.group(1).upper(), m.group(2)
    if fam in ("G", "G2"):
        if rank not in (None, "2"):
            raise UnsupportedInputError("G2 is the only supported exceptional diagram")
        return diagram("G2", 2)
    if rank is None:
        raise UnsupportedInputError(f"missing rank in {text!r}")
    try:
        rank = int(rank)
    except ValueError:  # too many digits for int()
        raise UnsupportedInputError(f"cannot parse diagram {text!r}") from None
    d = diagram(fam, rank)
    require_stored(DynkinDiagram(fam, rank), "write")
    return d


def require_stored(d: DynkinDiagram, instead: str) -> None:
    """Refuse a diagram that diagram() would store under another name: C2 is
    stored as B2 and D3 as A3, with other node labels, and B1, C1, D1 and D2
    are not stored at all.  The message names the stored diagram and says
    what to do `instead` with it.  Only ranks below 4 are looked at, so the
    check is constant time."""
    if d.family in ("B", "C", "D") and d.rank < 4:
        stored = diagram(d.family, d.rank)  # refuses B1, C1, D1 and D2 itself
        if stored is not d and stored != d:
            raise UnsupportedInputError(
                f"{d} is stored as {stored}; {instead} {stored} so the node labels are unambiguous"
            )


class MarkedDiagram(Value):
    _compared = attrgetter("diagram", "marked")

    def __init__(self, diagram: DynkinDiagram, marked: FrozenSet[int]):
        require_stored(diagram, "mark")
        marked = frozenset(marked)
        bad = [i for i in marked if i not in diagram.nodes]
        if bad:
            raise UnsupportedInputError(f"marked nodes {bad} outside 1..{diagram.rank}")
        self._store(diagram=diagram, marked=marked)

    def __str__(self):
        inner = ",".join(str(i) for i in sorted(self.marked))
        return f"{self.diagram}({inner})"


def marked(d: DynkinDiagram, nodes) -> MarkedDiagram:
    return MarkedDiagram(d, frozenset(nodes))


_MARKED_RE = re.compile(r"^([^()\[\]]+)\(([\d,\s]*)\)$")


def parse_marked(text: str) -> MarkedDiagram:
    m = _MARKED_RE.match(text.strip())
    if not m:
        raise UnsupportedInputError(f"cannot parse marked diagram {text!r}")
    d = parse_diagram(m.group(1))
    inner = m.group(2)
    if not inner.strip():
        raise UnsupportedInputError("a variety needs at least one marked node")
    nodes = read_nodes(inner)
    if nodes is None:
        raise UnsupportedInputError(f"cannot parse marked diagram {text!r}")
    return MarkedDiagram(d, frozenset(nodes))


def read_nodes(text: str) -> Optional[Tuple[int, ...]]:
    """The nodes of a comma-separated list whose every item is unsigned
    digits padded with whitespace at most, in order; else None."""
    parts = text.split(",")
    if all(part.strip().isdigit() for part in parts):
        try:
            return tuple(int(part) for part in parts)
        except ValueError:  # too many digits for int()
            pass
    return None


# ---------------------------------------------------------------------------
# Cartan data


# Pure functions of a diagram are memoized with functools.cache and return
# immutable values (tuples and Frozen value types), so every caller shares
# one copy and none can change it.  Diagrams are interned: diagram() and the
# deletion components build each stored diagram once, through _stored, so a
# memo keyed on a diagram finds it by identity and never calls __eq__, and
# deletion components are interned the same way, through _component.


@functools.cache
def cartan_matrix(d: DynkinDiagram) -> Tuple[Tuple[int, ...], ...]:
    """C[i][j] = 2(a_i, a_j)/(a_i, a_i), as 0-based rows."""
    n = d.rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, cij=-1, cji=-1):
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji

    if d.family == "G2":
        link(1, 2, -1, -3)
    elif d.family == "A":
        for i in range(1, n):
            link(i, i + 1)
    elif d.family in ("B", "C"):
        for i in range(1, n - 1):
            link(i, i + 1)
        if d.family == "B":
            link(n - 1, n, -1, -2)
        else:
            link(n - 1, n, -2, -1)
    else:  # D
        for i in range(1, n - 2):
            link(i, i + 1)
        link(n - 2, n - 1)
        link(n - 2, n)
    return tuple(map(tuple, c))


@functools.cache
def closed_neighborhoods(d: DynkinDiagram) -> Tuple[FrozenSet[int], ...]:
    """Entry i - 1 is node i with its neighbors: the nodes j with C[i][j] != 0."""
    return tuple(frozenset(j for j, cij in enumerate(row, 1) if cij) for row in cartan_matrix(d))


def fundamental_degrees(d: DynkinDiagram) -> List[int]:
    """Degrees of the basic Weyl-invariant polynomials, in table order."""
    n = d.rank
    if d.family == "A":
        return list(range(2, n + 2))
    if d.family in ("B", "C"):
        return [2 * i for i in range(1, n + 1)]
    if d.family == "D":
        return [2 * i for i in range(1, n)] + [n]
    return [2, 6]


def coxeter_number(d: DynkinDiagram) -> int:
    return max(fundamental_degrees(d))


def _root_count(d: DynkinDiagram) -> int:
    """The number of positive roots (Bourbaki, Lie Groups, ch. VI, Plates I-IV
    and IX): n(n+1)/2 for A, n^2 for B and C, n(n-1) for D and 6 for G2."""
    n = d.rank
    if d.family == "A":
        return n * (n + 1) // 2
    if d.family == "D":
        return n * (n - 1)
    if d.family == "G2":
        return 6
    return n * n


def variety_dimension(m: MarkedDiagram) -> int:
    """dim G/P: the positive roots of G less those of the Levi factor, whose
    diagram is what deleting the marks leaves."""
    if not m.marked:
        raise UnsupportedInputError("dimension needs a nonempty mark set")
    levi = _components(m.diagram, m.marked)
    return _root_count(m.diagram) - sum(_root_count(c.diagram) for c in levi)


# ---------------------------------------------------------------------------
# Automorphisms


@functools.cache
def diagram_automorphisms(d: DynkinDiagram) -> Tuple[Tuple[int, ...], ...]:
    """Graph automorphisms as permutation tuples (image of node i at index i-1)."""
    n = d.rank
    ident = tuple(range(1, n + 1))
    if d.family == "A" and n >= 2:
        flip = tuple(n + 1 - i for i in range(1, n + 1))
        return ident, flip
    if d.family == "D":
        if n == 4:
            perms = []
            for legs in itertools.permutations((1, 3, 4)):
                img = {1: legs[0], 3: legs[1], 4: legs[2], 2: 2}
                perms.append(tuple(img[i] for i in range(1, 5)))
            return tuple(perms)
        swap = list(range(1, n + 1))
        swap[n - 2], swap[n - 1] = swap[n - 1], swap[n - 2]
        return ident, tuple(swap)
    return (ident,)


@functools.cache
def nontrivial_automorphisms(d: DynkinDiagram) -> Tuple[Tuple[int, ...], ...]:
    """The graph automorphisms other than the identity, in the order of
    diagram_automorphisms; empty for B, C and G2."""
    ident = tuple(d.nodes)
    return tuple(p for p in diagram_automorphisms(d) if p != ident)


def apply_automorphism(sigma: Tuple[int, ...], nodes) -> FrozenSet[int]:
    return frozenset(sigma[i - 1] for i in nodes)


# ---------------------------------------------------------------------------
# Node deletion


class Component(Value):
    """A connected component of a node deletion, re-identified as classical.

    nodes[k] is the parent diagram's label of the component's own node k+1;
    parent_nodes, the same labels as a set, is derived and not compared.
    """

    _compared = attrgetter("diagram", "nodes")

    def __init__(self, diagram: DynkinDiagram, nodes: Tuple[int, ...]):
        self._store(diagram=diagram, nodes=nodes, parent_nodes=frozenset(nodes))

    def own_node(self, parent: int) -> int:
        return self.nodes.index(parent) + 1


@functools.cache
def _component(family: str, rank: int, nodes: Tuple[int, ...]) -> Component:
    """The one instance of each deletion component: many deletions of one
    diagram leave equal components, and each is kept once."""
    return Component(_stored(family, rank), nodes)


@functools.cache
def _components(d: DynkinDiagram, removed: FrozenSet[int]) -> Tuple[Component, ...]:
    """Connected components of the induced subdiagram on nodes - removed, in
    the order of their least node.

    Every supported diagram is the path 1..n, or for D the path 1..n-2 with
    the forks n-1 and n on node n-2, so each component is a run of
    consecutive kept path nodes (the kept forks join the run ending at n-2)
    or a fork cut off from n-2.
    """
    n, family = d.rank, d.family
    path = range(1, (n - 2 if family == "D" else n) + 1)
    forks = tuple(f for f in (n - 1, n) if family == "D" and f not in removed)
    comps = []
    for kept, group in itertools.groupby(path, lambda i: i not in removed):
        if not kept:
            continue
        run = tuple(group)
        m = len(run)
        if run[-1] == n - 2 and forks:
            if len(forks) == 2 and m == 1:
                comps.append(_component("A", 3, (n - 1, n - 2, n)))
            else:
                kind = "D" if len(forks) == 2 else "A"
                comps.append(_component(kind, m + len(forks), run + forks))
            forks = ()
        elif run[-1] == n and family == "C" and m == 2:
            # C2 is stored as B2, its two nodes swapped
            comps.append(_component("B", 2, run[::-1]))
        elif run[-1] == n and family != "A" and m >= 2:
            comps.append(_component(family, m, run))
        else:
            comps.append(_component("A", m, run))
    comps += [_component("A", 1, (f,)) for f in forks]
    return tuple(comps)


def component_containing(d: DynkinDiagram, removed, node: int) -> Component:
    for comp in _components(d, frozenset(removed)):
        if node in comp.parent_nodes:
            return comp
    raise UnsupportedInputError(f"node {node} was deleted; no component contains it")


# ---------------------------------------------------------------------------
# Tags


def restriction_tag(parent: DynkinDiagram, sub: Component, external_node: int) -> Tuple[int, ...]:
    """The tag of the homogeneous bundle cut out on a deletion component by a
    rational curve in the direction of an external node: the negated Cartan
    pairings against that node (zero away from its neighbors), indexed by
    the component's own nodes."""
    if external_node in sub.parent_nodes:
        raise UnsupportedInputError("external node must lie outside the component")
    c = cartan_matrix(parent)
    return tuple(-c[p - 1][external_node - 1] for p in sub.nodes)
