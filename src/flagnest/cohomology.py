"""Presentations of the rational cohomology rings of the supported varieties.

Only four mark shapes ever show up in the decision procedure: a single
extremal node at either end of the diagram, and the two-step flags that refine
one of those by a second node.  For each shape the ring has a closed-form
presentation by generators and relations, with the relations packaged as the
positive-degree coefficients of a product of Chern-style series.  We never
need the full quotient ring: every question asked downstream is about a
single graded slice, which is a finite-dimensional vector space over Q, so
ideal membership and quotient dimensions reduce to exact row reduction.

Two conventions worth spelling out.  The class ``eta`` on an even quadric
(and its relative ``eta{m}`` on the two-step flags of type D) is carried as a
formal generator with a single vanishing relation; its square is not part of
the presentation because no consumer ever looks at a slice that would need
it.  And real coefficients are modeled by Q throughout: all relation data is
rational and every positivity or nonvanishing check downstream is exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import add, attrgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .dynkin import DynkinDiagram, MarkedDiagram, diagram, marked
from .errors import InternalInconsistencyError, UnsupportedInputError, Value
from .exactpoly import GradedPoly, Scalar, _add_products, _cleaned, _div
from .linalg import rank

_CLASSICAL = ("A", "B", "C", "D")


class GradedPresentation(Value):
    """A graded ring given by generators with degrees and homogeneous relations.

    rel_degrees[k] is the weighted degree of relations[k], computed once; it
    is derived and not compared."""

    _compared = attrgetter("variety", "generators", "relations")
    __hash__ = None

    def __init__(
        self,
        variety: MarkedDiagram,
        generators: Tuple[Tuple[str, int], ...],
        relations: Tuple[GradedPoly, ...],
    ):
        generators = tuple((str(n), int(d)) for n, d in generators)
        relations = tuple(relations)
        degrees = []
        for rel in relations:
            if rel.gens != generators:
                raise InternalInconsistencyError("relation written over the wrong generator table")
            degree = rel.homogeneous_degree()
            if degree is None:
                raise InternalInconsistencyError(f"inhomogeneous relation {rel}")
            degrees.append(degree)
        self._store(
            variety=variety, generators=generators, relations=relations, rel_degrees=tuple(degrees)
        )

    def to_json(self) -> dict:
        return {
            "variety": str(self.variety),
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "relations": [rel.to_json() for rel in self.relations],
        }


# ---------------------------------------------------------------------------
# Series helpers.  A series over a presentation's ring is a tuple of
# GradedPoly coefficients, the index being the power of t.  All the relation
# sets are Coeff_+ of products of these.

Series = Tuple[GradedPoly, ...]


def _one(gens) -> GradedPoly:
    return GradedPoly.const(gens, 1)


def _series(gens, names_by_power: Mapping[int, str], top: int) -> Series:
    """1 + sum(gen * t^power), through t^top."""
    cs = [_one(gens)]
    for p in range(1, top + 1):
        name = names_by_power.get(p)
        cs.append(GradedPoly.generator(gens, name) if name else GradedPoly.zero(gens))
    return tuple(cs)


def _neg(s: Series) -> Series:
    """s(-t): flip the sign of every odd-degree coefficient."""
    return tuple(-c if k % 2 else c for k, c in enumerate(s))


def _product(*series: Series) -> Series:
    """The product of series over one ring, taken left to right.  In each
    step every term product that lands in a slot is added into that slot's
    one dict, normalized once; a slot that no product reaches, or whose sum
    cancels, is the zero GradedPoly."""
    acc = series[0]
    gens = acc[0].gens
    for s in series[1:]:
        out = [{} for _ in range(len(acc) + len(s) - 1)]
        right = [(j, b.terms.items()) for j, b in enumerate(s) if b]
        for i, a in enumerate(acc):
            if a:
                for j, b_terms in right:
                    _add_products(out[i + j], a.terms.items(), b_terms)
        acc = tuple(GradedPoly._make(gens, _cleaned(slot)) for slot in out)
    return acc


def _coeff_plus_relations(product: Series) -> List[GradedPoly]:
    """The nonzero coefficients of positive degree, in increasing degree."""
    return [c for c in product[1:] if c]


def _mark_shape(v: MarkedDiagram) -> Tuple[str, Optional[int]]:
    """Classify the mark set into one of the supported shapes.

    Returns ("point", None), ("top", None), ("first", r) or ("last", r).
    Marks {1, n} on B/C/D deliberately resolve to ("last", 1): the two-step
    flag of a line inside a maximal isotropic subspace.
    """
    d = v.diagram
    family, n = d.family, d.rank
    if family not in _CLASSICAL:
        raise UnsupportedInputError(f"no cohomology presentation for family {family}")
    ms = sorted(v.marked)
    if ms == [1]:
        return "point", None
    if ms == [n] and family != "A":
        return "top", None
    if len(ms) == 2 and ms[0] == 1 and ms[1] == n and family != "A":
        return "last", 1
    if len(ms) == 2 and ms[0] == 1:
        r = ms[1]
        limit = {"A": n, "B": n - 1, "C": n - 1, "D": n - 2}[family]
        if 2 <= r <= limit:
            return "first", r
        raise UnsupportedInputError(f"marks {ms} on {d}: no supported presentation shape")
    if len(ms) == 2 and ms[1] == n and family != "A":
        r = ms[0]
        if 2 <= r <= n - 1:
            return "last", r
    raise UnsupportedInputError(f"marks {ms} on {d}: no supported presentation shape")


def _point_presentation(v: MarkedDiagram) -> GradedPresentation:
    family, n = v.diagram.family, v.diagram.rank
    if family == "A":
        gens = [("H", 1)] + [(f"A{i}", i) for i in range(1, n)]
        table = tuple(gens)
        h = GradedPoly.generator(table, "H")
        rels = []
        for i in range(1, n):
            sign = -1 if i % 2 else 1
            rels.append(GradedPoly.generator(table, f"A{i}") - h**i * sign)
        rels.append(h ** (n + 1))
        return GradedPresentation(v, table, tuple(rels))
    k_top = n - 1 if family in ("B", "C") else n - 2
    gens = [("H", 1)] + [(f"K{2 * i}", 2 * i) for i in range(1, k_top + 1)]
    if family == "D":
        gens.append(("eta", n - 1))
    table = tuple(gens)
    h = GradedPoly.generator(table, "H")
    rels = [GradedPoly.generator(table, f"K{2 * i}") - h ** (2 * i) for i in range(1, k_top + 1)]
    if family in ("B", "C"):
        rels.append(h ** (2 * n))
    else:
        rels.append(h ** (2 * n - 1))
        rels.append(h * GradedPoly.generator(table, "eta"))
    return GradedPresentation(v, table, tuple(rels))


def _top_presentation(v: MarkedDiagram) -> GradedPresentation:
    family, n = v.diagram.family, v.diagram.rank
    table = tuple((f"Q{i}", i) for i in range(1, n + 1))
    q = _series(table, {i: f"Q{i}" for i in range(1, n + 1)}, n)
    rels = _coeff_plus_relations(_product(q, _neg(q)))
    if family == "D":
        rels.append(GradedPoly.generator(table, f"Q{n}"))
    return GradedPresentation(v, table, tuple(rels))


def _first_presentation(v: MarkedDiagram, r: int) -> GradedPresentation:
    family, n = v.diagram.family, v.diagram.rank
    if family == "A":
        gens = (
            [("h", 1)]
            + [(f"a{i}", i) for i in range(1, r)]
            + [(f"s{i}", i) for i in range(1, n - r + 2)]
        )
        table = tuple(gens)
        h = GradedPoly.generator(table, "h")
        a = _series(table, {i: f"a{i}" for i in range(1, r)}, r - 1)
        s = _series(table, {i: f"s{i}" for i in range(1, n - r + 2)}, n - r + 1)
        rels = _coeff_plus_relations(_product((_one(table), h), a, s))
        return GradedPresentation(v, table, tuple(rels))
    gens = (
        [("h", 1)]
        + [(f"a{i}", i) for i in range(1, r)]
        + [(f"k{2 * i}", 2 * i) for i in range(1, n - r + 1)]
    )
    if family == "D":
        gens.append((f"eta{n - r}", n - r))
    table = tuple(gens)
    h = GradedPoly.generator(table, "h")
    a = _series(table, {i: f"a{i}" for i in range(1, r)}, r - 1)
    k = _series(table, {2 * i: f"k{2 * i}" for i in range(1, n - r + 1)}, 2 * (n - r))
    even_line = (_one(table), GradedPoly.zero(table), -(h * h))
    rels = _coeff_plus_relations(_product(even_line, a, _neg(a), k))
    if family == "D":
        a_top = GradedPoly.generator(table, f"a{r - 1}")
        rels.append(h * a_top * GradedPoly.generator(table, f"eta{n - r}"))
    return GradedPresentation(v, table, tuple(rels))


def last_flag_generators(n: int, r: int) -> Tuple[Tuple[str, int], ...]:
    """Generator table of the {r, n} flag on any isotropic family of rank n:
    q1..qr from the rank-r quotient, b1..b(n-r) from the rest."""
    return tuple(
        [(f"q{i}", i) for i in range(1, r + 1)] + [(f"b{i}", i) for i in range(1, n - r + 1)]
    )


def _last_presentation(v: MarkedDiagram, r: int) -> GradedPresentation:
    family, n = v.diagram.family, v.diagram.rank
    table = last_flag_generators(n, r)
    q = _series(table, {i: f"q{i}" for i in range(1, r + 1)}, r)
    b = _series(table, {i: f"b{i}" for i in range(1, n - r + 1)}, n - r)
    rels = _coeff_plus_relations(_product(q, _neg(q), b, _neg(b)))
    if family == "D":
        rels.append(
            GradedPoly.generator(table, f"q{r}") * GradedPoly.generator(table, f"b{n - r}")
        )
    return GradedPresentation(v, table, tuple(rels))


@functools.cache
def presentation(v: MarkedDiagram) -> GradedPresentation:
    """Generators-and-relations presentation of H*(v) over Q.

    Supports the four shapes used by the classifier: marks {1}, {n}, {1, r}
    and {r, n} (with {1, n} read as the r = 1 case of the latter).  Anything
    else, and anything exceptional, raises UnsupportedInputError.
    """
    shape, r = _mark_shape(v)
    if shape == "point":
        return _point_presentation(v)
    if shape == "top":
        return _top_presentation(v)
    if shape == "first":
        return _first_presentation(v, r)
    return _last_presentation(v, r)


def pullback_identities_check(family: str, n: int, r: int) -> bool:
    """Verify the pullback formulas as symmetric-function identities.

    Writes every generator out in the underlying x variables and checks that
    the series split multiplicatively along the variable split: for type A,
    e(x_2..x_{n+1}) factors as a(t)s(t); for B/C/D, the even series in the
    squared variables factors as a(t)a(-t)k(t).  Exact, no geometry involved.
    """
    if family not in _CLASSICAL:
        raise UnsupportedInputError(f"classical families only, not {family!r}")
    if not 1 < r <= n:
        raise UnsupportedInputError(f"need 1 < r <= n, got r={r}, n={n}")
    if family == "A":
        names = [f"x{j}" for j in range(2, n + 2)]
        table = tuple((nm, 1) for nm in names)
        split = r - 1  # x_2..x_r on the left, x_{r+1}..x_{n+1} on the right
        left = _factor_product(table, names[:split], sign=1)
        right = _factor_product(table, names[split:], sign=1)
        full = _factor_product(table, names, sign=1)
        return _product(left, right) == full
    names = [f"x{j}" for j in range(2, n + 1)]
    table = tuple((nm, 1) for nm in names)
    split = r - 1
    a = _factor_product(table, names[:split], sign=1)
    k = _factor_product(table, names[split:], sign=-1)
    full = _factor_product(table, names, sign=-1)
    return _product(a, _neg(a), k) == full


def _factor_product(table, names: Sequence[str], sign: int) -> Series:
    """prod(1 + x t) when sign=1, prod(1 - x^2 t^2) when sign=-1."""
    one, zero = _one(table), GradedPoly.zero(table)
    xs = [GradedPoly.generator(table, nm) for nm in names]
    return _product((one,), *[(one, x) if sign == 1 else (one, zero, -(x * x)) for x in xs])


# ---------------------------------------------------------------------------
# Even-generator elimination on the maximal isotropic Grassmannian


@functools.cache
def eliminated_target(d: DynkinDiagram) -> Tuple[GradedPresentation, Mapping[str, object]]:
    """H*(D(n)) of a B/C/D diagram with its even generators eliminated, and
    that ring's degree ledger.

    Computed once per diagram and shared by every caller: the ledger is a
    read-only mapping whose degree lists are stored as tuples, so no caller
    can change what the next one reads.
    """
    target = eliminate_even_generators(presentation(marked(d, [d.rank])))
    ledger = {
        name: tuple(v) if isinstance(v, list) else v
        for name, v in degree_ledger(target).items()
    }
    return target, MappingProxyType(ledger)


def eliminate_even_generators(p: GradedPresentation) -> GradedPresentation:
    """Rewrite H*(D(n)) using only the odd-degree Q generators.

    The degree-2i relation has the form 2*Q_{2i} + (terms in lower Q's), so
    the even generators can be solved for one by one, in increasing order.
    For type D the top generator Q_n is set to zero first.  The surviving
    relations are the higher even-degree coefficients with the substitutions
    applied; their degrees all exceed the largest remaining generator degree,
    which is what the downstream surjectivity arguments feed on.  Not
    memoized (a presentation is unhashable); `eliminated_target` keeps the
    result per diagram.

    The solving runs on int term dicts over the odd generators alone, in the
    scaled variables q_k = Q_k/2: every solved Q is stored as a polynomial in
    the odd q's, and each relation is evaluated at the values solved so far.
    The halving in Q_{2i} = -rest/2 is exact there.  With Q_k = 2*q_k, the
    degree-2i coefficient of Q(t)Q(-t) = 1 is
    4*(q_{2i} + sum_{0<j<2i} (-1)^j q_j q_{2i-j}), so every q_{2i} is an
    integral polynomial in the odd q's (Pragacz, "Algebro-geometric
    applications of Schur S- and Q-polynomials", 1991).  Every value
    Q_k = 2*q_k then has even coefficients, each term of rest is an int times
    a product of values, and rest/2 is integral; a remainder raises instead
    of being floored away.  A surviving relation is turned back into the Q's
    once: a q-coefficient g on monomial e becomes g / 2^|e|.
    """
    family, n = p.variety.diagram.family, p.variety.diagram.rank
    if family not in ("B", "C", "D") or sorted(p.variety.marked) != [n]:
        raise UnsupportedInputError("even-generator elimination applies to maximal "
                                    "isotropic Grassmannians only")
    table = p.generators
    odd_top = n if n % 2 else n - 1
    if family == "D" and n % 2:
        odd_top = n - 2
    reduced_table = tuple((f"Q{i}", i) for i in range(1, odd_top + 1, 2))
    width = len(reduced_table)
    # values[k] is Q_{k+1} as {exponents over the odd q's: int}; None while unsolved
    values: List[Optional[Dict[Tuple[int, ...], Scalar]]] = [None] * n
    for slot in range(width):
        values[2 * slot] = {tuple(int(i == slot) for i in range(width)): 2}
    if family == "D":
        if GradedPoly.generator(table, f"Q{n}") not in p.relations:
            raise InternalInconsistencyError(f"no relation Q{n} = 0 in {p.variety}")
        values[n - 1] = {}

    solve_top = n if family in ("B", "C") else n - 1
    survivors: List[Tuple[int, dict]] = []
    # the coefficients of Q(t)Q(-t) by degree; for D, then Q_n, which reduces to 0
    for d, rel in zip(p.rel_degrees, p.relations):
        if d <= solve_top:
            name = f"Q{d}"
            if values[d - 1] is not None or rel.coefficient({name: 1}) != 2:
                raise InternalInconsistencyError(f"degree-{d} relation not solvable for {name}")
            lead = tuple(int(i == d - 1) for i in range(n))
            rest = _evaluate(rel, values, width, skip=lead)
            solved = {}
            for e, c in rest.items():
                half, odd = divmod(-c, 2)
                if odd:
                    raise InternalInconsistencyError(f"degree-{d} relation halves {name} "
                                                     f"to a non-integral q-coefficient")
                solved[e] = half
            values[d - 1] = solved
        else:
            c = _evaluate(rel, values, width)
            if c:
                survivors.append((d, c))

    expected = set(
        range(2 * (n // 2) + 2, 2 * n + 1, 2)
        if family in ("B", "C")
        else range(2 * ((n + 1) // 2), 2 * n - 1, 2)
    )
    if {d for d, _ in survivors} != expected:
        raise InternalInconsistencyError(
            f"surviving relation degrees {sorted(d for d, _ in survivors)} != {sorted(expected)}"
        )

    rels = tuple(
        GradedPoly._make(reduced_table, {e: _div(g, 1 << sum(e)) for e, g in c.items()})
        for _, c in survivors
    )
    return GradedPresentation(p.variety, reduced_table, rels)


def _evaluate(rel: GradedPoly, values, width: int, skip=None) -> dict:
    """rel at the solved values, as {exponents over the odd q's: coefficient}
    with the zeros dropped; the term with exponents `skip` is left out."""
    acc: dict = {}
    get = acc.get
    for expo, c in rel.terms.items():
        if expo == skip:
            continue
        term = {(0,) * width: c}
        for i, e in enumerate(expo):
            if not e:
                continue
            value = values[i]
            if value is None:
                raise InternalInconsistencyError(f"relation {rel} reaches the unsolved "
                                                 f"generator {rel.gens[i][0]}")
            for _ in range(e):
                term = _add_products({}, term.items(), value.items())
        for e2, c2 in term.items():
            acc[e2] = get(e2, 0) + c2
    return {e: c for e, c in acc.items() if c}


# ---------------------------------------------------------------------------
# Degree ledgers


def degree_ledger(p: GradedPresentation) -> dict:
    """Degree bookkeeping after obvious simplification.

    A generator that appears in some relation as a bare linear term is
    redundant: solve and substitute.  This collapses e.g. the
    projective-space presentations down to the hyperplane class alone.  The
    ledger reports the surviving degrees; the quantity the classifier cares
    about is whether every relation degree exceeds every generator degree.

    One pass over the relations, in order, on the presentation's own
    generator table: each relation is tested for a pivot once, after the
    pivots before it were substituted in, and each pivot is substituted into
    every relation.  That is exact for homogeneous relations over
    positive-degree generators.  A degree-d generator can occur bare only in
    a degree-d relation, and then nowhere else in it, since any other
    monomial holding it has a larger degree.  And a relation with no bare
    linear term never gains one: substituting a value of positive degree
    into a product of generators leaves a sum of products.  So a relation
    passed over stays without a pivot, and a later pivot never reopens it.

    Only linear pivots are solved, so the ledger keeps relations that the
    others generate: on D_n(n) with n even the degree-2n relation is the
    square of the degree-n one, and `explain D6(6)` lists relations
    [6, 8, 10, 12] where the eliminated target has [6, 8, 10].
    """
    gens = p.generators
    units = [tuple(int(i == gi) for i in range(len(gens))) for gi in range(len(gens))]
    solved = set()
    # (relation, degree) pairs: substituting a generator by a polynomial of
    # its own degree keeps each relation's degree, so degrees are carried
    rels = list(zip(p.relations, p.rel_degrees))
    for k in range(len(rels)):
        rel = rels[k][0]
        gi = next((gi for gi, unit in enumerate(units) if unit in rel.terms), None)
        if gi is None:
            continue
        coeff = rel.terms[units[gi]]
        name = gens[gi][0]
        expr = (rel - GradedPoly.generator(gens, name) * coeff) * (Fraction(-1) / coeff)
        solved.add(gi)
        # the pivot's own relation becomes exactly 0 here, like any relation
        # the substitution cancels, and 0 is no relation
        rels = [(other.substitute(name, expr), d) for other, d in rels]
    gen_degrees = sorted(d for gi, (_, d) in enumerate(gens) if gi not in solved)
    rel_degrees = sorted(d for rel, d in rels if rel.terms)
    return {
        "generator_degrees": gen_degrees,
        "relation_degrees": rel_degrees,
        "max_generator_degree": max(gen_degrees) if gen_degrees else 0,
        "min_relation_degree": min(rel_degrees) if rel_degrees else None,
    }


# ---------------------------------------------------------------------------
# Graded slices of the relation ideal


def homogeneous_monomials(gens, degree: int) -> List[Tuple[int, ...]]:
    """All exponent tuples of the given weighted degree, in a fixed order."""
    out: List[Tuple[int, ...]] = []
    if degree >= 0:
        _extend_monomials(out, [d for _, d in gens], 0, degree, [])
    return out


def _extend_monomials(out: list, degrees: List[int], idx: int, remaining: int, prefix: List[int]):
    """Append to out every completion of prefix, from position idx on, whose
    weighted degree is remaining; lexicographic order.  A module-level
    function, not a closure, so a call leaves no reference cycle behind."""
    if idx == len(degrees):
        if remaining == 0:
            out.append(tuple(prefix))
        return
    d = degrees[idx]
    for e in range(remaining // d + 1):
        prefix.append(e)
        _extend_monomials(out, degrees, idx + 1, remaining - e * d, prefix)
        prefix.pop()


def _slice_rows(p: GradedPresentation, degree: int):
    """Monomial basis of one graded slice, as {monomial: column}, and the
    relation multiples spanning the ideal there, as coefficient rows.  A
    relation times a monomial shifts every exponent of the relation by the
    monomial's, so each row is written straight from the relation's terms."""
    index = {m: i for i, m in enumerate(homogeneous_monomials(p.generators, degree))}
    rows = []
    for rel, d0 in zip(p.relations, p.rel_degrees):
        if d0 > degree:
            continue
        terms = rel.terms.items()
        for shift in homogeneous_monomials(p.generators, degree - d0):
            vec = [0] * len(index)
            for e, c in terms:
                vec[index[tuple(map(add, e, shift))]] = c
            rows.append(vec)
    return index, rows


def in_relation_slice(p: GradedPresentation, poly: GradedPoly) -> bool:
    """Exact membership of a homogeneous polynomial in the relation ideal:
    adding it to the slice's relation rows leaves their rank unchanged."""
    if not poly.terms:
        return True
    d = poly.homogeneous_degree()
    if d is None:
        raise UnsupportedInputError("slice membership needs a homogeneous polynomial")
    if poly.gens != p.generators:
        raise UnsupportedInputError("polynomial written over the wrong generator table")
    index, rows = _slice_rows(p, d)
    vec = [0] * len(index)
    for e, c in poly.terms.items():
        vec[index[e]] = c
    return rank(rows + [vec]) == rank(rows)


def slice_dimension(p: GradedPresentation, degree: int) -> int:
    """Dimension of the degree-d part of the quotient ring."""
    index, rows = _slice_rows(p, degree)
    return len(index) - rank(rows)


def pullback_product_collapse_check(family: str, n: int, r: int) -> bool:
    """Check that a(t)a(-t)k(t) reduces to the even powers of h mod relations.

    On the {1, r} flag of type B/C/D the product of the pulled-back series
    should agree, slice by slice, with sum((ht)^{2i}): coefficient by
    coefficient, Coeff_d - h^d (d even, zero for d odd) must lie in the
    relation ideal.  Verified by exact linear algebra on each graded slice.

    The second mark has to stay off the end of the diagram (off the fork for
    type D) so that the flag presentation keeps the hyperplane generator.
    """
    if family not in ("B", "C", "D"):
        raise UnsupportedInputError(f"isotropic families only, not {family!r}")
    top = n - 2 if family == "D" else n - 1
    if not 1 < r <= top:
        raise UnsupportedInputError(f"need 1 < r <= {top} on {family}{n}, got r={r}")
    v = marked(diagram(family, n), {1, r})
    p = presentation(v)
    table = p.generators
    h = GradedPoly.generator(table, "h")
    a = _series(table, {i: f"a{i}" for i in range(1, r)}, r - 1)
    k = _series(table, {2 * i: f"k{2 * i}" for i in range(1, n - r + 1)}, 2 * (n - r))
    product = _product(a, _neg(a), k)
    for d in range(1, 2 * n - 1):
        target = h**d if d % 2 == 0 else GradedPoly.zero(table)
        delta = product[d] - target
        if not in_relation_slice(p, delta):
            return False
    return True
