"""Decision engine for sections of forgetful projections between flag varieties.

A query asks whether the projection D(I | J) -> D(I), which forgets the marks
in J, admits a section.  Answers are decided in exact arithmetic and every
decision carries a replayable trace: each step names the rule applied, states
its justification in plain language, and records the numbers the rule
consumed.  A negative decision ends with a computation actually performed
here (a Chern factorization sweep, a cohomology degree comparison, a tag
symmetry check over a rational curve) or with one of two standing facts that
are recorded rather than recomputed; a positive decision ends by naming the
explicit construction realizing the section.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from itertools import combinations
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from .chern import chern_from_poly, factor_unit_minus_tk, schwarzenberger_s33
from .cohomology import (
    GradedPresentation,
    eliminated_target,
    last_flag_generators,
    presentation,
    slice_dimension,
)
from .constructions import nesting_A_cohomology_solver
from .dynkin import (
    Component,
    DynkinDiagram,
    apply_automorphism,
    closed_neighborhoods,
    component_containing,
    coxeter_number,
    diagram,
    diagram_automorphisms,
    marked,
    nontrivial_automorphisms,
    require_stored,
    restriction_tag,
    variety_dimension,
)
from .errors import Frozen, InternalInconsistencyError, UnsupportedInputError, Value
from .exactpoly import GradedPoly, Scalar, UniPoly, exact_div

EXISTS = "exists"
NOT_EXISTS = "not_exists"

# The rules that may close a trace, by result.  A positive decision closes on
# the construction that builds the section.  A negative one closes on
# arithmetic actually carried out during the call (the first seven) or on
# one of two facts that are cited rather than recomputed.
_CLOSERS: Mapping[str, FrozenSet[str]] = MappingProxyType(
    {
        EXISTS: frozenset({"explicit-section"}),
        NOT_EXISTS: frozenset(
            {
                "chern-factorization",
                "coxeter-parity",
                "splitting-degree-scan",
                "generator-degree-gap",
                "dimension-drop",
                "missing-relation-degree",
                "rational-curve-tag",
                "exceptional-rank-two",
                "triality-exclusion",
            }
        ),
    }
)

_G2_ANCHOR = (
    "Both forgetful projections from the full flag of the rank-two exceptional "
    "group are projectivizations of indecomposable homogeneous two-plane "
    "bundles on Picard-rank-one bases, and a section would split such a "
    "bundle; recorded fact."
)

_TRIALITY_ANCHOR = (
    "The order-three symmetry of the rank-four even orthogonal diagram "
    "permutes its three extremal nodes; a section through two of them at once "
    "would transport to a simultaneous splitting of the spinor and "
    "tautological data on the six-dimensional quadric, which does not exist; "
    "recorded fact."
)


def _jsonable(value):
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    # exact coefficients print as strings, counts and degrees as numbers;
    # a polynomial coefficient is an int when integral, so a rule that
    # records one wraps it in Fraction to keep the string form
    return str(value)


class TraceStep(Value):
    """One applied rule: its name, a plain-language justification, data used."""

    _compared = attrgetter("rule", "anchor", "data")
    __hash__ = None

    def __init__(self, rule: str, anchor: str, data: Mapping[str, object]):
        self._store(rule=rule, anchor=anchor, data=data)

    def to_json(self) -> dict:
        return {"rule": self.rule, "anchor": self.anchor, "data": _jsonable(self.data)}


Marks = Tuple[int, ...]


def _query_row(d: DynkinDiagram, kept: Marks, forgotten: Marks) -> dict:
    """The JSON row of the query on d with these sorted mark tuples."""
    return {"diagram": str(d), "I": list(kept), "J": list(forgotten)}


class NestingQuery(Value):
    """Does the projection D(I | J) -> D(I) forgetting the J marks split?

    I is the set of marks kept downstairs, J the set being forgotten; both
    must be nonempty disjoint node sets of the diagram.  The key derived
    from them is not compared.
    """

    _compared = attrgetter("diagram", "I", "J")

    def __init__(self, diagram: DynkinDiagram, I: FrozenSet[int], J: FrozenSet[int]):
        require_stored(diagram, "pose the query on")
        for node in (*I, *J):
            if isinstance(node, bool) or not isinstance(node, int):
                raise UnsupportedInputError(f"node {node!r} is not an integer")
        kept = frozenset(I)
        forgotten = frozenset(J)
        if not kept or not forgotten:
            raise UnsupportedInputError("both mark sets must be nonempty")
        if kept & forgotten:
            raise UnsupportedInputError("mark sets must be disjoint")
        for node in kept | forgotten:  # name the first offending node, as iterated
            if not 1 <= node <= diagram.rank:
                raise UnsupportedInputError(f"node {node} outside 1..{diagram.rank}")
        key = (diagram.family, diagram.rank, tuple(sorted(kept)), tuple(sorted(forgotten)))
        self._store(diagram=diagram, I=kept, J=forgotten, _key=key)

    def key(self) -> tuple:
        """(family, rank, sorted I, sorted J), computed once."""
        return self._key

    def to_json(self) -> dict:
        return _query_row(self.diagram, *self._key[2:])


class NestingDecision(Frozen):
    def __init__(self, query: NestingQuery, result: str, trace: Tuple[TraceStep, ...]):
        self._store(query=query, result=result, trace=trace)

    @property
    def exists(self) -> bool:
        return self.result == EXISTS

    def to_json(self) -> dict:
        return {
            "query": self.query.to_json(),
            "result": self.result,
            "trace": [step.to_json() for step in self.trace],
        }


class ObstructionOutcome(Value):
    """What one obstruction pipeline concluded about a single query."""

    _compared = attrgetter("obstructed", "steps", "survivors")
    __hash__ = None

    def __init__(
        self,
        obstructed: bool,
        steps: Tuple[TraceStep, ...],
        survivors: Tuple[Tuple[UniPoly, UniPoly], ...] = (),
    ):
        self._store(obstructed=obstructed, steps=steps, survivors=survivors)


# --------------------------------------------------------------------------
# obstructions at the first node: sections of D(1, r) -> D(1)


def obstruct_first_node(family: str, n: int, r: int) -> ObstructionOutcome:
    """Pullback obstructions for a section of D(1, r) -> D(1) with 2 <= r <= n.

    Enumerates exact factorizations of 1 - t^h into numerically nef Chern
    polynomials and filters them against the rank and divisibility structure
    forced by pulling back the tautological sequence; an empty survivor set
    obstructs the section.
    """
    d = diagram(family, n)
    if d.family not in ("A", "B", "C", "D"):
        raise UnsupportedInputError("first-node obstructions cover the classical families only")
    family, n = d.family, d.rank
    if not 2 <= r <= n:
        raise UnsupportedInputError("the forgotten mark must lie in 2..n")

    if family == "D" and r >= n - 1:
        inner = obstruct_first_node("B", n - 1, n - 1)
        step = TraceStep(
            "spinor-restriction",
            "A family of maximal or near-maximal isotropic subspaces on the even "
            "quadric restricts over a general hyperplane section to the maximal "
            "isotropic family on the odd quadric of one smaller rank, so the two "
            "questions obstruct together.",
            {"source": f"D{n}(1,{r})", "target": f"B{n - 1}(1,{n - 1})"},
        )
        if not inner.obstructed and n != 4:
            raise InternalInconsistencyError(
                "hyperplane restriction should only survive on the rank-four quadric"
            )
        return ObstructionOutcome(inner.obstructed, (step,) + inner.steps, inner.survivors)

    h = coxeter_number(d)
    ambient = variety_dimension(marked(d, [1]))
    steps: List[TraceStep] = []

    if h % 2 == 1:
        steps.append(
            TraceStep(
                "coxeter-parity",
                "The Chern polynomials of the two pulled-back tautological bundles "
                "multiply to 1 + t^h with h odd; evaluating at t = 1 gives 2, but "
                "the quotient factor alone has positive integer coefficients and "
                "degree equal to its rank, so it contributes at least r + 1.",
                {"h": h, "product_at_one": 2, "quotient_minimum": r + 1},
            )
        )
        if r == n:
            degrees = sorted(nesting_A_cohomology_solver(n))
            if degrees:
                raise InternalInconsistencyError("degree scan disagrees with the parity bound")
            steps.append(
                TraceStep(
                    "splitting-degree-scan",
                    "Independent scan over the integer splitting degrees of the "
                    "point-hyperplane family: no degree is admissible when the "
                    "ambient rank is even.",
                    {"m": n, "admissible_degrees": []},
                )
            )
        return ObstructionOutcome(True, tuple(steps))

    pairs = factor_unit_minus_tk(h, ambient)
    one_plus_t = UniPoly([1, 1])
    one_minus_t = UniPoly([1, -1])
    survivors: List[Tuple[UniPoly, UniPoly]] = []
    rejections: Dict[str, int] = {}
    parity_rejects: List[str] = []
    for pe, pf in pairs:
        reason = None
        if pe.degree is None or pe.degree > r:
            reason = "quotient-degree-exceeds-rank"
        elif family == "A":
            if pf.degree is not None and pf.degree > n - r + 1:
                reason = "subbundle-degree-exceeds-corank"
        else:
            a = exact_div(pe, one_plus_t)
            if a is None:
                # never: h is even here, so 1 + t divides 1 - t^h; were it
                # not a factor of P_E, 1 - t would divide P_F and P_F(1) = 0,
                # yet every P_F kept by the sweep has nonnegative
                # coefficients and constant term 1
                raise InternalInconsistencyError(f"{pe} lacks the factor 1 + t")
            k = exact_div(pf.substitute_neg(), one_minus_t * a.substitute_neg())
            if k is None:
                # rejects nothing up to rank 61, but no argument is known:
                # for h = 8 the split P_E = 1 + t + t^2 + t^3,
                # P_F = 1 + t + t^4 + t^5 has nonnegative coefficients, fits
                # the degree bounds and has no such factor; only the nef
                # check drops it, with witnesses (2,1,1) and (3,1)
                reason = "no-isotropic-complement-factor"
            elif any(c != 0 for deg, c in enumerate(k.coeffs) if deg % 2 == 1):
                # never: k = [(1 - t^h)/(1 - t^2)] / [a(t) a(-t)] is a
                # quotient of two even polynomials, so it is even
                raise InternalInconsistencyError(f"even factor {k} has odd terms")
            elif k.degree is not None and k.degree > 2 * (n - r):
                reason = "even-factor-degree-exceeds-corank"
        if reason is None and family in ("A", "C") and r == 3 and pe.degree == 3:
            # the minimal-mark variety is a projective space for these two
            # families, so the rank-three integrality constraint applies
            if not schwarzenberger_s33(chern_from_poly(pe, ambient)):
                reason = "rank-three-chern-parity"
                parity_rejects.append(str(pe))
        if reason is None:
            survivors.append((pe, pf))
        else:
            rejections[reason] = rejections.get(reason, 0) + 1

    if parity_rejects:
        steps.append(
            TraceStep(
                "rank-three-chern-parity",
                "A rank-three bundle on projective space must have c1*c2 congruent "
                "to c3 modulo 2; the candidate quotient violates that parity.",
                {"rejected_quotients": parity_rejects},
            )
        )
    steps.append(
        TraceStep(
            "chern-factorization",
            "Every factorization 1 - t^h = P(t) * P'(-t) with both factors "
            "numerically nef and integral was enumerated and filtered against "
            "the ranks and divisibility forced by the tautological sequence.",
            {
                "h": h,
                "ambient": ambient,
                "candidate_pairs": len(pairs),
                "rejections": rejections,
                "survivors": [[str(pe), str(pf)] for pe, pf in survivors],
            },
        )
    )
    expected = (family == "A" and n % 2 == 1 and r == n) or (family, n, r) == ("B", 3, 3)
    if survivors and not expected:
        raise InternalInconsistencyError(f"unexpected factorization survivor for {d}(1,{r})")
    return ObstructionOutcome(not survivors, tuple(steps), tuple(survivors))


# --------------------------------------------------------------------------
# obstructions at the last node: sections of D(r, n) -> D(n)


def _unique_relation_of_degree(pres: GradedPresentation, degree: int) -> GradedPoly:
    hits = [rel for rel, d in zip(pres.relations, pres.rel_degrees) if d == degree]
    if len(hits) != 1:
        raise InternalInconsistencyError(
            f"expected exactly one relation of degree {degree}, found {len(hits)}"
        )
    return hits[0]


def _relation_shape(rel: GradedPoly, top: str) -> Tuple[Scalar, bool, bool]:
    """Coefficient on q1 * top, whether top appears only there, whether every
    b generator enters with even exponent."""
    top_idx = rel.gen_index(top)
    one_idx = rel.gen_index("q1")
    b_idx = [i for i, (name, _) in enumerate(rel.gens) if name.startswith("b")]
    expected = [0] * len(rel.gens)
    expected[one_idx] += 1
    expected[top_idx] += 1
    expected = tuple(expected)
    main = rel.terms.get(expected, 0)
    clean = all(expo == expected for expo in rel.terms if expo[top_idx] > 0)
    even_b = all(all(expo[i] % 2 == 0 for i in b_idx) for expo in rel.terms)
    return main, clean, even_b


def _relation_multiset(pres: GradedPresentation, swap: bool) -> list:
    """Relations as a sorted multiset of (degree, named monomial -> coefficient),
    optionally with the q and b generator families renamed into each other."""
    rows = []
    for rel, degree in zip(pres.relations, pres.rel_degrees):
        moved = {}
        for expo, coeff in rel.terms.items():
            monomial = []
            for (name, _), e in zip(rel.gens, expo):
                if not e:
                    continue
                if swap:
                    name = ("b" + name[1:]) if name[0] == "q" else ("q" + name[1:])
                monomial.append((name, e))
            moved[tuple(sorted(monomial))] = coeff
        rows.append((degree, tuple(sorted(moved.items()))))
    return sorted(rows)


def _missing_relation_degree(
    steps: List[TraceStep], d: DynkinDiagram, r: int, rel: GradedPoly, degree: int,
    led: Mapping, anchor: str,
) -> ObstructionOutcome:
    """Close the obstruction of D(r, n) -> D(n) on the missing-relation-degree
    step for the flag relation `rel`, once checked: rel pairs q1 with the top
    generator q_r, q_r occurs nowhere else in it, every b exponent is even,
    and the eliminated target has only odd generators, the largest of degree
    r, and no relation in this degree."""
    main, clean, even_b = _relation_shape(rel, f"q{r}")
    odd_gens = all(deg % 2 == 1 for deg in led["generator_degrees"])
    gap = led["min_relation_degree"] is None or led["min_relation_degree"] > degree
    if main == 0 or not clean or not even_b or not odd_gens or not gap:
        raise InternalInconsistencyError(
            f"degree-{degree} relation of {d}({r},{d.rank}) lacks the expected shape"
        )
    if led["max_generator_degree"] != r:
        raise InternalInconsistencyError("target generator degrees changed unexpectedly")
    data = {
        "relation_degree": degree,
        "pairing_coefficient": Fraction(main),
        "top_generator": f"q{r}",
        "b_exponents_even": even_b,
        "target_generator_degrees": led["generator_degrees"],
        "target_min_relation_degree": led["min_relation_degree"],
    }
    steps.append(TraceStep("missing-relation-degree", anchor, data))
    return ObstructionOutcome(True, tuple(steps))


def obstruct_last_node(family: str, n: int, r: int) -> ObstructionOutcome:
    """Cohomological obstructions for a section of D(r, n) -> D(n).

    family must be B, C or D and the forgotten mark r must lie in 1..n-1.
    The target ring is taken with its redundant even generators eliminated,
    and each rule compares exact generator and relation degrees.
    """
    d = diagram(family, n)
    if d.family not in ("B", "C", "D"):
        raise UnsupportedInputError("last-node obstructions cover the isotropic families only")
    family, n = d.family, d.rank
    if not 1 <= r <= n - 1:
        raise UnsupportedInputError("the forgotten mark must lie in 1..n-1")

    target, led = eliminated_target(d)
    steps: List[TraceStep] = []

    # the degree gap reads only the flag's generator table; the flag's
    # relations are built below, in the branches that read them
    flag_max = max(deg for _, deg in last_flag_generators(n, r))
    if flag_max < led["max_generator_degree"]:
        steps.append(
            TraceStep(
                "generator-degree-gap",
                "A section makes the flag's cohomology surject onto the maximal "
                "isotropic Grassmannian's; after eliminating redundant even "
                "generators the target still needs a generator in a degree beyond "
                "everything available upstairs, so no surjection exists.",
                {
                    "flag_generator_degree_bound": flag_max,
                    "needed_degree": led["max_generator_degree"],
                    "target_generator_degrees": led["generator_degrees"],
                    "target_relation_degrees": led["relation_degrees"],
                },
            )
        )
        return ObstructionOutcome(True, tuple(steps))

    if r == 1:
        dim_image = variety_dimension(marked(d, [1]))
        dim_source = variety_dimension(marked(d, [n]))
        if dim_image < dim_source:
            steps.append(
                TraceStep(
                    "dimension-drop",
                    "Composing a section with the projection to the minimal-mark "
                    "variety would map a Picard-rank-one variety onto something of "
                    "strictly smaller dimension, forcing the map to be constant; a "
                    "constant would put one fixed line inside every maximal "
                    "isotropic subspace, which fails.",
                    {"dim_source": dim_source, "dim_image": dim_image},
                )
            )
            return ObstructionOutcome(True, tuple(steps))

    if family == "D" and r == n - 1:
        # the two spinor families nest into one another: explicit construction
        return ObstructionOutcome(False, tuple(steps))

    if family == "D" and n == 4 and r == 1:
        # the order-three diagram symmetry carries the spinor nesting onto
        # this shape, so it survives as well
        return ObstructionOutcome(False, tuple(steps))

    if family in ("B", "C") and r == n - 1 and n % 2 == 0:
        rel = _unique_relation_of_degree(presentation(marked(d, [r, n])), n)
        return _missing_relation_degree(
            steps, d, r, rel, n, led,
            "Under a section the flag ring surjects onto the isotropic ring, "
            "whose generators all sit in odd degree; surjectivity forces the "
            "top q generator to map with a nonzero indecomposable component "
            "and ampleness keeps the degree-one generator nonzero, so the "
            "image of the unique degree-n flag relation retains a nonzero "
            "coefficient against the pairing of those two, yet the target has "
            "no relation in that degree.",
        )

    if family == "D" and n % 2 == 1 and r in (2, n - 2):
        if r == 2:
            left = presentation(marked(d, [2, n]))
            right = presentation(marked(d, [n - 2, n]))
            if _relation_multiset(left, swap=True) != _relation_multiset(right, swap=False):
                raise InternalInconsistencyError(
                    "the two middle flags should carry mirror-isomorphic rings"
                )
            steps.append(
                TraceStep(
                    "mirror-presentation",
                    "Renaming the q generators to b and back identifies the flag "
                    "ring for the mark pair (2, n) with the one for (n-2, n), so "
                    "the two queries obstruct together.",
                    {"left": f"D{n}(2,{n})", "right": f"D{n}({n - 2},{n})"},
                )
            )
            r = n - 2
            flag = right
        else:
            flag = presentation(marked(d, [r, n]))
        product = _unique_relation_of_degree(flag, n)
        expected_product = {(f"q{n - 2}", 1), (f"b{2}", 1)}
        product_monomials = [
            frozenset(
                (name, e)
                for (name, _), e in zip(product.gens, expo)
                if e
            )
            for expo in product.terms
        ]
        if len(product_monomials) != 1 or set(product_monomials[0]) != expected_product:
            raise InternalInconsistencyError("the odd-degree flag relation should be q*b")
        if slice_dimension(target, 2) != 1:
            raise InternalInconsistencyError("degree-two slice of the isotropic ring changed")
        gap_low = led["min_relation_degree"] is None or led["min_relation_degree"] > n
        if not gap_low:
            raise InternalInconsistencyError("target ring unexpectedly has a low-degree relation")
        steps.append(
            TraceStep(
                "degree-two-collapse",
                "The flag ring kills the product of its top q generator with b2; "
                "since every degree-two class downstairs is a multiple of the "
                "square of the degree-one generator and the target has no relation "
                "in degree n, the image of b2 must vanish outright.",
                {
                    "product_relation_degree": n,
                    "target_degree_two_dimension": 1,
                    "target_min_relation_degree": led["min_relation_degree"],
                },
            )
        )
        rel = _unique_relation_of_degree(flag, n - 1)
        return _missing_relation_degree(
            steps, d, r, rel.substitute("b2", GradedPoly.zero(rel.gens)), n - 1, led,
            "With b2 forced to zero, the image of the even flag relation just "
            "below the top keeps a nonzero coefficient against the pairing of "
            "the degree-one generator with the top one, because surjectivity "
            "and ampleness keep both images nonzero; the target has no "
            "relation in that degree either, a contradiction.",
        )

    raise InternalInconsistencyError(f"no obstruction rule matched {family}{n}({r},{n})")


# --------------------------------------------------------------------------
# the decision cascade


Pair = Tuple[str, Tuple[TraceStep, ...]]

# classify()'s one-mark (result, trace) pairs, keyed like NestingQuery.key()
_DECISION_CACHE: Dict[tuple, Pair] = {}


def _canonical_marks(
    d: DynkinDiagram, kept: Marks, forgotten: Marks
) -> Tuple[Tuple[Marks, Marks], Optional[Marks]]:
    """The least (kept, forgotten) pair of sorted mark tuples over the orbit of
    the diagram's symmetries, and the first symmetry reaching it; the symmetry
    is None when the given pair is already least."""
    return _least_marks(nontrivial_automorphisms(d), kept, forgotten)


def _least_marks(
    symmetries: Tuple[Marks, ...], kept: Marks, forgotten: Marks
) -> Tuple[Tuple[Marks, Marks], Optional[Marks]]:
    """_canonical_marks over the given nontrivial automorphisms."""
    best, best_sigma = (kept, forgotten), None
    for sigma in symmetries:
        cand_i = tuple(sorted([sigma[i - 1] for i in kept]))
        if cand_i > best[0]:
            continue  # no image of the forgotten marks makes this pair less
        cand = (cand_i, tuple(sorted([sigma[j - 1] for j in forgotten])))
        if cand < best:
            best, best_sigma = cand, sigma
    return best, best_sigma


class _Traces:
    """The decision store classify() runs the cascade against: every trace
    step is built in full, and one-mark decisions are kept in
    _DECISION_CACHE as (result, trace) pairs.

    The cascade writes each case once against a store, this one or
    _Verdicts.  step() adds one applied rule; its data is a function
    returning the numbers the rule used, called only where traces are kept.
    extend() adds the steps of an obstruction outcome, splice() what the
    store keeps of a subquery's trace, closing() names the rule that closes
    finished steps, and pair() turns them into the pair the store keeps."""

    def __init__(self):
        self.pairs = _DECISION_CACHE

    @staticmethod
    def step(steps: list, rule: str, anchor: str, data: Callable[[], dict]) -> None:
        steps.append(TraceStep(rule, anchor, data()))

    @staticmethod
    def extend(steps: list, trace: Tuple[TraceStep, ...]) -> None:
        steps.extend(trace)

    splice = extend

    @staticmethod
    def closing(steps: list) -> str:
        return steps[-1].rule

    @staticmethod
    def pair(result: str, steps: list) -> Pair:
        return result, tuple(steps)

    @staticmethod
    def decided(d: DynkinDiagram, kept: Marks, forgotten: Marks) -> Pair:
        """The pair of a cascade subquery on d.  A pair decided before is one
        lookup; otherwise the subquery is posed to classify() as a validated
        NestingQuery."""
        pair = _DECISION_CACHE.get((d.family, d.rank, kept, forgotten))
        if pair is None:
            decision = classify(NestingQuery(d, frozenset(kept), frozenset(forgotten)))
            pair = (decision.result, decision.trace)
        return pair


class _Verdicts:
    """The decision store of one enumerate_nestings() call: of every step it
    keeps the rule alone, so no step or step data is built, and it keeps
    one-mark decisions as (result, closing rule) pairs.  The closing rule is
    all the closer check reads.  A subquery it has not decided is looked up
    among classify()'s decisions and, failing that, posed to classify()."""

    def __init__(self):
        self.pairs: Dict[tuple, Tuple[str, str]] = {}

    @staticmethod
    def step(steps: list, rule: str, _anchor: str, _data: Callable[[], dict]) -> None:
        steps.append(rule)

    @staticmethod
    def extend(steps: list, trace: Tuple[TraceStep, ...]) -> None:
        steps.extend(step.rule for step in trace)

    @staticmethod
    def splice(steps: list, rule: str) -> None:
        steps.append(rule)

    @staticmethod
    def closing(steps: list) -> str:
        return steps[-1]

    @staticmethod
    def pair(result: str, steps: list) -> Tuple[str, str]:
        return result, steps[-1]

    def decided(self, d: DynkinDiagram, kept: Marks, forgotten: Marks) -> Tuple[str, str]:
        pair = self.pairs.get((d.family, d.rank, kept, forgotten))
        if pair is None:
            result, trace = _Traces.decided(d, kept, forgotten)
            pair = (result, trace[-1].rule)
        return pair


_Store = Union[_Traces, _Verdicts]


def classify(query: NestingQuery) -> NestingDecision:
    """Decide whether the forgetful projection of the query admits a section.

    The query is validated where it is built; the cascade decides its sorted
    mark tuples and builds the full trace.  Only decisions that forget
    exactly one mark are memoized, in _DECISION_CACHE as (result, trace)
    pairs, since those are the subqueries the cascade reads back.  Each is
    stored under its canonical marks and, when a symmetry relabels the
    query, under the marks as posed too, so a repeated one-mark query is one
    lookup.  A query that forgets more marks is decided afresh each time it
    is asked: a CLI call asks one query.  enumerate_nestings() keeps its own
    decisions apart, so a trace does not depend on what was enumerated
    before."""
    _, _, kept, forgotten = query.key()
    return NestingDecision(query, *_decision(query.diagram, kept, forgotten))


def _decision(d: DynkinDiagram, kept: Marks, forgotten: Marks) -> Pair:
    """The (result, trace) pair of the query on d with these sorted marks."""
    key = (d.family, d.rank, kept, forgotten)
    pair = _DECISION_CACHE.get(key)
    if pair is not None:
        return pair
    (canon_i, canon_j), sigma = _canonical_marks(d, kept, forgotten)
    result, trace = _canonical_decision(_Traces(), d, canon_i, canon_j)
    if sigma is None:
        return result, trace
    step = TraceStep(
        "diagram-symmetry",
        "Relabeled the marks by a symmetry of the diagram; existence of a "
        "section is invariant under such relabelings.",
        {
            "permutation": list(sigma),
            "from": {"I": list(kept), "J": list(forgotten)},
            "to": {"I": list(canon_i), "J": list(canon_j)},
        },
    )
    pair = (result, (step,) + trace)
    if len(forgotten) == 1:
        _DECISION_CACHE[key] = pair
    return pair


def _canonical_decision(store: _Store, d: DynkinDiagram, kept: Marks, forgotten: Marks) -> tuple:
    """The store's pair of the query on d with canonical marks.  Every
    decision is made here, and here its closing rule is checked: a positive
    decision closes on a construction, a negative one on a computation or a
    recorded fact."""
    one_mark = len(forgotten) == 1  # the only decisions a store keeps
    if one_mark:
        key = (d.family, d.rank, kept, forgotten)
        pair = store.pairs.get(key)
        if pair is not None:
            return pair
    result, steps = _decide(store, d, kept, forgotten)
    if not steps:
        raise InternalInconsistencyError("decision without a trace")
    closing = store.closing(steps)
    if closing not in _CLOSERS.get(result, ()):
        raise InternalInconsistencyError(
            f"a {result!r} decision must close on a rule of _CLOSERS, got {closing!r}"
        )
    pair = store.pair(result, steps)
    if one_mark:
        store.pairs[key] = pair
    return pair


def _decide(store: _Store, d: DynkinDiagram, kept: Marks, forgotten: Marks) -> Tuple[str, list]:
    if d.family == "G2":
        steps: list = []
        store.step(steps, "exceptional-rank-two", _G2_ANCHOR, lambda: {"diagram": str(d)})
        return NOT_EXISTS, steps
    if d.family not in ("A", "B", "C", "D"):
        raise UnsupportedInputError(f"unsupported diagram {d}")
    if len(forgotten) > 1:
        return _decide_many_unmarked(store, d, kept, forgotten)
    j = forgotten[0]
    if len(kept) > 1:
        return _decide_many_marked(store, d, kept, j)
    i = kept[0]
    if len(closed_neighborhoods(d)[i - 1]) > 2:
        return _decide_interior_mark(store, d, i, j)
    return _decide_extremal(store, d, i, j)


def _subquery_step(
    store: _Store, steps: list, rule: str, anchor: str, data: Callable[[], dict],
    d: DynkinDiagram, kept: Marks, forgotten: Marks,
) -> bool:
    """Pose the subquery (kept, forgotten) on d, record its verdict as one
    step of the rule, and splice in what the store keeps of its trace when
    it has no section.  Whether the subquery admits a section."""
    result, sub_trace = store.decided(d, kept, forgotten)
    store.step(steps, rule, anchor, lambda: {**data(), "verdict": result})
    if result != EXISTS:
        store.splice(steps, sub_trace)
    return result == EXISTS


def _decide_many_unmarked(
    store: _Store, d: DynkinDiagram, kept: Marks, forgotten: Marks
) -> Tuple[str, list]:
    steps: list = []
    for j in forgotten:
        if not _subquery_step(
            store,
            steps,
            "unmark-projection",
            "A section through the full mark set composes with the projection "
            "that keeps just one of the forgotten marks, so every one-mark "
            "subquery must admit a section too.",
            lambda: {"kept": list(kept), "forgotten": j},
            d, kept, (j,),
        ):
            return NOT_EXISTS, steps
    return _triality_exclusion(
        store, d, kept, forgotten, steps,
        "simultaneous one-mark sections outside the triality orbit",
    )


def _triality_exclusion(
    store: _Store, d: DynkinDiagram, kept: Marks, forgotten: Marks, steps: list, unexpected: str
) -> Tuple[str, list]:
    """Close a query that every restriction left open: only the triality
    orbit on D4 may get here, and a recorded fact excludes it."""
    if not (d.family == "D" and d.rank == 4 and sorted(kept + forgotten) == [1, 3, 4]):
        raise InternalInconsistencyError(unexpected)
    store.step(
        steps,
        "triality-exclusion",
        _TRIALITY_ANCHOR,
        lambda: {"diagram": str(d), "I": list(kept), "J": list(forgotten)},
    )
    return NOT_EXISTS, steps


PositiveEntry = Tuple[Tuple[int, int], str, str, Tuple[Tuple[int, int], ...]]


def _positive(d: DynkinDiagram) -> Optional[PositiveEntry]:
    """The paper's positive list, one entry per diagram with a one-mark
    section.  Each section exists because a proper subgroup still acts
    transitively: Sp in SL, G2 in SO7 or SO(2n-1) in SO(2n), the foldings
    A(2m-1) -> C(m), B3 -> G2 and D(n) -> B(n-1).  The entry is the standard
    pose (kept, forgotten) of the positive mark pair, the construction that
    builds the section, the folding and the node pairs it identifies; None
    on a diagram without a section."""
    n = d.rank
    if d.family == "A" and n >= 3 and n % 2 == 1:
        m = (n + 1) // 2
        pairs = tuple((i, n + 1 - i) for i in range(1, m))
        return (1, n), "symplectic point-hyperplane flag (nesting_A)", f"A{n}->C{m}", pairs
    if d.family == "B" and n == 3:
        return (1, 3), "octonion point-plane flag (nesting_B3)", "B3->G2", ((1, 3),)
    if d.family == "D":
        pose = (n - 1, n)
        return pose, "isotropic flag completion (nesting_D)", f"D{n}->B{n - 1}", (pose,)
    return None


def _curve_tag_blocks(
    sub: DynkinDiagram, inner_i: int, inner_j: int, tag: Tuple[int, ...]
) -> Tuple[bool, dict]:
    """Whether a single-spike restriction tag rules out a section over the
    rational curve.  The inner pair is first moved into the standard positive
    pose so the folding symmetry is tested in the right coordinates."""
    positive = _positive(sub)
    if positive is None:
        raise InternalInconsistencyError(f"no positive pose on {sub}")
    (pose_i, pose_j), _, folding, pairs = positive
    sigma = None
    for cand in diagram_automorphisms(sub):
        if apply_automorphism(cand, [inner_i]) == frozenset([pose_i]) and apply_automorphism(
            cand, [inner_j]
        ) == frozenset([pose_j]):
            sigma = cand
            break
    if sigma is None:
        raise InternalInconsistencyError("an existing inner section left the positive orbit")
    values = [0] * sub.rank
    for node in range(1, sub.rank + 1):
        values[sigma[node - 1] - 1] = tag[node - 1]
    ok = all(values[a - 1] == values[b - 1] for a, b in pairs)
    data = {
        "tag": list(tag),
        "posed_tag": values,
        "folding": folding,
        "constant_on_fibers": ok,
    }
    return (not ok), data


def _curve_tag_step(
    store: _Store, steps: list, d: DynkinDiagram, comp: Component, i: int, j: int, curve_mark: int
) -> bool:
    """Restrict to the rational curve in the direction of curve_mark, with
    comp the component of d that holds the kept mark i and the forgotten
    mark j; record the step and return whether its tag blocks a section."""
    tag = restriction_tag(d, comp, curve_mark)
    blocked, data = _curve_tag_blocks(comp.diagram, comp.own_node(i), comp.own_node(j), tag)
    store.step(
        steps,
        "rational-curve-tag",
        "Restricting to a rational curve in the direction of another marked node "
        "tags the inner family with one nonzero degree; a section over the curve "
        "exists only when the tag is constant on the fibers of the diagram "
        "folding, and a lone off-fiber spike never is.",
        lambda: {**data, "kept_mark": i, "curve_mark": curve_mark},
    )
    return blocked


def _decide_many_marked(store: _Store, d: DynkinDiagram, kept: Marks, j: int) -> Tuple[str, list]:
    """Restrict to the fibers over each kept mark that borders the component
    of j left by deleting every kept mark: exactly the marks whose return
    joins j's component."""
    steps: list = []
    anchored = False
    for i1 in kept:
        others = [i2 for i2 in kept if i2 != i1]
        comp = component_containing(d, others, j)
        if i1 not in comp.parent_nodes:
            continue
        anchored = True
        sub = comp.diagram
        own_i, own_j = comp.own_node(i1), comp.own_node(j)
        if not _subquery_step(
            store,
            steps,
            "fiber-restriction",
            "Restricting the section to the fibers over the flag of the other "
            "marks reduces the query to the connected subdiagram spanned by "
            "the kept component and one chosen mark.",
            lambda: {
                "kept_mark": i1, "subdiagram": str(sub), "sub_marks": {"I": [own_i], "J": [own_j]}
            },
            sub, (own_i,), (own_j,),
        ):
            return NOT_EXISTS, steps
        closed = closed_neighborhoods(d)  # a node touches a component its entry meets
        for i2 in others:
            if closed[i2 - 1].isdisjoint(comp.parent_nodes):
                continue
            if _curve_tag_step(store, steps, d, comp, i1, j, i2):
                return NOT_EXISTS, steps
    if not anchored:
        raise InternalInconsistencyError("some marked node must border the kept component")
    return _triality_exclusion(
        store, d, kept, (j,), steps, "tag symmetry survived outside the triality orbit"
    )


def _decide_interior_mark(store: _Store, d: DynkinDiagram, i: int, j: int) -> Tuple[str, list]:
    bar = component_containing(d, {i}, j)
    outside = frozenset(range(1, d.rank + 1)) - bar.parent_nodes
    comp = component_containing(d, outside - {i}, j)
    own_i, own_j = comp.own_node(i), comp.own_node(j)
    steps: list = []
    if not _subquery_step(
        store,
        steps,
        "fiber-restriction",
        "Restricting to the fibers over the flag of the far side of the kept "
        "node reduces the query to the connected subdiagram spanned by the "
        "kept component together with the mark.",
        lambda: {
            "kept_mark": i, "subdiagram": str(comp.diagram), "sub_marks": {"I": [own_i], "J": [own_j]}
        },
        comp.diagram, (own_i,), (own_j,),
    ):
        return NOT_EXISTS, steps
    i2 = min(closed_neighborhoods(d)[i - 1] - bar.parent_nodes - {i})
    if not _curve_tag_step(store, steps, d, comp, i, j, i2):
        raise InternalInconsistencyError("an interior mark produced a fiber-constant tag")
    return NOT_EXISTS, steps


def _positive_label(d: DynkinDiagram, i: int, j: int) -> Optional[str]:
    """The construction of the canonical one-mark query (i, j), or None when
    the query is not the diagram's positive pair."""
    positive = _positive(d)
    if positive is None:
        return None
    (kept, forgotten), label, _, _ = positive
    if _canonical_marks(d, (kept,), (forgotten,))[0] != ((i,), (j,)):
        return None
    return label


def _decide_extremal(store: _Store, d: DynkinDiagram, i: int, j: int) -> Tuple[str, list]:
    n = d.rank
    steps: list = []
    if d.family == "A" or i == 1:
        if i != 1:
            raise InternalInconsistencyError("canonical extremal queries keep the first node")
        outcome = obstruct_first_node(d.family, n, j)
    elif d.family in ("B", "C"):
        if i != n:
            raise InternalInconsistencyError("extremal marks on these diagrams are 1 or n")
        outcome = obstruct_last_node(d.family, n, j)
    else:
        if i != n - 1:
            raise InternalInconsistencyError("canonical extremal D queries use node 1 or n-1")
        jj = n - 1 if j == n else j
        store.step(
            steps,
            "diagram-symmetry",
            "The symmetry exchanging the two fork nodes moves the kept mark "
            "onto the last node without changing existence.",
            lambda: {"from": {"I": [i], "J": [j]}, "to": {"I": [n], "J": [jj]}},
        )
        outcome = obstruct_last_node("D", n, jj)
    label = _positive_label(d, i, j)
    if outcome.obstructed == (label is not None):
        raise InternalInconsistencyError(
            f"obstruction pipeline and construction list disagree on {(d.family, n, (i,), (j,))}"
        )
    store.extend(steps, outcome.steps)
    if label is None:
        return NOT_EXISTS, steps
    store.step(
        steps,
        "explicit-section",
        "An explicit section exists; the named construction builds it and is "
        "checked in exact arithmetic by seeded trials.",
        lambda: {
            "construction": label,
            "surviving_pairs": [[str(pe), str(pf)] for pe, pf in outcome.survivors],
        },
    )
    return EXISTS, steps


# --------------------------------------------------------------------------
# enumeration


def _mark_pairs(d: DynkinDiagram, mode: str):
    """(kept, forgotten) pairs of sorted node tuples, in enumeration order."""
    nodes = list(range(1, d.rank + 1))
    if mode == "singletons":
        for i in nodes:
            for j in nodes:
                if i != j:
                    yield (i,), (j,)
        return
    for size in range(2, min(4, d.rank) + 1):
        # the kept and forgotten marks of a union, picked by their positions
        # in it through a bitmask; a lone position is picked as a slice,
        # which keeps it a tuple
        splits = [
            [
                itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))
                for at in ([t for t in range(size) if (bits >> t & 1) == side] for side in (1, 0))
            ]
            for bits in range(1, 2 ** size - 1)
        ]
        for union in combinations(nodes, size):
            for kept_of, forgotten_of in splits:
                yield kept_of(union), forgotten_of(union)


def enumerate_nestings(max_rank: int, mode: str = "singletons") -> dict:
    """Classify every nesting query on the classical diagrams up to max_rank.

    mode 'singletons' takes all ordered pairs of single nodes; 'all-subsets'
    every disjoint pair of mark sets spanning at most four nodes.  Queries
    equivalent under a diagram symmetry are classified once, under their
    canonical labels: a mark pair is decided only when it is its own
    canonical form, straight from its mark tuples, on a diagram built by
    diagram() with marks drawn from its nodes, so no NestingQuery is built
    for it.  On a diagram without symmetries (B, C) every mark pair is
    canonical, so the diagram's nontrivial automorphisms are read once and
    no pair of such a diagram is canonicalized.

    Only the result of each decision is read here, so the cascade runs
    against a verdict store local to the call (_Verdicts): it builds no
    trace step and keeps one-mark decisions as (result, closing rule)
    pairs.  Every decision still runs its obstructions, its cross-check
    against the positive list and the closer check on its closing rule.  A
    cascade subquery that neither this store nor classify()'s cache has
    decided is posed to classify() as a validated NestingQuery, which keeps
    its full trace in _DECISION_CACHE.

    The cyclic collector runs once, first, so no garbage of the caller's
    is frozen; deciding makes no reference cycle.  After each diagram every
    object alive in the process, not only this module's, is frozen
    (gc.freeze), so later collections skip it.  What survives a diagram is
    the verdict store, the few traced decisions of posed subqueries, the
    functools memos of the kernels and module state.  All but the store
    live until exit anyway, and reference counting frees the store, frozen
    or not, when the call returns; only a frozen object caught in a cycle
    later stays until exit.  Without the freeze every full collection walks
    those memos again and frees nothing.
    """
    if max_rank < 3:
        raise UnsupportedInputError("enumeration needs rank at least 3")
    if mode not in ("singletons", "all-subsets"):
        raise UnsupportedInputError(f"unknown mode {mode!r}")
    diagrams = []
    for fam, lo in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        for n in range(lo, max_rank + 1):
            diagrams.append(diagram(fam, n))
    store = _Verdicts()
    exists_rows = []
    total = 0
    gc.collect()
    for d in diagrams:
        symmetries = nontrivial_automorphisms(d)
        for kept, forgotten in _mark_pairs(d, mode):
            if symmetries and _least_marks(symmetries, kept, forgotten)[1] is not None:
                continue  # decided under its canonical marks, which d also yields
            total += 1
            if _canonical_decision(store, d, kept, forgotten)[0] == EXISTS:
                exists_rows.append(_query_row(d, kept, forgotten))
        gc.freeze()
    exists_rows.sort(
        key=lambda row: (row["diagram"][0], int(row["diagram"][1:]), row["I"], row["J"])
    )
    return {
        "max_rank": max_rank,
        "mode": mode,
        "classified": total,
        "exists": exists_rows,
        "counts": {"exists": len(exists_rows), "not_exists": total - len(exists_rows)},
    }
