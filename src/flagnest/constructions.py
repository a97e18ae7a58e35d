"""The three explicit nesting constructions, verified in exact arithmetic.

Each positive answer of the classifier is witnessed by an actual section: a
point of projective space carried to a hyperplane through it (symplectic
form), a point of the five-dimensional quadric carried to a plane through it
(octonion multiplication), and a maximal isotropic subspace carried to a
codimension-one isotropic subspace (orthogonal complement in a quadratic
space).  The module also houses the small integer solvers that the matching
uniqueness arguments reduce to, so the classifier can cite them.

The symplectic and the quadratic construction share one `FormSpace`: a
nondegenerate bilinear form on Q^dim, symmetric or alternating.  Scalars are
rationals in `exactpoly`'s normal form, an int where integral and a Fraction
otherwise; outside input is converted to it, so a float is rejected.
Octonions live over the Gaussian rationals: the quadric x_0^2 + ... + x_7^2 =
0 has no nonzero rational points, and Q(i) is the smallest exact field where
the needed null vectors exist.  Random data is always built constructively
(hyperbolic combinations, rational rotations) from an explicit seed, never by
approximating roots.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from operator import attrgetter, mul
from typing import Dict, List, Optional, Tuple

from .dynkin import MAX_RANK
from .errors import Frozen, InternalInconsistencyError, UnsupportedInputError, Value
from .exactpoly import GaussRat, UniPoly, _as_rational, _div, _normal
from .linalg import determinant, in_row_span, kernel_basis, row_echelon

Matrix = Tuple[tuple, ...]


def _freeze(rows) -> Matrix:
    return tuple(tuple(map(_normal, row)) for row in rows)


def _canonical_span(rows) -> Matrix:
    echelon, _ = row_echelon(rows)
    return _freeze(echelon)


def _span_subset(small, big) -> bool:
    echelon, pivots = row_echelon(big)
    return all(in_row_span(echelon, pivots, v) for v in small)


def _rational_rows(rows) -> Matrix:
    return tuple(tuple(map(_as_rational, row)) for row in rows)


# ---------------------------------------------------------------------------
# Bilinear-form spaces


class FormSpace(Frozen):
    """A nondegenerate bilinear form on Q^dim with Gram matrix `gram`: a
    symmetric form for sign 1, an alternating one for sign -1.  `entries`
    lists (i, j, gram[i][j]) of every nonzero entry in row-major order,
    found once."""

    def __init__(self, dim: int, gram: Matrix, sign: int):
        gram = _rational_rows(gram)
        if type(sign) is not int or sign not in (1, -1):
            raise UnsupportedInputError(f"the form's sign is 1 or -1, not {sign!r}")
        symmetric = sign == 1
        matrix = "Gram matrix" if symmetric else "form matrix"
        if not symmetric and (dim % 2 or dim < 2):
            raise UnsupportedInputError(f"symplectic spaces have positive even dimension, not {dim}")
        if len(gram) != dim or any(len(r) != dim for r in gram):
            raise UnsupportedInputError(f"{matrix} does not match the dimension")
        if list(zip(*gram)) != [tuple(sign * x for x in row) for row in gram]:
            raise UnsupportedInputError(f"{matrix} is not {'' if symmetric else 'anti'}symmetric")
        if determinant(gram) == 0:
            raise UnsupportedInputError(f"{'bilinear ' if symmetric else ''}form is degenerate")
        entries = tuple((i, j, g) for i, r in enumerate(gram) for j, g in enumerate(r) if g)
        self._store(dim=dim, gram=gram, sign=sign, entries=entries)

    def pairing(self, u, v):
        return sum(u[i] * g * v[j] for i, j, g in self.entries)

    def is_isotropic(self, rows) -> bool:
        return all(
            self.pairing(rows[i], rows[j]) == 0
            for i in range(len(rows))
            for j in range(i, len(rows))
        )

    def perp(self, rows) -> Matrix:
        """{v : b(r, v) = 0 for every row r}, as a canonical basis."""
        paired = []
        for r in rows:
            vec = [0] * self.dim
            for i, j, g in self.entries:
                vec[j] += r[i] * g
            paired.append(vec)
        return _canonical_span(kernel_basis(paired, ncols=self.dim))


def hyperbolic_space(n: int, sign: int) -> FormSpace:
    """Sum of n hyperbolic planes: b(e_i, f_i) = 1, b(f_i, e_i) = sign and
    everything else 0.  Sign -1 is the standard symplectic form."""
    dim = 2 * n
    rows = [[0] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = sign
    return FormSpace(dim, rows, sign)


# ---------------------------------------------------------------------------
# Symplectic construction


def _normalize_point(point) -> tuple:
    coords = tuple(map(_as_rational, point))
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise UnsupportedInputError("the zero vector is not a projective point")
    return tuple(_div(c, lead) for c in coords)


def nesting_A(s: FormSpace, point) -> Tuple[tuple, Matrix]:
    """A point of P(V) and the hyperplane cut out by pairing against it.

    The hyperplane is the complement of the point under the alternating
    form; alternation puts the point on its own hyperplane, which is exactly
    the section property.  Output is canonicalized (scaled representative,
    reduced row echelon basis) so that proportional inputs give identical
    results.
    """
    if s.sign != -1:
        raise UnsupportedInputError("the point-hyperplane construction needs an alternating form")
    if len(point) != s.dim:
        raise UnsupportedInputError("point has the wrong length")
    pt = _normalize_point(point)
    hyperplane = s.perp([pt])
    if len(hyperplane) != s.dim - 1:
        raise InternalInconsistencyError("pairing functional degenerated")
    if not _span_subset([pt], hyperplane):
        raise InternalInconsistencyError("point escaped its own hyperplane")
    return pt, hyperplane


def nesting_A_cohomology_solver(m: int):
    """Integer degrees d for which the rank-m hyperplane equation can close up.

    The constraint is that sum(C(m+1, i) * (-d)^(m-i), i = 0..m) vanishes,
    i.e. ((1-d)^(m+1) - 1)/(-d) = 0.  Integer roots divide the constant term
    m+1, so a divisor scan is exhaustive: the answer is {2} for odd m and
    empty for even m.
    """
    if m < 2:
        raise UnsupportedInputError(f"need m >= 2, got {m}")
    coeffs = [0] * (m + 1)
    for i in range(m + 1):
        coeffs[m - i] = comb(m + 1, i) * (-1) ** (m - i) * (-1) ** m
    poly = UniPoly(coeffs)
    if poly.coeff(0) == 0:
        raise InternalInconsistencyError("constant term vanished; divisor scan would be wrong")
    const = abs(m + 1)
    roots = set()
    for d in range(1, const + 1):
        if const % d:
            continue
        for signed in (d, -d):
            if poly.evaluate(signed) == 0:
                roots.add(signed)
    return frozenset(roots)


# ---------------------------------------------------------------------------
# Octonions and the quadric construction

_FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (4, 2, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))


def _build_mul_table():
    table: List[List[Optional[Tuple[int, int]]]] = [[None] * 8 for _ in range(8)]
    for i in range(8):
        table[0][i] = (1, i)
        table[i][0] = (1, i)
    for i in range(1, 8):
        table[i][i] = (-1, 0)
    for line in _FANO_LINES:
        for a, b, c in (line, line[1:] + line[:1], line[2:] + line[:2]):
            table[a][b] = (1, c)
            table[b][a] = (-1, c)
    if any(entry is None for row in table for entry in row):
        raise InternalInconsistencyError("multiplication table has a hole")
    return tuple(tuple(row) for row in table)


_MUL_TABLE = _build_mul_table()


class Octonion(Value):
    _compared = attrgetter("coords")

    def __init__(self, coords: Tuple[GaussRat, ...]):
        cs = tuple(GaussRat.of(c) for c in coords)
        if len(cs) != 8:
            raise UnsupportedInputError("an octonion has 8 coordinates")
        self._store(coords=cs)

    @staticmethod
    def unit(i: int) -> "Octonion":
        if not 0 <= i <= 7:
            raise UnsupportedInputError("basis index out of range")
        return Octonion(tuple(GaussRat(1 if k == i else 0) for k in range(8)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __mul__(self, other):
        if not isinstance(other, Octonion):
            scale = GaussRat.of(other)
            return Octonion(tuple(c * scale for c in self.coords))
        out = [GaussRat(0)] * 8
        for i, ci in enumerate(self.coords):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coords):
                if cj.is_zero():
                    continue
                sign, k = _MUL_TABLE[i][j]
                term = ci * cj
                out[k] = out[k] + (term if sign == 1 else -term)
        return Octonion(tuple(out))

    def norm(self) -> GaussRat:
        return sum(c * c for c in self.coords)


def nesting_B3(a: Octonion, x: Octonion) -> Matrix:
    """The plane of the quadric attached to [x] by the invertible anchor a.

    Solves the linear system {y : x(ya) = 0, y_0 = 0} by writing out the
    composite left-by-x-after-right-by-a matrix and taking its kernel on the
    purely imaginary coordinates.  The result is checked to be a plane: three
    dimensions, containing x, with every member square-zero (equivalently,
    the polarized quadratic form vanishes on all basis pairs).
    """
    if a.norm().is_zero():
        raise UnsupportedInputError("anchor octonion is not invertible")
    if x.is_zero() or not x.coords[0].is_zero() or not (x * x).is_zero():
        raise UnsupportedInputError("base point must be nonzero, imaginary, and square-zero")
    columns = [x * (Octonion.unit(j) * a) for j in range(1, 8)]
    rows = [[columns[j].coords[k] for j in range(7)] for k in range(8)]
    ker = kernel_basis(rows, ncols=7)
    plane = _freeze([(GaussRat(0),) + tuple(map(GaussRat.of, vec)) for vec in ker])
    if len(plane) != 3:
        raise InternalInconsistencyError(f"expected a plane, got dimension {len(plane)}")
    if not _span_subset([x.coords], plane):
        raise InternalInconsistencyError("plane does not pass through its base point")
    if any(sum(map(mul, u, w)) for i, u in enumerate(plane) for w in plane[i:]):
        raise InternalInconsistencyError("plane is not contained in the quadric")
    return plane


def nesting_B3_chern_solver() -> Tuple[Tuple[int, Tuple[int, int, int]], ...]:
    """Integer solutions of the system d1+l = 2, d1*l+d2 = 2, d2*l+d3 = 1, d3*l = 0.

    Eliminating the d's leaves l(l^3 - 2l^2 + 2l - 1) = 0, so a small scan is
    exhaustive; the two branches are l = 0 (the trivial splitting, excluded
    by a nonvanishing-section argument) and l = 1 with degrees (1, 1, 0).
    """
    solutions = []
    for ell in range(-10, 11):
        d1 = 2 - ell
        d2 = 2 - d1 * ell
        d3 = 1 - d2 * ell
        if d3 * ell == 0:
            solutions.append((ell, (d1, d2, d3)))
    return tuple(solutions)


# ---------------------------------------------------------------------------
# The isotropic-flag construction


class IsotropicFlag(Value):
    _compared = attrgetter("spaces")

    def __init__(self, spaces: Tuple[Matrix, ...]):
        spaces = tuple(_freeze(m) for m in spaces)
        dims = [len(m) for m in spaces]
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise UnsupportedInputError(f"flag dimensions must strictly increase, got {dims}")
        for small, big in zip(spaces, spaces[1:]):
            if not _span_subset(small, big):
                raise UnsupportedInputError("flag spaces are not nested")
        self._store(spaces=spaces)

    def dimensions(self) -> Tuple[int, ...]:
        return tuple(len(m) for m in self.spaces)


def nesting_D(qs: FormSpace, vn, v) -> IsotropicFlag:
    """Extend a maximal isotropic V_n to V_n + <v> and complete by complement.

    For an anisotropic v the triple (V_n + <v>)^perp < V_n < V_n + <v> is a
    flag with dimensions (n-1, n, n+1); the middle member recovers the input,
    which is the section property.  All five defining predicates are checked
    before returning.
    """
    n = qs.dim // 2
    if qs.dim % 2:
        raise UnsupportedInputError("the construction needs an even-dimensional space")
    vn = _rational_rows(vn)
    if len(vn) != n or any(len(r) != qs.dim for r in vn):
        raise UnsupportedInputError(f"expected an n x 2n basis matrix with n = {n}")
    vn_canon = _canonical_span(vn)
    if len(vn_canon) != n:
        raise UnsupportedInputError("basis rows are linearly dependent")
    if not qs.is_isotropic(vn):
        raise UnsupportedInputError("the given subspace is not isotropic")
    v = tuple(map(_as_rational, v))
    if qs.pairing(v, v) == 0:
        raise UnsupportedInputError("the extension vector must be anisotropic")
    big = _canonical_span(list(vn) + [list(v)])
    if len(big) != n + 1:
        raise InternalInconsistencyError("anisotropic vector landed inside the isotropic space")
    small = qs.perp(big)
    if len(small) != n - 1:
        raise InternalInconsistencyError("orthogonal complement has the wrong dimension")
    if not _span_subset(small, vn_canon):
        raise InternalInconsistencyError("complement escaped the middle space")
    if not qs.is_isotropic(small):
        raise InternalInconsistencyError("complement is not isotropic")
    if qs.perp(small) != big:
        raise InternalInconsistencyError("complement does not dualize back")
    return IsotropicFlag((small, vn_canon, big))


class DRecursionReport(Frozen):
    """Outcome of the splitting-degree scan for the isotropic-flag family."""

    def __init__(
        self,
        chain_solutions: Tuple[Tuple[int, Tuple[int, ...]], ...],
        final_candidates: Tuple[Tuple[int, int], ...],
    ):
        self._store(chain_solutions=chain_solutions, final_candidates=final_candidates)

    @property
    def empty(self) -> bool:
        return not self.chain_solutions


def nesting_D_recursion_checker(n: int) -> DRecursionReport:
    """Exhaust the integer splitting data and report the contradiction.

    A splitting of the restricted bundle would give integers x <= 1 (x != 0)
    and nonnegative p_0..p_{n-2} with (1 + (x-1)t - xt^2) * sum(p_i t^i) +
    p_{n-2} x t^n = 1 + t.  Comparing coefficients forces the chain p_1 + x =
    p_2 + x p_1 = ... = 2 and finally p_{n-2} x = 2; the only candidate from
    the last equation is (p_{n-2}, x) = (2, 1), while x = 1 propagates p_i =
    1 down the chain.  No assignment satisfies both, so the scan comes back
    empty.
    """
    if n < 4:
        raise UnsupportedInputError(f"need n >= 4, got {n}")
    target = UniPoly([1, 1])
    chain_solutions = []
    for x in range(-10, 2):
        if x == 0:
            continue
        ps = [1]
        feasible = True
        for _ in range(n - 2):
            nxt = 2 - x * ps[-1]
            if nxt < 0:
                feasible = False
                break
            ps.append(nxt)
        if not feasible or ps[-1] * x != 2:
            continue
        series = UniPoly(ps)
        assembled = UniPoly([1, x - 1, -x]) * series + UniPoly.t(n) * (ps[-1] * x)
        if assembled == target:
            chain_solutions.append((x, tuple(ps)))
    final_candidates = tuple(
        (p, x)
        for x in range(-10, 2)
        if x != 0
        for p in range(0, 11)
        if p * x == 2
    )
    return DRecursionReport(tuple(chain_solutions), final_candidates)


# ---------------------------------------------------------------------------
# Randomized verification drivers


def _random_nonzero_vector(rng: random.Random, length: int) -> tuple:
    while True:
        vec = tuple(rng.randint(-9, 9) for _ in range(length))
        if any(vec):
            return vec


def random_gauss_octonion(rng: random.Random) -> Octonion:
    return Octonion(tuple(GaussRat(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(8)))


def random_invertible_octonion(rng: random.Random) -> Octonion:
    while True:
        x = random_gauss_octonion(rng)
        if not x.norm().is_zero():
            return x


def random_null_octonion(rng: random.Random) -> Octonion:
    """A nonzero imaginary octonion with square zero.

    Start from e_1 + i e_2 and move it around by simultaneous rational
    rotations (Pythagorean-triple cosines) of the real and imaginary parts;
    these preserve the three real invariants (norms and cross term) that make
    the combination null.  A final rational scaling keeps things nonzero.
    """
    re = [1, 0, 0, 0, 0, 0, 0]
    im = [0, 1, 0, 0, 0, 0, 0]
    for _ in range(8):
        i, j = rng.sample(range(7), 2)
        m = rng.randint(1, 5)
        k = rng.randint(1, 5)
        denom = Fraction(m * m + k * k)
        cos = Fraction(m * m - k * k) / denom
        sin = Fraction(2 * m * k) / denom
        for part in (re, im):
            part[i], part[j] = cos * part[i] - sin * part[j], sin * part[i] + cos * part[j]
    scale = rng.randint(1, 9)
    x = Octonion((GaussRat(0),) + tuple(GaussRat(scale * a, scale * b) for a, b in zip(re, im)))
    if not (x * x).is_zero() or x.is_zero():
        raise InternalInconsistencyError("rotation construction produced a non-null vector")
    return x


def random_isotropic_basis(rng: random.Random, n: int) -> Matrix:
    """Rows [I | S] with S antisymmetric span a maximal isotropic subspace."""
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = rng.randint(-5, 5)
            s[i][j] = val
            s[j][i] = -val
    return tuple(tuple([int(k == i) for k in range(n)] + s[i]) for i in range(n))


def random_anisotropic_vector(rng: random.Random, qs: FormSpace) -> tuple:
    while True:
        v = _random_nonzero_vector(rng, qs.dim)
        if qs.pairing(v, v) != 0:
            return v


def verify_section(kind: str, space, source, produced) -> bool:
    """Re-check a construction output against its input, without recomputing it.

    The common requirement is the section property: mapping the produced flag
    back to the source datum must return the input exactly.  The remaining
    checks are the incidences each construction promises.
    """
    if kind == "A":
        pt, hyperplane = produced
        if pt != _normalize_point(source):
            return False
        if len(hyperplane) != space.dim - 1:
            return False
        if any(space.pairing(pt, w) != 0 for w in hyperplane):
            return False
        return _span_subset([pt], hyperplane)
    if kind == "B3":
        a, x = space, source
        if any(not row[0].is_zero() for row in produced):
            return False
        if len(produced) != 3 or not _span_subset([x.coords], produced):
            return False
        return all((x * (Octonion(row) * a)).is_zero() for row in produced)
    if kind == "D":
        vn, v = _rational_rows(source[0]), tuple(map(_as_rational, source[1]))
        if produced.dimensions() != (space.dim // 2 - 1, space.dim // 2, space.dim // 2 + 1):
            return False
        small, mid, big = produced.spaces
        if mid != _canonical_span(vn):
            return False
        if not (_span_subset(small, mid) and _span_subset(mid, big)):
            return False
        if not _span_subset([v], big):
            return False
        if not space.is_isotropic(small) or not space.is_isotropic(mid):
            return False
        return space.perp(small) == big
    raise UnsupportedInputError(f"unknown construction kind {kind!r}")


class TrialReport(Frozen):
    def __init__(self, kind: str, trials: int, passed: int, failure: Optional[Dict[str, str]]):
        self._store(kind=kind, trials=trials, passed=passed, failure=failure)

    @property
    def ok(self) -> bool:
        return self.passed == self.trials and self.failure is None


def section_trials(kind: str, n: int, trials: int, seed: int) -> TrialReport:
    """Run seeded random instances of one construction and verify each."""
    if kind == "A" and n < 1:
        raise UnsupportedInputError("the point-hyperplane construction needs n >= 1")
    if kind == "D" and n < 2:
        raise UnsupportedInputError("the flag construction needs n >= 2")
    if kind in ("A", "D") and n > MAX_RANK:
        # the forms are dense 2n x 2n matrices, so a huge n exhausts memory
        raise UnsupportedInputError(f"rank {n} is above the supported maximum {MAX_RANK}")
    rng = random.Random(seed)
    passed = 0
    failure = None
    for t in range(trials):
        if kind == "A":
            space = hyperbolic_space(n, -1)
            source = _random_nonzero_vector(rng, space.dim)
            produced = nesting_A(space, source)
            ok = verify_section("A", space, source, produced)
            witness = {"point": str(source)}
        elif kind == "B3":
            a = random_invertible_octonion(rng)
            x = random_null_octonion(rng)
            produced = nesting_B3(a, x)
            ok = verify_section("B3", a, x, produced)
            witness = {"anchor": str(a.coords), "point": str(x.coords)}
        elif kind == "D":
            space = hyperbolic_space(n, 1)
            vn = random_isotropic_basis(rng, n)
            v = random_anisotropic_vector(rng, space)
            produced = nesting_D(space, vn, v)
            ok = verify_section("D", space, (vn, v), produced)
            witness = {"vn": str(vn), "v": str(v)}
        else:
            raise UnsupportedInputError(f"unknown construction kind {kind!r}")
        if ok:
            passed += 1
        elif failure is None:
            failure = dict(witness, trial=str(t))
    return TrialReport(kind=kind, trials=trials, passed=passed, failure=failure)


def octonion_identity_trials(pairs: int, seed: int) -> TrialReport:
    """Seeded check of N(xy) = N(x)N(y) and x(xa) = (xx)a."""
    rng = random.Random(seed)
    passed = 0
    failure = None
    for t in range(pairs):
        x = random_gauss_octonion(rng)
        y = random_gauss_octonion(rng)
        norm_ok = (x * y).norm() == x.norm() * y.norm()
        alt_ok = x * (x * y) == (x * x) * y
        if norm_ok and alt_ok:
            passed += 1
        elif failure is None:
            failure = {"x": str(x.coords), "y": str(y.coords), "trial": str(t)}
    return TrialReport(kind="octonion", trials=pairs, passed=passed, failure=failure)
