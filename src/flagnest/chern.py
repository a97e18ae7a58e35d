"""Numeric Chern data on Picard-rank-one varieties.

A bundle's Chern classes against powers of the ample generator form a short
vector of exact rationals.  Nefness forces every Schur minor of that vector
to be nonnegative; the full battery of those inequalities is strong enough
to cut the integer factorizations of 1 - t^k into a pair of such vectors
down to a handful of families, which is what the obstruction pipelines
consume.

`nef_feasible` evaluates all those minors of one vector in a single pass:
each Jacobi-Trudi determinant is expanded along its first column into
minors with one part fewer (Macdonald, Symmetric Functions and Hall
Polynomials, ch. I), in exact ints for integral vectors, and each length
is built from the nonzero minors of the previous one alone.  One negative
minor refutes nefness (Fulton-Lazarsfeld 1983); the reported witness is
recomputed as a direct Bareiss determinant by `schur_minor` and must agree.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import attrgetter
from typing import List, Optional, Tuple

from . import linalg
from .errors import InternalInconsistencyError, UnsupportedInputError, Value
from .exactpoly import Scalar, UniPoly, _as_rational, exact_div

Partition = Tuple[int, ...]


def partition_str(lam: Partition) -> str:
    return "(" + ",".join(str(p) for p in lam) + ")"


def _check_partition(lam: Partition) -> None:
    if any(p <= 0 for p in lam):
        raise UnsupportedInputError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise UnsupportedInputError(f"partition must be weakly decreasing: {lam}")


class ChernVector(Value):
    """Entries (E_0=1, E_1, ..., E_r) against H^i on a dim-`ambient_dim` base.

    Entries are kept in exactpoly's normal form, an int where integral and a
    Fraction otherwise, so an integral vector runs in int arithmetic.
    """

    _compared = attrgetter("entries", "ambient_dim")

    def __init__(self, entries: Tuple[Scalar, ...], ambient_dim: int):
        ent = tuple(_as_rational(e) for e in entries)
        if not ent:
            raise UnsupportedInputError("Chern vector needs at least E_0")
        if ent[0] != 1:
            raise UnsupportedInputError(f"E_0 must be 1, got {ent[0]}")
        if ambient_dim < 0:
            raise UnsupportedInputError("ambient dimension must be nonnegative")
        if len(ent) - 1 > ambient_dim:
            raise UnsupportedInputError(
                f"vector of length {len(ent) - 1} does not fit ambient dimension "
                f"{ambient_dim}"
            )
        self._store(entries=ent, ambient_dim=ambient_dim)

    @property
    def r(self) -> int:
        return len(self.entries) - 1

    @property
    def integral(self) -> bool:
        return all(type(e) is int for e in self.entries)

    @property
    def effective_degree(self) -> int:
        """Largest index with a nonzero entry (0 for the trivial vector)."""
        for i in range(self.r, -1, -1):
            if self.entries[i] != 0:
                return i
        return 0

    def entry(self, i: int) -> Scalar:
        if 0 <= i < len(self.entries):
            return self.entries[i]
        return 0

    def __str__(self):
        return "[%s]@dim%d" % (",".join(str(e) for e in self.entries), self.ambient_dim)


def chern_from_poly(p: UniPoly, ambient_dim: int) -> ChernVector:
    """View a Chern polynomial (constant term 1) as a ChernVector."""
    return ChernVector(p.coeffs or (1,), ambient_dim)


def schur_minor(c: ChernVector, lam: Partition) -> Fraction:
    """The t x t determinant with (i, j) entry E_{lam_i - i + j} (1-based)."""
    _check_partition(lam)
    if sum(lam) > c.ambient_dim:
        raise UnsupportedInputError(
            f"partition weight {sum(lam)} exceeds ambient dimension {c.ambient_dim}"
        )
    t = len(lam)
    if t == 0:
        return Fraction(1)
    mat, scale = linalg.integer_rows(
        [[c.entry(lam[i] - (i + 1) + (j + 1)) for j in range(t)] for i in range(t)]
    )
    full, sign = linalg.fraction_free(mat)
    return Fraction(sign * mat[-1][-1], scale) if full == t else Fraction(0)


class NefResult(Value):
    _compared = attrgetter("feasible", "witness", "value")

    def __init__(
        self, feasible: bool, witness: Optional[Partition] = None, value: Optional[Fraction] = None
    ):
        self._store(feasible=feasible, witness=witness, value=value)

    def __bool__(self):
        return self.feasible


def _order_key(lam: Partition) -> Tuple[int, Tuple[int, ...]]:
    """Weight ascending, then reverse lexicographic within a weight."""
    return sum(lam), tuple(-p for p in lam)


@functools.cache
def nef_feasible(c: ChernVector) -> NefResult:
    """Check S_lam >= 0 for every partition lam of weight <= ambient_dim.

    Partitions with a part above the effective degree are skipped: their
    Schur matrix has an all-zero first row, so the minor vanishes exactly.

    The minors come from one pass over partition length t = 1, 2, ...,
    expanding each Jacobi-Trudi determinant along its first column:
    S_lam = sum_k (-1)^k E_{lam_k - k} S_{lam^(k)} (0-based k), where
    lam^(k) = (lam_0 + 1, ..., lam_{k-1} + 1, lam_{k+1}, ...) has t - 1
    parts and, whenever E_{lam_k - k} is nonzero, weight <= |lam|.  A term
    is nonzero only when its child lam^(k) is a nonzero minor of the
    previous length, so each level is built by inverting lam -> lam^(k)
    over those minors alone: from mu and k, lam = (mu_0 - 1, ...,
    mu_{k-1} - 1, x, mu_k, ...) with mu_{k-1} - 1 >= x >= mu_k, and each
    such (mu, k, x) adds its one term to S_lam.  Only the nonzero sums are
    kept, so a level holds the nonzero minors of one length, not every
    partition.  Integral vectors run in int arithmetic.

    On failure the first violating partition in ascending weight, then
    reverse lexicographic order, is reported.
    Its minor is recomputed as a direct determinant by `schur_minor`, which
    must agree with the recursion, so every refutation is self-checking.
    """
    cap = c.effective_degree
    e = c.entries[: cap + 1]
    max_weight = c.ambient_dim if cap else 0
    witness: Optional[Partition] = None
    found = 0
    prev = {(): 1}
    t = 0
    while prev and t < max_weight:
        t += 1
        sums = {}
        for mu, sub in prev.items():
            room = max_weight - sum(mu)  # weight left for x - k
            head: Partition = ()
            upper = cap
            sign = 1
            for k in range(t):
                lower = mu[k] if k < t - 1 else 1
                if lower < k:
                    lower = k  # E_{x - k} needs x >= k
                top = min(upper, room + k)
                for x in range(lower, top + 1):
                    coeff = e[x - k]
                    if coeff:
                        lam = head + (x,) + mu[k:]
                        sums[lam] = sums.get(lam, 0) + sign * coeff * sub
                if k == t - 1:
                    break
                upper = mu[k] - 1
                if upper < k + 1:
                    break  # mu_k - 1 - k only decreases from here on
                head += (upper,)
                sign = -sign
        level = {}
        for lam, val in sums.items():
            if val:
                level[lam] = val
                if val < 0 and (witness is None or _order_key(lam) < _order_key(witness)):
                    witness, found = lam, val
        if witness is not None:
            max_weight = sum(witness)
        prev = level
    if witness is None:
        return NefResult(True)
    direct = schur_minor(c, witness)
    if direct != found or not direct < 0:
        raise InternalInconsistencyError(
            f"Schur minor of {c} at {partition_str(witness)}: recursion gave "
            f"{found}, determinant gave {direct}"
        )
    return NefResult(False, witness, direct)


def schwarzenberger_s33(c: ChernVector) -> bool:
    """Parity condition E_1 * E_2 == E_3 (mod 2) for rank >= 3 on dim >= 3."""
    if not c.integral:
        raise UnsupportedInputError("parity condition needs an integral vector")
    if c.r < 3:
        raise UnsupportedInputError("parity condition needs entries through E_3")
    if c.ambient_dim < 3:
        raise UnsupportedInputError("parity condition needs ambient dimension >= 3")
    e1, e2, e3 = int(c.entries[1]), int(c.entries[2]), int(c.entries[3])
    return (e1 * e2 - e3) % 2 == 0


@functools.cache
def cyclotomic(d: int) -> UniPoly:
    """The d-th cyclotomic polynomial, by recursive exact division."""
    if d < 1:
        raise UnsupportedInputError("cyclotomic index must be positive")
    num = UniPoly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = exact_div(num, cyclotomic(e))
            if num is None:
                raise InternalInconsistencyError(f"cyclotomic division failed at {d}")
    return num


@functools.cache
def factor_unit_minus_tk(k: int, ambient_dim: int) -> Tuple[Tuple[UniPoly, UniPoly], ...]:
    """All pairs (P_E, P_F) with P_E(t) * P_F(-t) = 1 - t^k, both plausibly nef.

    1 - t^k factors over the integers as (1 - t) times the cyclotomic
    polynomials of the divisors d > 1 of k, so every integer factorization
    is a subset split of that list.  Each split is kept when both sides have
    nonnegative coefficients, fit the ambient dimension, and pass the full
    Schur-minor check.  Pairs come back sorted by coefficient tuples.
    """
    if not 2 <= k <= ambient_dim + 1:
        raise UnsupportedInputError(
            f"k must satisfy 2 <= k <= ambient_dim + 1, got k={k}, "
            f"ambient_dim={ambient_dim}"
        )
    factors = [UniPoly([1, -1])]
    for d in range(2, k + 1):
        if k % d == 0:
            factors.append(cyclotomic(d))
    # prods[mask] is the product of the factors whose bits are set in mask,
    # each built from the one with its lowest bit cleared
    prods = [UniPoly([1])]
    for mask in range(1, 1 << len(factors)):
        low = mask & -mask
        prods.append(prods[mask ^ low] * factors[low.bit_length() - 1])
    full = len(prods) - 1
    if prods[full] != UniPoly([1] + [0] * (k - 1) + [-1]):
        raise InternalInconsistencyError(f"cyclotomic product mismatch for k={k}")
    pairs: List[Tuple[UniPoly, UniPoly]] = []
    for mask, pe in enumerate(prods):
        pf = prods[full ^ mask].substitute_neg()
        if any(coef < 0 for coef in pe.coeffs) or any(coef < 0 for coef in pf.coeffs):
            continue
        if pe.degree > ambient_dim or pf.degree > ambient_dim:
            continue
        if not nef_feasible(chern_from_poly(pe, ambient_dim)):
            continue
        if not nef_feasible(chern_from_poly(pf, ambient_dim)):
            continue
        pairs.append((pe, pf))
    return tuple(sorted(pairs, key=lambda pq: (pq[0].coeffs, pq[1].coeffs)))
