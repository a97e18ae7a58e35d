"""Exact dense linear algebra.

`fraction_free` is the package's one elimination kernel for rational
matrices: Bareiss forward elimination on int rows (Bareiss, Math. Comp. 22,
1968), every division exact and every entry an integer minor.  `rank`,
`determinant`, the Schur minors of `chern` and the graded slices of
`cohomology` all run on it, fed by `integer_rows`, which clears each row's
denominators.  `row_echelon`, `in_row_span` and `kernel_basis` stay
Gaussian elimination, for the constructions' canonical spans and kernels,
over rationals in `exactpoly`'s normal form or GaussRat; they divide through
`exactpoly._div`, so int rows stay exact instead of turning into floats.
Matrices are small lists of lists, and only zero entries are skipped.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .exactpoly import _div


def row_echelon(rows: Sequence[Sequence]) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot column list)."""
    mat = [list(r) for r in rows]
    pivots: List[int] = []
    if not mat:
        return [], pivots
    ncols = len(mat[0])
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, len(mat)):
            if mat[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        lead = mat[row][col]
        mat[row] = [_div(x, lead) if x else x for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b if b else a for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> List[list]:
    """Basis of the right null space {v : M v = 0} of a matrix with ncols columns."""
    echelon, pivots = row_echelon(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        v = [0] * ncols
        v[free] = 1
        for r, p in zip(echelon, pivots):
            v[p] = -r[free]
        basis.append(v)
    return basis


def in_row_span(echelon: Sequence[Sequence], pivots: Sequence[int], vector: Sequence) -> bool:
    """Whether `vector` lies in the row space described by a row_echelon result."""
    v = list(vector)
    for r, p in zip(echelon, pivots):
        if v[p] != 0:
            factor = v[p]
            v = [a - factor * b if b else a for a, b in zip(v, r)]
    return all(x == 0 for x in v)


def integer_rows(rows: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """Each int/Fraction row times the lcm of its denominators, and the
    product of those multipliers."""
    out = []
    scale = 1
    for row in rows:
        m = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (m // x.denominator) for x in row])
        scale *= m
    return out, scale


def fraction_free(mat: List[List[int]]) -> Tuple[int, int]:
    """Bareiss forward elimination of an int matrix, in place.

    Returns (rank, sign of the row permutation).  The k-th pivot row is left
    holding k x k minors; for a square matrix of full rank the last pivot is
    the determinant of the row-permuted matrix.
    """
    nrows = len(mat)
    k, sign, prev = 0, 1, 1
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(k, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        top = mat[k]
        piv = top[col]
        right = range(col + 1, len(top))
        for r in range(k + 1, nrows):
            row = mat[r]
            lead = row[col]
            if lead:
                for c in right:
                    row[c] = (row[c] * piv - lead * top[c]) // prev
                row[col] = 0
            elif piv != prev:
                for c in right:
                    row[c] = row[c] * piv // prev
        prev = piv
        k += 1
        if k == nrows:
            break
    return k, sign


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix of ints and Fractions."""
    return fraction_free(integer_rows(rows)[0])[0]


def determinant(rows: Sequence[Sequence]):
    """Determinant of a square matrix of ints and Fractions."""
    mat, scale = integer_rows(rows)
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant needs a square matrix")
    full, sign = fraction_free(mat)
    return Fraction(sign * mat[-1][-1], scale) if full == n else Fraction(0)
