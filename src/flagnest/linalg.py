"""Exact dense linear algebra over any exact field.

Field elements only need +, -, *, / and equality against 0/1 (Fraction and
GaussRat both qualify).  Plain ints do not: ``int / int`` is a float.  The
polynomial layer keeps coefficients as int where integral and Fraction
otherwise, never float, so a caller that feeds polynomial coefficients in
(the graded-slice rows of ``cohomology``) converts them to Fraction first.
Everything works on plain lists of lists; matrices are small throughout the
package, so no effort is spent on sparsity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


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
        mat[row] = [x / lead for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def kernel_basis(
    rows: Sequence[Sequence],
    ncols: Optional[int] = None,
    zero=Fraction(0),
    one=Fraction(1),
) -> List[list]:
    """Basis of the right null space {v : M v = 0}."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(rows[0])
    echelon, pivots = row_echelon(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        v = [zero] * ncols
        v[free] = one
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
            v = [a - factor * b for a, b in zip(v, r)]
    return all(x == 0 for x in v)


def determinant(rows: Sequence[Sequence]):
    """Determinant by fraction-free-ish elimination with exact division."""
    mat = [list(r) for r in rows]
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant needs a square matrix")
    det = None
    sign = 1
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if mat[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return mat[0][0] * 0
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            sign = -sign
        lead = mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
        det = lead if det is None else det * lead
    return -det if sign < 0 else det
