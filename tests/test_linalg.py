"""Exact linear algebra: echelon form, rank, kernels, span membership, and
determinants.  The fraction-free determinant is cross-checked against a
cofactor-expansion oracle, its rank against the echelon form over Fractions."""

import random
from fractions import Fraction

from flagnest.exactpoly import GaussRat
from flagnest.linalg import determinant, in_row_span, kernel_basis, rank, row_echelon


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * Fraction(m[0][j]) * cofactor_det(minor)
    return total


def test_determinant_against_cofactor_oracle():
    rng = random.Random(20240814)
    entries = (
        lambda: Fraction(rng.randint(-4, 4)),
        lambda: rng.randint(-4, 4),
        lambda: Fraction(rng.randint(-8, 8), 2),
    )
    for entry in entries:
        for _ in range(200):
            n = rng.randint(1, 5)
            m = [[entry() for _ in range(n)] for _ in range(n)]
            assert determinant(m) == cofactor_det(m), m


def test_determinant_identity_and_swap():
    ident = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert determinant(ident) == 1
    swapped = [ident[1], ident[0], ident[2], ident[3]]
    assert determinant(swapped) == -1


def test_row_echelon_and_rank():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    ech, pivots = row_echelon(rows)
    assert pivots == [0, 1]
    assert len(ech) == 2
    # int rows stay exact: a division that does not come out even is a Fraction
    int_rows = [[2, 1, 4], [4, 2, 6], [0, 3, 1]]
    ech, pivots = row_echelon(int_rows)
    assert pivots == [0, 1, 2]
    assert ech == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert row_echelon([[2, 1]])[0] == [[1, Fraction(1, 2)]]
    for rows in (int_rows, [[2, 1]], [[3, 6, 1], [1, 2, 5]]):
        assert not any(isinstance(x, float) for row in row_echelon(rows)[0] for x in row)


def test_rank_against_echelon_form():
    rng = random.Random(1968)
    for _ in range(2000):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        zero_cols = set(rng.sample(range(ncols), rng.randint(0, ncols - 1)))
        rows = []
        for _ in range(nrows):
            if rows and rng.random() < 0.3:
                # a combination of earlier rows
                a, b = rng.choice(rows), rng.choice(rows)
                k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                rows.append([x + k * y for x, y in zip(a, b)])
            else:
                rows.append([
                    0 if c in zero_cols
                    else rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
                    for c in range(ncols)
                ])
        expected = len(row_echelon([[Fraction(x) for x in row] for row in rows])[0])
        assert rank(rows) == expected, rows


def test_in_row_span():
    rows = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(2)]]
    ech, pivots = row_echelon(rows)
    assert in_row_span(ech, pivots, [Fraction(2), Fraction(3), Fraction(8)])
    assert not in_row_span(ech, pivots, [Fraction(0), Fraction(0), Fraction(1)])


def test_kernel_basis_annihilates():
    rng = random.Random(7)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        ints = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        for rows in (ints, [[Fraction(x) for x in row] for row in ints]):
            basis = kernel_basis(rows, ncols=ncols)
            assert len(basis) == ncols - len(row_echelon(rows)[0])
            for vec in basis:
                assert not any(isinstance(x, float) for x in vec)
                assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


def test_kernel_basis_over_gaussian_rationals():
    i = GaussRat(0, 1)
    one = GaussRat(1)
    rows = [[one, i]]
    basis = kernel_basis(rows, ncols=2)
    assert len(basis) == 1
    vec = basis[0]
    assert (vec[0] + i * vec[1]).is_zero()
