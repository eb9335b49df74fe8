"""Exact rational linear algebra on small dense matrices.

Matrices are lists of rows of :class:`~fractions.Fraction`. Everything here
is deterministic: pivots are always chosen at the lowest row/column index, so
reduced forms (and hence canonical representatives) are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]
Matrix = list[Row]


def zeros(n_rows: int, n_cols: int) -> Matrix:
    return [[Fraction(0)] * n_cols for _ in range(n_rows)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    n_inner = len(b)
    n_cols = len(b[0]) if b else 0
    out = zeros(len(a), n_cols)
    for i, row in enumerate(a):
        for k in range(n_inner):
            aik = row[k]
            if aik == 0:
                continue
            b_row = b[k]
            out_row = out[i]
            for j in range(n_cols):
                out_row[j] += aik * b_row[j]
    return out


def transpose(a: Sequence[Sequence]) -> Matrix:
    if not a:
        return []
    return [[Fraction(a[i][j]) for i in range(len(a))] for j in range(len(a[0]))]


def is_zero_matrix(a: Sequence[Sequence]) -> bool:
    return all(entry == 0 for row in a for entry in row)


def rref(a: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with lowest-index pivoting.

    Returns the reduced matrix and the list of pivot column indices.
    """
    m = [list(map(Fraction, row)) for row in a]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [entry / inv for entry in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(a: Sequence[Sequence]) -> int:
    return len(rref(a)[1])


def solve_gaussian(a: Sequence[Sequence], b: Sequence) -> Row:
    """Solve a square nonsingular system exactly."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    reduced, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular or inconsistent system")
    return [reduced[i][n] for i in range(n)]


def column_space_rows(a: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """RREF rows spanning the column space of ``a`` (computed on transpose)."""
    reduced, pivots = rref(transpose(a))
    rows = [row for row in reduced[: len(pivots)]]
    return rows, pivots


def reduce_mod_rows(v: Sequence, rows: Sequence[Sequence], pivots: Sequence[int]) -> Row:
    """Canonical representative of ``v`` modulo the span of RREF ``rows``.

    Subtracting each pivot row zeroes the corresponding coordinate, which makes
    two vectors congruent mod the span iff their reductions are equal.
    """
    out = [Fraction(x) for x in v]
    for row, pc in zip(rows, pivots):
        coeff = out[pc]
        if coeff != 0:
            out = [x - coeff * y for x, y in zip(out, row)]
    return out
