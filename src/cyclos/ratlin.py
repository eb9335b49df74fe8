"""Exact rational linear algebra on small dense matrices.

Matrices are lists of rows of :class:`~fractions.Fraction`. Everything here
is deterministic: pivots are always chosen at the lowest row/column index, so
reduced forms (and hence canonical representatives) are reproducible.
The arithmetic runs in integers: each row is scaled by the lcm of its
denominators (plain ints are used as they are), :func:`rref` and
:func:`solve_gaussian` share one fraction-free elimination, and
``Fraction``s are built once, for the results. The RREF of a rational
matrix and the solution of a nonsingular system are unique, so they are what
``Fraction`` arithmetic gives. A vector is reduced modulo a span by
``chaincore.reduce_column``, not here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = list[Fraction]
Matrix = list[Row]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    n_inner = len(b)
    n_cols = len(b[0]) if b else 0
    out = [[Fraction(0)] * n_cols for _ in a]
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


def _integers(row: Sequence) -> tuple[list[int], int]:
    """``row`` as integer numerators over the lcm of its denominators."""
    if all(type(x) is int for x in row):
        return list(row), 1
    q = [x if type(x) is Fraction else Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in q))
    return [x.numerator * (den // x.denominator) for x in q], den


def _eliminate(m: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place (Bareiss, Math.
    Comp. 1968); returns the pivot columns. Scaling keeps a row's span and zero
    entries, so the pivots are those of a ``Fraction`` elimination. A row is
    eliminated by cross-multiplication and divided by the gcd of its entries;
    pivot row ``i`` divided by its pivot is RREF row ``i``."""
    n_rows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(n_rows):
            f = m[i][c]
            if i != r and f:
                new = [p * x - f * y for x, y in zip(m[i], prow)]
                g = math.gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def rref(a: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with lowest-index pivoting: the reduced matrix,
    all ``len(a)`` rows with the zero rows last, and the pivot column indices."""
    m = [_integers(row)[0] for row in a]
    pivots = _eliminate(m)
    zero = Fraction(0)
    reduced = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(m, pivots)]
    reduced += [[zero] * len(row) for row in m[len(pivots):]]
    return reduced, pivots


def solve_gaussian(a: Sequence[Sequence], b: Sequence) -> Row:
    """Solve a square nonsingular system exactly."""
    n = len(a)
    m = [_integers([*row, b[i]])[0] for i, row in enumerate(a)]
    pivots = _eliminate(m)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular or inconsistent system")
    return [Fraction(row[n], row[i]) for i, row in enumerate(m)]
