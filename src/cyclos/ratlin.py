"""Exact rational linear algebra on small dense matrices.

Matrices are lists of rows of :class:`~fractions.Fraction`. Everything here
is deterministic: pivots are always chosen at the lowest row/column index, so
reduced forms (and hence canonical representatives) are reproducible.
The arithmetic runs in integers: each row is scaled by the lcm of its
denominators (plain ints are used as they are), and :func:`rref` and
:func:`solve_gaussian` share one fraction-free forward elimination that
clears only below each pivot. :func:`rref` then clears above each pivot in
one bottom-up pass of the same row operation; :func:`solve_gaussian`
back-substitutes in integers and returns integers over one denominator.
Only :func:`rref` builds ``Fraction``s, once, for its result. The RREF of a
rational matrix and the solution of a nonsingular system are unique, so
they are what ``Fraction`` arithmetic gives. A vector is reduced modulo a
span by ``chaincore.reduce_column``, not here.
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


def _combine(row: list[int], f: int, p: int, prow: list[int]) -> list[int]:
    """``p * row - f * prow``, divided by the gcd of its entries."""
    new = [p * x - f * y for x, y in zip(row, prow)]
    g = math.gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _eliminate(m: list[list[int]]) -> list[int]:
    """Fraction-free forward elimination on integer rows, in place (Bareiss,
    Math. Comp. 1968); returns the pivot columns. Each pivot is the lowest-index
    nonzero at or below the current row, and only the rows below it are
    cleared, by cross-multiplication and division by the gcd. Scaling keeps a
    row's span and zero entries, so the pivots are those of a ``Fraction``
    elimination, and rows past the last pivot are zero. :func:`rref` clears
    above the pivots afterwards; :func:`solve_gaussian` back-substitutes."""
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
        for i in range(r + 1, n_rows):
            if f := m[i][c]:
                m[i] = _combine(m[i], f, p, prow)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def rref(a: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with lowest-index pivoting: the reduced matrix,
    all ``len(a)`` rows with the zero rows last, and the pivot column indices.
    After :func:`_eliminate`, each pivot row from the last up clears its column
    in the rows above it, which leaves the later pivot columns zero there."""
    m = [_integers(row)[0] for row in a]
    pivots = _eliminate(m)
    for k in range(len(pivots) - 1, 0, -1):
        prow, c = m[k], pivots[k]
        for i in range(k):
            if f := m[i][c]:
                m[i] = _combine(m[i], f, prow[c], prow)
    zero = Fraction(0)
    reduced = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(m, pivots)]
    reduced += [[zero] * len(row) for row in m[len(pivots):]]
    return reduced, pivots


def solve_gaussian(a: Sequence[Sequence], b: Sequence) -> tuple[list[int], int]:
    """Solve a square nonsingular system exactly, as ``(x, den)``: unknown ``i``
    is ``x[i] / den``, and ``den > 0`` is the unknowns' least common denominator.

    After :func:`_eliminate` the rows are upper triangular. Back-substitution
    keeps the unknowns found so far as integers over that denominator."""
    n = len(a)
    m = [_integers([*row, b[i]])[0] for i, row in enumerate(a)]
    pivots = _eliminate(m)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular or inconsistent system")
    x = [0] * n  # x[j] / den is unknown j, for j past the current row
    den = 1
    for i in range(n - 1, -1, -1):
        row = m[i]
        # unknown i is num / (row[i] * den), reduced to num / q
        num = row[n] * den - sum(row[j] * x[j] for j in range(i + 1, n) if row[j])
        q = row[i] * den
        g = math.gcd(num, q)
        num, q = num // g, q // g
        lcm = math.lcm(den, q)  # positive, and a multiple of q whatever its sign
        if lcm != den:
            x = [v * (lcm // den) for v in x]
            den = lcm
        x[i] = num * (den // q)
    return x, den
