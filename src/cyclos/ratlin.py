"""Exact rational linear algebra on small dense matrices.

Matrices are lists of rows of :class:`~fractions.Fraction`. Everything here
is deterministic: pivots are always chosen at the lowest row/column index, so
reduced forms (and hence canonical representatives) are reproducible.
:func:`rref` and :func:`reduce_mod_rows` work in integers and build
``Fraction``s once, for their results; the RREF of a rational matrix and the
reduction of a vector modulo it are unique, so they are what ``Fraction``
arithmetic gives.
"""

from __future__ import annotations

import math
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


def rref(a: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with lowest-index pivoting.

    Returns the reduced matrix, all ``len(a)`` rows with the zero rows after
    the pivot rows, and the list of pivot column indices.

    Fraction-free Gauss-Jordan (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968): each row is
    scaled to integers by the lcm of its denominators, which changes neither
    its span nor its zero entries, so pivots and swaps are those of a
    ``Fraction`` elimination. A row is eliminated by integer
    cross-multiplication and then divided by the gcd of its entries, which
    keeps its integers small. Pivot rows are divided by their pivots once,
    at the end.
    """
    m = []
    for row in a:
        q = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in q))
        m.append([x.numerator * (scale // x.denominator) for x in q])
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
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
    zero = Fraction(0)
    reduced = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(m, pivots)]
    reduced += [[zero] * n_cols for _ in range(n_rows - r)]
    return reduced, pivots


def solve_gaussian(a: Sequence[Sequence], b: Sequence) -> Row:
    """Solve a square nonsingular system exactly."""
    n = len(a)
    aug = [[*row, b[i]] for i, row in enumerate(a)]
    reduced, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular or inconsistent system")
    return [reduced[i][n] for i in range(n)]


def reduce_mod_rows(v: Sequence, rows: Sequence[Sequence], pivots: Sequence[int]) -> Row:
    """Canonical representative of ``v`` modulo the span of RREF ``rows``.

    Subtracting each pivot row zeroes the corresponding coordinate, which makes
    two vectors congruent mod the span iff their reductions are equal. An RREF
    row is zero on every other pivot column, so the coefficients are ``v``'s
    own pivot coordinates, and ``v`` is returned as ``Fraction``s when they are
    all zero.

    Otherwise ``v`` is held as integer numerators over one common denominator.
    Subtracting ``c / den`` times a row whose denominators have lcm ``d``
    scales the numerators by ``d``, subtracts ``c`` times the integer row and
    multiplies the denominator by ``d``; the gcd of the denominator and the
    numerators is then divided out. The ``Fraction``s are built once, at the
    end.
    """
    out = [Fraction(x) for x in v]
    if not any(out[pc] for pc in pivots):
        return out
    den = math.lcm(*(x.denominator for x in out))
    num = [x.numerator * (den // x.denominator) for x in out]
    for row, pc in zip(rows, pivots):
        c = num[pc]
        if c:
            d = math.lcm(*(y.denominator for y in row))
            num = [d * x - c * (y.numerator * (d // y.denominator)) for x, y in zip(num, row)]
            den *= d
            g = math.gcd(den, *num)
            if g > 1:
                num = [x // g for x in num]
                den //= g
    return [Fraction(x, den) for x in num]
