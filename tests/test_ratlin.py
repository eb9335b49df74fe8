"""Integer elimination in ``ratlin`` and reduction modulo a span in
``chaincore`` against the ``Fraction`` loops they replaced.

The RREF of a rational matrix is unique and both eliminations pick the
lowest-index pivot, so ``rref`` must return exactly what the reference
returns: the same ``Fraction`` rows, zero rows included, and the same pivots.
A vector's reduction modulo a span, zero at the pivots, is unique too, so
``chaincore.reduce_fractions`` must return the reference's ``Fraction``s.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclos import cech, chaincore, ratlin


def reference_rref(a):
    """Gauss-Jordan in ``Fraction``s with lowest-index pivoting."""
    m = [list(map(Fraction, row)) for row in a]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots = []
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


def reference_reduce_mod_rows(v, rows, pivots):
    """Subtract each pivot row in ``Fraction``s."""
    out = [Fraction(x) for x in v]
    for row, pc in zip(rows, pivots):
        coeff = out[pc]
        if coeff != 0:
            out = [x - coeff * y for x, y in zip(out, row)]
    return out


def reference_reduce_fractions(values, owners):
    """``reference_reduce_mod_rows`` on owners that are RREF rows as integer
    columns, entry ``k`` at position ``-k`` and each kept at minus its pivot."""
    pivots = sorted(-low for low in owners)
    rows = [[Fraction(owners[-pc].get(-k, 0), owners[-pc][-pc]) for k in range(len(values))]
            for pc in pivots]
    return reference_reduce_mod_rows(values, rows, pivots)


def integer_column(row):
    """A rational row as (position, entry) pairs, entry ``k`` at position
    ``-k``, scaled to integers by the lcm of its denominators."""
    q = [Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in q))
    return [(-k, int(x * den)) for k, x in enumerate(q)]


def reduced_owners(rows):
    """Each row reduced in turn by ``reduce_column`` and kept at its low."""
    owners = {}
    for row in rows:
        column = chaincore.reduce_column(integer_column(row), owners)
        if column:
            owners[max(column)] = column
    return owners


def reference_solve_gaussian(a, b):
    """Solution of a square nonsingular system by :func:`reference_rref`."""
    n = len(a)
    reduced, pivots = reference_rref([[*row, b[i]] for i, row in enumerate(a)])
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular or inconsistent system")
    return [reduced[i][n] for i in range(n)]


SMALL_INTS = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
SMALL_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)
# floats k / 2**53, exact, so their Fractions carry denominators up to 2**53
FLOAT_53 = st.integers(-2**53, 2**53).map(lambda k: Fraction(k / 2**53))
FLOATS = st.floats(-1e6, 1e6, allow_subnormal=False).map(Fraction)
ENTRIES = st.one_of(SMALL_INTS, SMALL_RATIONALS, FLOAT_53, FLOATS)


@st.composite
def dense_matrices(draw):
    """Rows of one entry kind, with some rows zeroed: any shape up to 7 x 7,
    including no rows, one row, zero columns and more rows than columns."""
    n_rows, n_cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = draw(st.sampled_from([SMALL_INTS, SMALL_RATIONALS, FLOAT_53, FLOATS, ENTRIES]))
    rows = draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    zeroed = draw(st.sets(st.integers(0, max(n_rows - 1, 0))))
    return [[0] * n_cols if i in zeroed else row for i, row in enumerate(rows)]


@st.composite
def rank_deficient(draw):
    """Products L R of n x k and k x m factors with k below both sizes."""
    n_rows, n_cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    k = draw(st.integers(0, min(n_rows, n_cols) - 1))
    entries = draw(st.sampled_from([SMALL_INTS, SMALL_RATIONALS, FLOAT_53]))
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                         min_size=n_rows, max_size=n_rows))
    right = draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols),
                          min_size=k, max_size=k))
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*right)] if k else [0] * n_cols for row in left]


def laplacian(n, edges):
    """Integer graph Laplacian of a multigraph on vertices 0..n-1."""
    lap = [[0] * n for _ in range(n)]
    for t, h in edges:
        if t != h:
            lap[t][t] += 1
            lap[h][h] += 1
            lap[t][h] -= 1
            lap[h][t] -= 1
    return lap


@st.composite
def laplacians(draw):
    """Laplacians of multigraphs, full (singular) or grounded at vertex 0."""
    n = draw(st.integers(1, 9))
    ends = st.integers(0, n - 1)
    lap = laplacian(n, draw(st.lists(st.tuples(ends, ends), max_size=3 * n)))
    return [row[1:] for row in lap[1:]] if draw(st.booleans()) else lap


@settings(max_examples=600, deadline=None)
@given(st.one_of(dense_matrices(), rank_deficient(), laplacians()))
def test_rref_matches_fraction_elimination(a):
    reduced, pivots = ratlin.rref(a)
    assert (reduced, pivots) == reference_rref(a)
    assert all(type(x) is Fraction for row in reduced for x in row)


@st.composite
def square_systems(draw):
    """A square system A x = b: A dense with one entry kind, or the Laplacian
    of a connected multigraph grounded at vertex 0, so nonsingular."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entries = draw(st.sampled_from([SMALL_INTS, SMALL_RATIONALS, FLOAT_53, FLOATS]))
        a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        ends = st.integers(0, n)
        path = [(v, v + 1) for v in range(n)]
        lap = laplacian(n + 1, path + draw(st.lists(st.tuples(ends, ends), max_size=2 * n)))
        a = [row[1:] for row in lap[1:]]
    # all-int right-hand sides too, which with an integer A skip Fractions
    rhs = draw(st.sampled_from([ENTRIES, SMALL_INTS, st.integers(-10**6, 10**6)]))
    return a, draw(st.lists(rhs, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(square_systems())
def test_solve_gaussian_matches_reference(system):
    a, b = system
    assume(len(reference_rref(a)[1]) == len(a))
    numerators, den = ratlin.solve_gaussian(a, b)
    want = reference_solve_gaussian(a, b)
    assert [Fraction(x, den) for x in numerators] == want
    assert all(type(x) is int for x in numerators)
    # the least common denominator, which project_to_cycles relies on
    assert den == math.lcm(*(x.denominator for x in want))


def test_forward_pass_swaps_past_a_zero_leading_entry():
    a, b = [[0, 2, 1], [3, 1, 0], [1, 0, 1]], [1, 2, Fraction(1, 2)]
    assert ratlin.rref(a) == reference_rref(a)
    numerators, den = ratlin.solve_gaussian(a, b)
    assert [Fraction(x, den) for x in numerators] == reference_solve_gaussian(a, b)


@pytest.mark.parametrize("b", [[1, 2, 3], [1, 3, 3]], ids=["consistent", "inconsistent"])
def test_singular_square_system_raises(b):
    with pytest.raises(ValueError):
        ratlin.solve_gaussian([[1, 2, 0], [2, 4, 0], [0, 0, 1]], b)


@st.composite
def vectors_and_reducers(draw):
    """A vector, a drawn matrix and the pivot rows and pivots of its
    ``reference_rref``: no rows, zero rows, full rank (every vector reduces
    to zero) or rank deficient, and vectors with zero and nonzero pivot
    coordinates."""
    a = draw(st.one_of(dense_matrices(), rank_deficient()))
    n_cols = len(a[0]) if a else draw(st.integers(0, 7))
    if draw(st.booleans()):
        # full rank: append the identity, so the rows span every vector
        a = [*a, *([int(i == j) for j in range(n_cols)] for i in range(n_cols))]
    reduced, pivots = reference_rref(a)
    entries = draw(st.sampled_from([SMALL_INTS, SMALL_RATIONALS, FLOAT_53, FLOATS, ENTRIES]))
    v = draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
    zeroed = draw(st.sets(st.sampled_from(pivots)) if pivots else st.just(set()))
    v = [0 if i in zeroed else x for i, x in enumerate(v)]
    return v, a, reduced[: len(pivots)], pivots


@settings(max_examples=400, deadline=None)
@given(vectors_and_reducers())
def test_reduce_fractions_matches_fraction_subtraction(case):
    v, a, rows, pivots = case
    expected = reference_reduce_mod_rows(v, rows, pivots)
    # owners as cech keeps them, the RREF rows, and as chaincore keeps them,
    # the matrix rows reduced in turn, whose lows are then the RREF pivots
    rref_owners = {-pc: {k: x for k, x in integer_column(row) if x}
                   for row, pc in zip(rows, pivots)}
    column_owners = reduced_owners(a)
    assert sorted(-low for low in column_owners) == pivots
    for owners in (rref_owners, column_owners):
        got = chaincore.reduce_fractions(v, owners)
        assert got == expected
        assert all(type(x) is Fraction for x in got)
        if len(pivots) == len(v):
            assert not any(got)


def test_colimit_on_a_path_cover_matches_the_reference(monkeypatch):
    # a path nerve 0 - 1 - 2 has no monodromy: the relations leave one copy of
    # the stalk, so consistent co-sections reduce to one nonzero representative
    rng = np.random.default_rng(0)
    cover = cech.Cover(range(4), [{0, 1}, {1, 2}, {2, 3}])
    extensions = {edge: (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
                  for edge in ((0, 1), (1, 2))}
    y = rng.normal(size=2)
    into_0, into_1 = extensions[(0, 1)]
    into_1b, into_2 = extensions[(1, 2)]
    g_1 = into_1 @ y
    cosections = [into_0 @ y, g_1, into_2 @ np.linalg.solve(into_1b, g_1)]
    cosheaf = cech.CosheafData.build(cosections, extensions)
    result = cech.cosheaf_colimit(cosheaf, cover)
    monkeypatch.setattr(ratlin, "rref", reference_rref)
    monkeypatch.setattr(cech, "reduce_fractions", reference_reduce_fractions)
    expected = cech.cosheaf_colimit(cosheaf, cover)
    assert isinstance(result, cech.ColimitElement)
    assert any(result.representative)
    assert result == expected
