"""Chain-complex construction, boundaries, cycle spaces, homology classes.

Rank/dimension expectations are checked against an independent numpy oracle
(float SVD rank), never against the package's own rational elimination.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclos import chaincore, ratlin
from cyclos.chaincore import Chain1, ChainComplex
from cyclos.errors import ClosureError, CyclosError, MalformedChainError, PreconditionError
from test_ratlin import reference_reduce_mod_rows, reference_solve_gaussian


def triangle_complex(filled=False):
    tris = [(0, 1, 2)] if filled else []
    return ChainComplex([0, 1, 2], [(0, 1), (1, 2), (2, 0)], tris)


def theta_graph():
    # two vertices joined by three parallel-ish paths collapsed to multi-edges
    return ChainComplex([0, 1], [(0, 1), (0, 1), (1, 0)])


def cycle_basis(cx):
    """Fundamental cycles of the lexicographic-minimum spanning forest."""
    return [cx.fundamental_cycle(j) for j in cx._nontree_edges]


def incidence(cx):
    """Dense vertex-by-edge boundary1 matrix, built from the simplex lists."""
    index = {v: i for i, v in enumerate(cx.vertices)}
    mat = np.zeros((len(cx.vertices), len(cx.edges)), dtype=int)
    for j, (tail, head) in enumerate(cx.edges):
        mat[index[head], j] += 1
        mat[index[tail], j] -= 1
    return mat


def dense_boundary2(cx):
    """Dense edge-by-triangle matrix of the complex's sparse boundary2."""
    mat = np.zeros((len(cx.edges), len(cx.triangles)), dtype=int)
    for t, faces in enumerate(cx.boundary2):
        for j, sign in faces:
            mat[j, t] += sign
    return mat


def triangle_boundary(cx, t):
    """Boundary of triangle t as a 1-chain."""
    return Chain1.from_dict(dict(enumerate(dense_boundary2(cx)[:, t].tolist())))


def dd(cx):
    """The dense product boundary1 . boundary2 as a vertex-by-triangle array."""
    return incidence(cx) @ dense_boundary2(cx)


def same_class(z1, z2, cx):
    return chaincore.homology_class(z1, cx) == chaincore.homology_class(z2, cx)


def chain_sum(a, b):
    """The sum of two 1-chains."""
    total = a.as_dict()
    for j, c in b.coefficients:
        total[j] = total.get(j, 0) + c
    return Chain1.from_dict(total)


def random_multigraph(rng, max_vertices=12):
    n = rng.randint(1, max_vertices)
    n_edges = rng.randint(0, 2 * n)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n_edges)]
    edges = [(t, h) for t, h in edges if t != h]
    return ChainComplex(list(range(n)), edges)


def random_two_complex(rng, max_vertices=12):
    n = rng.randint(3, max_vertices)
    edges = set()
    for _ in range(rng.randint(n, 3 * n)):
        t, h = rng.randrange(n), rng.randrange(n)
        if t != h:
            edges.add((min(t, h), max(t, h)))
    edges = sorted(edges)
    edge_set = set(edges)
    triangles = []
    for _ in range(rng.randint(0, n)):
        a, b, c = sorted(rng.sample(range(n), 3))
        if {(a, b), (b, c), (a, c)} <= edge_set:
            triangles.append((a, b, c))
    return ChainComplex(list(range(n)), edges, triangles)


@st.composite
def multigraph_chains(draw, max_vertices=7):
    """Multigraph with self-loops, parallel edges, isolated vertices and a
    shuffled vertex list, plus a chain with rational coefficients (maybe empty)."""
    n = draw(st.integers(0, max_vertices))
    vertices = draw(st.permutations(range(n)))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * max_vertices)) if n else []
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    chain = draw(st.dictionaries(st.integers(0, len(edges) - 1), coeff)) if edges else {}
    return ChainComplex(vertices, edges), Chain1.from_dict(chain)


@st.composite
def two_complex_parts(draw, max_vertices=4):
    """Vertices, edges and triangles on a few vertices: parallel and reversed
    edges, self-loops, and triangle sides that may have no edge at all."""
    n = draw(st.integers(1, max_vertices))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=12))
    triangles = draw(st.lists(st.tuples(ends, ends, ends), max_size=4))
    return list(range(n)), edges, triangles


def reference_side(edges, tail, head):
    """(edge index, sign) of the lowest-index edge matching a side up to
    orientation, found by scanning the edge list; None if there is none."""
    for k, edge in enumerate(edges):
        if edge in ((tail, head), (head, tail)):
            return k, 1 if edge == (tail, head) else -1
    return None


def reference_boundary2(edges, triangles):
    """Each triangle's faces b->c, c->a, a->b resolved by ``reference_side``;
    None if a side has no edge."""
    out = tuple(tuple(reference_side(edges, *side) for side in ((b, c), (c, a), (a, b)))
                for a, b, c in triangles)
    return None if any(None in faces for faces in out) else out


def first_missing_side(edges, triangles):
    """The first side with no edge, in triangle order and in the order a->b,
    b->c, c->a within a triangle."""
    return next(side for a, b, c in triangles for side in ((a, b), (b, c), (c, a))
                if reference_side(edges, *side) is None)


def reference_boundary1(chain, cx):
    """The ``Fraction`` loop ``boundary1`` replaced: two additions per edge."""
    out = {}
    for idx, coeff in chain.coefficients:
        tail, head = cx.edges[idx]
        out[head] = out.get(head, Fraction(0)) + coeff
        out[tail] = out.get(tail, Fraction(0)) - coeff
    return {v: c for v, c in out.items() if c != 0}


def reference_project_to_cycles(chain, cx):
    """Projection by the cycle-basis normal equations (B^T B) x = B^T c, then
    B x, solved by the test-local ``Fraction`` elimination."""
    basis = cycle_basis(cx)
    if not basis:
        return Chain1.from_dict({})
    cols = [[Fraction(0)] * len(basis) for _ in cx.edges]
    for b, cyc in enumerate(basis):
        for e, coeff in cyc.coefficients:
            cols[e][b] = coeff
    lookup = chain.as_dict()
    c = [lookup.get(e, Fraction(0)) for e in range(len(cx.edges))]
    bt = list(zip(*cols))
    gram = ratlin.mat_mul(bt, cols)
    rhs = [sum((x * y for x, y in zip(row, c)), Fraction(0)) for row in bt]
    out: dict[int, Fraction] = {}
    for x, cyc in zip(reference_solve_gaussian(gram, rhs), basis):
        for e, coeff in cyc.coefficients:
            out[e] = out.get(e, Fraction(0)) + x * coeff
    return Chain1.from_dict(out)


# the 6-vertex triangulation of the real projective plane: H1 is Z/2, so 0 over Q
RP2_TRIANGLES = [(1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
                 (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)]
RP2_EDGES = sorted({e for t in RP2_TRIANGLES for e in itertools.combinations(t, 2)})


def reference_boundary2_reducer(cx):
    """The dense path classes were reduced by: one row per triangle over the
    non-tree edges, put in RREF by ``ratlin.rref``; the pivot rows and pivots."""
    position = {j: pos for pos, j in enumerate(cx._nontree_edges)}
    rows = [[0] * len(position) for _ in cx.triangles]
    for row, faces in zip(rows, cx.boundary2):
        for j, sign in faces:
            if j in position:
                row[position[j]] += sign
    reduced, pivots = ratlin.rref(rows)
    return reduced[: len(pivots)], pivots


COEFF = st.sampled_from([1, -1, 2]) | st.fractions(-4, 4, max_denominator=5)


@st.composite
def complexes_with_cycles(draw, max_vertices=9):
    """Complexes on 6 or more vertices: vertex pairs joined by parallel and
    antiparallel edges in shuffled order, triangles in any orientation on
    vertex triples whose sides all have an edge, and rational cycles that mix
    fundamental cycles with triangle boundaries."""
    n = draw(st.integers(6, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    copies = draw(st.lists(st.sampled_from(["", "", "+", "-", "++", "+-"]),
                           min_size=len(pairs), max_size=len(pairs)))
    edges = [pair if c == "+" else pair[::-1] for pair, cs in zip(pairs, copies) for c in cs]
    edges = draw(st.permutations(edges))
    joined = {frozenset(e) for e in edges}
    triples = [t for t in itertools.combinations(range(n), 3)
               if all(frozenset(side) in joined for side in itertools.combinations(t, 2))]
    # index k >= 0 draws triples[k], and ~k draws it reversed
    drawn = draw(st.lists(st.integers(-len(triples), len(triples) - 1),
                          max_size=3 * n)) if triples else []
    triangles = [triples[k] if k >= 0 else triples[~k][::-1] for k in drawn]
    cx = ChainComplex(range(n), edges, triangles)
    generators = [cx.fundamental_cycle(j) for j in cx._nontree_edges]
    generators += [triangle_boundary(cx, t) for t in range(len(triangles))]
    cycles = []
    for _ in range(draw(st.integers(1, 3)) if generators else 0):
        z = {}
        for g, scale in draw(st.dictionaries(st.integers(0, len(generators) - 1), COEFF,
                                             max_size=8)).items():
            for j, c in generators[g].coefficients:
                z[j] = z.get(j, 0) + scale * c
        cycles.append(Chain1.from_dict(z))
    return cx, cycles


def betti_oracle(cx):
    """Betti numbers from numpy float ranks, independent of ratlin."""
    rank1 = np.linalg.matrix_rank(incidence(cx).astype(float)) if cx.edges else 0
    rank2 = np.linalg.matrix_rank(dense_boundary2(cx).astype(float)) if cx.triangles else 0
    beta0 = len(cx.vertices) - rank1
    beta1 = len(cx.edges) - rank1 - rank2
    return int(beta0), int(beta1)


class TestBoundary1:
    def test_single_edge(self):
        cx = triangle_complex()
        out = chaincore.boundary1(Chain1.from_dict({0: 1}), cx)
        assert out == {1: 1, 0: -1}

    def test_triangle_loop_telescopes(self):
        cx = triangle_complex()
        loop = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        assert chaincore.boundary1(loop, cx) == {}

    def test_open_path_keeps_endpoints(self):
        cx = triangle_complex()
        path = Chain1.from_dict({0: 1, 1: 1})  # 0->1->2
        assert chaincore.boundary1(path, cx) == {2: 1, 0: -1}

    def test_bad_index_rejected(self):
        with pytest.raises(MalformedChainError):
            chaincore.boundary1(Chain1.from_dict({7: 1}), triangle_complex())

    @settings(max_examples=300, deadline=None)
    @given(multigraph_chains())
    def test_matches_fraction_loop(self, case):
        # same values in the same vertex order, and every value a Fraction
        cx, chain = case
        got = chaincore.boundary1(chain, cx)
        assert list(got.items()) == list(reference_boundary1(chain, cx).items())
        assert all(type(c) is Fraction for c in got.values())


class TestDDZero:
    def test_filled_triangle(self):
        assert not np.any(dd(triangle_complex(filled=True)))

    def test_empty_complex(self):
        assert not np.any(dd(ChainComplex([])))

    def test_randomized_complexes(self):
        rng = random.Random(4)
        for _ in range(60):
            assert not np.any(dd(random_two_complex(rng)))

    @settings(max_examples=300, deadline=None)
    @given(two_complex_parts())
    def test_sides_resolve_to_lowest_index_edge(self, parts):
        vertices, edges, triangles = parts
        expected = reference_boundary2(edges, triangles)
        if expected is None:
            side = first_missing_side(edges, triangles)
            message = f"^triangle side {re.escape(repr(side))} has no matching edge$"
            with pytest.raises(CyclosError, match=message):
                ChainComplex(vertices, edges, triangles)
        else:
            assert ChainComplex(vertices, edges, triangles).boundary2 == expected


class TestConstruction:
    def test_unknown_vertex_names_the_first_bad_edge(self):
        with pytest.raises(CyclosError, match=r"^edge \(0, 5\) references unknown vertex$"):
            ChainComplex([0, 1, 2], [(0, 1), (0, 5), (7, 0)])

    @pytest.mark.parametrize("edges, triangles", [
        pytest.param([(0, 1), (0, 1, 2)], [], id="mixed-arity-edges"),
        pytest.param([(0,)], [], id="one-vertex-edge"),
        pytest.param([0], [], id="non-sequence-edge"),
        pytest.param([(0, 1), (1, 2), (2, 0)], [(0, 1, 2, 0)], id="four-vertex-triangle"),
        pytest.param([(0, 1), (1, 2), (2, 0)], [(0, 1, 2), (0, 1)], id="mixed-arity-triangles"),
        pytest.param([(0, [1])], [], id="unhashable-edge-id"),
        pytest.param([(0, 1), (1, 2), (2, 0)], [(0, 1, {2})], id="unhashable-triangle-id"),
    ])
    def test_malformed_simplices_raise_cyclos_error(self, edges, triangles):
        with pytest.raises(CyclosError):
            ChainComplex([0, 1, 2], edges, triangles)

    def test_triangle_free_boundary2_is_empty(self):
        assert ChainComplex([0, 1, 2], [(0, 1), (1, 2), (0, 1)]).boundary2 == ()

    def test_triangles_resolve_at_construction(self):
        # faces b->c, c->a, a->b of (0, 1, 2) on edges 0->1, 1->2, 2->0
        assert triangle_complex(filled=True).boundary2 == (((1, 1), (2, 1), (0, 1)),)
        with pytest.raises(CyclosError, match=r"^triangle side \(2, 0\) has no matching edge$"):
            ChainComplex([0, 1, 2], [(0, 1), (1, 2)], [(0, 1, 2)])


class TestCycleSpace:
    def test_triangle_graph_has_one_cycle(self):
        cx = triangle_complex()
        basis = cycle_basis(cx)
        # oracle: dim ker = |E| - rank(d1)
        expected = len(cx.edges) - np.linalg.matrix_rank(incidence(cx).astype(float))
        assert len(basis) == expected == 1

    def test_theta_graph_has_two(self):
        cx = theta_graph()
        basis = cycle_basis(cx)
        expected = len(cx.edges) - np.linalg.matrix_rank(incidence(cx).astype(float))
        assert len(basis) == expected == 2

    def test_tree_is_acyclic(self):
        cx = ChainComplex(list(range(5)), [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert cycle_basis(cx) == []

    def test_basis_elements_are_cycles(self):
        rng = random.Random(11)
        for _ in range(40):
            cx = random_multigraph(rng)
            for cyc in cycle_basis(cx):
                assert chaincore.boundary1(cyc, cx) == {}

    def test_kernel_dimension_formula(self):
        # dim ker d1 = |E| - |V| + beta0 on random multigraphs
        rng = random.Random(99)
        for _ in range(60):
            cx = random_multigraph(rng)
            beta0, _ = betti_oracle(cx)
            assert len(cycle_basis(cx)) == len(cx.edges) - len(cx.vertices) + beta0

    # edge 0 of the hollow triangle is a spanning-forest edge, edge 2 closes the loop
    @pytest.mark.parametrize("index, error", [
        pytest.param(-1, MalformedChainError, id="negative-index"),
        pytest.param(3, MalformedChainError, id="index-past-the-end"),
        pytest.param(1.0, MalformedChainError, id="float-index"),
        pytest.param(True, MalformedChainError, id="bool-index"),
        pytest.param(0, PreconditionError, id="tree-edge"),
    ])
    def test_fundamental_cycle_rejects(self, index, error):
        with pytest.raises(error):
            triangle_complex().fundamental_cycle(index)


class TestProjection:
    def test_cycle_fixed(self):
        cx = triangle_complex()
        loop = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        assert chaincore.project_to_cycles(loop, cx) == loop

    def test_single_triangle_edge(self):
        # least-squares oracle on the 3-edge system gives (1/3)(e01+e12+e20)
        cx = triangle_complex()
        proj = chaincore.project_to_cycles(Chain1.from_dict({0: 1}), cx)
        third = Fraction(1, 3)
        assert proj == Chain1.from_dict({0: third, 1: third, 2: third})

    def test_tree_edge_projects_to_zero(self):
        cx = ChainComplex([0, 1, 2], [(0, 1), (1, 2)])
        assert not chaincore.project_to_cycles(Chain1.from_dict({0: 1}), cx).coefficients

    def test_idempotent_and_closed_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            cx = random_multigraph(rng)
            if not cx.edges:
                continue
            chain = Chain1.from_dict(
                {rng.randrange(len(cx.edges)): rng.randint(-3, 3) for _ in range(3)}
            )
            proj = chaincore.project_to_cycles(chain, cx)
            assert chaincore.boundary1(proj, cx) == {}
            assert chaincore.project_to_cycles(proj, cx) == proj

    def test_matches_numpy_least_squares(self):
        rng = random.Random(21)
        for _ in range(25):
            cx = random_multigraph(rng)
            if not cx.edges:
                continue
            chain_dict = {rng.randrange(len(cx.edges)): rng.randint(-3, 3) for _ in range(4)}
            proj = chaincore.project_to_cycles(Chain1.from_dict(chain_dict), cx)
            # numpy oracle: project onto null space of d1 via SVD
            d1 = incidence(cx).astype(float)
            c = np.zeros(len(cx.edges))
            for idx, val in chain_dict.items():
                c[idx] += val
            _, s, vt = np.linalg.svd(d1)
            tol = max(d1.shape) * np.finfo(float).eps * (s[0] if s.size else 0)
            null = vt[np.sum(s > tol):].T if d1.size else np.eye(len(cx.edges))
            expected = null @ (null.T @ c) if null.size else np.zeros_like(c)
            got = np.zeros(len(cx.edges))
            for idx, val in proj.coefficients:
                got[idx] = float(val)
            assert np.allclose(got, expected, atol=1e-9)


class TestProjectionOracle:
    @settings(max_examples=300, deadline=None)
    @given(multigraph_chains())
    def test_matches_cycle_basis_normal_equations(self, case):
        cx, chain = case
        got = chaincore.project_to_cycles(chain, cx)
        assert got.coefficients == reference_project_to_cycles(chain, cx).coefficients
        assert all(type(c) is Fraction for _, c in got.coefficients)

    @settings(max_examples=300, deadline=None)
    @given(multigraph_chains())
    def test_fundamental_cycles_pick_out_one_nontree_edge(self, case):
        # homology_class reads a cycle's coordinates off its non-tree edges,
        # which is only right if each fundamental cycle is 1 on its own
        # non-tree edge and 0 on every other one
        cx, _ = case
        nontree = cx._nontree_edges
        for j in nontree:
            cycle = cx.fundamental_cycle(j).as_dict()
            assert [cycle.get(k, 0) for k in nontree] == [int(k == j) for k in nontree]
            assert chaincore.boundary1(Chain1.from_dict(cycle), cx) == {}


class TestHomology:
    def test_filled_triangle_boundary_is_trivial(self):
        cx = triangle_complex(filled=True)
        loop = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        assert not any(chaincore.homology_class(loop, cx).coordinates)

    def test_hollow_triangle_loop_is_nontrivial(self):
        cx = triangle_complex()
        loop = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        assert any(chaincore.homology_class(loop, cx).coordinates)

    def test_adding_boundary_preserves_class(self):
        # square with one diagonal, both triangles filled
        cx = ChainComplex(
            [0, 1, 2, 3],
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            [(0, 1, 2), (0, 2, 3)],
        )
        z = Chain1.from_dict({0: 1, 1: 1, 2: 1, 3: 1})
        assert same_class(z, chain_sum(z, triangle_boundary(cx, 0)), cx)

    def test_reversal_negates_class(self):
        cx = triangle_complex()
        loop = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        rev = Chain1.from_dict({j: -c for j, c in loop.coefficients})
        assert not same_class(loop, rev, cx)
        coords = chaincore.homology_class(loop, cx).coordinates
        assert chaincore.homology_class(rev, cx).coordinates == tuple(-c for c in coords)

    def test_two_loops_differing_by_filled_triangle(self):
        # prism-like: rim cycle vs rerouted cycle across a filled triangle
        cx = ChainComplex(
            [0, 1, 2, 3],
            [(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)],
            [(1, 3, 2)],
        )
        via_edge = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        via_detour = Chain1.from_dict({0: 1, 3: 1, 4: 1, 2: 1})
        assert same_class(via_edge, via_detour, cx)

    def test_boundary2_reduced_once_per_complex(self, monkeypatch):
        calls = []
        reduce_column = chaincore.reduce_column
        monkeypatch.setattr(chaincore, "reduce_column",
                            lambda entries, owners: calls.append(owners) or
                            reduce_column(entries, owners))
        # filled triangle 0-1-2 next to a hollow one 0-2-3
        cx = ChainComplex([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)], [(0, 1, 2)])
        rim = Chain1.from_dict({0: 1, 1: 1, 3: 1, 4: 1})
        filled = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        assert any(chaincore.homology_class(rim, cx).coordinates)
        assert not any(chaincore.homology_class(filled, cx).coordinates)
        assert len(chaincore.homology_basis_cycles(cx)) == chaincore.betti(cx, 1) == 1
        # one call per triangle while the image is built, then one for the
        # filled loop; the rim is zero at the owned position and needs none
        assert len(calls) == len(cx.triangles) + 1
        assert all(owners is cx._boundary2_reducer for owners in calls)

    def test_non_cycle_rejected(self):
        with pytest.raises(ClosureError):
            chaincore.homology_class(Chain1.from_dict({0: 1}), triangle_complex())

    def test_equivalence_relation_randomized(self):
        rng = random.Random(17)
        for _ in range(20):
            cx = random_two_complex(rng)
            basis = cycle_basis(cx)
            if not basis:
                continue
            z = basis[rng.randrange(len(basis))]
            assert same_class(z, z, cx)
            if cx.triangles:
                t = rng.randrange(len(cx.triangles))
                assert same_class(z, chain_sum(z, triangle_boundary(cx, t)), cx)


class TestHomologyOracle:
    @settings(max_examples=150, deadline=None)
    @given(complexes_with_cycles())
    @example((ChainComplex(range(1, 7), RP2_EDGES, RP2_TRIANGLES),
              [ChainComplex(range(1, 7), RP2_EDGES).fundamental_cycle(j) for j in (6, 14)]))
    def test_matches_dense_rref_reduction(self, case):
        cx, cycles = case
        rows, pivots = reference_boundary2_reducer(cx)
        nontree = cx._nontree_edges
        assert chaincore.betti(cx, 1) == len(nontree) - len(pivots) == betti_oracle(cx)[1]
        assert chaincore.homology_basis_cycles(cx) == [
            cx.fundamental_cycle(j) for pos, j in enumerate(nontree) if pos not in pivots]
        for z in cycles:
            coords = [z.as_dict().get(j, 0) for j in nontree]
            got = chaincore.homology_class(z, cx).coordinates
            assert got == tuple(reference_reduce_mod_rows(coords, rows, pivots))
            assert all(type(x) is Fraction for x in got)


class TestBetti:
    def test_circle_graph(self):
        cx = ChainComplex(list(range(6)), [(i, (i + 1) % 6) for i in range(6)])
        assert chaincore.betti(cx, 0) == 1
        assert chaincore.betti(cx, 1) == 1

    def test_two_disjoint_trees(self):
        cx = ChainComplex(list(range(6)), [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert chaincore.betti(cx, 0) == 2
        assert chaincore.betti(cx, 1) == 0

    def test_theta_graph(self):
        assert chaincore.betti(theta_graph(), 1) == 2

    def test_unsupported_dimension(self):
        with pytest.raises(CyclosError):
            chaincore.betti(triangle_complex(), 2)

    def test_against_numpy_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            cx = random_two_complex(rng)
            beta0, beta1 = betti_oracle(cx)
            assert chaincore.betti(cx, 0) == beta0
            assert chaincore.betti(cx, 1) == beta1


class TestJsonRoundTrip:
    def test_complex(self):
        cx = ChainComplex.from_json_obj(
            {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [2, 0]], "triangles": [[0, 1, 2]]})
        assert cx.vertices == (0, 1, 2)
        assert (cx.edges, cx.triangles) == (((0, 1), (1, 2), (2, 0)), ((0, 1, 2),))

    def test_from_dict_keeps_fractions_and_converts_the_rest(self):
        third = Fraction(1, 3)
        chain = Chain1.from_dict({2: third, 0: 2, 1: 0.5, 3: 0})
        assert chain.coefficients == ((0, 2), (1, Fraction(1, 2)), (2, third))
        assert chain.coefficients[2][1] is third
        assert all(type(c) is Fraction for _, c in chain.coefficients)

    def test_numpy_integer_indices(self):
        assert Chain1.from_dict({np.int64(2): 1, np.int32(0): 3}) == Chain1.from_dict({0: 3, 2: 1})

    def test_chain_rationals(self):
        chain = Chain1.from_json_obj({"2": "-2", "0": "1/3", "1": "0"})
        assert chain.coefficients == ((0, Fraction(1, 3)), (2, Fraction(-2)))
        assert all(type(c) is Fraction for _, c in chain.coefficients)


class TestMalformedInput:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: Chain1.from_dict({0: math.nan}), id="nan-coefficient"),
        pytest.param(lambda: Chain1.from_dict({0: math.inf}), id="inf-coefficient"),
        pytest.param(lambda: Chain1.from_json_obj({"x": "1"}), id="json-non-integer-edge"),
        pytest.param(lambda: Chain1.from_json_obj({"0": "abc"}), id="json-non-number"),
        pytest.param(lambda: Chain1.from_json_obj({"0": "1/0"}), id="json-zero-denominator"),
        pytest.param(lambda: ChainComplex.from_json_obj({}), id="json-no-vertices"),
        pytest.param(lambda: ChainComplex.from_json_obj({"vertices": [0], "edges": [[0]]}),
                     id="json-one-element-edge"),
        pytest.param(lambda: ChainComplex.from_json_obj(
            {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [2, 0]], "triangles": [[0, 1]]}),
            id="json-two-element-triangle"),
    ])
    def test_rejected_with_cyclos_error(self, build):
        with pytest.raises(CyclosError):
            build()
