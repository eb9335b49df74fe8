"""Chain-complex construction, boundaries, cycle spaces, homology classes.

Rank/dimension expectations are checked against an independent numpy oracle
(float SVD rank), never against the package's own rational elimination.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclos import chaincore, ratlin
from cyclos.chaincore import Chain1, ChainComplex
from cyclos.errors import ClosureError, CyclosError, MalformedChainError


def triangle_complex(filled=False):
    tris = [(0, 1, 2)] if filled else []
    return ChainComplex([0, 1, 2], [(0, 1), (1, 2), (2, 0)], tris)


def theta_graph():
    # two vertices joined by three parallel-ish paths collapsed to multi-edges
    return ChainComplex([0, 1], [(0, 1), (0, 1), (1, 0)])


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


def reference_boundary2(edges, triangles):
    """Boundary2 resolving each triangle side by scanning the edge list for the
    lowest-index edge matching it up to orientation; None if a side is missing."""
    mat = [[0] * len(triangles) for _ in edges]
    for j, (a, b, c) in enumerate(triangles):
        for tail, head in ((a, b), (b, c), (c, a)):
            for k, edge in enumerate(edges):
                if edge in ((tail, head), (head, tail)):
                    mat[k][j] += 1 if edge == (tail, head) else -1
                    break
            else:
                return None
    return mat


def reference_project_to_cycles(chain, cx):
    """Projection by the cycle-basis normal equations (B^T B) x = B^T c, then B x."""
    basis = chaincore.cycle_space_basis(cx)
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
    for x, cyc in zip(ratlin.solve_gaussian(gram, rhs), basis):
        for e, coeff in cyc.coefficients:
            out[e] = out.get(e, Fraction(0)) + x * coeff
    return Chain1.from_dict(out)


def betti_oracle(cx):
    """Betti numbers from numpy float ranks, independent of ratlin."""
    b1m = np.array(cx.boundary1, dtype=float)
    b2m = np.array(cx.boundary2, dtype=float)
    rank1 = np.linalg.matrix_rank(b1m) if cx.edges else 0
    rank2 = np.linalg.matrix_rank(b2m) if cx.triangles else 0
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


class TestDDZero:
    def test_filled_triangle(self):
        assert chaincore.verify_dd_zero(triangle_complex(filled=True))

    def test_empty_complex(self):
        assert chaincore.verify_dd_zero(ChainComplex([]))

    def test_missigned_triangle_row_fails(self):
        cx = triangle_complex(filled=True)
        # By hand: boundary2 column must be (+1, +1, +1) against edges
        # (0,1),(1,2),(2,0); flipping one sign leaves d1.d2 = (-2, 0, +2)^T.
        bad = [[1], [-1], [1]]
        tampered = ChainComplex(cx.vertices, cx.edges, cx.triangles, boundary2_override=bad)
        assert not chaincore.verify_dd_zero(tampered)

    def test_randomized_complexes(self):
        rng = random.Random(4)
        for _ in range(60):
            assert chaincore.verify_dd_zero(random_two_complex(rng))

    @settings(max_examples=200, deadline=None)
    @given(two_complex_parts(), st.data())
    def test_override_matches_dense_product(self, parts, data):
        vertices, edges, triangles = parts
        entries = st.lists(st.integers(-1, 1), min_size=len(triangles), max_size=len(triangles))
        override = data.draw(st.lists(entries, min_size=len(edges), max_size=len(edges)))
        cx = ChainComplex(vertices, edges, triangles, boundary2_override=override)
        d1 = np.array(cx.boundary1, dtype=int).reshape(len(vertices), len(edges))
        d2 = np.array(override, dtype=int).reshape(len(edges), len(triangles))
        assert chaincore.verify_dd_zero(cx) == (not np.any(d1 @ d2))

    @settings(max_examples=300, deadline=None)
    @given(two_complex_parts())
    def test_sides_resolve_to_lowest_index_edge(self, parts):
        vertices, edges, triangles = parts
        expected = reference_boundary2(edges, triangles)
        if expected is None:
            with pytest.raises(CyclosError):
                ChainComplex(vertices, edges, triangles)
        else:
            assert ChainComplex(vertices, edges, triangles).boundary2 == expected


class TestCycleSpace:
    def test_triangle_graph_has_one_cycle(self):
        cx = triangle_complex()
        basis = chaincore.cycle_space_basis(cx)
        # oracle: dim ker = |E| - rank(d1)
        expected = len(cx.edges) - np.linalg.matrix_rank(np.array(cx.boundary1, dtype=float))
        assert len(basis) == expected == 1

    def test_theta_graph_has_two(self):
        cx = theta_graph()
        basis = chaincore.cycle_space_basis(cx)
        expected = len(cx.edges) - np.linalg.matrix_rank(np.array(cx.boundary1, dtype=float))
        assert len(basis) == expected == 2

    def test_tree_is_acyclic(self):
        cx = ChainComplex(list(range(5)), [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert chaincore.cycle_space_basis(cx) == []

    def test_basis_elements_are_cycles(self):
        rng = random.Random(11)
        for _ in range(40):
            cx = random_multigraph(rng)
            for cyc in chaincore.cycle_space_basis(cx):
                assert chaincore.boundary1(cyc, cx) == {}

    def test_kernel_dimension_formula(self):
        # dim ker d1 = |E| - |V| + beta0 on random multigraphs
        rng = random.Random(99)
        for _ in range(60):
            cx = random_multigraph(rng)
            beta0, _ = betti_oracle(cx)
            assert len(chaincore.cycle_space_basis(cx)) == len(cx.edges) - len(cx.vertices) + beta0


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
        assert chaincore.project_to_cycles(Chain1.from_dict({0: 1}), cx).is_zero()

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
            d1 = np.array(cx.boundary1, dtype=float)
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
        assert chaincore.homology_class(loop, cx).is_zero()

    def test_hollow_triangle_loop_is_nontrivial(self):
        cx = triangle_complex()
        loop = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        assert not chaincore.homology_class(loop, cx).is_zero()

    def test_adding_boundary_preserves_class(self):
        # square with one diagonal, both triangles filled
        cx = ChainComplex(
            [0, 1, 2, 3],
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            [(0, 1, 2), (0, 2, 3)],
        )
        z = Chain1.from_dict({0: 1, 1: 1, 2: 1, 3: 1})
        t_boundary = Chain1.from_dict(
            {j: cx.boundary2[j][0] for j in range(len(cx.edges))}
        )
        assert chaincore.homologous(z, z + t_boundary, cx)

    def test_reversal_negates_class(self):
        cx = triangle_complex()
        loop = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        rev = loop.scale(-1)
        assert not chaincore.homologous(loop, rev, cx)
        assert chaincore.homology_class(rev, cx) == -chaincore.homology_class(loop, cx)

    def test_two_loops_differing_by_filled_triangle(self):
        # prism-like: rim cycle vs rerouted cycle across a filled triangle
        cx = ChainComplex(
            [0, 1, 2, 3],
            [(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)],
            [(1, 3, 2)],
        )
        via_edge = Chain1.from_dict({0: 1, 1: 1, 2: 1})
        via_detour = Chain1.from_dict({0: 1, 3: 1, 4: 1, 2: 1})
        assert chaincore.homologous(via_edge, via_detour, cx)

    def test_boundary2_reduced_once_per_complex(self, monkeypatch):
        calls = []
        rref = ratlin.rref
        monkeypatch.setattr(ratlin, "rref", lambda a: calls.append(a) or rref(a))
        # filled triangle 0-1-2 next to a hollow one 0-2-3
        cx = ChainComplex([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)], [(0, 1, 2)])
        rim = Chain1.from_dict({0: 1, 1: 1, 3: 1, 4: 1})
        assert not chaincore.homology_class(rim, cx).is_zero()
        assert chaincore.homology_class(Chain1.from_dict({0: 1, 1: 1, 2: 1}), cx).is_zero()
        assert len(chaincore.homology_basis_cycles(cx)) == chaincore.betti(cx, 1) == 1
        assert len(calls) == 1

    def test_non_cycle_rejected(self):
        with pytest.raises(ClosureError):
            chaincore.homology_class(Chain1.from_dict({0: 1}), triangle_complex())

    def test_equivalence_relation_randomized(self):
        rng = random.Random(17)
        for _ in range(20):
            cx = random_two_complex(rng)
            basis = chaincore.cycle_space_basis(cx)
            if not basis:
                continue
            z = basis[rng.randrange(len(basis))]
            assert chaincore.homologous(z, z, cx)
            if cx.triangles:
                t = rng.randrange(len(cx.triangles))
                img = Chain1.from_dict({j: cx.boundary2[j][t] for j in range(len(cx.edges))})
                assert chaincore.homologous(z, z + img, cx)


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
        cx = triangle_complex(filled=True)
        again = ChainComplex.from_json_obj(cx.to_json_obj())
        assert again.edges == cx.edges and again.triangles == cx.triangles

    def test_numpy_integer_indices(self):
        assert Chain1.from_dict({np.int64(2): 1, np.int32(0): 3}) == Chain1.from_dict({0: 3, 2: 1})

    def test_chain_rationals(self):
        chain = Chain1.from_dict({0: Fraction(1, 3), 2: -2})
        obj = chain.to_json_obj()
        assert obj == {"0": "1/3", "2": "-2"}
        assert Chain1.from_json_obj(obj) == chain


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
