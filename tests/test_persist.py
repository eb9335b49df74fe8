"""Barcode computation against brute-force Betti oracles."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclos.chaincore import ChainComplex, UnionFind, betti, side_edges
from cyclos.errors import CyclosError, FiltrationError, MonotonicityError
from cyclos.persist import (
    _DIM_RANK,
    Bar,
    Barcode,
    Filtration,
    FiltrationStep,
    compute_barcode,
    window_filtration,
    _cached_sort_key,
    _id_sort_key,
    _simplex_sort_key,
)
from test_chaincore import RP2_TRIANGLES, dense_boundary2, incidence

INF = math.inf


def betti_oracle(cx):
    rank1 = np.linalg.matrix_rank(incidence(cx).astype(float)) if cx.edges else 0
    rank2 = np.linalg.matrix_rank(dense_boundary2(cx).astype(float)) if cx.triangles else 0
    return len(cx.vertices) - rank1, len(cx.edges) - rank1 - rank2


def alive_count(barcode, dim, value):
    """The number of bars in ``dim`` born at or before ``value`` that die after it."""
    return sum(b.dim == dim and b.birth <= value < b.death for b in barcode.bars)


def surface_filtration(triangles, edges_at=None):
    """Vertices at 0, edges at 1 (or at ``edges_at[edge]``) and the triangles
    at 3 of a triangulated surface."""
    edges = sorted({e for t in triangles for e in itertools.combinations(sorted(t), 2)})
    edges_at = edges_at or {}
    steps = [FiltrationStep(0.0, "vertex", (v,)) for v in sorted({v for t in triangles for v in t})]
    steps += [FiltrationStep(edges_at.get(e, 1.0), "edge", e) for e in edges]
    steps += [FiltrationStep(3.0, "triangle", t) for t in triangles]
    return Filtration(steps)


# the 5-vertex Moebius band: its boundary, the pentagram (i, i + 2), is twice
# its core, so with the boundary in first its cycle never dies over Q, but
# dies with the last triangle over GF(2)
MOEBIUS = surface_filtration(
    [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)],
    {tuple(sorted((i, (i + 1) % 5))): 2.0 for i in range(5)})
# the 7-vertex torus, H1 = Z^2 with no torsion
TORUS_TRIANGLES = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
TORUS_TRIANGLES += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]


def steps_for_triangle(fill_at=None):
    steps = [FiltrationStep(0.0, "vertex", (v,)) for v in (0, 1, 2)]
    steps += [
        FiltrationStep(1.0, "edge", (0, 1)),
        FiltrationStep(2.0, "edge", (1, 2)),
        FiltrationStep(3.0, "edge", (2, 0)),
    ]
    if fill_at is not None:
        steps.append(FiltrationStep(fill_at, "triangle", (0, 1, 2)))
    return steps


HUGE = 10**400  # an integer too large for a float


class TestFiltrationValidation:
    def test_edge_before_vertex_rejected(self):
        with pytest.raises(FiltrationError):
            Filtration([FiltrationStep(0.0, "edge", (0, 1)), FiltrationStep(1.0, "vertex", (0,))])

    def test_triangle_before_edge_rejected(self):
        steps = [FiltrationStep(0.0, "vertex", (v,)) for v in (0, 1, 2)]
        steps += [FiltrationStep(1.0, "edge", (0, 1)), FiltrationStep(1.0, "triangle", (0, 1, 2))]
        with pytest.raises(FiltrationError):
            Filtration(steps)

    def test_same_value_sorts_faces_first(self):
        # all at t=0: vertices must precede edges regardless of input order
        steps = [FiltrationStep(0.0, "edge", (0, 1))] + [
            FiltrationStep(0.0, "vertex", (v,)) for v in (0, 1)
        ]
        filt = Filtration(steps)
        assert [s.kind for s in filt.steps] == ["vertex", "vertex", "edge"]

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: Filtration([
            FiltrationStep(0.0, "vertex", (0,)),
            FiltrationStep(0.0, "vertex", (1,)),
            FiltrationStep(0.5, "edge", (0, 1)),
            FiltrationStep(1.0, "vertex", (0,)),
        ]), id="vertex-inserted-twice"),
        pytest.param(lambda: Filtration([FiltrationStep(0.0, "vertex", (3,))] * 2),
                     id="same-vertex-step-twice"),
        pytest.param(lambda: FiltrationStep(math.nan, "vertex", (0,)), id="nan-vertex"),
        pytest.param(lambda: FiltrationStep(math.nan, "edge", (0, 1)), id="nan-edge"),
        pytest.param(lambda: Filtration.from_json_obj({"steps": [["nan", "vertex", 0]]}),
                     id="nan-from-json"),
    ])
    def test_silent_wrong_answers_rejected(self, build):
        with pytest.raises(FiltrationError):
            build()

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: FiltrationStep(0.0, "edge", (0,)), id="one-id-edge"),
        pytest.param(lambda: FiltrationStep(0.0, "vertex", ()), id="no-id-vertex"),
        pytest.param(lambda: FiltrationStep(0.0, "triangle", (0, 1)), id="two-id-triangle"),
        pytest.param(lambda: FiltrationStep(0.0, "vertex", 5), id="simplex-not-a-tuple"),
        pytest.param(lambda: FiltrationStep("a", "vertex", (0,)), id="string-value"),
        pytest.param(lambda: FiltrationStep(None, "vertex", (0,)), id="none-value"),
        pytest.param(lambda: FiltrationStep(True, "vertex", (0,)), id="bool-value"),
        pytest.param(lambda: FiltrationStep(0.0, "square", (0,)), id="unknown-kind"),
        pytest.param(lambda: FiltrationStep(0.0, ["edge"], (0, 1)), id="unhashable-kind"),
        pytest.param(lambda: Filtration([FiltrationStep(0.0, "vertex", ([0],))]),
                     id="unhashable-vertex-id"),
        pytest.param(lambda: Filtration([FiltrationStep(0.0, "vertex", (0,)),
                                         FiltrationStep(1.0, "edge", (0, [0]))]),
                     id="unhashable-edge-end"),
        pytest.param(lambda: Filtration([(0.0, "vertex", (0,))]), id="step-not-a-step"),
        pytest.param(lambda: Filtration(steps_for_triangle()).complex_at("x"),
                     id="complex-at-string-value"),
        pytest.param(lambda: Filtration(steps_for_triangle()).complex_at(math.nan),
                     id="complex-at-nan-value"),
        pytest.param(lambda: window_filtration({0.1: ChainComplex([0]), "x": ChainComplex([0])}),
                     id="window-string-value"),
    ])
    def test_malformed_steps_rejected(self, build):
        with pytest.raises(FiltrationError):
            build()

    @pytest.mark.parametrize("build, expected", [
        pytest.param(lambda: FiltrationStep(HUGE, "vertex", (0,)).value, HUGE, id="step"),
        pytest.param(lambda: Filtration(steps_for_triangle()).complex_at(HUGE).edges,
                     ((0, 1), (1, 2), (2, 0)), id="complex-at"),
        pytest.param(lambda: compute_barcode(window_filtration({
            1.0: ChainComplex([0, 1, 2], [(0, 1)]),
            HUGE: ChainComplex([0, 1, 2], [(0, 1), (1, 2), (2, 0)]),
        })).bars, (Bar(0, 1.0, 1.0), Bar(0, 1.0, HUGE), Bar(0, 1.0, INF), Bar(1, HUGE, INF)),
            id="window-filtration"),
    ])
    def test_integer_beyond_float_is_a_value(self, build, expected):
        # a real, non-NaN value: the NaN tests make no float of it, which would overflow
        assert build() == expected

    def test_json_round_trip(self):
        # steps in any order; a vertex may be given bare or as a one-id list
        obj = {"steps": [[4, "triangle", [0, 1, 2]], [3, "edge", [2, 0]], [2, "edge", [1, 2]],
                         [1, "edge", [0, 1]], [0, "vertex", 2], [0, "vertex", [1]],
                         [0, "vertex", 0]]}
        filt = Filtration.from_json_obj(obj)
        assert filt.steps == Filtration(steps_for_triangle(fill_at=4.0)).steps
        assert all(type(step.value) is float for step in filt.steps)


# ids that compare equal across types (1, 1.0 and True) but sort apart
MIXED_IDS = (0, 1, 1.0, True, False, 2.5, -3, "a", "1", "True")


@st.composite
def mixed_id_steps(draw):
    """Vertex steps for ids distinct under ==, and edges written with any id
    equal to a vertex: (True, "a") is an edge on vertex 1. Simplex objects
    repeat, as window_filtration's copies of a parallel edge do."""
    vertices = draw(st.lists(st.sampled_from(MIXED_IDS), min_size=1, max_size=6, unique=True))
    distinct = list({v: v for v in vertices})  # drops ids equal to an earlier one
    ends = [x for x in MIXED_IDS if x in distinct]
    simplices = draw(st.lists(st.tuples(st.sampled_from(ends), st.sampled_from(ends)),
                              max_size=6))
    values = st.sampled_from([0.0, 0.5, 1.0])
    steps = [FiltrationStep(0.0, "vertex", (v,)) for v in distinct]
    for _ in range(draw(st.integers(0, 12)) if simplices else 0):
        edge = draw(st.sampled_from(simplices))
        if draw(st.booleans()):
            edge = tuple(list(edge))  # an equal simplex in a new object
        steps.append(FiltrationStep(draw(values), "edge", edge))
    return draw(st.permutations(steps))


class TestFiltrationOrder:
    @settings(max_examples=300, deadline=None)
    @given(mixed_id_steps())
    def test_cached_keys_order_like_simplex_sort_key(self, steps):
        expected = sorted(steps, key=lambda s: (s.value, _DIM_RANK[s.kind],
                                                _simplex_sort_key(s.simplex)))
        # FiltrationStep equality cannot tell 1 from True, so compare the objects
        assert list(map(id, Filtration(steps).steps)) == list(map(id, expected))


class TestBar:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: Bar(0, "a", "b"), id="string-ends"),
        pytest.param(lambda: Bar(0, 0.0, "x"), id="string-death"),
        pytest.param(lambda: Bar(0, None, INF), id="none-birth"),
        pytest.param(lambda: Bar(0.0, 0.0, 1.0), id="float-dim"),
        pytest.param(lambda: Bar(True, 0.0, 1.0), id="bool-dim"),
        pytest.param(lambda: Bar(0, math.nan, 1.0), id="nan-birth"),
        pytest.param(lambda: Bar(0, 2.0, 1.0), id="birth-after-death"),
    ])
    def test_malformed_bar_rejected(self, build):
        with pytest.raises(CyclosError):
            build()

    def test_numbers_of_any_real_type_accepted(self):
        assert Bar(np.int64(1), np.float64(0.5), INF).length == INF
        assert Bar(0, 1, 3).length == 2


class TestComputeBarcode:
    def test_unfilled_triangle(self):
        barcode = compute_barcode(Filtration(steps_for_triangle()))
        h0 = barcode.in_dim(0)
        assert sorted((b.birth, b.death) for b in h0) == [(0.0, 1.0), (0.0, 2.0), (0.0, INF)]
        assert [(b.birth, b.death) for b in barcode.in_dim(1)] == [(3.0, INF)]

    def test_filled_triangle(self):
        barcode = compute_barcode(Filtration(steps_for_triangle(fill_at=4.0)))
        assert [(b.birth, b.death) for b in barcode.in_dim(1)] == [(3.0, 4.0)]

    def test_single_vertex(self):
        barcode = compute_barcode(Filtration([FiltrationStep(0.0, "vertex", (7,))]))
        assert barcode.bars == (Bar(0, 0.0, INF),)

    def test_elder_rule_tie_break(self):
        # both vertices at 0; the bar that dies belongs to the higher id
        steps = [
            FiltrationStep(0.0, "vertex", (0,)),
            FiltrationStep(0.0, "vertex", (1,)),
            FiltrationStep(1.0, "edge", (0, 1)),
        ]
        barcode = compute_barcode(Filtration(steps))
        assert alive_count(barcode, 0, 2.0) == 1

    def test_h0_bar_count_equals_vertices(self):
        rng = random.Random(3)
        for _ in range(30):
            filt = _random_filtration(rng)
            barcode = compute_barcode(filt)
            n_vertices = sum(1 for s in filt.steps if s.kind == "vertex")
            assert len(barcode.in_dim(0)) == n_vertices

    def test_betti_consistency_randomized(self):
        # alive bars at every step value equal brute-force Betti numbers
        rng = random.Random(5)
        for _ in range(25):
            filt = _random_filtration(rng)
            barcode = compute_barcode(filt)
            for value in sorted({s.value for s in filt.steps}):
                cx = filt.complex_at(value)
                beta0, beta1 = betti_oracle(cx)
                assert alive_count(barcode, 0, value) == beta0
                assert alive_count(barcode, 1, value) == beta1

    def test_antiparallel_side_resolves_like_complex_at(self):
        # side (0, 1) of the triangle is first matched by edge (1, 0) at 0, so
        # the triangle fills the cycle born at 0 and the digon born at 2 lives
        steps = [FiltrationStep(0.0, "vertex", (v,)) for v in (0, 1, 2)]
        steps += [FiltrationStep(0.0, "edge", e) for e in ((1, 0), (1, 2), (2, 0))]
        steps += [FiltrationStep(2.0, "edge", (0, 1)), FiltrationStep(3.0, "triangle", (0, 1, 2))]
        barcode = compute_barcode(Filtration(steps))
        assert [(b.birth, b.death) for b in barcode.in_dim(1)] == [(0.0, 3.0), (2.0, INF)]

    @settings(max_examples=300, deadline=None)
    @given(st.deferred(lambda: small_filtrations()))  # defined below
    @example(MOEBIUS)
    @example(surface_filtration(RP2_TRIANGLES))
    def test_persistent_betti_matches_numpy(self, filt):
        # bars alive on all of [s, t] count the cycles of K_s that are not
        # boundaries in K_t, whatever the edges the triangle sides resolve to
        assert persistent_betti_misses(compute_barcode(filt), filt) == []

    @pytest.mark.parametrize("filt", [
        pytest.param(Filtration(steps_for_triangle()), id="hollow-triangle"),
        pytest.param(Filtration(steps_for_triangle(fill_at=4.0)), id="filled-triangle"),
        pytest.param(MOEBIUS, id="moebius-band"),
        pytest.param(surface_filtration(TORUS_TRIANGLES), id="torus"),
        pytest.param(surface_filtration(RP2_TRIANGLES), id="rp2"),
    ])
    def test_essential_h1_bars_count_betti(self, filt):
        top = filt.steps[-1].value
        essential = [b for b in compute_barcode(filt).in_dim(1) if b.death == INF]
        assert len(essential) == betti(filt.complex_at(top), 1) == betti_oracle(
            filt.complex_at(top))[1]

    def test_triangles_kill_at_most_one_bar(self):
        rng = random.Random(8)
        for _ in range(20):
            filt = _random_filtration(rng, with_triangles=True)
            barcode = compute_barcode(filt)
            n_triangles = sum(1 for s in filt.steps if s.kind == "triangle")
            finite_h1 = [b for b in barcode.in_dim(1) if b.death != INF]
            assert len(finite_h1) <= n_triangles


def _rank(matrix):
    return int(np.linalg.matrix_rank(matrix)) if matrix.size else 0


def persistent_betti_misses(barcode, filt):
    """The value pairs s <= t at which the H1 bars alive on all of [s, t] do
    not number ``persistent_betti1``."""
    values = sorted({step.value for step in filt.steps})
    return [(s, t) for i, s in enumerate(values) for t in values[i:]
            if sum(1 for b in barcode.in_dim(1) if b.birth <= s and b.death > t)
            != persistent_betti1(filt, s, t)]


def persistent_betti1(filt, s, t):
    """dim of Z1(K_s) / (Z1(K_s) & B1(K_t)) from numpy float ranks.

    K_s's edges are the first rows of K_t's, so Z1(K_s) & B1(K_t) is the part
    of B1(K_t) that vanishes on the later rows.
    """
    ks, kt = filt.complex_at(s), filt.complex_at(t)
    d1 = incidence(ks).astype(float)
    d2 = dense_boundary2(kt).astype(float)
    cycles = len(ks.edges) - _rank(d1)
    return cycles - (_rank(d2) - _rank(d2[len(ks.edges):]))


@st.composite
def small_filtrations(draw, max_vertices=7):
    """Up to 7 vertices, parallel, antiparallel and self-loop edges, triangles
    on distinct vertices, and many tied values."""
    n = draw(st.integers(1, max_vertices))
    vertex_value = {v: draw(st.integers(0, 3)) for v in range(n)}
    steps = [FiltrationStep(float(x), "vertex", (v,)) for v, x in vertex_value.items()]
    first_edge: dict = {}  # vertex pair -> value of its first edge
    for pair in itertools.combinations_with_replacement(range(n), 2):
        for forward in draw(st.lists(st.booleans(), max_size=2)):
            tail, head = pair if forward else pair[::-1]
            value = max(vertex_value[tail], vertex_value[head]) + draw(st.integers(0, 3))
            steps.append(FiltrationStep(float(value), "edge", (tail, head)))
            first_edge[frozenset(pair)] = min(first_edge.get(frozenset(pair), value), value)
    triples = [
        (a, b, c) for a, b, c in itertools.permutations(range(n), 3)
        if {frozenset((a, b)), frozenset((b, c)), frozenset((c, a))} <= first_edge.keys()
    ]
    if triples:
        for a, b, c in draw(st.lists(st.sampled_from(triples), min_size=1, max_size=8)):
            sides = (frozenset((a, b)), frozenset((b, c)), frozenset((c, a)))
            value = max(first_edge[side] for side in sides) + draw(st.integers(0, 2))
            steps.append(FiltrationStep(float(value), "triangle", (a, b, c)))
    return Filtration(steps)


def _random_filtration(rng, with_triangles=False):
    n = rng.randint(1, 8)
    steps = [FiltrationStep(float(rng.randint(0, 3)), "vertex", (v,)) for v in range(n)]
    vertex_time = {s.simplex[0]: s.value for s in steps}
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        t, h = rng.randrange(n), rng.randrange(n)
        if t == h:
            continue
        birth = max(vertex_time[t], vertex_time[h]) + rng.randint(0, 3)
        steps.append(FiltrationStep(float(birth), "edge", (t, h)))
        edges.append(((t, h), birth))
    if with_triangles and len(edges) >= 3:
        by_pair = {}
        for (pair, birth) in edges:
            key = tuple(sorted(pair))
            by_pair[key] = min(by_pair.get(key, birth), birth)
        for _ in range(rng.randint(0, n)):
            tri = tuple(sorted(rng.sample(range(n), 3))) if n >= 3 else None
            if tri is None:
                break
            sides = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
            if all(s in by_pair for s in sides):
                birth = max(by_pair[s] for s in sides) + rng.randint(0, 2)
                steps.append(FiltrationStep(float(birth), "triangle", tri))
    return Filtration(steps)


class TestWindowFiltration:
    def test_added_cycle_edge_births_h1(self):
        g1 = ChainComplex([0, 1, 2], [(0, 1), (1, 2)])
        g2 = ChainComplex([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
        barcode = compute_barcode(window_filtration({0.1: g1, 0.2: g2}))
        assert [(b.birth, b.death) for b in barcode.in_dim(1)] == [(0.2, INF)]

    def test_identical_graphs_all_born_at_min(self):
        g = ChainComplex([0, 1], [(0, 1)])
        filt = window_filtration({0.1: g, 0.5: ChainComplex([0, 1], [(0, 1)])})
        assert all(s.value == 0.1 for s in filt.steps)

    def test_non_nested_rejected(self):
        g1 = ChainComplex([0, 1], [(0, 1), (0, 1)])
        g2 = ChainComplex([0, 1], [(0, 1)])
        with pytest.raises(MonotonicityError):
            window_filtration({0.1: g1, 0.2: g2})

    def test_persistent_cycle_spans_window_range(self):
        ring = [(i, (i + 1) % 3) for i in range(3)]
        graphs = {d: ChainComplex([0, 1, 2], ring) for d in (0.1, 0.2, 0.3)}
        barcode = compute_barcode(window_filtration(graphs))
        bar = barcode.in_dim(1)[0]
        assert bar.birth == 0.1 and bar.death == INF


def reference_window_filtration(graphs):
    """window_filtration as it was: every window counted whole, shrinking found
    by a Counter difference, one step object per edge copy."""
    if not graphs:
        return Filtration([])
    deltas = sorted(graphs)
    sort_key = _cached_sort_key()
    steps = []
    seen_vertices = set()
    seen_edge_counts = Counter()
    seen_triangles = set()
    for delta in deltas:
        cx = graphs[delta]
        new_vertices = [v for v in cx.vertices if v not in seen_vertices]
        missing = seen_vertices - set(cx.vertices)
        if missing:
            raise MonotonicityError(f"vertices {sorted(map(str, missing))} vanish at delta={delta}")
        edge_counts = Counter(cx.edges)
        shrunk = list(seen_edge_counts - edge_counts)
        if shrunk:
            raise MonotonicityError(f"edge {shrunk[0]} multiplicity shrinks at delta={delta}")
        tri_set = set(cx.triangles)
        if not seen_triangles <= tri_set:
            raise MonotonicityError(f"triangles vanish at delta={delta}")
        for v in new_vertices:
            steps.append(FiltrationStep(delta, "vertex", (v,)))
            seen_vertices.add(v)
        new_edges = edge_counts - seen_edge_counts
        for e in sorted(new_edges, key=sort_key):
            steps.extend(FiltrationStep(delta, "edge", e) for _ in range(new_edges[e]))
        seen_edge_counts = edge_counts
        for t in sorted(tri_set - seen_triangles, key=sort_key):
            steps.append(FiltrationStep(delta, "triangle", t))
        seen_triangles = tri_set
    return Filtration(steps)


def reference_compute_barcode(filtration):
    """compute_barcode as it was, over GF(2) with sets of edge positions and
    one Bar per essential H1 class."""
    uf = UnionFind()
    vertex_birth = {}

    def elder_order(root):
        return (vertex_birth[root], _id_sort_key(root))

    bars = []
    sides = None
    pos = 0
    creator_edges = {}
    low_owner = {}
    for step in filtration.steps:
        if step.kind == "vertex":
            uf.add(step.simplex[0])
            vertex_birth[step.simplex[0]] = step.value
        elif step.kind == "edge":
            tail, head = step.simplex
            rt, rh = uf.find(tail), uf.find(head)
            if rt == rh:
                creator_edges[pos] = step.value
            else:
                elder, younger = sorted((rt, rh), key=elder_order)
                bars.append(Bar(0, vertex_birth[younger], step.value))
                uf.union(elder, younger)
            pos += 1
        else:
            if sides is None:
                sides = side_edges([s.simplex for s in filtration.steps if s.kind == "edge"])
            a, b, c = step.simplex
            column = set()
            for side in ((a, b), (b, c), (c, a)):
                column ^= {sides[side][0]}
            while column:
                low = max(column)
                if low in low_owner:
                    column ^= low_owner[low]
                else:
                    break
            if column:
                low = max(column)
                low_owner[low] = column
                bars.append(Bar(1, creator_edges.pop(low), step.value))
    roots = {uf.find(v) for v in uf.parent}
    for root in sorted(roots, key=elder_order):
        bars.append(Bar(0, vertex_birth[root], INF))
    for pos in sorted(creator_edges):
        bars.append(Bar(1, creator_edges[pos], INF))
    bars.sort(key=lambda bar: (bar.dim, bar.birth, bar.death))
    return Barcode(tuple(bars))


LADDER_KINDS = ("prefix", "reorder", "shrink")


@st.composite
def edge_ladders(draw, kind):
    """Nested multigraphs on one vertex set, one per window. Each window adds
    edges, many of them more copies of earlier ones, some written as fresh
    tuples. "prefix" windows extend the previous edge list, "reorder" windows
    shuffle it first, and "shrink" ladders drop earlier copies at one window,
    among reordered edges and added copies of other edges."""
    n = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    windows = draw(st.integers(1, 5))
    shrink_at = draw(st.integers(1, windows - 1)) if kind == "shrink" and windows > 1 else None
    edges = []
    graphs = {}
    for k in range(windows):
        added = draw(st.lists(pairs, min_size=int(kind == "shrink" and k == 0), max_size=5))
        if edges:
            added += draw(st.lists(st.sampled_from(edges), max_size=5))
        added = [tuple(list(e)) if draw(st.booleans()) else e for e in added]
        if kind != "prefix":
            edges = draw(st.permutations(edges))
        if k == shrink_at:
            dropped = [edges.pop(draw(st.integers(0, len(edges) - 1)))
                       for _ in range(draw(st.integers(1, len(edges))))]
            added = [e for e in added if e not in dropped]
        edges = edges + added
        graphs[0.125 * (k + 1)] = ChainComplex(range(n), edges)
    return graphs


def _steps_or_error(build, graphs):
    try:
        filt = build(graphs)
    except MonotonicityError as exc:
        return str(exc)
    return [(s.value, s.kind, s.simplex) for s in filt.steps]


@st.composite
def mixed_value_filtrations(draw):
    """Graph filtrations whose values mix 1 with 1.0 and 0.0 with -0.0, and
    whose parallel edges repeat one step object or use equal new ones."""
    n = draw(st.integers(1, 4))
    steps = [FiltrationStep(draw(st.sampled_from([0, 0.0, -0.0])), "vertex", (v,))
             for v in range(n)]
    for _ in range(draw(st.integers(0, 10))):
        step = FiltrationStep(draw(st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5])), "edge",
                              (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
        steps += [step] * draw(st.integers(1, 3))
    return Filtration(draw(st.permutations(steps)))


class TestWindowFiltrationOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LADDER_KINDS).flatmap(
        lambda kind: st.tuples(st.just(kind), edge_ladders(kind))))
    def test_matches_reference(self, drawn):
        kind, graphs = drawn
        expected = _steps_or_error(reference_window_filtration, graphs)
        assert _steps_or_error(window_filtration, graphs) == expected
        # a shrinking ladder always fails, and only a shrinking ladder does
        assert isinstance(expected, str) == (kind == "shrink" and len(graphs) > 1)

    def test_prefix_ladder_shares_step_objects(self):
        g1 = ChainComplex([0, 1], [(0, 1)])
        g2 = ChainComplex([0, 1], list(g1.edges) + [(0, 1), (0, 1), (1, 0)])
        steps = window_filtration({0.1: g1, 0.2: g2}).steps
        assert [(s.value, s.simplex) for s in steps[2:]] == [
            (0.1, (0, 1)), (0.2, (0, 1)), (0.2, (0, 1)), (0.2, (1, 0))]
        assert steps[3] is steps[4]


@st.composite
def repeated_steps(draw):
    """A small filtration's steps, each edge and triangle with a copy count of 1 to 3."""
    filt = draw(small_filtrations())
    return [(step, 1 if step.kind == "vertex" else draw(st.integers(1, 3))) for step in filt.steps]


def doubled(filt):
    return [(step, 1 if step.kind == "vertex" else 2) for step in filt.steps]


class TestRepeatedStepObjects:
    @settings(max_examples=200, deadline=None)
    @given(repeated_steps())
    @example(doubled(MOEBIUS))
    @example(doubled(surface_filtration(RP2_TRIANGLES)))
    def test_shared_object_matches_distinct_equal_steps(self, drawn):
        # window_filtration repeats one step object per parallel copy
        shared = [copy for step, k in drawn for copy in [step] * k]
        distinct = [FiltrationStep(step.value, step.kind, step.simplex)
                    for step, k in drawn for _ in range(k)]
        rows = TestComputeBarcodeOracle._rows
        assert rows(compute_barcode(Filtration(shared))) == rows(
            compute_barcode(Filtration(distinct)))


class TestComputeBarcodeOracle:
    # repr tells 1 from 1.0 and 0.0 from -0.0, which tuple equality does not
    @staticmethod
    def _rows(barcode):
        return [((b.dim, b.birth, b.death), repr(b)) for b in barcode.bars]

    @settings(max_examples=200, deadline=None)
    @given(edge_ladders("reorder"))
    def test_ladders_match_reference(self, graphs):
        filt = window_filtration(graphs)
        assert self._rows(compute_barcode(filt)) == self._rows(reference_compute_barcode(filt))

    @settings(max_examples=200, deadline=None)
    @given(mixed_value_filtrations() | small_filtrations())
    @example(MOEBIUS)
    def test_filtrations_match_reference(self, filt):
        # the reference reduces over GF(2): it may differ only where torsion
        # makes its bars miscount the rational persistent Betti numbers
        got, expected = compute_barcode(filt), reference_compute_barcode(filt)
        if self._rows(got) != self._rows(expected):
            assert persistent_betti_misses(expected, filt)
            assert persistent_betti_misses(got, filt) == []
