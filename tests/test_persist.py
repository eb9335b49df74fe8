"""Barcode computation against brute-force Betti oracles."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclos.chaincore import ChainComplex
from cyclos.errors import CyclosError, FiltrationError, MonotonicityError
from cyclos.persist import (
    Bar,
    Barcode,
    Filtration,
    FiltrationStep,
    compute_barcode,
    persistence_index,
    window_filtration,
)

INF = math.inf


def betti_oracle(cx):
    b1m = np.array(cx.boundary1, dtype=float)
    b2m = np.array(cx.boundary2, dtype=float)
    rank1 = np.linalg.matrix_rank(b1m) if cx.edges else 0
    rank2 = np.linalg.matrix_rank(b2m) if cx.triangles else 0
    return len(cx.vertices) - rank1, len(cx.edges) - rank1 - rank2


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

    def test_json_round_trip(self):
        filt = Filtration(steps_for_triangle(fill_at=4.0))
        again = Filtration.from_json_obj(filt.to_json_obj())
        assert again.steps == filt.steps


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
        assert barcode.alive_count(0, 2.0) == 1

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
                assert barcode.alive_count(0, value) == beta0
                assert barcode.alive_count(1, value) == beta1

    def test_antiparallel_side_resolves_like_complex_at(self):
        # side (0, 1) of the triangle is first matched by edge (1, 0) at 0, so
        # the triangle fills the cycle born at 0 and the digon born at 2 lives
        steps = [FiltrationStep(0.0, "vertex", (v,)) for v in (0, 1, 2)]
        steps += [FiltrationStep(0.0, "edge", e) for e in ((1, 0), (1, 2), (2, 0))]
        steps += [FiltrationStep(2.0, "edge", (0, 1)), FiltrationStep(3.0, "triangle", (0, 1, 2))]
        barcode = compute_barcode(Filtration(steps))
        assert [(b.birth, b.death) for b in barcode.in_dim(1)] == [(0.0, 3.0), (2.0, INF)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_persistent_betti_matches_numpy(self, data):
        # bars alive on all of [s, t] count the cycles of K_s that are not
        # boundaries in K_t, whatever the edges the triangle sides resolve to
        filt = data.draw(small_filtrations())
        barcode = compute_barcode(filt)
        values = sorted({step.value for step in filt.steps})
        for i, s in enumerate(values):
            for t in values[i:]:
                alive = sum(1 for b in barcode.in_dim(1) if b.birth <= s and b.death > t)
                assert alive == persistent_betti1(filt, s, t), (s, t)

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


def persistent_betti1(filt, s, t):
    """dim of Z1(K_s) / (Z1(K_s) & B1(K_t)) from numpy float ranks.

    K_s's edges are the first rows of K_t's, so Z1(K_s) & B1(K_t) is the part
    of B1(K_t) that vanishes on the later rows.
    """
    ks, kt = filt.complex_at(s), filt.complex_at(t)
    d1 = np.array(ks.boundary1, dtype=float).reshape(len(ks.vertices), len(ks.edges))
    d2 = np.array(kt.boundary2, dtype=float).reshape(len(kt.edges), len(kt.triangles))
    cycles = len(ks.edges) - _rank(d1)
    return cycles - (_rank(d2) - _rank(d2[len(ks.edges):]))


@st.composite
def small_filtrations(draw, max_vertices=5):
    """At most 5 vertices (ranks over the reals then equal ranks over GF(2)),
    parallel, antiparallel and self-loop edges, triangles on distinct
    vertices, and many tied values."""
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
        for a, b, c in draw(st.lists(st.sampled_from(triples), min_size=1, max_size=5)):
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


class TestPersistenceIndex:
    def test_empty(self):
        idx = persistence_index(Barcode(()), 1.0)
        assert (idx.long_bar_count, idx.total_persistence) == (0, 0.0)

    def test_arithmetic(self):
        bars = Barcode((Bar(1, 0.0, 5.0), Bar(1, 1.0, 5.0), Bar(0, 0.0, 0.5)))
        idx = persistence_index(bars, 1.0)
        assert idx.long_bar_count == 2
        assert idx.total_persistence == pytest.approx(9.0)

    def test_infinite_bars_use_cap(self):
        bars = Barcode((Bar(0, 0.0, INF), Bar(1, 2.0, 3.0)))
        idx = persistence_index(bars, 0.0, cap=10.0)
        assert idx.long_bar_count == 2
        assert idx.total_persistence == pytest.approx(11.0)

    def test_default_cap_is_max_finite_plus_one(self):
        bars = Barcode((Bar(0, 0.0, INF), Bar(1, 2.0, 3.0)))
        idx = persistence_index(bars, 0.0)
        assert idx.total_persistence == pytest.approx(4.0 + 1.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(CyclosError):
            persistence_index(Barcode(()), -0.1)

    def test_few_long_beats_many_short(self):
        # equal total simplex "mass": 2 long robust bars vs 8 short fragile ones
        long_bars = Barcode(tuple(Bar(1, 0.0, 10.0) for _ in range(2)))
        short_bars = Barcode(tuple(Bar(1, float(i), i + 0.5) for i in range(8)))
        threshold = 1.0
        strong = persistence_index(long_bars, threshold)
        weak = persistence_index(short_bars, threshold)
        assert strong.long_bar_count > weak.long_bar_count
        assert strong.total_persistence > weak.total_persistence


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
