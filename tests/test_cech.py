"""Gluing, cosheaf colimits and pairing cocycles on small covers of a circle.

Open i of an n-arc cover holds the ground points i, i+1 and i+2 (mod n), so
opens one or two steps apart overlap and every three consecutive opens share
a point. For n >= 7 the nerve is a triangulated annulus with n triangles
and one independent cycle, which makes ``cocycle_class`` reduce modulo
triangle boundaries.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclos import cech, chaincore
from cyclos.cech import (
    ColimitElement,
    CosheafData,
    Cover,
    GlobalSection,
    Obstruction,
    Pairing,
    SheafData,
    adjoint_extensions,
    build_nerve,
    check_naturality,
    cocycle_class,
    cosheaf_colimit,
    glue_sections,
    pairing_cocycle,
)
from cyclos.errors import ClosureError, CyclosError, PreconditionError

DIM = 2
SEEDS = st.integers(0, 2**32 - 1)
OPENS = st.integers(7, 9)


def arc_cover(n):
    return Cover(range(n), [{i, (i + 1) % n, (i + 2) % n} for i in range(n)])


def well_conditioned(rng):
    """Identity plus entries in [-0.4, 0.4]: determinant at least 0.2."""
    return np.eye(DIM) + rng.uniform(-0.4, 0.4, size=(DIM, DIM))


def spd(rng):
    a = rng.uniform(-0.5, 0.5, size=(DIM, DIM))
    return a @ a.T + np.eye(DIM)


def glued_sheaf(rng, nerve):
    """One global vector x seen in random coordinates: open i stores T_i x and
    overlap ij stores Q_ij x with Q_ij orthogonal, so the sections glue."""
    gauges = [well_conditioned(rng) for _ in nerve.vertices]
    x = rng.choice([-1.0, 1.0], size=DIM) * rng.uniform(0.5, 1.0, size=DIM)
    restrictions = {}
    for i, j in nerve.edges:
        q = np.linalg.qr(rng.normal(size=(DIM, DIM)))[0]
        restrictions[(i, j)] = (q @ np.linalg.inv(gauges[i]), q @ np.linalg.inv(gauges[j]))
    return SheafData.build([t @ x for t in gauges], restrictions)


def random_pairing(rng, nerve):
    return Pairing.build([spd(rng) for _ in nerve.vertices], {e: spd(rng) for e in nerve.edges})


def test_arc_nerve_is_an_annulus():
    nerve = build_nerve(arc_cover(7))
    assert (len(nerve.edges), len(nerve.triangles)) == (14, 7)
    assert chaincore.betti(nerve, 0) == chaincore.betti(nerve, 1) == 1


def reference_nerve_simplices(cover):
    """Edges and triangles of the nerve by testing every pair and triple."""
    opens, n = cover.opens, len(cover.opens)
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if opens[i] & opens[j]]
    triangles = [(i, j, k) for i, j, k in itertools.combinations(range(n), 3)
                 if opens[i] & opens[j] & opens[k]]
    return edges, triangles


@st.composite
def small_covers(draw):
    """Up to 9 opens on up to 6 points: repeated opens, and triples that
    overlap pairwise but share no point."""
    points = draw(st.integers(1, 6))
    opens = draw(st.lists(st.sets(st.integers(0, points - 1), min_size=1),
                          min_size=1, max_size=9))
    return Cover(range(points), opens)


@settings(max_examples=300, deadline=None)
@given(small_covers())
@example(Cover(range(3), [{0, 1}, {1, 2}, {0, 2}]))  # a hollow triangle
def test_nerve_matches_the_triple_loop(cover):
    nerve = build_nerve(cover)
    assert (list(nerve.edges), list(nerve.triangles)) == reference_nerve_simplices(cover)


@settings(max_examples=50, deadline=None)
@given(SEEDS, OPENS)
def test_adjoint_extensions_are_natural(seed, n):
    rng = np.random.default_rng(seed)
    nerve = build_nerve(arc_cover(n))
    sheaf = glued_sheaf(rng, nerve)
    pairing = random_pairing(rng, nerve)
    cosections = [rng.normal(size=DIM) for _ in nerve.vertices]
    cosheaf = CosheafData.build(cosections, adjoint_extensions(sheaf, pairing, nerve))
    assert check_naturality(sheaf, cosheaf, pairing, nerve) == []


@settings(max_examples=50, deadline=None)
@given(SEEDS, OPENS)
def test_pairing_cocycle_of_glued_sections_is_exact(seed, n):
    # with s_i = T_i x and orthogonal Q_ij, omega_ij = x.u_j - x.u_i where
    # u_i = T_i^-1 M_i g_i: a coboundary, so closed and of class zero
    rng = np.random.default_rng(seed)
    nerve = build_nerve(arc_cover(n))
    sheaf = glued_sheaf(rng, nerve)
    pairing = random_pairing(rng, nerve)
    cosections = [rng.normal(size=DIM) for _ in nerve.vertices]
    cosheaf = CosheafData.build(cosections, adjoint_extensions(sheaf, pairing, nerve))
    result = pairing_cocycle(sheaf, cosheaf, pairing, nerve)
    assert set(result.coboundary) == set(nerve.triangles)
    assert result.max_coboundary() < 1e-9
    assert all(abs(c) < 1e-9 for c in cocycle_class(result.omega, nerve).coordinates)


@settings(max_examples=50, deadline=None)
@given(SEEDS, OPENS, st.data())
def test_gluing_reports_exactly_the_broken_overlaps(seed, n, data):
    rng = np.random.default_rng(seed)
    cover = arc_cover(n)
    nerve = build_nerve(cover)
    sheaf = glued_sheaf(rng, nerve)
    broken = set(data.draw(st.lists(st.sampled_from(nerve.edges), unique=True)))
    restrictions = dict(sheaf.restrictions)
    for i, j in broken:
        # shift what open j restricts to by v, with max |v| >= 0.1
        s_j = sheaf.sections[j]
        v = rng.choice([-1.0, 1.0], size=DIM) * rng.uniform(0.1, 1.0, size=DIM)
        from_i, from_j = restrictions[(i, j)]
        restrictions[(i, j)] = (from_i, from_j + np.outer(v, s_j) / (s_j @ s_j))
    result = glue_sections(SheafData.build(sheaf.sections, restrictions), cover)
    if broken:
        assert isinstance(result, Obstruction) and result.kind == "gluing"
        assert {edge for edge, _ in result.mismatches} == broken
    else:
        assert isinstance(result, GlobalSection)


def unimodular(rng):
    """Integer matrix with determinant 1, so products stay exact in floats."""
    a, b = rng.integers(-2, 3, size=2)
    return np.array([[1.0, a], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [b, 1.0]])


@settings(max_examples=50, deadline=None)
@given(SEEDS, OPENS, st.data())
def test_colimit_reports_exactly_the_mismatched_opens(seed, n, data):
    # extensions T_i P_ij and T_j P_ij identify T_i y with T_j y, so the
    # colimit is one copy of the stalk and co-section T_i c lands on c; the
    # integer data keeps every relation exact
    rng = np.random.default_rng(seed)
    cover = arc_cover(n)
    nerve = build_nerve(cover)
    gauges = [unimodular(rng) for _ in nerve.vertices]
    extensions = {}
    for i, j in nerve.edges:
        p = unimodular(rng)
        extensions[(i, j)] = (gauges[i] @ p, gauges[j] @ p)
    plans = [np.array([1.0, -2.0]), np.array([0.0, 3.0])]
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cosections = [gauges[i] @ plans[label] for i, label in enumerate(labels)]
    result = cosheaf_colimit(CosheafData.build(cosections, extensions), cover)
    mismatched = {
        (i, j) for i, j in itertools.combinations(range(n), 2) if labels[i] != labels[j]
    }
    if mismatched:
        assert isinstance(result, Obstruction) and result.kind == "colimit"
        assert {pair for pair, _ in result.mismatches} == mismatched
    else:
        assert isinstance(result, ColimitElement)


def test_cover_with_no_opens_glues_and_colimits_to_the_zero_space():
    cover = Cover([0], [])
    assert cosheaf_colimit(CosheafData.build([], {}), cover) == ColimitElement(())
    assert glue_sections(SheafData.build([], {}), cover) == GlobalSection(())


def closed_cochain(rng, nerve):
    """Random element of the kernel of the coboundary on edges."""
    edge_index = {e: k for k, e in enumerate(nerve.edges)}
    delta = np.zeros((len(nerve.triangles), len(nerve.edges)))
    for t, (a, b, c) in enumerate(nerve.triangles):
        delta[t, edge_index[(b, c)]] += 1
        delta[t, edge_index[(a, c)]] -= 1
        delta[t, edge_index[(a, b)]] += 1
    _, s, vt = np.linalg.svd(delta)
    kernel = vt[int(np.sum(s > 1e-9)):]
    return dict(zip(nerve.edges, rng.normal(size=len(kernel)) @ kernel))


@settings(max_examples=50, deadline=None)
@given(SEEDS, OPENS)
def test_cocycle_class_ignores_added_coboundaries(seed, n):
    rng = np.random.default_rng(seed)
    nerve = build_nerve(arc_cover(n))
    omega = closed_cochain(rng, nerve)
    phi = rng.normal(size=n)
    shifted = {(i, j): value + phi[j] - phi[i] for (i, j), value in omega.items()}
    before = cocycle_class(omega, nerve).coordinates
    after = cocycle_class(shifted, nerve).coordinates
    assert len(before) == 1
    assert after == pytest.approx(before, abs=1e-9)


def test_cocycle_class_rejects_an_open_cochain():
    nerve = build_nerve(arc_cover(7))
    omega = {e: 0.0 for e in nerve.edges}
    omega[nerve.edges[0]] = 1.0
    with pytest.raises(ClosureError):
        cocycle_class(omega, nerve)


def test_cocycle_class_reads_triangles_in_either_orientation():
    # triangles written (j, i, k), so the side j -> i runs against its nerve edge
    nerve = build_nerve(arc_cover(7))
    flipped = chaincore.ChainComplex(nerve.vertices, nerve.edges,
                                     [(b, a, c) for a, b, c in nerve.triangles])
    omega = closed_cochain(np.random.default_rng(3), nerve)
    assert cocycle_class(omega, flipped) == cocycle_class(omega, nerve)
    with pytest.raises(ClosureError):
        cocycle_class({**omega, nerve.edges[0]: omega[nerve.edges[0]] + 1.0}, flipped)


@pytest.mark.parametrize("omega", [{(0, 1): 1.0, (1, 0): 1.0}, {(1, 0): 1.0, (0, 1): 1.0}])
def test_cocycle_class_rejects_an_edge_in_both_orientations(omega):
    # whichever orientation came last would otherwise set the edge's value
    nerve = build_nerve(Cover(range(6), [{0, 1}, {1, 2}, {2, 3}, {3, 0}]))
    with pytest.raises(PreconditionError, match=r"\(0, 1\)"):
        cocycle_class(omega, nerve)


@st.composite
def nerves_with_values(draw):
    """Edges (i, j) with i < j in a drawn order, every triangle i < j < k they
    span, and one value per edge, half of them signed zeros."""
    n = draw(st.integers(3, 6))
    pairs = draw(st.permutations(list(itertools.combinations(range(n), 2))))
    edges = [e for e in pairs if draw(st.booleans())]
    triangles = [(a, b, c) for a, b, c in itertools.combinations(range(n), 3)
                 if {(a, b), (b, c), (a, c)} <= set(edges)]
    value = st.sampled_from([0.0, -0.0]) | st.floats()
    values = draw(st.lists(value, min_size=len(edges), max_size=len(edges)))
    return chaincore.ChainComplex(range(n), edges, triangles), values


@settings(max_examples=300, deadline=None)
@given(nerves_with_values())
# -0.0 - 0.0 + -0.0 is -0.0, but sum() of those three terms is 0.0
@example((chaincore.ChainComplex(range(3), [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)]),
          [-0.0, -0.0, 0.0]))
def test_coboundary_matches_the_spelled_out_formula_to_the_bit(case):
    nerve, values = case
    omega = dict(zip(nerve.edges, values))
    want = [omega[(b, c)] - omega[(a, c)] + omega[(a, b)] for a, b, c in nerve.triangles]
    assert list(map(repr, cech._coboundary(values, nerve))) == list(map(repr, want))


I2 = np.eye(DIM)
V2 = np.ones(DIM)
NAN_V2 = np.array([math.nan, 0.0])
INF_I2 = np.array([[math.inf, 0.0], [0.0, 1.0]])
PATH_COVER = Cover(range(4), [{0, 1}, {1, 2}, {2, 3}])  # nerve edges (0, 1) and (1, 2)
PATH_NERVE = build_nerve(PATH_COVER)
PATH_MAPS = {(0, 1): (I2, I2), (1, 2): (I2, I2)}
PATH_SHEAF = SheafData.build([V2] * 3, PATH_MAPS)
PATH_COSHEAF = CosheafData.build([V2] * 3, PATH_MAPS)
PATH_PAIRING = Pairing.build([I2] * 3, {(0, 1): I2, (1, 2): I2})
DISJOINT_COVER = Cover(range(3), [{0}, {1}, {2}])  # a nerve with no edges
TRIANGLE_NERVE = build_nerve(Cover([0], [{0}, {0}, {0}]))  # one filled triangle
RING_NERVE = build_nerve(Cover(range(4), [{0, 1}, {1, 2}, {2, 3}, {3, 0}]))  # one hollow square


@pytest.mark.parametrize("call", [
    pytest.param(lambda: glue_sections(SheafData.build([V2] * 3, {(0, 1): (I2, I2)}), PATH_COVER),
                 id="glue-missing-restriction"),
    pytest.param(lambda: cosheaf_colimit(CosheafData.build([V2] * 3, {(0, 1): (I2, I2)}),
                                         PATH_COVER),
                 id="colimit-missing-extension"),
    pytest.param(lambda: pairing_cocycle(PATH_SHEAF, PATH_COSHEAF,
                                         Pairing.build([I2] * 3, {(0, 1): I2}), PATH_NERVE),
                 id="cocycle-missing-overlap-form"),
    pytest.param(lambda: pairing_cocycle(SheafData.build([V2] * 3, {(0, 1): (I2, I2)}),
                                         PATH_COSHEAF, PATH_PAIRING, PATH_NERVE),
                 id="cocycle-missing-restriction"),
    pytest.param(lambda: cosheaf_colimit(CosheafData.build([NAN_V2, V2, V2], PATH_MAPS),
                                         PATH_COVER),
                 id="colimit-nan-cosection"),
    pytest.param(lambda: cosheaf_colimit(
        CosheafData.build([V2] * 3, {**PATH_MAPS, (1, 2): (I2, I2 * math.nan)}), PATH_COVER),
                 id="colimit-nan-extension"),
    pytest.param(lambda: cosheaf_colimit(CosheafData.build([V2 * math.inf, V2, V2], PATH_MAPS),
                                         PATH_COVER),
                 id="colimit-inf-cosection"),
    pytest.param(lambda: cosheaf_colimit(
        CosheafData.build([V2] * 3, {**PATH_MAPS, (0, 1): (INF_I2, I2)}), PATH_COVER),
                 id="colimit-inf-extension"),
    pytest.param(lambda: SheafData.build([V2] * 2, {(0, 2): (I2, I2)}),
                 id="sheaf-key-names-missing-open"),
    pytest.param(lambda: SheafData.build([V2] * 2, {(-1, 0): (I2, I2)}),
                 id="sheaf-negative-key"),
    pytest.param(lambda: CosheafData.build([V2] * 2, {(0, 2): (I2, I2)}),
                 id="cosheaf-key-names-missing-open"),
    pytest.param(lambda: Pairing.build([I2] * 2, {(0, 2): I2}),
                 id="pairing-key-names-missing-open"),
    pytest.param(lambda: pairing_cocycle(
        PATH_SHEAF, PATH_COSHEAF,
        Pairing.build([I2 * math.nan, I2, I2], PATH_PAIRING.overlap_forms), PATH_NERVE),
                 id="cocycle-nan-open-form"),
    pytest.param(lambda: Cover([0], [[[0]]]), id="cover-unhashable-point"),
    pytest.param(lambda: Cover.from_json_obj({"ground": [0]}), id="cover-json-no-opens"),
    pytest.param(lambda: glue_sections(SheafData.build([V2], {}), DISJOINT_COVER),
                 id="glue-fewer-sections-than-opens"),
    pytest.param(lambda: cosheaf_colimit(CosheafData.build([V2, V2 * 0, V2], {}),
                                         Cover([0], [{0}])),
                 id="colimit-more-cosections-than-opens"),
    pytest.param(lambda: cocycle_class({(0,): 1.0}, PATH_NERVE), id="cocycle-one-id-edge"),
    pytest.param(lambda: cocycle_class({(0, 1): "x"}, PATH_NERVE), id="cocycle-string-value"),
    pytest.param(lambda: cocycle_class({(0, 1): 1.0, (1, 0): 1.0}, PATH_NERVE),
                 id="cocycle-edge-in-both-orientations"),
    pytest.param(lambda: cocycle_class({(0, 1): math.nan}, TRIANGLE_NERVE),
                 id="cocycle-nan-value-on-a-triangle"),
    pytest.param(lambda: cocycle_class({(0, 1): math.nan}, RING_NERVE), id="cocycle-nan-value"),
    pytest.param(lambda: cocycle_class({(0, 1): -math.inf, (1, 2): math.inf}, RING_NERVE),
                 id="cocycle-opposite-inf-values"),
])
def test_rejected_with_cyclos_error(call):
    with pytest.raises(CyclosError):
        call()


I3 = np.eye(3)
WIDE_OPEN_FORMS = Pairing.build([I3, I2, I2], PATH_PAIRING.overlap_forms)  # 3x3 on a 2-dim open


# numpy's LinAlgError and shape ValueErrors from these forms surface as PreconditionError
@pytest.mark.parametrize("call", [
    pytest.param(lambda: adjoint_extensions(
        PATH_SHEAF, Pairing.build([I2 * 0, I2, I2], PATH_PAIRING.overlap_forms), PATH_NERVE),
                 id="adjoint-singular-open-form"),
    pytest.param(lambda: adjoint_extensions(PATH_SHEAF, WIDE_OPEN_FORMS, PATH_NERVE),
                 id="adjoint-open-form-shape"),
    pytest.param(lambda: check_naturality(PATH_SHEAF, PATH_COSHEAF, WIDE_OPEN_FORMS, PATH_NERVE),
                 id="naturality-open-form-shape"),
    pytest.param(lambda: pairing_cocycle(PATH_SHEAF, PATH_COSHEAF, WIDE_OPEN_FORMS, PATH_NERVE),
                 id="cocycle-open-form-shape"),
    pytest.param(lambda: pairing_cocycle(PATH_SHEAF, PATH_COSHEAF,
                                         Pairing.build([I2] * 3, {(0, 1): I3, (1, 2): I2}),
                                         PATH_NERVE),
                 id="cocycle-overlap-form-shape"),
    pytest.param(lambda: pairing_cocycle(PATH_SHEAF, PATH_COSHEAF,
                                         Pairing.build([I2] * 3, {(0, 1): 2.0, (1, 2): I2}),
                                         PATH_NERVE),
                 id="cocycle-scalar-overlap-form"),
])
def test_numpy_errors_raise_precondition_error(call):
    with pytest.raises(PreconditionError):
        call()
