"""Gluing, cosheaf colimits and pairing cocycles on small covers of a circle.

Open i of an n-arc cover holds the ground points i, i+1 and i+2 (mod n), so
opens one or two steps apart overlap and every three consecutive opens share
a point. For n >= 7 the nerve is a triangulated annulus with n triangles
and one independent cycle, which makes ``cocycle_class`` reduce modulo
triangle boundaries.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclos import chaincore
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
from cyclos.errors import ClosureError

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
    assert cocycle_class(result.omega, nerve).is_zero()


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
