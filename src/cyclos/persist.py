"""Filtrations of graph/2-complexes, H0/H1 barcodes, and the persistence index.

This is the one H0 engine in cyclos: ``ght.peak_persistence`` builds a
filtration of its grid and reads the dim-0 bars of :func:`compute_barcode`.
H0 runs on ``chaincore.UnionFind`` with the elder rule (ties broken by lower
vertex id); H1 deaths come from standard GF(2) column reduction of the
triangle columns, which is exact on the small complexes in scope. Triangle
sides resolve to edges by ``chaincore.side_edges``, the rule ``ChainComplex``
builds boundary2 with, so the barcode reduces the boundary matrix of
``Filtration.complex_at`` (Zomorodian & Carlsson, "Computing persistent
homology", 2005).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .chaincore import ChainComplex, UnionFind, side_edges
from .errors import CyclosError, FiltrationError, MonotonicityError, malformed

INF = math.inf

_DIM_RANK = {"vertex": 0, "edge": 1, "triangle": 2}


@dataclass(frozen=True)
class FiltrationStep:
    value: float
    kind: str  # vertex | edge | triangle
    simplex: tuple

    def __post_init__(self):
        if self.kind not in _DIM_RANK:
            raise CyclosError(f"unknown simplex kind {self.kind!r}")
        if math.isnan(self.value):
            raise FiltrationError(f"{self.kind} {self.simplex} has a NaN filtration value")


class Filtration:
    """Ordered simplex insertions, canonically sorted and face-validated.

    Simultaneous values are ordered vertices < edges < triangles, then by
    simplex id, so barcodes are deterministic.
    """

    def __init__(self, steps: Sequence[FiltrationStep]):
        ordered = sorted(
            steps, key=lambda s: (s.value, _DIM_RANK[s.kind], _simplex_sort_key(s.simplex))
        )
        self.steps = tuple(ordered)
        self._validate()

    def _validate(self):
        present_vertices: set = set()
        present_edges: set[tuple] = set()
        for step in self.steps:
            if step.kind == "vertex":
                if step.simplex[0] in present_vertices:
                    raise FiltrationError(f"vertex {step.simplex[0]!r} inserted twice")
                present_vertices.add(step.simplex[0])
            elif step.kind == "edge":
                tail, head = step.simplex
                if tail not in present_vertices or head not in present_vertices:
                    raise FiltrationError(f"edge {step.simplex} added before its vertices")
                present_edges.add((tail, head))
            else:
                a, b, c = step.simplex
                for side in ((a, b), (b, c), (c, a)):
                    if side not in present_edges and (side[1], side[0]) not in present_edges:
                        raise FiltrationError(
                            f"triangle {step.simplex} added before side {side}"
                        )

    def complex_at(self, value: float) -> ChainComplex:
        """Sub-complex of all simplices with filtration value <= value."""
        vertices, edges, triangles = [], [], []
        for step in self.steps:
            if step.value > value:
                continue
            if step.kind == "vertex":
                vertices.append(step.simplex[0])
            elif step.kind == "edge":
                edges.append(step.simplex)
            else:
                triangles.append(step.simplex)
        return ChainComplex(vertices, edges, triangles)

    def to_json_obj(self) -> dict:
        return {"steps": [[s.value, s.kind, list(s.simplex)] for s in self.steps]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Filtration":
        with malformed("filtration JSON"):
            steps = []
            for value, kind, simplex in obj["steps"]:
                simplex = (simplex,) if not isinstance(simplex, list) else tuple(simplex)
                steps.append(FiltrationStep(float(value), kind, simplex))
            return cls(steps)


def _id_sort_key(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return (1, str(x))
    return (0, x)


def _simplex_sort_key(simplex: tuple):
    return tuple(_id_sort_key(x) for x in simplex)


@dataclass(frozen=True)
class Bar:
    dim: int
    birth: float
    death: float  # math.inf for essential classes

    def __post_init__(self):
        if not self.birth <= self.death:  # also rejects NaN
            raise CyclosError(f"bar needs birth <= death: {self}")

    @property
    def length(self) -> float:
        return self.death - self.birth

    def alive_at(self, value: float) -> bool:
        return self.birth <= value < self.death


@dataclass(frozen=True)
class Barcode:
    bars: tuple[Bar, ...]

    def in_dim(self, d: int) -> tuple[Bar, ...]:
        return tuple(b for b in self.bars if b.dim == d)

    def alive_count(self, dim: int, value: float) -> int:
        return sum(1 for b in self.bars if b.dim == dim and b.alive_at(value))

    def max_finite(self) -> float | None:
        finite = [b.birth for b in self.bars] + [b.death for b in self.bars if b.death != INF]
        return max(finite) if finite else None

    def to_json_obj(self) -> dict:
        return {
            "bars": [
                [b.dim, b.birth, "inf" if b.death == INF else b.death] for b in self.bars
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Barcode":
        with malformed("barcode JSON"):
            return cls(tuple(Bar(int(d), float(b), float(dth)) for d, b, dth in obj["bars"]))


@dataclass(frozen=True)
class PersistenceIndex:
    """(count, total length) of bars persisting at least `threshold`."""

    threshold: float
    long_bar_count: int
    total_persistence: float


def compute_barcode(filtration: Filtration) -> Barcode:
    uf = UnionFind()
    vertex_birth: dict = {}

    def elder_order(root):
        return (vertex_birth[root], _id_sort_key(root))

    bars: list[Bar] = []
    # edges are positioned in step order, as in complex_at; validation puts
    # the lowest-index edge of every triangle side before the triangle
    sides = side_edges([step.simplex for step in filtration.steps if step.kind == "edge"])
    pos = 0  # position of the next edge
    creator_edges: dict[int, float] = {}  # edge position -> birth value of its H1 class
    low_owner: dict[int, set[int]] = {}  # pivot edge position -> reduced column (set of edge pos)

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
            a, b, c = step.simplex
            column: set[int] = set()
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
                birth = creator_edges.pop(low)
                bars.append(Bar(1, birth, step.value))
            # empty column: triangle creates an H2 class, out of scope

    roots = {uf.find(v) for v in uf.parent}
    for root in sorted(roots, key=elder_order):
        bars.append(Bar(0, vertex_birth[root], INF))
    for pos in sorted(creator_edges):
        bars.append(Bar(1, creator_edges[pos], INF))
    bars.sort(key=lambda bar: (bar.dim, bar.birth, bar.death))
    return Barcode(tuple(bars))


def persistence_index(barcode: Barcode, threshold: float, cap: float | None = None) -> PersistenceIndex:
    """Count/sum bars whose (capped) persistence reaches the threshold."""
    if threshold < 0:
        raise CyclosError("threshold must be non-negative")
    if cap is None:
        max_finite = barcode.max_finite()
        cap = (max_finite + 1.0) if max_finite is not None else 1.0
    count = 0
    total = 0.0
    for bar in barcode.bars:
        death = min(bar.death, cap)
        length = death - bar.birth
        if length >= threshold:
            count += 1
            total += length
    return PersistenceIndex(threshold, count, total)


def window_filtration(graphs: Mapping[float, ChainComplex]) -> Filtration:
    """Filtration of nested complexes indexed by a growing window size.

    Simplices enter at the smallest window containing them; parallel edges
    are matched by (tail, head) multiplicity, which must be non-decreasing.
    """
    if not graphs:
        return Filtration([])
    deltas = sorted(graphs)
    steps: list[FiltrationStep] = []
    seen_vertices: set = set()
    seen_edge_counts: Counter = Counter()
    seen_triangles: set = set()
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
        for e in sorted(new_edges, key=_simplex_sort_key):
            steps.extend(FiltrationStep(delta, "edge", e) for _ in range(new_edges[e]))
        seen_edge_counts = edge_counts
        for t in sorted(tri_set - seen_triangles, key=_simplex_sort_key):
            steps.append(FiltrationStep(delta, "triangle", t))
        seen_triangles = tri_set
    return Filtration(steps)
