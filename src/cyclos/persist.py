"""Filtrations of graph/2-complexes and their H0/H1 barcodes.

This is the one H0 engine in cyclos: ``ght.peak_persistence`` builds a
filtration of its grid and reads the dim-0 bars of :func:`compute_barcode`.
H0 runs on ``chaincore.UnionFind`` with the elder rule (ties broken by lower
vertex id); H1 deaths come from standard column reduction of the triangle
columns (Zomorodian & Carlsson, "Computing persistent homology", 2005).
Triangle sides resolve to edges by ``chaincore.side_edges``, the rule
``ChainComplex`` builds boundary2 with, so the barcode reduces the boundary
matrix of ``Filtration.complex_at``, but over GF(2), while ``chaincore``'s
``betti`` and homology classes reduce over the rationals. The two disagree
when H1 has 2-torsion: on the 6-vertex triangulation of RP^2 one H1 bar never
dies, yet ``betti(complex_at(2), 1)`` is 0.

A window ladder repeats a few hundred edges thousands of times. Sort keys
are cached per simplex object, so callers should pass one tuple per edge
(``coincidence_persistence`` interns them); the copies an edge gains at one
window share one step object, and the essential H1 classes born at one step
value share one bar.
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
        try:
            nan = math.isnan(self.value)
            sized = len(self.simplex) == _DIM_RANK[self.kind] + 1
        except (KeyError, TypeError):  # a non-real value, a simplex without a length, a bad kind
            nan = sized = False
        if nan:
            raise FiltrationError(f"{self.kind} {self.simplex} has a NaN filtration value")
        if not sized:
            raise FiltrationError(
                "a filtration step is a vertex, edge or triangle of 1, 2 or 3 vertex ids "
                f"at a real value, got {self.kind!r} {self.simplex!r} at {self.value!r}")


class Filtration:
    """Ordered simplex insertions, canonically sorted and face-validated.

    Simultaneous values are ordered vertices < edges < triangles, then by
    simplex id, so barcodes are deterministic.
    """

    def __init__(self, steps: Sequence[FiltrationStep]):
        sort_key = _cached_sort_key()
        with malformed("filtration", FiltrationError):  # unhashable ids, non-step items
            ordered = sorted(steps, key=lambda s: (s.value, _DIM_RANK[s.kind], sort_key(s.simplex)))
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


def _cached_sort_key():
    """`_simplex_sort_key` computed once per simplex object. The cache is keyed
    by identity, not value: equal ids such as 1 and True sort apart."""
    cache: dict[int, tuple] = {}

    def sort_key(simplex: tuple):
        key = cache.get(id(simplex))
        if key is None:
            key = cache[id(simplex)] = _simplex_sort_key(simplex)
        return key

    return sort_key


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


def compute_barcode(filtration: Filtration) -> Barcode:
    uf = UnionFind()
    vertex_birth: dict = {}

    def elder_order(root):
        return (vertex_birth[root], _id_sort_key(root))

    bars: list[Bar] = []
    sides = None  # built at the first triangle
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
            if sides is None:
                # edges are positioned in step order, as in complex_at; validation
                # puts the lowest-index edge of every triangle side before the triangle
                sides = side_edges([s.simplex for s in filtration.steps if s.kind == "edge"])
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
    bar = None
    for pos in sorted(creator_edges):  # filtration order, so equal births are adjacent
        birth = creator_edges[pos]
        if bar is None or bar.birth is not birth:  # not ==: 1 and 1.0, 0.0 and -0.0 print apart
            bar = Bar(1, birth, INF)
        bars.append(bar)
    bars.sort(key=lambda bar: (bar.dim, bar.birth, bar.death))
    return Barcode(tuple(bars))


def window_filtration(graphs: Mapping[float, ChainComplex]) -> Filtration:
    """Filtration of nested complexes indexed by a growing window size.

    Simplices enter at the smallest window containing them; parallel edges
    are matched by (tail, head) multiplicity, which must be non-decreasing.
    A window whose edge list extends the previous window's is counted by its
    appended tail alone, and the copies an edge gains at a window share one
    step object.
    """
    if not graphs:
        return Filtration([])
    sort_key = _cached_sort_key()
    steps: list[FiltrationStep] = []
    seen_vertices: set = set()
    seen_triangles: set = set()
    before: tuple = ()  # the previous window's edges
    for delta in sorted(graphs):
        cx = graphs[delta]
        new_vertices = [v for v in cx.vertices if v not in seen_vertices]
        missing = seen_vertices - set(cx.vertices)
        if missing:
            raise MonotonicityError(f"vertices {sorted(map(str, missing))} vanish at delta={delta}")
        edges = cx.edges
        if edges[: len(before)] == before:
            grown = Counter(edges[len(before):])
        else:
            counts, seen = Counter(edges), Counter(before)
            grown = {e: n - seen[e] for e, n in counts.items() if n > seen[e]}
            if len(edges) != len(before) + sum(grown.values()):  # a multiplicity fell
                shrunk = next(e for e, n in seen.items() if counts[e] < n)
                raise MonotonicityError(f"edge {shrunk} multiplicity shrinks at delta={delta}")
        tri_set = set(cx.triangles)
        if not seen_triangles <= tri_set:
            raise MonotonicityError(f"triangles vanish at delta={delta}")
        for v in new_vertices:
            steps.append(FiltrationStep(delta, "vertex", (v,)))
            seen_vertices.add(v)
        for e in sorted(grown, key=sort_key):
            steps += [FiltrationStep(delta, "edge", e)] * grown[e]
        before = edges
        for t in sorted(tri_set - seen_triangles, key=sort_key):
            steps.append(FiltrationStep(delta, "triangle", t))
        seen_triangles = tri_set
    return Filtration(steps)
