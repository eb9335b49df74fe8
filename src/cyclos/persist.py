"""Filtrations of graph/2-complexes and their H0/H1 barcodes.

This is the one H0 engine in cyclos: ``ght.peak_persistence`` builds a
filtration of its grid and reads the dim-0 bars of :func:`compute_barcode`.
H0 runs on ``chaincore.UnionFind`` with the elder rule (ties broken by lower
vertex id); H1 deaths come from reducing each triangle's column, its
``chaincore.faces`` as in ``Filtration.complex_at``'s boundary, by
``chaincore.reduce_column``, over the rationals as ``chaincore.betti`` is
(Zomorodian & Carlsson, "Computing persistent homology", 2005).

A window ladder repeats a few hundred edges thousands of times. Sort keys
are cached per simplex object, so callers should pass one tuple per edge
(``coincidence_persistence`` interns them); the copies an edge gains at one
window share one step object, whose repeats create H1 classes without a
union-find lookup, and the essential H1 classes born at one step value share
one bar.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .chaincore import ChainComplex, UnionFind, faces, reduce_column, side_edges
from .errors import CyclosError, FiltrationError, MonotonicityError, is_int, is_real, malformed

INF = math.inf

_DIM_RANK = {"vertex": 0, "edge": 1, "triangle": 2}


@dataclass(frozen=True)
class FiltrationStep:
    value: float
    kind: str  # vertex | edge | triangle
    simplex: tuple

    def __post_init__(self):
        value = self.value
        try:  # the float test spares the call for the thousands of steps a window ladder builds
            sized = ((type(value) is float or is_real(value))
                     and len(self.simplex) == _DIM_RANK[self.kind] + 1)
        except (KeyError, TypeError):  # a simplex without a length, a bad kind
            sized = False
        if not sized:
            raise FiltrationError(
                "a filtration step is a vertex, edge or triangle of 1, 2 or 3 vertex ids "
                f"at a real value, got {self.kind!r} {self.simplex!r} at {value!r}")
        if value != value:  # NaN, found without a float conversion that a huge int overflows
            raise FiltrationError(f"{self.kind} {self.simplex} has a NaN filtration value")


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
        if not is_real(value) or value != value:  # NaN would keep every simplex
            raise FiltrationError(f"a filtration is cut at a real value, got {value!r}")
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
        if not (is_int(self.dim) and is_real(self.birth) and is_real(self.death)
                and self.birth <= self.death):  # also rejects NaN
            raise CyclosError(f"a bar needs an integer dim and real birth <= death: {self}")

    @property
    def length(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class Barcode:
    bars: tuple[Bar, ...]

    def in_dim(self, d: int) -> tuple[Bar, ...]:
        return tuple(b for b in self.bars if b.dim == d)

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
    owners: dict[int, dict[int, int]] = {}  # low edge position -> reduced triangle column
    previous = None  # the step before: window_filtration repeats one object per parallel copy

    for step in filtration.steps:
        if step.kind == "vertex":
            uf.add(step.simplex[0])
            vertex_birth[step.simplex[0]] = step.value
        elif step.kind == "edge":
            if step is not previous:  # a repeated copy's ends were joined by the first
                tail, head = step.simplex
                rt, rh = uf.find(tail), uf.find(head)
            if step is previous or rt == rh:
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
            column = reduce_column(faces(sides, step.simplex), owners)
            if column:
                low = max(column)
                owners[low] = column
                bars.append(Bar(1, creator_edges.pop(low), step.value))
            # empty column: triangle creates an H2 class, out of scope
        previous = step

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
    if not all(map(is_real, graphs)):
        raise FiltrationError(f"window values must be real numbers, got {list(graphs)!r}")
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
