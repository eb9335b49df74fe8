"""Integer chain complexes in dimensions 0-2 and their cycle machinery.

The complex stores an ordered vertex list, oriented edges (parallel edges
allowed), and optional oriented triangles with their :func:`faces`. Chain
boundaries, projections and class reduction hold a chain as integer
numerators over the lcm of its denominators and build ``Fraction``s once
per result, so closure checks (``boundary1(z) == 0``) are exact.
:func:`reduce_column` is the one reduction modulo a span (classes, barcodes, colimits).
Fundamental cycles come from root paths in the lexicographic-minimum
spanning forest. The projection onto cycles solves a vertex-sized
graph-Laplacian system grounded at the forest roots (Lim, "Hodge Laplacians
on graphs", SIAM Review 2020), not a system over the cycle basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from . import ratlin
from .errors import (
    ClosureError, CyclosError, MalformedChainError, PreconditionError, is_int, malformed,
)

VertexId = Hashable


@dataclass(frozen=True)
class Chain1:
    """Sparse 1-chain: edge index -> rational coefficient, zeros dropped."""

    coefficients: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, Fraction | int]) -> "Chain1":
        for idx in coeffs:
            if not is_int(idx):
                raise MalformedChainError(f"edge index {idx!r} is not an integer")
        with malformed("chain", MalformedChainError):
            items = [(int(idx), val if type(val) is Fraction else Fraction(val))
                     for idx, val in sorted(coeffs.items())]
        return cls(tuple((idx, val) for idx, val in items if val))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coefficients)

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, str]) -> "Chain1":
        with malformed("chain JSON", MalformedChainError):
            coeffs = {int(k): Fraction(str(v)) for k, v in obj.items()}
        return cls.from_dict(coeffs)


@dataclass(frozen=True)
class HomologyClass1:
    """Cycle-basis coordinates reduced modulo the image of the 2-boundary."""

    coordinates: tuple[Fraction, ...]


class UnionFind:
    """Disjoint sets of hashable items with a path-halving ``find``.

    ``union`` takes two roots and the caller decides which one survives, so
    each user keeps its own merge policy (elder rule, scan order).
    """

    def __init__(self, items: Sequence[Hashable] = ()):
        self.parent: dict = {v: v for v in items}

    def add(self, v: Hashable) -> None:
        self.parent[v] = v

    def find(self, v: Hashable) -> Hashable:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, survivor: Hashable, absorbed: Hashable) -> None:
        """Hang root ``absorbed`` under root ``survivor``."""
        self.parent[absorbed] = survivor


class ChainComplex:
    """Vertices, oriented edges and optional triangles.

    Immutable after construction. ``boundary2`` holds each triangle's
    :func:`faces`, one ``(edge index, sign)`` pair per face, and
    :func:`side_edges` makes every triangle boundary a cycle, so
    d(d(.)) = 0 holds by construction.
    """

    def __init__(
        self,
        vertices: Sequence[VertexId],
        edges: Sequence[tuple[VertexId, VertexId]] = (),
        triangles: Sequence[tuple[VertexId, VertexId, VertexId]] = (),
    ):
        with malformed("simplex list"):  # unhashable ids, wrong lengths
            self.vertices = tuple(vertices)
            self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
            if len(self._vertex_index) != len(self.vertices):
                raise CyclosError("duplicate vertex ids")
            self.edges = tuple(map(tuple, edges))
            self.triangles = tuple(map(tuple, triangles))
            distinct = set(self.edges)  # C-level passes over the distinct edges
            if not set(map(len, distinct)) <= {2} or not set(map(len, self.triangles)) <= {3}:
                raise CyclosError("edges need two vertex ids and triangles three")
            if not set().union(*distinct).issubset(self._vertex_index):
                for tail, head in self.edges:
                    if tail not in self._vertex_index or head not in self._vertex_index:
                        raise CyclosError(f"edge ({tail!r}, {head!r}) references unknown vertex")
            # resolve every triangle side now, so a bad one fails here
            sides = side_edges(self.edges) if self.triangles else {}
            self.boundary2 = tuple(faces(sides, t) for t in self.triangles)

    # -- construction helpers -------------------------------------------------

    @cached_property
    def _parents(self) -> dict[VertexId, tuple[VertexId, int, int]]:
        """Spanning forest built by scanning edges in index order (lexicographic
        minimum), computed on first access.

        ``parents[v] = (parent vertex, edge index, direction)`` for every
        non-root vertex, where direction is +1 when the stored edge points
        parent -> v.
        """
        components = UnionFind(self.vertices)
        adjacency: dict[VertexId, list[tuple[VertexId, int, int]]] = {v: [] for v in self.vertices}
        for j, (tail, head) in enumerate(self.edges):
            rt, rh = components.find(tail), components.find(head)
            if rt != rh:
                components.union(rh, rt)
                adjacency[tail].append((head, j, 1))
                adjacency[head].append((tail, j, -1))

        parents: dict[VertexId, tuple[VertexId, int, int]] = {}
        seen: set[VertexId] = set()
        for start in self.vertices:
            if start in seen:
                continue
            seen.add(start)
            stack = [start]
            while stack:
                v = stack.pop()
                for (w, j, direction) in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        parents[w] = (v, j, direction)
                        stack.append(w)
        return parents

    @cached_property
    def _nontree_edges(self) -> list[int]:
        tree = {j for _, j, _ in self._parents.values()}
        return [j for j in range(len(self.edges)) if j not in tree]

    @cached_property
    def _boundary2_reducer(self) -> dict[int, dict[int, int]]:
        """Triangle boundaries in cycle coordinates (:func:`homology_class`), each
        reduced by :func:`reduce_column` and kept at its low, non-tree edge ``p``
        at position ``-p`` so the lows are the RREF pivots; built on first access."""
        position = {j: -pos for pos, j in enumerate(self._nontree_edges)}
        owners: dict[int, dict[int, int]] = {}
        for triangle in self.boundary2:
            column = reduce_column([(position[j], s) for j, s in triangle if j in position], owners)
            if column:
                owners[max(column)] = column
        return owners

    # -- basic queries ---------------------------------------------------------

    def n_components(self) -> int:
        return len(self.vertices) - len(self._parents)

    def _root_path(self, v: VertexId) -> dict[int, int]:
        """Signed tree-edge coefficients of the forest path from v's root to v."""
        coeffs: dict[int, int] = {}
        while v in self._parents:
            v, j, direction = self._parents[v]
            coeffs[j] = direction
        return coeffs

    def fundamental_cycle(self, edge_index: int) -> Chain1:
        """Cycle with coefficient +1 on the given non-tree edge: the edge plus
        the root paths of its ends, whose shared stem cancels. A tree edge
        cancels against its own root path and closes no cycle."""
        if not (is_int(edge_index) and 0 <= edge_index < len(self.edges)):
            raise MalformedChainError(f"edge index {edge_index!r} out of range")
        tail, head = self.edges[edge_index]
        coeffs = self._root_path(tail)
        for j, c in self._root_path(head).items():
            coeffs[j] = coeffs.get(j, 0) - c
        coeffs[edge_index] = coeffs.get(edge_index, 0) + 1
        if coeffs[edge_index] != 1:
            raise PreconditionError(f"tree edge {edge_index} closes no cycle")
        return Chain1.from_dict(coeffs)

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "ChainComplex":
        with malformed("complex JSON"):
            return cls(
                obj["vertices"],
                [tuple(e) for e in obj.get("edges", [])],
                [tuple(t) for t in obj.get("triangles", [])],
            )


# -- operations ------------------------------------------------------------------


def side_edges(
    edges: Sequence[tuple[VertexId, VertexId]],
) -> dict[tuple[VertexId, VertexId], tuple[int, int]]:
    """Map each oriented side to the lowest-index edge matching it in either
    orientation, with sign -1 when that edge runs against the side.

    This is the one rule by which a triangle side meets a (possibly parallel
    or antiparallel) edge; :func:`faces` applies it.
    """
    sides: dict[tuple[VertexId, VertexId], tuple[int, int]] = {}
    for j, (tail, head) in enumerate(edges):
        sides.setdefault((tail, head), (j, 1))
        sides.setdefault((head, tail), (j, -1))
    return sides


def faces(sides: Mapping, triangle: tuple) -> tuple[tuple[int, int], ...]:
    """Triangle (a, b, c)'s faces b->c, c->a, a->b (face i omits vertex i),
    each resolved by ``sides``, from :func:`side_edges`, to (edge index, sign).
    A missing side is named in the order a->b, b->c, c->a."""
    a, b, c = triangle
    try:
        return sides[b, c], sides[c, a], sides[a, b]
    except KeyError:
        side = next(s for s in ((a, b), (b, c), (c, a)) if s not in sides)
        raise CyclosError(f"triangle side {side!r} has no matching edge") from None


def _integer_boundary(chain: Chain1, complex_: ChainComplex):
    """The chain's (edge, numerator) pairs, its boundary's numerators per
    vertex (zeros kept, keyed as first touched, head first) and ``den``, the
    lcm of the chain's denominators, which both are over."""
    edges = complex_.edges
    out: dict[VertexId, int] = {}
    with malformed("chain", MalformedChainError):  # a coefficient that is not rational
        den = math.lcm(*(c.denominator for _, c in chain.coefficients))
        numerators = [(idx, c.numerator * (den // c.denominator)) for idx, c in chain.coefficients]
        for idx, c in numerators:
            if idx < 0 or idx >= len(edges):
                raise MalformedChainError(f"edge index {idx} out of range")
            tail, head = edges[idx]
            out[head] = out.get(head, 0) + c
            out[tail] = out.get(tail, 0) - c
    return numerators, out, den


def boundary1(chain: Chain1, complex_: ChainComplex) -> dict[VertexId, Fraction]:
    """Boundary of a 1-chain: sum of coeff * (head - tail) per edge."""
    _, out, den = _integer_boundary(chain, complex_)
    return {v: Fraction(x, den) for v, x in out.items() if x}


def project_to_cycles(chain: Chain1, complex_: ChainComplex) -> Chain1:
    """Orthogonal projection onto ker(boundary1), exact rationals.

    Returns c - boundary1^T(phi), where L0 phi = boundary1(c) and L0 is the
    graph Laplacian (Lim, "Hodge Laplacians on graphs", SIAM Review 2020).
    Each spanning-forest root is grounded at phi = 0, so the system has one
    unknown per non-root vertex and is nonsingular. The output always has
    zero boundary, and projecting it again returns it unchanged. With the
    chain's numerators ``n`` over ``den`` and ``den * phi = p / d`` for
    integers ``p``, the output is ``d * n - p[head] + p[tail]`` over ``den * d``.
    """
    numerators, div, den = _integer_boundary(chain, complex_)
    unknowns = {v: i for i, v in enumerate(v for v in complex_.vertices if v in complex_._parents)}
    laplacian = [[0] * len(unknowns) for _ in unknowns]
    for tail, head in complex_.edges:
        t, h = unknowns.get(tail), unknowns.get(head)
        for i, j, sign in ((t, t, 1), (h, h, 1), (t, h, -1), (h, t, -1)):
            if i is not None and j is not None:
                laplacian[i][j] += sign
    phi, d = ratlin.solve_gaussian(laplacian, [div.get(v, 0) for v in unknowns])
    p = dict(zip(unknowns, phi))
    out = [p.get(tail, 0) - p.get(head, 0) for tail, head in complex_.edges]
    for idx, n in numerators:
        out[idx] += d * n
    return Chain1(tuple((j, Fraction(x, den * d)) for j, x in enumerate(out) if x))


def reduce_column(entries: Iterable[tuple[int, int]], owners: Mapping[int, Mapping]) -> dict:
    """Integer ``entries``, (position, entry) pairs summed per position, minus
    multiples of the ``owners`` (low, a column's largest position -> column),
    cross-multiplied and divided by the gcd, until zero at every owned position."""
    column: dict[int, int] = {}
    for k, x in entries:
        column[k] = column.get(k, 0) + x
    while owned := [k for k, x in column.items() if x and k in owners]:
        low = max(owned)
        owner, c = owners[low], column[low]
        column = {k: x for k in column.keys() | owner.keys()
                  if (x := owner[low] * column.get(k, 0) - c * owner.get(k, 0))}
        g = math.gcd(*column.values())
        column = {k: x // g for k, x in column.items()}
    return {k: x for k, x in column.items() if x}


def reduce_fractions(values: Sequence, owners: Mapping[int, Mapping]) -> list[Fraction]:
    """Rational ``values``, value ``i`` at position ``-i``, reduced by :func:`reduce_column`
    with their common denominator at position 1, which no owner has, riding along."""
    q = [x if type(x) is Fraction else Fraction(x) for x in values]
    if not any(q[-k] for k in owners):
        return q
    den = math.lcm(*(x.denominator for x in q))
    numerators = [(-i, x.numerator * (den // x.denominator)) for i, x in enumerate(q)]
    column = reduce_column([*numerators, (1, den)], owners)
    return [Fraction(column.get(-i, 0), column[1]) for i in range(len(q))]


def homology_class(cycle: Chain1, complex_: ChainComplex) -> HomologyClass1:
    """Class of a cycle. Each fundamental cycle carries exactly one non-tree
    edge, so the cycle's basis coordinates are its non-tree coefficients."""
    _, bnd, _ = _integer_boundary(cycle, complex_)
    if any(bnd.values()):
        support = sorted(str(v) for v, x in bnd.items() if x)
        raise ClosureError(f"chain is not a cycle; boundary supported on {support}")
    lookup = cycle.as_dict()
    coords = [lookup.get(j, 0) for j in complex_._nontree_edges]
    return HomologyClass1(tuple(reduce_fractions(coords, complex_._boundary2_reducer)))


def homology_basis_cycles(complex_: ChainComplex) -> list[Chain1]:
    """Cycles whose classes form a basis of H1 over the rationals."""
    return [
        complex_.fundamental_cycle(j)
        for pos, j in enumerate(complex_._nontree_edges)
        if -pos not in complex_._boundary2_reducer
    ]


def betti(complex_: ChainComplex, dim: int) -> int:
    """Betti number in dimension 0 or 1.

    ``betti(1)`` is the cycle rank minus the rank of boundary2 in cycle
    coordinates, which is rank(ker boundary1) - rank(boundary2) because
    d(d(.)) = 0.
    """
    if dim == 0:
        return complex_.n_components()
    if dim == 1:
        return len(complex_._nontree_edges) - len(complex_._boundary2_reducer)
    raise CyclosError(f"unsupported dimension {dim}; only 0 and 1 are computed")
