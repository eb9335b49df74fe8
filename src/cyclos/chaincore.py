"""Integer chain complexes in dimensions 0-2 and their cycle machinery.

The complex stores an ordered vertex list, oriented edges (parallel edges
allowed), and optional oriented triangles. Boundary matrices are built over
the integers; projections and class reduction run in exact rational
arithmetic so closure checks (``boundary1(z) == 0``) are matrix-exact, never
approximate. Fundamental cycles come from root paths in the lexicographic-
minimum spanning forest. The projection onto cycles solves a vertex-sized
graph-Laplacian system grounded at the forest roots (Lim, "Hodge Laplacians
on graphs", SIAM Review 2020), not a system over the cycle basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Mapping, Sequence

from . import ratlin
from .errors import ClosureError, CyclosError, MalformedChainError, is_int, malformed

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
            items = tuple(
                (int(idx), Fraction(val)) for idx, val in sorted(coeffs.items()) if Fraction(val) != 0
            )
        return cls(items)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coefficients)

    def __add__(self, other: "Chain1") -> "Chain1":
        merged = self.as_dict()
        for idx, val in other.coefficients:
            merged[idx] = merged.get(idx, Fraction(0)) + val
        return Chain1.from_dict(merged)

    def __neg__(self) -> "Chain1":
        return Chain1.from_dict({idx: -val for idx, val in self.coefficients})

    def __sub__(self, other: "Chain1") -> "Chain1":
        return self + (-other)

    def scale(self, factor: Fraction | int) -> "Chain1":
        factor = Fraction(factor)
        return Chain1.from_dict({idx: factor * val for idx, val in self.coefficients})

    def is_zero(self) -> bool:
        return not self.coefficients

    def to_json_obj(self) -> dict[str, str]:
        return {str(idx): _fraction_to_str(val) for idx, val in self.coefficients}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, str]) -> "Chain1":
        with malformed("chain JSON", MalformedChainError):
            coeffs = {int(k): Fraction(str(v)) for k, v in obj.items()}
        return cls.from_dict(coeffs)


@dataclass(frozen=True)
class HomologyClass1:
    """Cycle-basis coordinates reduced modulo the image of the 2-boundary."""

    coordinates: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)

    def __neg__(self) -> "HomologyClass1":
        return HomologyClass1(tuple(-c for c in self.coordinates))


def _fraction_to_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


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
    """Vertices, oriented edges, optional triangles, and boundary matrices.

    Immutable after construction. Boundary matrices are derived from the
    simplex lists; ``boundary2`` may be overridden for diagnostics. That is
    the only way to build a complex violating d(d(.)) = 0, which
    :func:`verify_dd_zero` then reports and which ``betti(1)`` and the
    homology classes assume.
    """

    def __init__(
        self,
        vertices: Sequence[VertexId],
        edges: Sequence[tuple[VertexId, VertexId]] = (),
        triangles: Sequence[tuple[VertexId, VertexId, VertexId]] = (),
        *,
        boundary2_override: Sequence[Sequence[int]] | None = None,
    ):
        with malformed("simplex list"):  # unhashable ids, wrong lengths, bad override
            self.vertices = tuple(vertices)
            self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
            if len(self._vertex_index) != len(self.vertices):
                raise CyclosError("duplicate vertex ids")
            self.edges = tuple((t, h) for t, h in edges)
            self.triangles = tuple((a, b, c) for a, b, c in triangles)
            for tail, head in self.edges:
                if tail not in self._vertex_index or head not in self._vertex_index:
                    raise CyclosError(f"edge ({tail!r}, {head!r}) references unknown vertex")

            if boundary2_override is not None:
                self.boundary2 = [list(map(int, row)) for row in boundary2_override]
                if len(self.boundary2) != len(self.edges) or any(
                    len(row) != len(self.triangles) for row in self.boundary2
                ):
                    raise CyclosError("boundary2 override must be edges x triangles")
            else:
                self.boundary2 = self._build_boundary2()

    # -- construction helpers -------------------------------------------------

    @cached_property
    def boundary1(self) -> list[list[int]]:
        """Dense vertex-by-edge incidence matrix, built on first access."""
        mat = [[0] * len(self.edges) for _ in self.vertices]
        for j, (tail, head) in enumerate(self.edges):
            mat[self._vertex_index[head]][j] += 1
            mat[self._vertex_index[tail]][j] -= 1
        return mat

    def _build_boundary2(self) -> list[list[int]]:
        """Triangle (a, b, c) has boundary a->b + b->c + c->a, each side
        resolved by :func:`side_edges`."""
        if not self.triangles:
            return [[] for _ in self.edges]
        mat = [[0] * len(self.triangles) for _ in self.edges]
        sides = side_edges(self.edges)
        for j, (a, b, c) in enumerate(self.triangles):
            for side in ((a, b), (b, c), (c, a)):
                if side not in sides:
                    raise CyclosError(f"triangle side {side!r} has no matching edge")
                edge_idx, sign = sides[side]
                mat[edge_idx][j] += sign
        return mat

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
    def _boundary2_reducer(self) -> tuple[list[list[Fraction]], list[int]]:
        """RREF rows and pivots spanning the boundary2 image in cycle
        coordinates, computed on first access.

        A cycle's coordinates are its coefficients on the non-tree edges
        (:func:`_cycle_coordinates`), so each row is a triangle column read
        on those edges.
        """
        if not self.triangles:
            return [], []
        columns = [[self.boundary2[j][t] for j in self._nontree_edges]
                   for t in range(len(self.triangles))]
        reduced, pivots = ratlin.rref(columns)
        return reduced[: len(pivots)], pivots

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
        the root paths of its ends, whose shared stem cancels."""
        tail, head = self.edges[edge_index]
        coeffs = self._root_path(tail)
        for j, c in self._root_path(head).items():
            coeffs[j] = coeffs.get(j, 0) - c
        coeffs[edge_index] = coeffs.get(edge_index, 0) + 1
        return Chain1.from_dict(coeffs)

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "triangles": [list(t) for t in self.triangles],
        }

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
    or antiparallel) edge: ``ChainComplex`` builds boundary2 with it and
    ``persist.compute_barcode`` reduces with it.
    """
    sides: dict[tuple[VertexId, VertexId], tuple[int, int]] = {}
    for j, (tail, head) in enumerate(edges):
        sides.setdefault((tail, head), (j, 1))
        sides.setdefault((head, tail), (j, -1))
    return sides


def boundary1(chain: Chain1, complex_: ChainComplex) -> dict[VertexId, Fraction]:
    """Boundary of a 1-chain: sum of coeff * (head - tail) per edge."""
    out: dict[VertexId, Fraction] = {}
    for idx, coeff in chain.coefficients:
        if idx < 0 or idx >= len(complex_.edges):
            raise MalformedChainError(f"edge index {idx} out of range")
        tail, head = complex_.edges[idx]
        out[head] = out.get(head, Fraction(0)) + coeff
        out[tail] = out.get(tail, Fraction(0)) - coeff
    return {v: c for v, c in out.items() if c != 0}


def verify_dd_zero(complex_: ChainComplex) -> bool:
    """True iff boundary1 . boundary2 is zero: every triangle column is a cycle."""
    return not any(
        boundary1(Chain1.from_dict({j: row[t] for j, row in enumerate(complex_.boundary2)}),
                  complex_)
        for t in range(len(complex_.triangles))
    )


def cycle_space_basis(complex_: ChainComplex) -> list[Chain1]:
    """Fundamental cycles of the lexicographic-minimum spanning forest."""
    return [complex_.fundamental_cycle(j) for j in complex_._nontree_edges]


def project_to_cycles(chain: Chain1, complex_: ChainComplex) -> Chain1:
    """Orthogonal projection onto ker(boundary1), exact rationals.

    Returns c - boundary1^T(phi), where L0 phi = boundary1(c) and L0 is the
    graph Laplacian (Lim, "Hodge Laplacians on graphs", SIAM Review 2020).
    Each spanning-forest root is grounded at phi = 0, so the system has one
    unknown per non-root vertex and is nonsingular. The output always has
    zero boundary, and projecting it again returns it unchanged.
    """
    div = boundary1(chain, complex_)
    unknowns = {v: i for i, v in enumerate(v for v in complex_.vertices if v in complex_._parents)}
    laplacian = [[0] * len(unknowns) for _ in unknowns]
    for tail, head in complex_.edges:
        t, h = unknowns.get(tail), unknowns.get(head)
        for i, j, sign in ((t, t, 1), (h, h, 1), (t, h, -1), (h, t, -1)):
            if i is not None and j is not None:
                laplacian[i][j] += sign
    rhs = [div.get(v, 0) for v in unknowns]
    phi = dict(zip(unknowns, ratlin.solve_gaussian(laplacian, rhs)))
    out = chain.as_dict()
    for j, (tail, head) in enumerate(complex_.edges):
        out[j] = out.get(j, 0) - phi.get(head, 0) + phi.get(tail, 0)
    return Chain1.from_dict(out)


def _cycle_coordinates(chain: Chain1, complex_: ChainComplex) -> list[Fraction]:
    """Coordinates in the fundamental-cycle basis.

    Each fundamental cycle carries exactly one non-tree edge, so a cycle's
    coordinates are its coefficients on the non-tree edges.
    """
    lookup = chain.as_dict()
    return [lookup.get(j, Fraction(0)) for j in complex_._nontree_edges]


def homology_class(cycle: Chain1, complex_: ChainComplex) -> HomologyClass1:
    bnd = boundary1(cycle, complex_)
    if bnd:
        raise ClosureError(f"chain is not a cycle; boundary supported on {sorted(map(str, bnd))}")
    coords = _cycle_coordinates(cycle, complex_)
    return HomologyClass1(tuple(ratlin.reduce_mod_rows(coords, *complex_._boundary2_reducer)))


def homologous(z1: Chain1, z2: Chain1, complex_: ChainComplex) -> bool:
    return homology_class(z1, complex_) == homology_class(z2, complex_)


def homology_basis_cycles(complex_: ChainComplex) -> list[Chain1]:
    """Cycles whose classes form a basis of H1 over the rationals."""
    pivot_set = set(complex_._boundary2_reducer[1])
    return [
        complex_.fundamental_cycle(j)
        for pos, j in enumerate(complex_._nontree_edges)
        if pos not in pivot_set
    ]


def betti(complex_: ChainComplex, dim: int) -> int:
    """Betti number in dimension 0 or 1.

    ``betti(1)`` is the cycle rank minus the rank of boundary2 in cycle
    coordinates, which equals rank(ker boundary1) - rank(boundary2) only when
    d(d(.)) = 0; a diagnostic ``boundary2_override`` can break that.
    """
    if dim == 0:
        return complex_.n_components()
    if dim == 1:
        return len(complex_._nontree_edges) - len(complex_._boundary2_reducer[1])
    raise CyclosError(f"unsupported dimension {dim}; only 0 and 1 are computed")
