"""Finite covers, nerves, sheaf gluing, cosheaf colimits, pairing cocycles.

Stalks are finite-dimensional real vector spaces with explicit matrices:
restrictions map open-stalks into overlap-stalks, extensions map
overlap-costalks into open-costalks, and the pairing supplies one bilinear
form per open and per overlap. Naturality ties the three together,

    rho(i -> ij)^T  M_ij  =  M_i  iota(ij -> i),

i.e. extensions are the pairing-adjoints of restrictions. The edge cochain
pairs each open's section against its neighbour's co-section across the
overlap; with a nondegenerate overlap form the evaluation reduces to

    <s_i, g_j>_ij = (rho_i s_i) . (rho_j M_j g_j),

so the cocycle is computable from restrictions and open forms alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import ratlin
from .chaincore import ChainComplex, homology_basis_cycles
from .errors import ClosureError, CyclosError, PreconditionError

TOL = 1e-9

Edge = tuple[int, int]


@dataclass(frozen=True)
class Cover:
    ground: tuple
    opens: tuple[frozenset, ...]

    def __init__(self, ground: Sequence, opens: Sequence):
        object.__setattr__(self, "ground", tuple(ground))
        object.__setattr__(self, "opens", tuple(frozenset(u) for u in opens))
        ground_set = set(self.ground)
        for idx, u in enumerate(self.opens):
            if not u:
                raise CyclosError(f"open {idx} is empty")
            if not u <= ground_set:
                raise CyclosError(f"open {idx} leaves the ground set")

    def overlap(self, i: int, j: int) -> frozenset:
        return self.opens[i] & self.opens[j]

    def to_json_obj(self) -> dict:
        return {"ground": list(self.ground),
                "opens": [sorted(u) for u in self.opens]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Cover":
        return cls(obj["ground"], obj["opens"])


def build_nerve(cover: Cover) -> ChainComplex:
    """Nerve complex: one vertex per open, simplices from nonempty overlaps."""
    n = len(cover.opens)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if cover.overlap(i, j)]
    triangles = [
        (i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if cover.opens[i] & cover.opens[j] & cover.opens[k]
    ]
    return ChainComplex(list(range(n)), edges, triangles)


def _as_matrix(m) -> np.ndarray:
    return np.asarray(m, dtype=float)


@dataclass(frozen=True)
class SheafData:
    """Sections per open plus restriction matrices onto each overlap."""

    stalk_dims: tuple[int, ...]
    sections: tuple[np.ndarray, ...]
    overlap_dims: dict[Edge, int]
    restrictions: dict[Edge, tuple[np.ndarray, np.ndarray]]  # (from i, from j), i < j

    @classmethod
    def build(cls, sections, restrictions) -> "SheafData":
        secs = tuple(_as_matrix(s).reshape(-1) for s in sections)
        dims = tuple(len(s) for s in secs)
        rho = {}
        overlap_dims = {}
        for (i, j), (from_i, from_j) in restrictions.items():
            if i >= j:
                raise CyclosError("restriction keys must be (i, j) with i < j")
            a, b = _as_matrix(from_i), _as_matrix(from_j)
            if a.shape[1] != dims[i] or b.shape[1] != dims[j] or a.shape[0] != b.shape[0]:
                raise CyclosError(f"restriction shapes inconsistent on edge {(i, j)}")
            rho[(i, j)] = (a, b)
            overlap_dims[(i, j)] = a.shape[0]
        return cls(dims, secs, overlap_dims, rho)


@dataclass(frozen=True)
class CosheafData:
    """Co-sections per open plus extension matrices from each overlap."""

    costalk_dims: tuple[int, ...]
    cosections: tuple[np.ndarray, ...]
    overlap_dims: dict[Edge, int]
    extensions: dict[Edge, tuple[np.ndarray, np.ndarray]]  # (into i, into j), i < j

    @classmethod
    def build(cls, cosections, extensions) -> "CosheafData":
        cosecs = tuple(_as_matrix(g).reshape(-1) for g in cosections)
        dims = tuple(len(g) for g in cosecs)
        iota = {}
        overlap_dims = {}
        for (i, j), (into_i, into_j) in extensions.items():
            if i >= j:
                raise CyclosError("extension keys must be (i, j) with i < j")
            a, b = _as_matrix(into_i), _as_matrix(into_j)
            if a.shape[0] != dims[i] or b.shape[0] != dims[j] or a.shape[1] != b.shape[1]:
                raise CyclosError(f"extension shapes inconsistent on edge {(i, j)}")
            iota[(i, j)] = (a, b)
            overlap_dims[(i, j)] = a.shape[1]
        return cls(dims, cosecs, overlap_dims, iota)


@dataclass(frozen=True)
class Pairing:
    """Bilinear forms per open and per overlap: value = s^T M g."""

    open_forms: tuple[np.ndarray, ...]
    overlap_forms: dict[Edge, np.ndarray]

    @classmethod
    def build(cls, open_forms, overlap_forms) -> "Pairing":
        return cls(
            tuple(_as_matrix(m) for m in open_forms),
            {e: _as_matrix(m) for e, m in overlap_forms.items()},
        )


@dataclass(frozen=True)
class Obstruction:
    kind: str  # gluing | colimit
    mismatches: tuple[tuple, ...]  # (location, residual)

    def __bool__(self):
        return False


@dataclass(frozen=True)
class GlobalSection:
    sections: tuple[np.ndarray, ...]


def glue_sections(sheaf: SheafData, cover: Cover, tol: float = TOL):
    """Assemble the global section, or report the violating overlaps."""
    nerve = build_nerve(cover)
    mismatches = []
    for (i, j) in nerve.edges:
        from_i, from_j = sheaf.restrictions[(i, j)]
        residual = from_i @ sheaf.sections[i] - from_j @ sheaf.sections[j]
        norm = float(np.max(np.abs(residual))) if residual.size else 0.0
        if norm >= tol:
            mismatches.append(((i, j), norm))
    if mismatches:
        return Obstruction("gluing", tuple(mismatches))
    return GlobalSection(sheaf.sections)


@dataclass(frozen=True)
class ColimitElement:
    """Canonical representative in the quotient of the co-stalk direct sum."""

    representative: tuple[float, ...]


def _colimit_reducer(cosheaf: CosheafData, nerve: ChainComplex):
    dims = cosheaf.costalk_dims
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    total = offsets[-1]
    columns = []
    for (i, j) in nerve.edges:
        into_i, into_j = cosheaf.extensions[(i, j)]
        for h in range(cosheaf.overlap_dims[(i, j)]):
            col = [Fraction(0)] * total
            for r in range(dims[i]):
                col[offsets[i] + r] += Fraction(float(into_i[r, h]))
            for r in range(dims[j]):
                col[offsets[j] + r] -= Fraction(float(into_j[r, h]))
            columns.append(col)
    reduced, pivots = ratlin.rref(columns) if columns else ([], [])
    return offsets, total, reduced[: len(pivots)], pivots


def cosheaf_colimit(cosheaf: CosheafData, cover: Cover, tol: float = TOL):
    """Common colimit class of the co-sections, or the deadlock report.

    Every open's co-section is injected into the direct sum and reduced
    modulo the gluing relations (extension of an overlap element into one
    side equals its extension into the other). Compatible plans reduce to
    one representative; mismatching reductions are reported per open pair.
    """
    nerve = build_nerve(cover)
    offsets, total, rows, pivots = _colimit_reducer(cosheaf, nerve)
    reduced = []
    for i, g in enumerate(cosheaf.cosections):
        vec = [Fraction(0)] * total
        for r in range(len(g)):
            vec[offsets[i] + r] = Fraction(float(g[r]))
        red = ratlin.reduce_mod_rows(vec, rows, pivots) if rows else vec
        reduced.append([float(x) for x in red])
    mismatches = []
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            norm = max(
                (abs(a - b) for a, b in zip(reduced[i], reduced[j])), default=0.0
            )
            if norm >= tol:
                mismatches.append(((i, j), norm))
    if mismatches:
        return Obstruction("colimit", tuple(mismatches))
    return ColimitElement(tuple(reduced[0]))


def check_naturality(
    sheaf: SheafData,
    cosheaf: CosheafData,
    pairing: Pairing,
    nerve: ChainComplex,
    tol: float = TOL,
) -> list[tuple]:
    """Residuals of rho^T M_overlap = M_open iota on every edge endpoint."""
    violations = []
    for (i, j) in nerve.edges:
        rho_i, rho_j = sheaf.restrictions[(i, j)]
        iota_i, iota_j = cosheaf.extensions[(i, j)]
        m_edge = pairing.overlap_forms[(i, j)]
        for endpoint, rho, iota in ((i, rho_i, iota_i), (j, rho_j, iota_j)):
            residual = rho.T @ m_edge - pairing.open_forms[endpoint] @ iota
            norm = float(np.max(np.abs(residual))) if residual.size else 0.0
            if norm >= tol:
                violations.append(((i, j), endpoint, norm))
    return violations


def adjoint_extensions(
    sheaf: SheafData,
    pairing: Pairing,
    nerve: ChainComplex,
) -> dict[Edge, tuple[np.ndarray, np.ndarray]]:
    """Extensions defined as pairing-adjoints of the restrictions.

    Requires invertible open forms; the resulting system is natural by
    construction.
    """
    out = {}
    for (i, j) in nerve.edges:
        rho_i, rho_j = sheaf.restrictions[(i, j)]
        m_edge = pairing.overlap_forms[(i, j)]
        iota_i = np.linalg.solve(pairing.open_forms[i], rho_i.T @ m_edge)
        iota_j = np.linalg.solve(pairing.open_forms[j], rho_j.T @ m_edge)
        out[(i, j)] = (iota_i, iota_j)
    return out


@dataclass(frozen=True)
class CocycleResult:
    omega: dict[Edge, float]
    coboundary: dict[tuple[int, int, int], float]

    def max_coboundary(self) -> float:
        return max((abs(v) for v in self.coboundary.values()), default=0.0)


def pairing_cocycle(
    sheaf: SheafData,
    cosheaf: CosheafData,
    pairing: Pairing,
    nerve: ChainComplex,
    enforce_naturality: bool = True,
    tol: float = TOL,
) -> CocycleResult:
    """Edge cochain omega_ij = <s_i, g_j> - <s_j, g_i> plus its coboundary.

    Nondegeneracy of the overlap forms is validated as matrix rank; the
    naturality precondition is validated unless explicitly suppressed for
    diagnostics.
    """
    for (i, j) in nerve.edges:
        m_edge = pairing.overlap_forms[(i, j)]
        if m_edge.size and np.linalg.matrix_rank(m_edge) < min(m_edge.shape):
            raise PreconditionError(f"overlap pairing on {(i, j)} is degenerate")
    if enforce_naturality:
        violations = check_naturality(sheaf, cosheaf, pairing, nerve, tol)
        if violations:
            edge, endpoint, norm = violations[0]
            raise PreconditionError(
                f"pairing not natural on edge {edge} at open {endpoint} "
                f"(residual {norm:.3g}); {len(violations)} violation(s) total"
            )
    omega = {}
    for (i, j) in nerve.edges:
        rho_i, rho_j = sheaf.restrictions[(i, j)]
        s_i, s_j = sheaf.sections[i], sheaf.sections[j]
        g_i, g_j = cosheaf.cosections[i], cosheaf.cosections[j]
        m_i, m_j = pairing.open_forms[i], pairing.open_forms[j]
        value = float((rho_i @ s_i) @ (rho_j @ (m_j @ g_j))
                      - (rho_j @ s_j) @ (rho_i @ (m_i @ g_i)))
        omega[(i, j)] = value
    coboundary = {}
    for (a, b, c) in nerve.triangles:
        coboundary[(a, b, c)] = omega[(b, c)] - omega[(a, c)] + omega[(a, b)]
    return CocycleResult(omega, coboundary)


@dataclass(frozen=True)
class CocycleClass:
    """Evaluations of a closed edge cochain on a homology cycle basis."""

    coordinates: tuple[float, ...]

    def is_zero(self, tol: float = TOL) -> bool:
        return all(abs(c) < tol for c in self.coordinates)


def cocycle_class(
    omega: Mapping[Edge, float],
    nerve: ChainComplex,
    tol: float = TOL,
) -> CocycleClass:
    """Class coordinates of a closed cochain: its integrals over basis cycles.

    Closed cochains evaluate equally on homologous cycles, so the vector of
    evaluations against the canonical cycle basis is a complete coordinate
    of the cohomology class.
    """
    edge_index = {edge: idx for idx, edge in enumerate(nerve.edges)}
    values = [0.0] * len(nerve.edges)
    for edge, value in omega.items():
        if edge in edge_index:
            values[edge_index[edge]] = float(value)
        elif (edge[1], edge[0]) in edge_index:
            values[edge_index[(edge[1], edge[0])]] = -float(value)
        else:
            raise CyclosError(f"cochain edge {edge} not in the nerve")
    for (a, b, c) in nerve.triangles:
        residual = (
            values[edge_index[(b, c)]]
            - values[edge_index[(a, c)]]
            + values[edge_index[(a, b)]]
        )
        if abs(residual) >= tol:
            raise ClosureError(
                f"cochain is not closed on triangle {(a, b, c)} (residual {residual:.3g})"
            )
    coords = []
    for cycle in homology_basis_cycles(nerve):
        coords.append(
            float(sum(values[idx] * float(coeff) for idx, coeff in cycle.coefficients))
        )
    return CocycleClass(tuple(coords))
