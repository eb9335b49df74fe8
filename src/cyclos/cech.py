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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import ratlin
from .chaincore import ChainComplex, homology_basis_cycles, reduce_fractions
from .errors import ClosureError, CyclosError, PreconditionError, is_int, malformed

TOL = 1e-9  # gluing, colimit, naturality and closedness residuals must stay below it

Edge = tuple[int, int]


@dataclass(frozen=True)
class Cover:
    ground: tuple
    opens: tuple[frozenset, ...]

    def __init__(self, ground: Sequence, opens: Sequence):
        with malformed("cover"):
            object.__setattr__(self, "ground", tuple(ground))
            object.__setattr__(self, "opens", tuple(frozenset(u) for u in opens))
            ground_set = set(self.ground)
        for idx, u in enumerate(self.opens):
            if not u:
                raise CyclosError(f"open {idx} is empty")
            if not u <= ground_set:
                raise CyclosError(f"open {idx} leaves the ground set")

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Cover":
        with malformed("cover JSON"):
            return cls(obj["ground"], obj["opens"])


def build_nerve(cover: Cover) -> ChainComplex:
    """Nerve complex: one vertex per open, simplices from nonempty overlaps.

    A triangle's sides are nerve edges, so the triangles (i, j, k) of an edge
    (i, j) are sought only among the later neighbours k of j, in
    lexicographic order."""
    opens = cover.opens
    n = len(opens)
    later = [[j for j in range(i + 1, n) if not opens[i].isdisjoint(opens[j])] for i in range(n)]
    edges = [(i, j) for i in range(n) for j in later[i]]
    triangles = [(i, j, k) for i, j in edges for k in later[j] if opens[i] & opens[j] & opens[k]]
    return ChainComplex(list(range(n)), edges, triangles)


def _as_matrix(m, what: str) -> np.ndarray:
    with malformed(what):
        out = np.asarray(m, dtype=float)
    if not np.isfinite(out).all():
        raise CyclosError(f"{what} has a non-finite entry")
    return out


def _edge_key(key, n_opens: int, what: str) -> Edge:
    """An overlap key: a pair (i, j) of open indices with i < j."""
    if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_int, key))
            and 0 <= key[0] < key[1] < n_opens):
        raise CyclosError(f"{what} keys must be (i, j) with 0 <= i < j < {n_opens}, got {key!r}")
    return key


def _edge_data(data: Mapping[Edge, object], edge: Edge, what: str):
    """What ``data`` holds for a nerve edge; every nerve edge needs an entry."""
    try:
        return data[edge]
    except KeyError:
        raise PreconditionError(f"nerve edge {edge} has no {what}") from None


def _overlap_maps(entries, dims: tuple[int, ...], what: str, axis: int):
    """The overlap dims and the pair of maps on each overlap (i, j), checked:
    both hold the overlap on ``axis`` and open i's, then open j's, stalk on
    the other axis."""
    overlap_dims, maps = {}, {}
    for key, pair in entries:
        i, j = _edge_key(key, len(dims), what)
        with malformed(f"{what}s on edge {key}"):
            a, b = (_as_matrix(m, what) for m in pair)
            if (a.shape[1 - axis] != dims[i] or b.shape[1 - axis] != dims[j]
                    or a.shape[axis] != b.shape[axis]):
                raise CyclosError(f"{what} shapes inconsistent on edge {(i, j)}")
        maps[(i, j)] = (a, b)
        overlap_dims[(i, j)] = a.shape[axis]
    return overlap_dims, maps


@dataclass(frozen=True)
class SheafData:
    """Sections per open plus restriction matrices onto each overlap."""

    stalk_dims: tuple[int, ...]
    sections: tuple[np.ndarray, ...]
    overlap_dims: dict[Edge, int]
    restrictions: dict[Edge, tuple[np.ndarray, np.ndarray]]  # (from i, from j), i < j

    @classmethod
    def build(cls, sections, restrictions) -> "SheafData":
        with malformed("sheaf data"):  # sections or restrictions not a collection
            secs = tuple(_as_matrix(s, "section").reshape(-1) for s in sections)
            entries = restrictions.items()
        dims = tuple(len(s) for s in secs)
        return cls(dims, secs, *_overlap_maps(entries, dims, "restriction", 0))


@dataclass(frozen=True)
class CosheafData:
    """Co-sections per open plus extension matrices from each overlap."""

    costalk_dims: tuple[int, ...]
    cosections: tuple[np.ndarray, ...]
    overlap_dims: dict[Edge, int]
    extensions: dict[Edge, tuple[np.ndarray, np.ndarray]]  # (into i, into j), i < j

    @classmethod
    def build(cls, cosections, extensions) -> "CosheafData":
        with malformed("cosheaf data"):  # co-sections or extensions not a collection
            cosecs = tuple(_as_matrix(g, "co-section").reshape(-1) for g in cosections)
            entries = extensions.items()
        dims = tuple(len(g) for g in cosecs)
        return cls(dims, cosecs, *_overlap_maps(entries, dims, "extension", 1))


@dataclass(frozen=True)
class Pairing:
    """Bilinear forms per open and per overlap: value = s^T M g."""

    open_forms: tuple[np.ndarray, ...]
    overlap_forms: dict[Edge, np.ndarray]

    @classmethod
    def build(cls, open_forms, overlap_forms) -> "Pairing":
        with malformed("pairing"):  # open or overlap forms not a collection
            forms = tuple(_as_matrix(m, "open form") for m in open_forms)
            entries = overlap_forms.items()
        return cls(forms, {_edge_key(e, len(forms), "overlap form"): _as_matrix(m, "overlap form")
                           for e, m in entries})


@dataclass(frozen=True)
class Obstruction:
    kind: str  # gluing | colimit
    mismatches: tuple[tuple, ...]  # (location, residual)

    def __bool__(self):
        return False


@dataclass(frozen=True)
class GlobalSection:
    sections: tuple[np.ndarray, ...]


def glue_sections(sheaf: SheafData, cover: Cover):
    """Assemble the global section, or report the violating overlaps."""
    if len(sheaf.sections) != len(cover.opens):
        raise PreconditionError(f"{len(sheaf.sections)} sections for {len(cover.opens)} opens")
    nerve = build_nerve(cover)
    mismatches = []
    for (i, j) in nerve.edges:
        from_i, from_j = _edge_data(sheaf.restrictions, (i, j), "restriction")
        residual = from_i @ sheaf.sections[i] - from_j @ sheaf.sections[j]
        norm = float(np.max(np.abs(residual))) if residual.size else 0.0
        if norm >= TOL:
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
        into_i, into_j = _edge_data(cosheaf.extensions, (i, j), "extension")
        for h in range(cosheaf.overlap_dims[(i, j)]):
            col = [Fraction(0)] * total
            for r in range(dims[i]):
                col[offsets[i] + r] += Fraction(float(into_i[r, h]))
            for r in range(dims[j]):
                col[offsets[j] + r] -= Fraction(float(into_j[r, h]))
            columns.append(col)
    reduced, pivots = ratlin.rref(columns) if columns else ([], [])
    owners = {}  # the pivot rows as integer columns, kept at their pivots
    for row, pc in zip(reduced, pivots):
        den = math.lcm(*(x.denominator for x in row))
        owners[-pc] = {-k: x.numerator * (den // x.denominator) for k, x in enumerate(row) if x}
    return offsets, total, owners


def cosheaf_colimit(cosheaf: CosheafData, cover: Cover):
    """Common colimit class of the co-sections, or the deadlock report.

    Every open's co-section is injected into the direct sum and reduced
    modulo the gluing relations (extension of an overlap element into one
    side equals its extension into the other). Compatible plans reduce to
    one representative; mismatching reductions are reported per open pair.
    """
    if len(cosheaf.cosections) != len(cover.opens):
        raise PreconditionError(
            f"{len(cosheaf.cosections)} co-sections for {len(cover.opens)} opens")
    nerve = build_nerve(cover)
    offsets, total, owners = _colimit_reducer(cosheaf, nerve)
    reduced = []
    for i, g in enumerate(cosheaf.cosections):
        vec = [Fraction(0)] * total
        for r in range(len(g)):
            vec[offsets[i] + r] = Fraction(float(g[r]))
        reduced.append([float(x) for x in reduce_fractions(vec, owners)])
    mismatches = []
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            norm = 0.0 if reduced[i] == reduced[j] else max(
                (abs(a - b) for a, b in zip(reduced[i], reduced[j])), default=0.0
            )
            if norm >= TOL:
                mismatches.append(((i, j), norm))
    if mismatches:
        return Obstruction("colimit", tuple(mismatches))
    return ColimitElement(tuple(reduced[0]) if reduced else ())  # no opens: the zero space


def check_naturality(
    sheaf: SheafData,
    cosheaf: CosheafData,
    pairing: Pairing,
    nerve: ChainComplex,
) -> list[tuple]:
    """Residuals of rho^T M_overlap = M_open iota on every edge endpoint."""
    violations = []
    for (i, j) in nerve.edges:
        rho_i, rho_j = _edge_data(sheaf.restrictions, (i, j), "restriction")
        iota_i, iota_j = _edge_data(cosheaf.extensions, (i, j), "extension")
        m_edge = _edge_data(pairing.overlap_forms, (i, j), "overlap form")
        for endpoint, rho, iota in ((i, rho_i, iota_i), (j, rho_j, iota_j)):
            with malformed(f"forms on edge {(i, j)}", PreconditionError):  # mismatched shapes
                residual = rho.T @ m_edge - pairing.open_forms[endpoint] @ iota
            norm = float(np.max(np.abs(residual))) if residual.size else 0.0
            if norm >= TOL:
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
        rho_i, rho_j = _edge_data(sheaf.restrictions, (i, j), "restriction")
        m_edge = _edge_data(pairing.overlap_forms, (i, j), "overlap form")
        with malformed(f"forms on edge {(i, j)}", PreconditionError):  # singular, or wrong shape
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
) -> CocycleResult:
    """Edge cochain omega_ij = <s_i, g_j> - <s_j, g_i> plus its coboundary.

    Nondegeneracy of the overlap forms is validated as matrix rank, and
    naturality by :func:`check_naturality`.
    """
    for (i, j) in nerve.edges:
        m_edge = _edge_data(pairing.overlap_forms, (i, j), "overlap form")
        with malformed(f"overlap form on edge {(i, j)}", PreconditionError):  # not a matrix
            if m_edge.size and np.linalg.matrix_rank(m_edge) < min(m_edge.shape):
                raise PreconditionError(f"overlap pairing on {(i, j)} is degenerate")
    violations = check_naturality(sheaf, cosheaf, pairing, nerve)
    if violations:
        edge, endpoint, norm = violations[0]
        raise PreconditionError(
            f"pairing not natural on edge {edge} at open {endpoint} "
            f"(residual {norm:.3g}); {len(violations)} violation(s) total"
        )
    omega = {}
    for (i, j) in nerve.edges:
        rho_i, rho_j = _edge_data(sheaf.restrictions, (i, j), "restriction")
        s_i, s_j = sheaf.sections[i], sheaf.sections[j]
        g_i, g_j = cosheaf.cosections[i], cosheaf.cosections[j]
        m_i, m_j = pairing.open_forms[i], pairing.open_forms[j]
        value = float((rho_i @ s_i) @ (rho_j @ (m_j @ g_j))
                      - (rho_j @ s_j) @ (rho_i @ (m_i @ g_i)))
        omega[(i, j)] = value
    coboundary = _coboundary([omega[edge] for edge in nerve.edges], nerve)
    return CocycleResult(omega, dict(zip(nerve.triangles, coboundary)))


def _coboundary(values: Sequence[float], nerve: ChainComplex) -> list[float]:
    """An edge cochain, one value per nerve edge, on each triangle's boundary,
    summed left to right from the first face (``sum`` turns -0.0 into 0.0)."""
    return [s1 * values[e1] + s2 * values[e2] + s3 * values[e3]
            for (e1, s1), (e2, s2), (e3, s3) in nerve.boundary2]


@dataclass(frozen=True)
class CocycleClass:
    """Evaluations of a closed edge cochain on a homology cycle basis."""

    coordinates: tuple[float, ...]


def cocycle_class(omega: Mapping[Edge, float], nerve: ChainComplex) -> CocycleClass:
    """Class coordinates of a closed cochain: its integrals over basis cycles.

    Closed cochains evaluate equally on cycles of one class, so the vector of
    evaluations against the canonical cycle basis is a complete coordinate
    of the cohomology class. A nerve edge may be given in either orientation,
    the reversed one negated, but not in both.
    """
    edge_index = {edge: idx for idx, edge in enumerate(nerve.edges)}
    values = [0.0] * len(nerve.edges)
    given: set[int] = set()
    with malformed("cochain"):  # a key that is not a pair, a value that is not a number
        for edge, value in omega.items():
            if edge in edge_index:
                idx, value = edge_index[edge], float(value)
            elif (edge[1], edge[0]) in edge_index:
                idx, value = edge_index[(edge[1], edge[0])], -float(value)
            else:
                raise CyclosError(f"cochain edge {edge} not in the nerve")
            if not math.isfinite(value):
                raise CyclosError(f"cochain value on edge {edge} must be finite, got {value!r}")
            if idx in given:
                raise PreconditionError(
                    f"cochain gives nerve edge {nerve.edges[idx]} in both orientations")
            given.add(idx)
            values[idx] = value
    for triangle, residual in zip(nerve.triangles, _coboundary(values, nerve)):
        if abs(residual) >= TOL:
            raise ClosureError(
                f"cochain is not closed on triangle {triangle} (residual {residual:.3g})"
            )
    coords = []
    for cycle in homology_basis_cycles(nerve):
        coords.append(
            float(sum(values[idx] * float(coeff) for idx, coeff in cycle.coefficients))
        )
    return CocycleClass(tuple(coords))
