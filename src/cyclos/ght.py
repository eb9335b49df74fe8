"""Cycle-accumulated generalized Hough voting with gaze re-registration.

Votes are binned in one canonical order (sorted by descriptor, then
quantized re-registered position), which makes accumulator equality under
glimpse/feature permutations bit-exact rather than tolerance-based. Votes
landing off-grid go to an overflow bucket instead of being dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError, NoPeakError, PreconditionError, TableError, is_finite, is_int, malformed,
)
from .persist import Barcode, Filtration, FiltrationStep, compute_barcode

GAZE_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class Feature:
    position: tuple[float, float]  # pixels
    orientation: float  # radians
    descriptor: int


@dataclass(frozen=True)
class GazeTransform:
    """Element of SE(2): rotation then translation."""

    rotation: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)

    def apply(self, point: tuple[float, float]) -> tuple[float, float]:
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        x, y = point
        return (c * x - s * y + self.translation[0], s * x + c * y + self.translation[1])

    def apply_feature(self, f: Feature) -> Feature:
        return Feature(self.apply(f.position), f.orientation + self.rotation, f.descriptor)

    def compose(self, other: "GazeTransform") -> "GazeTransform":
        """self after other (matrix product self . other)."""
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        tx, ty = other.translation
        return GazeTransform(
            self.rotation + other.rotation,
            (c * tx - s * ty + self.translation[0], s * tx + c * ty + self.translation[1]),
        )

    def inverse(self) -> "GazeTransform":
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        tx, ty = self.translation
        return GazeTransform(-self.rotation, (-(c * tx + s * ty), -(-s * tx + c * ty)))

    def is_identity(self) -> bool:
        rot = (self.rotation + math.pi) % (2 * math.pi) - math.pi
        return abs(rot) <= GAZE_CLOSURE_TOL and math.hypot(*self.translation) <= GAZE_CLOSURE_TOL


@dataclass(frozen=True)
class ModelTable:
    """Descriptor id -> offset from feature to reference point (feature frame)."""

    offsets: Mapping[int, tuple[float, float]]

    def vote_point(self, f: Feature) -> tuple[float, float]:
        if f.descriptor not in self.offsets:
            raise TableError(f"descriptor {f.descriptor} missing from model table")
        ox, oy = self.offsets[f.descriptor]
        c, s = math.cos(f.orientation), math.sin(f.orientation)
        return (f.position[0] + c * ox - s * oy, f.position[1] + s * ox + c * oy)


@dataclass(frozen=True)
class AccumulatorConfig:
    extent: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    shape: tuple[int, int]  # nx, ny
    kernel: str = "delta"  # delta | gaussian
    bandwidth: float = 1.0  # gaussian sigma, in parameter-space units

    def __post_init__(self):
        with malformed("accumulator grid", ConfigError):  # not four bounds and two sizes
            nx, ny = self.shape
            xmin, xmax, ymin, ymax = self.extent
        if not all(is_finite(v) for v in self.extent):
            raise ConfigError(f"accumulator extent must be finite, got {self.extent!r}")
        if not (is_int(nx) and is_int(ny)):
            raise ConfigError(f"accumulator shape must be two integers, got {self.shape!r}")
        if nx < 1 or ny < 1 or xmax <= xmin or ymax <= ymin:
            raise ConfigError("invalid accumulator grid")
        if self.kernel not in ("delta", "gaussian"):
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if not is_finite(self.bandwidth):
            raise ConfigError(f"bandwidth must be finite, got {self.bandwidth!r}")
        if self.kernel == "gaussian" and self.bandwidth <= 0:
            raise ConfigError("gaussian kernel needs a positive bandwidth")

    def cell_of(self, point: tuple[float, float]) -> tuple[int, int] | None:
        xmin, xmax, ymin, ymax = self.extent
        nx, ny = self.shape
        fx = (point[0] - xmin) / (xmax - xmin) * nx
        fy = (point[1] - ymin) / (ymax - ymin) * ny
        # 0 <= floor(f) < n exactly when 0 <= f < n; NaN and infinities are off-grid
        if 0 <= fx < nx and 0 <= fy < ny:
            return math.floor(fx), math.floor(fy)
        return None

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        xmin, xmax, ymin, ymax = self.extent
        nx, ny = self.shape
        return (
            xmin + (ix + 0.5) * (xmax - xmin) / nx,
            ymin + (iy + 0.5) * (ymax - ymin) / ny,
        )


@dataclass(frozen=True)
class Accumulator:
    config: AccumulatorConfig
    grid: np.ndarray  # shape (ny, nx)
    overflow_count: int


@dataclass(frozen=True)
class PeakResult:
    point: tuple[float, float]
    value: float
    tied: bool


def accumulate(
    glimpses: Sequence[tuple[GazeTransform, Sequence[Feature]]],
    table: ModelTable,
    config: AccumulatorConfig,
    re_register: bool = True,
) -> Accumulator:
    """Pool votes over glimpses into one parameter-space grid.

    With `re_register`, each glimpse's features are mapped through the
    inverse gaze transform before voting, removing gaze as a nuisance.
    """
    votes = []
    for gaze, features in glimpses:
        inv = gaze.inverse() if re_register else None
        for f in features:
            registered = inv.apply_feature(f) if inv is not None else f
            point = table.vote_point(registered)
            if not (math.isfinite(point[0]) and math.isfinite(point[1])):
                raise PreconditionError(f"feature {f} votes at the non-finite point {point}")
            cell = config.cell_of(point)
            quantized = cell if cell is not None else (-1, -1)
            votes.append((f.descriptor, quantized[0], quantized[1], point[0], point[1]))
    votes.sort()

    nx, ny = config.shape
    rows = [[0.0] * nx for _ in range(ny)]
    overflow_count = 0
    if config.kernel == "delta":
        for _, ix, iy, _, _ in votes:
            if ix < 0:
                overflow_count += 1
            else:
                rows[iy][ix] += 1.0
    else:
        xmin, xmax, ymin, ymax = config.extent
        cell_w = (xmax - xmin) / nx
        cell_h = (ymax - ymin) / ny
        reach_x = math.ceil(3.0 * config.bandwidth / cell_w)
        reach_y = math.ceil(3.0 * config.bandwidth / cell_h)
        # cell centers as cell_center computes them, and the kernel's squared reach and sigma
        centers_x = [xmin + (jx + 0.5) * (xmax - xmin) / nx for jx in range(nx)]
        centers_y = [ymin + (jy + 0.5) * (ymax - ymin) / ny for jy in range(ny)]
        reach_sq = (3.0 * config.bandwidth) ** 2
        sigma_sq = config.bandwidth**2
        exp = math.exp
        for _, ix, iy, px, py in votes:
            if ix < 0:
                overflow_count += 1
                continue
            columns = range(max(0, ix - reach_x), min(nx, ix + reach_x + 1))
            for jy in range(max(0, iy - reach_y), min(ny, iy + reach_y + 1)):
                row = rows[jy]
                dy_sq = (centers_y[jy] - py) ** 2
                for jx in columns:
                    dist_sq = (centers_x[jx] - px) ** 2 + dy_sq
                    if dist_sq <= reach_sq:
                        row[jx] += exp(-0.5 * dist_sq / sigma_sq)
    grid = np.array(rows, dtype=float)
    return Accumulator(config, grid, overflow_count)


def argmax_peak(acc: Accumulator) -> PeakResult:
    """Cell center of the maximum; ties resolve to the lowest linear index."""
    if not np.any(acc.grid > 0):
        raise NoPeakError("accumulator holds no votes")
    flat_idx = int(np.argmax(acc.grid))
    iy, ix = np.unravel_index(flat_idx, acc.grid.shape)
    value = float(acc.grid[iy, ix])
    tied = int(np.count_nonzero(acc.grid == value)) > 1
    return PeakResult(acc.config.cell_center(int(ix), int(iy)), value, tied)


def saccade_invariance_audit(
    scene: Sequence[Feature],
    gaze_paths: Sequence[Sequence[GazeTransform]],
    table: ModelTable,
    config: AccumulatorConfig,
    re_register: bool = True,
) -> dict:
    """Compare Hough peaks across scanpaths over one scene.

    Each path is a sequence of gaze states; the features observed at state g
    are the scene features moved by g. Paths that are open while
    re-registration is off violate the precondition and are reported (and
    excluded) rather than aborting the audit.
    """
    entries = []
    peaks = []
    for idx, path in enumerate(gaze_paths):
        composed = GazeTransform()
        for g in path:
            composed = composed.compose(g)
        closed = composed.is_identity()
        if not closed and not re_register:
            entries.append({
                "path": idx,
                "error": "open gaze path without re-registration (nuisance not removed)",
            })
            continue
        glimpses = [(g, [g.apply_feature(f) for f in scene]) for g in path]
        acc = accumulate(glimpses, table, config, re_register=re_register)
        peak = argmax_peak(acc)
        cell = config.cell_of(peak.point)
        entries.append({"path": idx, "peak": list(peak.point), "cell": list(cell),
                        "value": peak.value})
        peaks.append(cell)
    agree = bool(peaks) and all(
        abs(c[0] - peaks[0][0]) <= 1 and abs(c[1] - peaks[0][1]) <= 1 for c in peaks
    )
    return {
        "pass": agree and len(peaks) == len(gaze_paths),
        "peaks_agree_within_one_cell": agree,
        "paths": entries,
    }


def peak_persistence(acc: Accumulator, thresholds: Sequence[float]) -> Barcode:
    """H0 barcode of the superlevel-set filtration of the vote field.

    Thresholds must be finite and strictly descending. The grid becomes a
    graph filtration on the negated threshold axis: a cell enters at -tau for
    the first (largest) threshold tau it reaches, and two 4-adjacent cells
    are joined at the later of their two entries. Cells that reach no
    threshold, NaN cells included, never enter. The bars are the dim-0 bars
    of :func:`persist.compute_barcode`, so the shared barcode convention
    (birth <= death along the filtration) applies: a component born at peak
    height h and merged at saddle s yields the bar (-h, -s); persistence
    lengths are peak - saddle either way.
    """
    with malformed("thresholds", PreconditionError):  # not a sequence
        if not all(map(is_finite, thresholds)):
            raise PreconditionError("thresholds must be finite")
        if any(b >= a for a, b in zip(thresholds, thresholds[1:])):
            raise PreconditionError("thresholds must be strictly descending")
    n = len(thresholds)
    values = [-t for t in thresholds]
    # index of the first threshold each cell reaches; n when it reaches none
    first = np.searchsorted(np.asarray(values, dtype=float), -acc.grid, side="left").tolist()
    nx = acc.grid.shape[1]
    steps = []
    for iy, row in enumerate(first):
        for ix, k in enumerate(row):
            if k == n:
                continue
            # flat integer ids keep the filtration's canonical sort on its numeric path
            cell = iy * nx + ix
            steps.append(FiltrationStep(values[k], "vertex", (cell,)))
            left = row[ix - 1] if ix else n
            above = first[iy - 1][ix] if iy else n
            if left < n:
                steps.append(FiltrationStep(values[max(k, left)], "edge", (cell - 1, cell)))
            if above < n:
                steps.append(FiltrationStep(values[max(k, above)], "edge", (cell - nx, cell)))
    return Barcode(compute_barcode(Filtration(steps)).in_dim(0))
