"""Planar homing: winding vectors around disk obstacles and order invariance.

The homology class of a homing loop in a disk-punctured plane is its integer
winding vector. Windings are summed signed subtended angles per segment
(atan2 arithmetic); a residual check guards against under-sampled loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    ClosureError, CompositionError, CyclosError, FeasibilityError, PreconditionError,
    SamplingError, is_finite, is_int, is_real, malformed,
)

Point = tuple[float, float]
DEFAULT_ENDPOINT_TOL = 1e-6  # meters between loop ends, consecutive moves and the base
RESIDUAL_LIMIT = 0.01


@dataclass(frozen=True)
class Disk:
    center: Point
    radius: float

    def __post_init__(self):
        with malformed("obstacle center"):
            if not (len(self.center) == 2 and all(map(is_finite, self.center))):
                raise CyclosError(f"obstacle center must be two finite numbers, "
                                  f"got {self.center!r}")
        if not (is_finite(self.radius) and self.radius > 0):
            raise CyclosError(f"obstacle radius must be finite and positive, got {self.radius!r}")


@dataclass(frozen=True)
class Workspace:
    obstacles: tuple[Disk, ...]
    base: Point

    def __post_init__(self):
        with malformed("workspace base"):
            if not (len(self.base) == 2 and all(map(is_finite, self.base))):
                raise CyclosError(f"base point must be two finite numbers, got {self.base!r}")
        for i, a in enumerate(self.obstacles):
            for b in self.obstacles[i + 1:]:
                if math.dist(a.center, b.center) <= a.radius + b.radius:
                    raise CyclosError("obstacles must be pairwise disjoint")
        for disk in self.obstacles:
            if math.dist(self.base, disk.center) < disk.radius:
                raise CyclosError("base point lies inside an obstacle")

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Workspace":
        with malformed("workspace JSON"):
            return cls(
                tuple(Disk((x, y), r) for x, y, r in obj["obstacles"]),
                tuple(obj["base"]),
            )


@dataclass(frozen=True)
class Move:
    """Polyline path through the free space, two or more pairs of real numbers."""

    path: tuple[Point, ...]

    def __post_init__(self):
        with malformed("move path"):
            if len(self.path) < 2 or not all(len(p) == 2 and all(map(is_real, p))
                                             for p in self.path):
                raise CyclosError(f"a move needs two or more real pairs, got {self.path!r}")

    @property
    def start(self) -> Point:
        return self.path[0]


@dataclass(frozen=True)
class WindingVector:
    windings: tuple[int, ...]


def _segment_clears_disk(p: Point, q: Point, disk: Disk) -> bool:
    """Segment pq stays outside the open disk."""
    px, py = p
    qx, qy = q
    cx, cy = disk.center
    dx, dy = qx - px, qy - py
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0:
        dist = math.dist(p, disk.center)
    else:
        t = max(0.0, min(1.0, ((cx - px) * dx + (cy - py) * dy) / seg_len_sq))
        dist = math.dist((px + t * dx, py + t * dy), disk.center)
    return dist >= disk.radius - 1e-12


def check_feasible(path: Sequence[Point], ws: Workspace) -> None:
    """Raise on the first (segment, obstacle) pair, in path then obstacle order,
    where the segment enters the obstacle.

    A disk whose center lies farther than radius + margin from the segment's
    bounding box along some axis is cleared without the exact test, and so
    is every disk at once when the segment's box misses the box around all
    of them. The margin, 1e-9 * (1 + largest |coordinate|), dwarfs the
    rounding of both tests, so every skipped pair is one the exact test
    passes.
    """
    if not ws.obstacles:
        return
    coords = [c for point in path for c in point]
    if all(map(math.isfinite, coords)):  # disks are finite by construction
        scale = max(map(abs, coords), default=0.0)
        for disk in ws.obstacles:
            scale = max(scale, abs(disk.center[0]), abs(disk.center[1]), disk.radius)
        margin = 1e-9 * (1.0 + scale)
    else:
        margin = math.inf  # unbounded boxes: NaN or infinite points get the exact test
    boxes = []
    for disk in ws.obstacles:
        (cx, cy), reach = disk.center, disk.radius + margin
        boxes.append((cx - reach, cx + reach, cy - reach, cy + reach))
    lo_xs, hi_xs, lo_ys, hi_ys = zip(*boxes)
    all_lo_x, all_hi_x, all_lo_y, all_hi_y = min(lo_xs), max(hi_xs), min(lo_ys), max(hi_ys)
    for p, q in zip(path, path[1:]):
        (px, py), (qx, qy) = p, q
        lo_x, hi_x = (px, qx) if px <= qx else (qx, px)
        lo_y, hi_y = (py, qy) if py <= qy else (qy, py)
        if hi_x < all_lo_x or lo_x > all_hi_x or hi_y < all_lo_y or lo_y > all_hi_y:
            continue
        for idx, (d_lo_x, d_hi_x, d_lo_y, d_hi_y) in enumerate(boxes):
            if hi_x < d_lo_x or lo_x > d_hi_x or hi_y < d_lo_y or lo_y > d_hi_y:
                continue
            disk = ws.obstacles[idx]
            if not _segment_clears_disk(p, q, disk):
                raise FeasibilityError(
                    f"segment {p} -> {q} crosses obstacle {idx} at {disk.center}"
                )


def winding_vector(loop: Sequence[Point], ws: Workspace) -> WindingVector:
    """Integer windings of a closed loop around every obstacle."""
    with malformed("loop"):  # not a sequence of points
        if len(loop) < 3:
            raise CyclosError("loop needs at least three points")
        gap = math.dist(loop[0], loop[-1])
    if gap > DEFAULT_ENDPOINT_TOL:
        raise ClosureError(f"loop endpoints differ by {gap:.3g} m")
    check_feasible(loop, ws)
    windings = []
    for disk in ws.obstacles:
        cx, cy = disk.center
        total = 0.0
        for (px, py), (qx, qy) in zip(loop, loop[1:]):
            ax, ay = px - cx, py - cy
            bx, by = qx - cx, qy - cy
            cross = ax * by - ay * bx
            dot = ax * bx + ay * by
            total += math.atan2(cross, dot)
        turns = total / (2.0 * math.pi)
        nearest = round(turns)
        if abs(turns - nearest) >= RESIDUAL_LIMIT:
            raise SamplingError(
                f"winding residual {abs(turns - nearest):.3g} around {disk.center}; "
                "loop sampled too coarsely or not closed"
            )
        windings.append(int(nearest))
    return WindingVector(tuple(windings))


def compose_moves(sequence: Sequence[Move], ws: Workspace) -> list[Point]:
    """Concatenate moves into a homing loop anchored at the base point."""
    if not sequence:
        raise CompositionError("no moves to compose")
    if math.dist(sequence[0].start, ws.base) > DEFAULT_ENDPOINT_TOL:
        raise CompositionError("first move does not start at the base point")
    path: list[Point] = list(sequence[0].path)
    for idx, move in enumerate(sequence[1:], start=1):
        if math.dist(path[-1], move.start) > DEFAULT_ENDPOINT_TOL:
            raise CompositionError(
                f"move {idx} starts {math.dist(path[-1], move.start):.3g} m away from "
                "the previous endpoint"
            )
        path.extend(move.path[1:])
    if math.dist(path[-1], ws.base) > DEFAULT_ENDPOINT_TOL:
        raise ClosureError("composed path does not return to the base point")
    check_feasible(path, ws)
    return path


def order_invariance_check(
    moveset: Sequence[Move],
    orderings: Sequence[Sequence[int]],
    ws: Workspace,
) -> tuple[bool, dict]:
    """Compare winding vectors across move orderings.

    Every ordering must list indices into `moveset`. Invalid orderings
    (composition or closure failures) are reported per ordering and
    excluded; the check passes iff every valid ordering yields one winding
    vector.
    """
    with malformed("orderings", PreconditionError):  # an ordering that is not a sequence
        valid = all(is_int(i) and 0 <= i < len(moveset) for order in orderings for i in order)
    if not valid:
        raise PreconditionError(f"orderings must hold move indices 0..{len(moveset) - 1}")
    results = []
    vectors = []
    for ordering in orderings:
        try:
            loop = compose_moves([moveset[i] for i in ordering], ws)
            vec = winding_vector(loop, ws)
            vectors.append(vec)
            results.append({"ordering": list(ordering), "windings": list(vec.windings)})
        except CyclosError as err:
            results.append({"ordering": list(ordering), "error": str(err)})
    ok = bool(vectors) and all(v == vectors[0] for v in vectors)
    return ok, {"pass": ok, "orderings": results}
