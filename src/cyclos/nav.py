"""Planar homing: winding vectors around disk obstacles and order invariance.

The homology class of a homing loop in a disk-punctured plane is its integer
winding vector: signed ray crossings, exact and additive over the moves that
compose the loop (Hormann and Agathos, Comput. Geom. 2001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    ClosureError, CompositionError, CyclosError, FeasibilityError, PreconditionError,
    is_finite, is_int, is_real, malformed,
)

Point = tuple[float, float]
DEFAULT_ENDPOINT_TOL = 1e-6  # meters between loop ends, consecutive moves and the base


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
    """Polyline path through the free space: two or more pairs of reals a float can hold."""

    path: tuple[Point, ...]

    def __post_init__(self):
        with malformed("move path"):
            if len(self.path) < 2 or not all(len(p) == 2 and all(map(is_real, p))
                                             for p in self.path):
                raise CyclosError(f"a move needs two or more real pairs, got {self.path!r}")
        _float_pairs(self.path, "move path")

    @property
    def start(self) -> Point:
        return self.path[0]


@dataclass(frozen=True)
class WindingVector:
    windings: tuple[int, ...]


def _float_pairs(points: Sequence[Point], what: str) -> list[Point]:
    """The points as pairs of floats, NaN and infinities kept."""
    with malformed(what):  # not pairs of numbers, or a number beyond the float range
        return [(float(x), float(y)) for x, y in points]


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
    """Take the path's coordinates as floats, then raise on the first (segment,
    obstacle) pair, in path then obstacle order, where the segment enters the obstacle.

    A disk whose center lies farther than radius + margin from the segment's
    bounding box along some axis is cleared without the exact test, and so
    is every disk at once when the segment's box misses the box around all
    of them. The margin, 1e-9 * (1 + largest |coordinate|), dwarfs the
    rounding of both tests, so every skipped pair is one the exact test
    passes.
    """
    path = _float_pairs(path, "path")
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
    """Integer windings around every obstacle of the loop closed from its end to its start.

    Winding k counts upward minus downward crossings of the ray y = c_y, x > c_x from
    obstacle k's centre c by segments p -> q with exactly one end at y <= c_y (half-open:
    a vertex on the ray counts once). A crossing at x = X lies right of c when
    side = (qy - py)(X - cx) has the sign of qy - py. check_feasible keeps |X - cx| >=
    r - 1e-12, so rounding flips that sign only if r - 1e-12 < ~1e-15 * max |coordinate|.
    """
    with malformed("loop"):  # not a sequence of points
        if len(loop) < 3:
            raise CyclosError("loop needs at least three points")
        closed = _float_pairs([*loop, loop[0]], "loop")
    gap = math.dist(closed[0], closed[-2])
    if gap > DEFAULT_ENDPOINT_TOL:
        raise ClosureError(f"loop endpoints differ by {gap:.3g} m")
    check_feasible(closed, ws)
    windings = []
    for disk in ws.obstacles:
        cx, cy = disk.center
        winding = 0
        for (px, py), (qx, qy) in zip(closed, closed[1:]):
            if (py <= cy) != (qy <= cy):
                side = (qx - px) * (cy - py) - (qy - py) * (cx - px)
                winding += (side > 0) if py <= cy else -(side < 0)  # right of c: up +1, down -1
        windings.append(winding)
    return WindingVector(tuple(windings))


def compose_moves(sequence: Sequence[Move], ws: Workspace) -> list[Point]:
    """Concatenate moves into a homing loop anchored at the base point."""
    if not sequence:
        raise CompositionError("no moves to compose")
    if math.dist(sequence[0].start, ws.base) > DEFAULT_ENDPOINT_TOL:
        raise CompositionError("first move does not start at the base point")
    path: list[Point] = list(sequence[0].path)
    for idx, move in enumerate(sequence[1:], start=1):
        gap = math.dist(path[-1], move.start)
        if gap > DEFAULT_ENDPOINT_TOL:
            raise CompositionError(f"move {idx} starts {gap:.3g} m away from the previous endpoint")
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
