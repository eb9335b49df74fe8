"""Winding vectors, move composition, order invariance, product classes.

Winding expectations come from two references independent of the package's
ray-crossing count: a numpy oracle (dense resampling plus np.unwrap on angles)
and ``reference_winding``, the sum of the atan2 angles each segment subtends,
rounded to whole turns, with the residual of that rounding.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclos import nav
from cyclos.errors import ClosureError, CompositionError, FeasibilityError
from cyclos.nav import Disk, Move, Workspace


def circle(center, radius, n=48, ccw=True, start_angle=0.0):
    sign = 1.0 if ccw else -1.0
    pts = []
    for i in range(n + 1):
        a = start_angle + sign * 2 * math.pi * i / n
        pts.append((center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)))
    return pts


def winding_oracle(loop, center):
    """Dense-resample the loop and unwrap angles around the center."""
    dense = []
    for p, q in zip(loop, loop[1:]):
        for i in range(32):
            s = i / 32
            dense.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    dense.append(loop[-1])
    arr = np.array(dense) - np.array(center)
    angles = np.unwrap(np.arctan2(arr[:, 1], arr[:, 0]))
    return round((angles[-1] - angles[0]) / (2 * math.pi))


def reference_winding(loop, center):
    """The atan2 angles the loop's segments subtend at `center`, summed in whole
    turns, and the residual of that rounding."""
    cx, cy = center
    total = 0.0
    for (px, py), (qx, qy) in zip(loop, loop[1:]):
        ax, ay, bx, by = px - cx, py - cy, qx - cx, qy - cy
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    turns = total / (2 * math.pi)
    return round(turns), abs(turns - round(turns))


WS2 = Workspace((Disk((0.0, 0.0), 0.5), Disk((4.0, 0.0), 0.5)), base=(2.0, -3.0))


class TestWindingVector:
    def test_ccw_circle_around_first_obstacle(self):
        loop = circle((0.0, 0.0), 1.5)
        vec = nav.winding_vector(loop, WS2)
        assert vec.windings == (1, 0)

    def test_contractible_loop_is_zero(self):
        loop = circle((2.0, 5.0), 0.8)
        assert nav.winding_vector(loop, WS2).windings == (0, 0)

    def test_figure_eight(self):
        # CCW around obstacle 1, then CW around obstacle 2, joined at (2, 0)
        left = circle((0.0, 0.0), 2.0, start_angle=0.0)
        right = circle((4.0, 0.0), 2.0, ccw=False, start_angle=math.pi)
        loop = left + right[1:]
        vec = nav.winding_vector(loop, WS2)
        assert vec.windings == (1, -1)
        assert vec.windings == (
            winding_oracle(loop, (0.0, 0.0)),
            winding_oracle(loop, (4.0, 0.0)),
        )

    def test_open_loop_rejected(self):
        with pytest.raises(ClosureError):
            nav.winding_vector([(0, 2), (1, 2), (1, 3)], WS2)

    def test_obstacle_crossing_rejected(self):
        loop = [(-1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)]
        with pytest.raises(FeasibilityError):
            nav.winding_vector(loop, WS2)

    def test_loop_closed_within_tolerance_counts_its_closing_segment(self):
        # the ends are 1e-7 apart; the open polyline subtends 1.125 turns
        ws = Workspace((Disk((0.0, 0.0), 1e-8),), base=(1.0, 0.0))
        loop = [(1e-7, 0.0), (0.0, 1e-7), (-1e-7, 0.0), (0.0, -1e-7), (1e-7, 1e-7)]
        assert reference_winding(loop, (0.0, 0.0)) == (1, pytest.approx(0.125))
        assert reference_winding(loop + loop[:1], (0.0, 0.0)) == (1, pytest.approx(0.0))
        assert nav.winding_vector(loop, ws).windings == (1,)

    def test_randomized_against_unwrap_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            k1 = rng.randint(-2, 2)
            loops = []
            for _ in range(abs(k1)):
                loops.append(circle((0.0, 0.0), 1.2 + rng.random(), ccw=k1 > 0))
            if not loops:
                loops = [circle((2.0, 6.0), 1.0)]
            loop = loops[0]
            for extra in loops[1:]:
                bridge_out = [loop[-1], extra[0]]
                loop = loop + bridge_out[1:] + extra[1:] + [loop[0]]
            # keep the loop away from obstacle 2 and feasible in WS2
            try:
                vec = nav.winding_vector(loop, WS2)
            except FeasibilityError:
                continue
            assert vec.windings[0] == winding_oracle(loop, (0.0, 0.0))
            assert vec.windings[1] == winding_oracle(loop, (4.0, 0.0))

    def test_additivity_at_shared_basepoint(self):
        def lasso(center, radius=0.9):
            out = [WS2.base, (center[0] + radius, center[1])]
            ring = circle(center, radius, n=24)
            return out + ring[1:] + [(center[0] + radius, center[1]), WS2.base]

        a = lasso((0.0, 0.0))
        b = lasso((4.0, 0.0))
        combined = a + b[1:]
        va = nav.winding_vector(a, WS2)
        vb = nav.winding_vector(b, WS2)
        vc = nav.winding_vector(combined, WS2)
        assert va.windings == (1, 0) and vb.windings == (0, 1)
        assert vc.windings == tuple(x + y for x, y in zip(va.windings, vb.windings))

    def test_reversal_negates(self):
        loop = circle((0.0, 0.0), 1.5)
        vec = nav.winding_vector(loop, WS2)
        rev = nav.winding_vector(list(reversed(loop)), WS2)
        assert rev.windings == tuple(-w for w in vec.windings)


class TestComposeMoves:
    def test_two_half_loops(self):
        ws = Workspace((Disk((0.0, 0.0), 0.5),), base=(1.5, 0.0))
        upper = Move(tuple(circle((0.0, 0.0), 1.5, n=24)[:13]))  # 0 to pi
        lower = Move(tuple(circle((0.0, 0.0), 1.5, n=24)[12:]))  # pi to 2pi
        loop = nav.compose_moves([upper, lower], ws)
        assert nav.winding_vector(loop, ws).windings == (1,)

    def test_single_closed_move(self):
        ws = Workspace((Disk((0.0, 0.0), 0.5),), base=(1.5, 0.0))
        move = Move(tuple(circle((0.0, 0.0), 1.5)))
        assert nav.compose_moves([move], ws) == list(move.path)

    def test_mismatched_endpoints_rejected(self):
        ws = Workspace((Disk((0.0, 0.0), 0.5),), base=(1.5, 0.0))
        a = Move(((1.5, 0.0), (2.0, 2.0)))
        b = Move(((9.0, 9.0), (1.5, 0.0)))
        with pytest.raises(CompositionError):
            nav.compose_moves([a, b], ws)

    def test_not_returning_home_rejected(self):
        ws = Workspace((Disk((0.0, 0.0), 0.5),), base=(1.5, 0.0))
        a = Move(((1.5, 0.0), (2.0, 2.0)))
        with pytest.raises(ClosureError):
            nav.compose_moves([a], ws)


def commuting_moves(ws):
    """Two closed loops at the base: one around each obstacle."""
    base = ws.base
    def lasso(center, radius=0.9):
        out = [base, (center[0] + radius, center[1])]
        ring = circle(center, radius, n=24, start_angle=0.0)
        return Move(tuple(out + ring[1:] + [(center[0] + radius, center[1]), base]))
    return lasso((0.0, 0.0)), lasso((4.0, 0.0))


class TestOrderInvariance:
    def test_commuting_pair(self):
        a, b = commuting_moves(WS2)
        ok, report = nav.order_invariance_check([a, b], [[0, 1], [1, 0]], WS2)
        assert ok, report

    def test_all_orderings_of_three(self):
        a, b = commuting_moves(WS2)
        # contractible loop anchored at the base point
        c = Move(tuple(circle((WS2.base[0] - 0.4, WS2.base[1]), 0.4)))
        orderings = list(itertools.permutations(range(3)))
        ok, report = nav.order_invariance_check([a, b, c], orderings, WS2)
        assert ok
        assert len(report["orderings"]) == 6
        assert all("windings" in entry for entry in report["orderings"])

    def test_invalid_ordering_reported_not_fatal(self):
        a, b = commuting_moves(WS2)
        open_move = Move(((WS2.base[0], WS2.base[1]), (5.0, 5.0)))
        ok, report = nav.order_invariance_check(
            [a, open_move], [[0], [0, 1]], WS2
        )
        assert ok  # the valid ordering [0] passes; [0, 1] is reported
        errors = [e for e in report["orderings"] if "error" in e]
        assert len(errors) == 1


class TestProductClass:
    def test_interleaved_composite_matches_sequential(self):
        # doubled workspace: perception obstacles at y=0, action obstacles at y=10
        ws_p = Workspace((Disk((0.0, 0.0), 0.5),), base=(2.0, -2.0))
        ws_a = Workspace((Disk((0.0, 10.0), 0.5),), base=(2.0, 8.0))
        ws_joint = Workspace(ws_p.obstacles + ws_a.obstacles, base=(2.0, -2.0))

        loop_p = circle((0.0, 0.0), 2.83, start_angle=math.atan2(-2.0, 2.0))
        loop_a = circle((0.0, 10.0), 2.83, start_angle=math.atan2(-2.0, 2.0))
        loop_a = [(x, y) for x, y in loop_a]

        vec_p = nav.winding_vector(loop_p, ws_p)
        vec_a = nav.winding_vector(loop_a, ws_a)

        # interleave: half of P, detour through all of A, rest of P
        half = len(loop_p) // 2
        bridge_to_a = [loop_p[half], loop_a[0]]
        joint = (
            loop_p[: half + 1]
            + bridge_to_a[1:]
            + loop_a[1:]
            + [loop_a[0], loop_p[half]]
            + loop_p[half + 1:]
        )
        vec_joint = nav.winding_vector(joint, ws_joint)
        # the direct-sum class: perception windings, then action windings
        assert vec_joint.windings == vec_p.windings + vec_a.windings


class TestWorkspaceValidation:
    def test_overlapping_obstacles_rejected(self):
        with pytest.raises(Exception):
            Workspace((Disk((0, 0), 1.0), Disk((1.5, 0), 1.0)), base=(5, 5))

    def test_base_inside_obstacle_rejected(self):
        with pytest.raises(Exception):
            Workspace((Disk((0, 0), 1.0),), base=(0.2, 0.2))

    def test_json_round_trip(self):
        obj = {"obstacles": [[0.0, 0.0, 0.5], [4, 0, 0.5]], "base": [2.0, -3.0]}
        assert Workspace.from_json_obj(obj) == WS2


def reference_check_feasible(path, ws):
    """The exact test on every (segment, obstacle) pair, in path then obstacle order."""
    for p, q in zip(path, path[1:]):
        for idx, disk in enumerate(ws.obstacles):
            if not nav._segment_clears_disk(p, q, disk):
                raise FeasibilityError(
                    f"segment {p} -> {q} crosses obstacle {idx} at {disk.center}"
                )


# gaps around the exact test's acceptance edge at r - 1e-12
TANGENT_GAPS = (-1e-9, -1e-10, -1e-11, -2e-12, -1e-12, 0.0, 1e-12, 1e-11, 1e-10, 1e-9)
AXIS_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


@st.composite
def near_tangent_paths(draw):
    """Disks in a row, far out (coordinates up to 1e6); paths mix random points
    with segments tangent to a disk at r +- 1e-12..1e-9, some of zero length."""
    ox, oy = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    unit = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    disks = tuple(
        Disk((ox + 10.0 * i * unit, oy + draw(st.floats(-3, 3)) * unit),
             draw(st.floats(0.2, 2.0)) * unit)
        for i in range(draw(st.integers(1, 4)))
    )
    ws = Workspace(disks, base=(ox - 20.0 * unit, oy))
    path = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            path.append((ox + draw(st.floats(-5, 45)) * unit, oy + draw(st.floats(-5, 5)) * unit))
            continue
        disk = draw(st.sampled_from(disks))
        phi = draw(st.sampled_from(AXIS_ANGLES) | st.floats(0, 2 * math.pi))
        gap = disk.radius + draw(st.sampled_from(TANGENT_GAPS) | st.floats(-1e-9, 1e-9))
        fx = disk.center[0] + gap * math.cos(phi)
        fy = disk.center[1] + gap * math.sin(phi)
        ux, uy = -math.sin(phi), math.cos(phi)
        a = draw(st.just(0.0) | st.floats(-3, 3)) * unit
        b = draw(st.just(a) | st.floats(-3, 3).map(lambda v: v * unit))
        path += [(fx + a * ux, fy + a * uy), (fx + b * ux, fy + b * uy)]
    if len(path) < 2:
        path.append(path[0])
    return path, ws


def feasibility_outcome(check, path, ws):
    try:
        check(path, ws)
    except FeasibilityError as err:
        return str(err)
    return None


class TestCheckFeasibleOracle:
    @settings(max_examples=500, deadline=None)
    @given(near_tangent_paths())
    def test_matches_exact_check_on_every_pair(self, case):
        path, ws = case
        assert feasibility_outcome(nav.check_feasible, path, ws) == feasibility_outcome(
            reference_check_feasible, path, ws)

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 3.0)])
    def test_non_finite_points_take_the_exact_test(self, point):
        path = [(-4.0, -4.0), point, (6.0, 6.0)]
        assert feasibility_outcome(nav.check_feasible, path, WS2) == feasibility_outcome(
            reference_check_feasible, path, WS2)


@st.composite
def ray_loops(draw):
    """Exactly closed loops winding -2..2 times around one disk, radii 2.5r to 5r,
    with many vertices exactly on the line y = c_y, either side of the centre."""
    cx, cy = draw(st.floats(-100, 100)), draw(st.floats(-100, 100))
    r = draw(st.floats(0.01, 10))
    turns = draw(st.integers(-2, 2))
    n = draw(st.integers(4 * abs(turns) + 3, 4 * abs(turns) + 12))
    start = draw(st.sampled_from([0.0, math.pi]) | st.floats(0, 2 * math.pi))
    loop = []
    for i in range(n):
        angle = start + 2 * math.pi * turns * i / n + draw(st.just(0.0) | st.floats(-0.3, 0.3))
        rho = r * draw(st.floats(2.5, 5.0))
        if abs(math.sin(angle)) < 0.5 and draw(st.booleans()):
            loop.append((cx + math.copysign(rho, math.cos(angle)), cy))
        else:
            loop.append((cx + rho * math.cos(angle), cy + rho * math.sin(angle)))
    return loop + loop[:1], Workspace((Disk((cx, cy), r),), base=(cx + 6 * r, cy))


def closed_near_tangent_paths():
    return near_tangent_paths().map(lambda case: (case[0] + case[0][:1], case[1]))


class TestWindingOracle:
    @settings(max_examples=500, deadline=None)
    @given(ray_loops() | closed_near_tangent_paths())
    def test_crossings_match_atan2_reference(self, case):
        loop, ws = case
        try:
            windings = nav.winding_vector(loop, ws).windings
        except FeasibilityError:
            return  # TestCheckFeasibleOracle checks the rejection
        reference = [reference_winding(loop, disk.center) for disk in ws.obstacles]
        assert windings == tuple(turns for turns, _ in reference)
        assert all(residual < 0.01 for _, residual in reference)
