"""Hough accumulation, permutation exactness, saccade audits, peak persistence."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclos import ght
from cyclos.errors import NoPeakError, PreconditionError, TableError
from cyclos.ght import (
    Accumulator,
    AccumulatorConfig,
    Feature,
    GazeTransform,
    ModelTable,
    accumulate,
    argmax_peak,
    peak_persistence,
    saccade_invariance_audit,
)
from cyclos.persist import Bar, Barcode
from test_persist import alive_count

CONFIG = AccumulatorConfig(extent=(0.0, 100.0, 0.0, 100.0), shape=(50, 50))
TABLE = ModelTable({0: (10.0, 0.0), 1: (0.0, 10.0), 2: (-7.0, -7.0)})


def synthetic_scene(center, descriptors=(0, 1, 2), angles=(0.0, 0.5, 1.1)):
    """Features whose votes all point at `center`."""
    feats = []
    for d, a in zip(descriptors, angles):
        ox, oy = TABLE.offsets[d]
        c, s = math.cos(a), math.sin(a)
        rotated = (c * ox - s * oy, s * ox + c * oy)
        feats.append(Feature((center[0] - rotated[0], center[1] - rotated[1]), a, d))
    return feats


class TestAccumulate:
    def test_single_delta_vote(self):
        scene = synthetic_scene((42.0, 17.0), descriptors=(0,), angles=(0.3,))
        acc = accumulate([(GazeTransform(), scene)], TABLE, CONFIG)
        peak = argmax_peak(acc)
        assert acc.grid.sum() == 1.0
        assert math.dist(peak.point, (42.0, 17.0)) <= 2.0  # within one cell diagonal

    def test_permutation_bit_identical(self):
        rng = random.Random(3)
        scene = synthetic_scene((50.0, 50.0))
        extra = synthetic_scene((20.0, 80.0))
        glimpses = [
            (GazeTransform(0.0, (5.0, 0.0)), [GazeTransform(0.0, (5.0, 0.0)).apply_feature(f) for f in scene]),
            (GazeTransform(), list(extra)),
            (GazeTransform(0.4), [GazeTransform(0.4).apply_feature(f) for f in scene]),
        ]
        base = accumulate(glimpses, TABLE, CONFIG)
        for _ in range(5):
            shuffled = list(glimpses)
            rng.shuffle(shuffled)
            shuffled = [(g, rng.sample(list(fs), len(fs))) for g, fs in shuffled]
            other = accumulate(shuffled, TABLE, CONFIG)
            assert other.grid.tobytes() == base.grid.tobytes()

    def test_gaussian_permutation_bit_identical(self):
        config = AccumulatorConfig((0, 100, 0, 100), (50, 50), kernel="gaussian", bandwidth=2.0)
        rng = random.Random(7)
        scene = synthetic_scene((50.0, 50.0))
        glimpses = [(GazeTransform(), list(scene)), (GazeTransform(), list(reversed(scene)))]
        base = accumulate(glimpses, TABLE, config)
        shuffled = [(g, rng.sample(list(fs), len(fs))) for g, fs in reversed(glimpses)]
        assert accumulate(shuffled, TABLE, config).grid.tobytes() == base.grid.tobytes()

    def test_re_registration_recovers_identity_votes(self):
        scene = synthetic_scene((30.0, 60.0))
        gaze = GazeTransform(0.7, (12.0, -4.0))
        observed = [gaze.apply_feature(f) for f in scene]
        acc_identity = accumulate([(GazeTransform(), scene)], TABLE, CONFIG)
        acc_reregistered = accumulate([(gaze, observed)], TABLE, CONFIG)
        assert argmax_peak(acc_reregistered).point == argmax_peak(acc_identity).point

    def test_unknown_descriptor_rejected(self):
        feat = Feature((10.0, 10.0), 0.0, 99)
        with pytest.raises(TableError):
            accumulate([(GazeTransform(), [feat])], TABLE, CONFIG)

    def test_overflow_bucket(self):
        feat = Feature((500.0, 500.0), 0.0, 0)
        acc = accumulate([(GazeTransform(), [feat])], TABLE, CONFIG)
        assert acc.overflow_count == 1
        assert acc.grid.sum() == 0.0


def reference_cell_of(config, point):
    xmin, xmax, ymin, ymax = config.extent
    nx, ny = config.shape
    ix = math.floor((point[0] - xmin) / (xmax - xmin) * nx)
    iy = math.floor((point[1] - ymin) / (ymax - ymin) * ny)
    if 0 <= ix < nx and 0 <= iy < ny:
        return ix, iy
    return None


def reference_accumulate(glimpses, table, config, re_register=True):
    """Votes splatted into a numpy grid one cell at a time, every cell center,
    reach and sigma recomputed per cell."""
    votes = []
    for gaze, features in glimpses:
        inv = gaze.inverse() if re_register else None
        for f in features:
            registered = inv.apply_feature(f) if inv is not None else f
            point = table.vote_point(registered)
            cell = reference_cell_of(config, point)
            quantized = cell if cell is not None else (-1, -1)
            votes.append((f.descriptor, quantized[0], quantized[1], point[0], point[1]))
    votes.sort()

    nx, ny = config.shape
    grid = np.zeros((ny, nx))
    overflow_count = 0
    if config.kernel == "delta":
        for _, ix, iy, _, _ in votes:
            if ix < 0:
                overflow_count += 1
            else:
                grid[iy, ix] += 1.0
    else:
        xmin, xmax, ymin, ymax = config.extent
        cell_w = (xmax - xmin) / nx
        cell_h = (ymax - ymin) / ny
        reach_x = math.ceil(3.0 * config.bandwidth / cell_w)
        reach_y = math.ceil(3.0 * config.bandwidth / cell_h)
        for _, ix, iy, px, py in votes:
            if ix < 0:
                overflow_count += 1
                continue
            for jy in range(max(0, iy - reach_y), min(ny, iy + reach_y + 1)):
                for jx in range(max(0, ix - reach_x), min(nx, ix + reach_x + 1)):
                    cx, cy = config.cell_center(jx, jy)
                    dist_sq = (cx - px) ** 2 + (cy - py) ** 2
                    if dist_sq <= (3.0 * config.bandwidth) ** 2:
                        grid[jy, jx] += math.exp(-0.5 * dist_sq / config.bandwidth**2)
    return Accumulator(config, grid, overflow_count)


@st.composite
def vote_inputs(draw):
    """Glimpses over a small grid, with votes past the extent (off-grid).

    In lattice mode the origin is an integer, cells are dyadic, sigma is a
    multiple of half a cell and votes land on cell corners and centers, so
    cell boundaries and cell centers exactly 3 sigma from a vote occur.
    """
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    kernel = draw(st.sampled_from(["delta", "gaussian"]))
    lattice = draw(st.booleans())
    if lattice:
        xmin, ymin = float(draw(st.integers(-50, 50))), float(draw(st.integers(-50, 50)))
        cell = draw(st.sampled_from([0.5, 1.0, 2.0]))
        width, height = cell * nx, cell * ny
        bandwidth = draw(st.integers(1, 6)) * cell / 2
        offsets = {0: (0.0, 0.0)}
        position = st.tuples(
            st.integers(-4, 2 * nx + 4).map(lambda k: xmin + k * cell / 2),
            st.integers(-4, 2 * ny + 4).map(lambda k: ymin + k * cell / 2))
        feature = st.builds(Feature, position, st.just(0.0), st.just(0))
        gaze = st.just(GazeTransform())
    else:
        xmin, ymin = draw(st.floats(-50, 50)), draw(st.floats(-50, 50))
        width, height = draw(st.floats(0.5, 60)), draw(st.floats(0.5, 60))
        bandwidth = draw(st.floats(0.05, 15))
        offsets = {d: (draw(st.floats(-20, 20)), draw(st.floats(-20, 20))) for d in range(3)}
        position = st.tuples(st.floats(xmin - 30, xmin + width + 30),
                             st.floats(ymin - 30, ymin + height + 30))
        feature = st.builds(Feature, position, st.floats(-4, 4), st.integers(0, 2))
        gaze = st.builds(GazeTransform, st.floats(-1, 1),
                         st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
    config = AccumulatorConfig((xmin, xmin + width, ymin, ymin + height), (nx, ny),
                               kernel, bandwidth)
    glimpses = draw(st.lists(st.tuples(gaze, st.lists(feature, max_size=6)), max_size=4))
    return glimpses, ModelTable(offsets), config, draw(st.booleans())


class TestAccumulateOracle:
    @settings(max_examples=300, deadline=None)
    @given(vote_inputs())
    def test_matches_reference_bytes(self, case):
        glimpses, table, config, re_register = case
        got = accumulate(glimpses, table, config, re_register)
        want = reference_accumulate(glimpses, table, config, re_register)
        assert got.grid.shape == want.grid.shape and got.grid.dtype == want.grid.dtype
        assert got.grid.tobytes() == want.grid.tobytes()
        assert got.overflow_count == want.overflow_count


class TestArgmaxPeak:
    def test_tie_takes_lowest_linear_index_and_flags(self):
        grid = np.zeros((4, 4))
        grid[2, 1] = grid[1, 3] = 5.0
        acc = Accumulator(CONFIG, grid, 0)
        peak = argmax_peak(acc)
        assert peak.tied
        # row-major: (1, 3) precedes (2, 1)
        assert peak.point == CONFIG.cell_center(3, 1)

    def test_empty_accumulator_rejected(self):
        acc = Accumulator(CONFIG, np.zeros((50, 50)), 0)
        with pytest.raises(NoPeakError):
            argmax_peak(acc)

    def test_noisy_gaussian_votes_near_truth(self):
        config = AccumulatorConfig((0, 100, 0, 100), (50, 50), kernel="gaussian", bandwidth=2.0)
        rng = np.random.default_rng(11)
        truth = (55.0, 45.0)
        feats = []
        for _ in range(100):
            jitter = rng.normal(0.0, 1.0, size=2)
            feats += synthetic_scene((truth[0] + jitter[0], truth[1] + jitter[1]),
                                     descriptors=(0,), angles=(float(rng.uniform(0, 6.2)),))
        acc = accumulate([(GazeTransform(), feats)], TABLE, config)
        peak = argmax_peak(acc)
        cell_w = 100.0 / 50
        assert abs(peak.point[0] - truth[0]) <= 1.5 * cell_w
        assert abs(peak.point[1] - truth[1]) <= 1.5 * cell_w


class TestSaccadeAudit:
    SCENE = synthetic_scene((48.0, 52.0))

    def test_two_closed_scanpaths_agree(self):
        paths = [
            [GazeTransform(0.0, (6.0, 0.0)), GazeTransform(0.0, (-6.0, 0.0))],
            [GazeTransform(0.0, (0.0, 9.0)), GazeTransform(0.0, (0.0, -9.0)),
             GazeTransform()],
        ]
        report = saccade_invariance_audit(self.SCENE, paths, TABLE, CONFIG)
        assert report["pass"] and report["peaks_agree_within_one_cell"]

    def test_open_path_with_reregistration_matches_closed(self):
        closed = [GazeTransform(0.0, (6.0, 0.0)), GazeTransform(0.0, (-6.0, 0.0))]
        open_path = [GazeTransform(0.0, (6.0, 0.0)), GazeTransform(0.0, (3.0, 3.0))]
        report = saccade_invariance_audit(self.SCENE, [closed, open_path], TABLE, CONFIG,
                                          re_register=True)
        assert report["pass"]

    def test_open_path_without_reregistration_reported(self):
        open_path = [GazeTransform(0.0, (6.0, 0.0)), GazeTransform(0.0, (3.0, 3.0))]
        closed = [GazeTransform(0.0, (6.0, 0.0)), GazeTransform(0.0, (-6.0, 0.0))]
        report = saccade_invariance_audit(self.SCENE, [closed, open_path], TABLE, CONFIG,
                                          re_register=False)
        assert not report["pass"]
        errors = [e for e in report["paths"] if "error" in e]
        assert len(errors) == 1 and errors[0]["path"] == 1


def brute_force_components(grid, tau):
    active = {(iy, ix) for iy in range(grid.shape[0]) for ix in range(grid.shape[1])
              if grid[iy, ix] >= tau}
    seen = set()
    count = 0
    for cell in sorted(active):
        if cell in seen:
            continue
        count += 1
        stack = [cell]
        seen.add(cell)
        while stack:
            iy, ix = stack.pop()
            for nb in ((iy - 1, ix), (iy + 1, ix), (iy, ix - 1), (iy, ix + 1)):
                if nb in active and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return count


def reference_peak_persistence(acc, thresholds):
    """Per-threshold superlevel H0: activate cells, then union every active pair.

    Rescans the grid and re-sorts the active cells at each threshold, with its
    own union-find and elder rule (higher birth threshold, then lower cell).
    """
    ny, nx = acc.grid.shape
    parent = {}
    birth = {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    bars = []
    active = set()
    for tau in thresholds:
        for iy in range(ny):
            for ix in range(nx):
                if (iy, ix) not in active and acc.grid[iy, ix] >= tau:
                    parent[(iy, ix)] = (iy, ix)
                    birth[(iy, ix)] = tau
                    active.add((iy, ix))
        for cell in sorted(active):
            iy, ix = cell
            for nb in ((iy - 1, ix), (iy + 1, ix), (iy, ix - 1), (iy, ix + 1)):
                if nb not in active:
                    continue
                ra, rb = find(cell), find(nb)
                if ra == rb:
                    continue
                elder, younger = sorted((ra, rb), key=lambda r: (-birth[r], r))
                bars.append(Bar(0, -birth[younger], -tau))
                parent[younger] = elder
    roots = {find(c) for c in active}
    for root in sorted(roots, key=lambda r: (-birth[r], r)):
        bars.append(Bar(0, -birth[root], math.inf))
    bars.sort(key=lambda b: (b.birth, b.death))
    return Barcode(tuple(bars))


# few distinct levels force ties, plateaus and cells sitting exactly on a threshold
GRID_LEVELS = (0.0, 1.0, 2.0, 2.5, 4.0, math.nan)
THRESHOLD_LEVELS = (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0)


@st.composite
def grids_and_thresholds(draw):
    ny, nx = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = draw(st.lists(st.sampled_from(GRID_LEVELS), min_size=ny * nx, max_size=ny * nx))
    thresholds = draw(st.lists(st.sampled_from(THRESHOLD_LEVELS), unique=True))
    return np.array(cells).reshape(ny, nx), sorted(thresholds, reverse=True)


class TestPeakPersistence:
    def _bump_grid(self):
        # two bumps (heights 5 and 3) joined by a saddle at 2
        grid = np.zeros((5, 9))
        grid[2, 1:4] = [2.0, 5.0, 2.0]
        grid[2, 4] = 2.0
        grid[2, 5:8] = [2.0, 3.0, 2.0]
        return grid

    def test_single_bump_spans_all_thresholds(self):
        grid = np.zeros((5, 5))
        grid[2, 2] = 5.0
        grid[2, 1] = grid[2, 3] = 3.0
        acc = Accumulator(CONFIG, grid, 0)
        barcode = peak_persistence(acc, [5.0, 4.0, 3.0, 2.0, 1.0])
        essential = [b for b in barcode.bars if b.death == math.inf]
        assert len(essential) == 1 and essential[0].birth == -5.0

    def test_second_bump_dies_at_saddle(self):
        acc = Accumulator(CONFIG, self._bump_grid(), 0)
        barcode = peak_persistence(acc, [5.0, 4.0, 3.0, 2.0, 1.0])
        finite = [b for b in barcode.bars if b.death != math.inf]
        assert (-3.0, -2.0) in {(b.birth, b.death) for b in finite}
        essential = [b for b in barcode.bars if b.death == math.inf]
        assert len(essential) == 1 and essential[0].birth == -5.0

    def test_flat_zero_field_empty(self):
        acc = Accumulator(CONFIG, np.zeros((5, 5)), 0)
        assert peak_persistence(acc, [3.0, 2.0, 1.0]).bars == ()

    def test_alive_bars_match_component_count(self):
        rng = np.random.default_rng(23)
        grid = rng.uniform(0, 10, size=(8, 8)).round(1)
        acc = Accumulator(CONFIG, grid, 0)
        thresholds = sorted({float(v) for v in grid.flat}, reverse=True)
        barcode = peak_persistence(acc, thresholds)
        for tau in thresholds:
            alive = alive_count(barcode, 0, -tau)
            assert alive == brute_force_components(grid, tau)

    @settings(max_examples=300, deadline=None)
    @given(grids_and_thresholds())
    def test_matches_per_threshold_reference(self, case):
        grid, thresholds = case
        acc = Accumulator(CONFIG, grid, 0)
        expected = reference_peak_persistence(acc, thresholds)
        assert peak_persistence(acc, thresholds).to_json_obj() == expected.to_json_obj()

    @pytest.mark.parametrize("thresholds", [
        [1.0, math.nan, 2.0],
        [math.nan],
        [math.inf, 1.0],
        [2.0, 1.0, -math.inf],
        [3.0, 3.0],
        ["a"],
    ])
    def test_invalid_thresholds_rejected(self, thresholds):
        acc = Accumulator(CONFIG, np.ones((3, 3)), 0)
        with pytest.raises(PreconditionError):
            peak_persistence(acc, thresholds)

    def test_ascending_thresholds_rejected(self):
        acc = Accumulator(CONFIG, np.ones((3, 3)), 0)
        with pytest.raises(PreconditionError):
            peak_persistence(acc, [1.0, 2.0])


class TestGazeTransform:
    def test_inverse_composes_to_identity(self):
        g = GazeTransform(0.8, (3.0, -2.0))
        assert g.compose(g.inverse()).is_identity()
        assert g.inverse().compose(g).is_identity()

    def test_apply_matches_manual_rotation(self):
        g = GazeTransform(math.pi / 2, (1.0, 0.0))
        x, y = g.apply((2.0, 0.0))
        assert (x, y) == pytest.approx((1.0, 2.0))
