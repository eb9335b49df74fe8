"""Grid phases, the coincidence functional, place fields, tour invariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclos import gridplace
from cyclos.errors import ClosureError, ConfigError, CyclosError
from cyclos.gridplace import (
    GridCell,
    PlaceCellConfig,
    Trajectory2D,
    grid_phase,
    place_field_map,
    tour_coincidence_total,
    tour_invariance,
    tour_phase_windings,
)
from cyclos.phasecode import Oscillator, circular_distance, wrap_time

TWO_PI = 2 * math.pi
OSC = Oscillator(8.0)


def stationary(position, duration, t0=0.0, n=3):
    times = [t0 + i * duration / (n - 1) for i in range(n)]
    return Trajectory2D(tuple((t, position) for t in times))


class TestGridPhase:
    def test_full_lattice_period(self):
        cell = GridCell((TWO_PI, 0.0))
        assert grid_phase(cell, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period(self):
        cell = GridCell((TWO_PI, 0.0))
        assert grid_phase(cell, (0.25, 0.0)) == pytest.approx(math.pi / 2)

    def test_origin_returns_offset(self):
        cell = GridCell((3.0, 4.0), offset=1.1)
        assert grid_phase(cell, (0.0, 0.0)) == pytest.approx(1.1)

    def test_tiny_negative_phase_wraps_to_zero(self):
        # -1e-300 + 2*pi rounds to 2*pi, which lies outside [0, 2*pi)
        assert grid_phase(GridCell((1.0, 0.0)), (-1e-300, 0.0)) == 0.0

    def test_zero_wavevector_rejected(self):
        with pytest.raises(CyclosError):
            GridCell((0.0, 0.0))


class TestCoincidenceFunctional:
    def test_single_cell_boxcar_closed_form(self):
        # stationary cell: time fraction within the boxcar is delta/pi
        delta = math.pi / 8
        cfg = PlaceCellConfig((2.0,), threshold=0.1, delta=delta)
        cell = GridCell((TWO_PI, 0.0), offset=0.3)
        traj = stationary((0.0, 0.0), duration=OSC.period, n=2)
        value = tour_coincidence_total(cfg, [cell], traj, OSC) / OSC.period
        assert value == pytest.approx(2.0 * delta / math.pi, rel=0.02)

    def test_zero_weights_give_zero(self):
        cfg = PlaceCellConfig((0.0, 0.0), threshold=0.1)
        cells = [GridCell((TWO_PI, 0.0)), GridCell((0.0, TWO_PI))]
        traj = stationary((0.2, 0.7), duration=OSC.period, n=2)
        assert tour_coincidence_total(cfg, cells, traj, OSC) == 0.0

    def test_open_segment_cancellation_exact_zero(self):
        # position tracks theta so the grid phase stays antipodal throughout
        cfg = PlaceCellConfig((1.5,), threshold=0.1, delta=math.pi / 8)
        cell = GridCell((1.0, 0.0), offset=math.pi)
        speed = TWO_PI * OSC.frequency_hz  # keeps <k, x(t)> = theta(t) - offset
        times = [i * OSC.period / 16 for i in range(33)]
        traj = Trajectory2D(tuple((t, (speed * t, 0.0)) for t in times))
        assert tour_coincidence_total(cfg, [cell], traj, OSC) == 0.0

    def test_segment_additivity_exact(self):
        cfg = PlaceCellConfig((1.0,), threshold=0.1)
        cell = GridCell((TWO_PI, 0.0))
        times = [i * OSC.period / 2 for i in range(5)]
        positions = [(0.1 * i, 0.0) for i in range(5)]
        whole = Trajectory2D(tuple(zip(times, positions)))
        first = Trajectory2D(tuple(zip(times[:3], positions[:3])))
        second = Trajectory2D(tuple(zip(times[2:], positions[2:])))
        total = tour_coincidence_total(cfg, [cell], whole, OSC)
        split = tour_coincidence_total(cfg, [cell], first, OSC) + tour_coincidence_total(
            cfg, [cell], second, OSC
        )
        assert total == pytest.approx(split, abs=1e-15)

    def test_last_step_lands_on_tour_end(self):
        # t0 + steps * h rounds past t1 here, which position() rejects
        osc = Oscillator(6.3)
        t0, t1 = -0.7475806170912094, 0.17508155923802993
        steps = math.ceil((t1 - t0) / (osc.period / 256.0))
        assert t0 + steps * ((t1 - t0) / steps) > t1
        cfg = PlaceCellConfig((1.0,), threshold=0.1)
        cells = [GridCell((TWO_PI, 0.0))]
        tour = Trajectory2D(((t0, (0.3, 0.0)), (t1, (0.3, 0.0))))
        assert tour_coincidence_total(cfg, cells, tour, osc) == reference_tour_total(
            cfg, cells, tour, osc)


class TestPlaceFieldMap:
    def test_commensurate_pair_peaks_at_lattice_points(self):
        delta = math.pi / 8
        cfg = PlaceCellConfig((1.0, 1.0), threshold=0.8 * 2.0 * delta / math.pi, delta=delta)
        cells = [GridCell((TWO_PI, 0.0)), GridCell((0.0, TWO_PI))]
        field = place_field_map(cfg, cells, OSC, region=(0.2, 1.8, 0.2, 1.8), resolution=(32, 32))
        ix, iy = field.peak()
        cell_w = (1.8 - 0.2) / 32
        cx, cy = 0.2 + (ix + 0.5) * cell_w, 0.2 + (iy + 0.5) * cell_w
        # unique alignment point in the region interior is (1, 1)
        assert abs(cx - 1.0) <= cell_w and abs(cy - 1.0) <= cell_w
        # at the exact alignment point the value is (sum of weights) * delta/pi
        exact = gridplace._gated_values(cfg, cells, [(1.0, 1.0)])[0]
        assert exact == pytest.approx(2.0 * delta / math.pi, abs=1e-12)
        assert field.values[iy, ix] <= exact

    def test_single_cell_gives_stripes(self):
        cfg = PlaceCellConfig((1.0,), threshold=0.05)
        field = place_field_map(cfg, [GridCell((TWO_PI, 0.0))], OSC,
                                region=(0.0, 2.0, 0.0, 1.0), resolution=(40, 8))
        # rows identical (no y dependence), x direction has on and off bands
        assert np.allclose(field.values, field.values[0:1, :])
        assert field.values.max() > 0 and (field.values == 0).any()

    def test_empty_cells_zero_field(self):
        cfg = PlaceCellConfig((), threshold=0.5)
        field = place_field_map(cfg, [], OSC, region=(0, 1, 0, 1), resolution=(8, 8))
        assert np.all(field.values == 0) and not field.mask.any()

    def test_resolution_floor(self):
        cfg = PlaceCellConfig((1.0,), threshold=0.5)
        with pytest.raises(ConfigError):
            place_field_map(cfg, [GridCell((TWO_PI, 0.0))], OSC, (0, 1, 0, 1), (4, 8))

    def test_mask_invariant_under_cell_relabeling(self):
        delta = math.pi / 8
        cfg = PlaceCellConfig((1.0, 2.0), threshold=0.3 * delta / math.pi, delta=delta)
        cells = [GridCell((TWO_PI, 0.0), 0.4), GridCell((0.0, TWO_PI), 1.0)]
        cfg_swapped = PlaceCellConfig((2.0, 1.0), threshold=cfg.threshold, delta=delta)
        field_a = place_field_map(cfg, cells, OSC, (0, 1, 0, 1), (16, 16))
        field_b = place_field_map(cfg_swapped, list(reversed(cells)), OSC, (0, 1, 0, 1), (16, 16))
        assert np.array_equal(field_a.mask, field_b.mask)

    def test_misaligned_offsets_score_below_threshold(self):
        # Monte Carlo over spread offsets: gated value stays below 80% of the
        # aligned value when the two phases sit far from the gate
        delta = math.pi / 8
        aligned_value = 2.0 * delta / math.pi
        cfg = PlaceCellConfig((1.0, 1.0), threshold=0.8 * aligned_value, delta=delta)
        rng = np.random.default_rng(5)
        below = 0
        trials = 100
        for _ in range(trials):
            offs = rng.uniform(math.pi / 2, 3 * math.pi / 2, size=2)
            cells = [GridCell((TWO_PI, 0.0), offs[0]), GridCell((0.0, TWO_PI), offs[1])]
            value = gridplace._gated_values(cfg, cells, [(0.0, 0.0)])[0]
            if value < cfg.threshold:
                below += 1
        assert below == trials


def square_tour(side=1.0, period_per_edge=1, start=(0.0, 0.0)):
    """Closed square tour; each edge lasts a whole number of theta periods."""
    x0, y0 = start
    corners = [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side), (x0, y0)]
    dt = period_per_edge * OSC.period
    return Trajectory2D(tuple((i * dt, c) for i, c in enumerate(corners)))


class TestTourInvariance:
    # offsets keep boxcar discontinuities away from quadrature nodes, so
    # reordered whole-period segments integrate bit-identically
    CFG = PlaceCellConfig((1.0, 1.0), threshold=0.1)
    CELLS = [GridCell((TWO_PI, 0.0), 0.37), GridCell((0.0, TWO_PI), 0.91)]

    def test_identical_tours(self):
        ok, report = tour_invariance(self.CFG, self.CELLS, OSC, square_tour(), square_tour())
        assert ok and report["totals_match"] and report["windings_match"]

    def test_segment_permutation_preserves_class(self):
        # whole-period edges keep each segment's phase context after
        # reordering; a cyclic rotation of the edge sequence stays closed
        base = square_tour()
        corners2 = [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]
        rotated = Trajectory2D(tuple((i * OSC.period, c) for i, c in enumerate(corners2)))
        ok, report = tour_invariance(self.CFG, self.CELLS, OSC, base, rotated)
        assert ok, report

    def test_reverse_replay_negates_class(self):
        tour = square_tour()
        forward = tour_phase_windings(self.CELLS, OSC, tour)
        backward = tour_phase_windings(self.CELLS, OSC, tour, reverse=True)
        assert backward == tuple(-k for k in forward)
        assert forward[0] != 0  # theta laps carry the orientation
        ok, report = tour_invariance(self.CFG, self.CELLS, OSC, tour, tour, reverse_b=True)
        assert not ok and not report["windings_match"]

    def test_open_tour_rejected(self):
        open_path = Trajectory2D(((0.0, (0.0, 0.0)), (OSC.period, (1.0, 0.0))))
        with pytest.raises(ClosureError):
            tour_invariance(self.CFG, self.CELLS, OSC, open_path, square_tour())


def reference_kernel_value(cfg, phase_distance):
    d = abs(phase_distance)
    if cfg.kernel == "boxcar":
        return 1.0 if d <= cfg.delta else 0.0
    kappa = math.log(2.0) / (1.0 - math.cos(cfg.delta))  # half max at d = delta
    return math.exp(kappa * (math.cos(d) - 1.0))


def reference_gated_value(cfg, cells, x):
    """All 512 theta samples tested against the gate at every position, grid
    phases and kappa recomputed per sample."""
    value = 0.0
    for w, cell in zip(cfg.weights, cells):
        d = circular_distance(grid_phase(cell, x), gridplace.GATE_CENTER)
        if cfg.kernel == "boxcar":
            value += w * (max(0.0, 2.0 * cfg.delta - d) / TWO_PI)
        else:
            steps = 512
            acc = 0.0
            for i in range(steps):
                theta = TWO_PI * i / steps
                if circular_distance(theta, gridplace.GATE_CENTER) <= cfg.delta:
                    acc += reference_kernel_value(
                        cfg, circular_distance(theta, grid_phase(cell, x)))
            value += w * acc / steps
    return value


def reference_place_field_map(cfg, cells, region, resolution):
    nx, ny = resolution
    xmin, xmax, ymin, ymax = region
    values = np.zeros((ny, nx))
    for iy in range(ny):
        y = ymin + (iy + 0.5) * (ymax - ymin) / ny
        for ix in range(nx):
            x = xmin + (ix + 0.5) * (xmax - xmin) / nx
            values[iy, ix] = reference_gated_value(cfg, cells, (x, y))
    return values


def reference_tour_total(cfg, cells, tour, osc):
    def input_at(t, x):
        theta = wrap_time(t, osc)
        total = 0.0
        for w, cell in zip(cfg.weights, cells):
            total += w * reference_kernel_value(
                cfg, circular_distance(theta, grid_phase(cell, x)))
        return total

    total = 0.0
    times = [t for t, _ in tour.samples]
    for t0, t1 in zip(times, times[1:]):
        steps = max(1, math.ceil((t1 - t0) / (osc.period / 256.0)))
        h = (t1 - t0) / steps
        segment = 0.0
        prev = input_at(t0, tour.position(t0))
        for i in range(1, steps + 1):
            t = t1 if i == steps else t0 + i * h
            current = input_at(t, tour.position(t))
            segment += 0.5 * (prev + current) * h
            prev = current
        total += segment
    return total


@st.composite
def field_inputs(draw):
    count = draw(st.integers(0, 3))
    cells = [GridCell((draw(st.floats(-8, 8).filter(lambda k: abs(k) > 0.1)),
                       draw(st.floats(-8, 8))), draw(st.floats(0, TWO_PI)))
             for _ in range(count)]
    weights = tuple(draw(st.floats(0, 2)) for _ in range(count))
    kernel = draw(st.sampled_from(["boxcar", "von_mises"]))
    delta = draw(st.sampled_from([math.pi / 8, math.pi / 4]) | st.floats(0.01, math.pi / 4))
    cfg = PlaceCellConfig(weights, threshold=0.1, kernel=kernel, delta=delta)
    xmin, ymin = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
    region = (xmin, xmin + draw(st.floats(0.1, 4)), ymin, ymin + draw(st.floats(0.1, 4)))
    return cfg, cells, region, (draw(st.integers(8, 10)), draw(st.integers(8, 10)))


class TestHoistedKernelsOracle:
    @settings(max_examples=100, deadline=None)
    @given(field_inputs())
    def test_place_field_map_matches_reference_bytes(self, case):
        cfg, cells, region, resolution = case
        field = place_field_map(cfg, cells, OSC, region, resolution)
        want = reference_place_field_map(cfg, cells, region, resolution)
        assert field.values.shape == want.shape and field.values.dtype == want.dtype
        assert field.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel", ["boxcar", "von_mises"])
    def test_tour_total_matches_reference(self, kernel):
        cfg = PlaceCellConfig((1.0, 0.5), threshold=0.1, kernel=kernel, delta=math.pi / 6)
        cells = TestTourInvariance.CELLS
        tour = square_tour(side=0.7, period_per_edge=2, start=(0.1, -0.3))
        assert tour_coincidence_total(cfg, cells, tour, OSC) == reference_tour_total(
            cfg, cells, tour, OSC)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["boxcar", "von_mises"]), st.floats(0.01, math.pi / 4),
           st.floats(-10, 10))
    def test_kernel_value_matches_reference(self, kernel, delta, distance):
        cfg = PlaceCellConfig((), threshold=0.1, kernel=kernel, delta=delta)
        assert gridplace._distance_kernel(cfg)(abs(distance)) == reference_kernel_value(
            cfg, distance)
