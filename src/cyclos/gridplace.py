"""Grid-cell phase lattices, the theta-gated coincidence functional, and
place-field emergence.

Two evaluation modes share one kernel family, built by one function:

* :func:`tour_coincidence_total` integrates the phase-locked input along a
  trajectory (plain trapezoid rule per segment, which keeps segment
  additivity exact and makes never-aligned boxcar segments integrate to
  exactly zero). Each segment's last step lands on its end sample, so the
  next segment starts from that input value.
* :func:`place_field_map` evaluates stationary positions through a theta
  gate, a boxcar window of the same width anchored at the oscillator's zero
  phase. Only positions whose grid phases align with the gate (and hence
  with each other) score highly, which is what localizes fields at
  multi-lattice alignment points; the peak value matches an aligned
  trajectory's input per oscillator period, (sum of weights) * delta / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ClosureError, ConfigError, CyclosError, is_finite, is_int, malformed
from .phasecode import TWO_PI, Oscillator, circular_distance, winding_number, wrap_phase, wrap_time

GATE_CENTER = 0.0  # absolute oscillator phase anchoring the theta gate
TOTAL_REL_TOL = 1e-6  # relative tolerance on two tours' integrated totals
TOUR_CLOSURE_TOL = 1e-6  # meters between a tour's first and last position
DENSIFY_STEP = 0.01  # meters between the samples whose phases are unwrapped


@dataclass(frozen=True)
class GridCell:
    wavevector: tuple[float, float]  # rad / meter
    offset: float = 0.0

    def __post_init__(self):
        with malformed("grid cell wavevector"):
            kx, ky = self.wavevector
        if not (is_finite(kx) and is_finite(ky) and is_finite(self.offset) and (kx or ky)):
            raise CyclosError(f"grid cell needs a finite nonzero wavevector and a finite offset, "
                              f"got {self.wavevector!r} and {self.offset!r}")


@dataclass(frozen=True)
class PlaceCellConfig:
    weights: tuple[float, ...]
    threshold: float
    kernel: str = "boxcar"  # boxcar | von_mises
    delta: float = math.pi / 8

    def __post_init__(self):
        with malformed("place-cell weights", ConfigError):  # not a collection
            if not all(is_finite(w) and w >= 0 for w in self.weights):
                raise ConfigError(f"weights must be finite and non-negative, got {self.weights!r}")
        if not is_finite(self.threshold):
            raise ConfigError(f"threshold must be finite, got {self.threshold!r}")
        if not (is_finite(self.delta) and 0 < self.delta <= math.pi / 4):
            raise ConfigError("kernel width must satisfy 0 < delta <= pi/4")
        if self.kernel not in ("boxcar", "von_mises"):
            raise ConfigError(f"unknown kernel {self.kernel!r}")


@dataclass(frozen=True)
class Trajectory2D:
    samples: tuple[tuple[float, tuple[float, float]], ...]

    def __post_init__(self):
        if not self.samples:
            raise CyclosError("a trajectory needs at least one sample")
        with malformed("trajectory samples"):  # not (time, position) pairs
            times = [t for t, _ in self.samples]
            positions = [p for _, p in self.samples]
            if not all(len(p) == 2 and all(map(is_finite, p)) for p in positions):
                raise CyclosError(f"trajectory positions must be two finite numbers, "
                                  f"got {positions!r}")
        if not all(map(is_finite, times)):
            raise CyclosError(f"trajectory times must be finite, got {times!r}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise CyclosError("trajectory times must be strictly increasing")

    @property
    def t_start(self) -> float:
        return self.samples[0][0]

    @property
    def t_end(self) -> float:
        return self.samples[-1][0]

    def position(self, t: float) -> tuple[float, float]:
        samples = self.samples
        if not (self.t_start <= t <= self.t_end):
            raise CyclosError(f"time {t} outside trajectory span")
        lo, hi = 0, len(samples) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if samples[mid][0] <= t:
                lo = mid
            else:
                hi = mid
        t0, (x0, y0) = samples[lo]
        t1, (x1, y1) = samples[hi]
        if t1 == t0:
            return x0, y0
        s = (t - t0) / (t1 - t0)
        return x0 + s * (x1 - x0), y0 + s * (y1 - y0)


def grid_phase(cell: GridCell, x: tuple[float, float]) -> float:
    return wrap_phase(cell.wavevector[0] * x[0] + cell.wavevector[1] * x[1] + cell.offset)


def _distance_kernel(cfg: PlaceCellConfig) -> Callable[[float], float]:
    """The kernel of a non-negative phase distance; von Mises kappa puts half maximum at delta."""
    delta = cfg.delta
    if cfg.kernel == "boxcar":
        return lambda d: 1.0 if d <= delta else 0.0
    kappa = math.log(2.0) / (1.0 - math.cos(delta))
    return lambda d: math.exp(kappa * (math.cos(d) - 1.0))


def tour_coincidence_total(
    cfg: PlaceCellConfig,
    cells: Sequence[GridCell],
    tour: Trajectory2D,
    osc: Oscillator,
) -> float:
    """Integrated (not averaged) input over the whole tour.

    Integration runs segment by segment between trajectory samples, so the
    total over a concatenated tour is exactly the sum over its segments.
    """
    if len(cfg.weights) != len(cells):
        raise ConfigError("one weight per grid cell required")
    kernel = _distance_kernel(cfg)

    def input_at(t: float) -> float:
        theta, x = wrap_time(t, osc), tour.position(t)
        value = 0.0
        for w, cell in zip(cfg.weights, cells):
            value += w * kernel(circular_distance(theta, grid_phase(cell, x)))
        return value

    times = [t for t, _ in tour.samples]
    total = 0.0
    prev = input_at(times[0])
    for t0, t1 in zip(times, times[1:]):
        steps = max(1, math.ceil((t1 - t0) / (osc.period / 256.0)))
        h = (t1 - t0) / steps
        segment = 0.0
        for i in range(1, steps + 1):
            current = input_at(t1 if i == steps else t0 + i * h)
            segment += 0.5 * (prev + current) * h
            prev = current
        total += segment
    return total


GATE_STEPS = 512  # theta samples per period in the von Mises gate integral


def _gated_values(cfg: PlaceCellConfig, cells: Sequence[GridCell],
                  positions: Sequence[tuple[float, float]]) -> list[float]:
    """Theta-gated value at each position.

    The von Mises gate integral sums, in theta order, the kernel at the
    gate's samples only (the others add nothing), so the sample list and
    kappa are built once for all positions.
    """
    weights, delta = cfg.weights, cfg.delta
    values = []
    if cfg.kernel == "boxcar":
        for x in positions:
            value = 0.0
            for w, cell in zip(weights, cells):
                d = circular_distance(grid_phase(cell, x), GATE_CENTER)
                # the mean product of two unit boxcars of half-width delta, d apart
                value += w * (max(0.0, 2.0 * delta - d) / TWO_PI)
            values.append(value)
        return values
    gated = [theta for theta in (TWO_PI * i / GATE_STEPS for i in range(GATE_STEPS))
             if circular_distance(theta, GATE_CENTER) <= delta]
    kernel = _distance_kernel(cfg)
    for x in positions:
        value = 0.0
        for w, cell in zip(weights, cells):
            phase = grid_phase(cell, x)
            acc = 0.0
            for theta in gated:
                acc += kernel(circular_distance(theta, phase))
            value += w * acc / GATE_STEPS
        values.append(value)
    return values


@dataclass(frozen=True)
class PlaceFieldMap:
    values: np.ndarray  # shape (ny, nx), row 0 at ymin
    mask: np.ndarray  # values >= threshold
    extent: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    resolution: tuple[int, int]  # nx, ny

    def peak(self) -> tuple[int, int]:
        iy, ix = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return int(ix), int(iy)


def place_field_map(
    cfg: PlaceCellConfig,
    cells: Sequence[GridCell],
    osc: Oscillator,
    region: tuple[float, float, float, float],
    resolution: tuple[int, int],
) -> PlaceFieldMap:
    """Theta-gated coincidence values over a grid of stationary positions.

    Positions where many grid phases align with the gate (and hence with one
    another at a shared theta instant) score near (sum of weights) * delta/pi;
    the mask thresholds at cfg.threshold.
    """
    with malformed("place-field grid", ConfigError):  # not two sizes and four bounds
        nx, ny = resolution
        xmin, xmax, ymin, ymax = region
    if not (is_int(nx) and is_int(ny) and all(map(is_finite, region))):
        raise ConfigError(f"resolution must be two integers and region four finite numbers, "
                          f"got {resolution!r} and {region!r}")
    if nx < 8 or ny < 8:
        raise ConfigError("resolution must be at least 8x8")
    if len(cfg.weights) != len(cells):
        raise ConfigError("one weight per grid cell required")
    xs = [xmin + (ix + 0.5) * (xmax - xmin) / nx for ix in range(nx)]
    ys = [ymin + (iy + 0.5) * (ymax - ymin) / ny for iy in range(ny)]
    flat = _gated_values(cfg, cells, [(x, y) for y in ys for x in xs])
    values = np.array(flat, dtype=float).reshape(ny, nx)
    return PlaceFieldMap(values, values >= cfg.threshold, region, (nx, ny))


def tour_phase_windings(
    cells: Sequence[GridCell],
    osc: Oscillator,
    tour: Trajectory2D,
    reverse: bool = False,
) -> tuple[int, ...]:
    """Winding class (k_theta, k_1, ..., k_m) of the tour's phase-space lift.

    The sequence of (theta, grid phases) samples traces a loop on the
    (m+1)-torus; its integer windings are the tour's homology data. With
    `reverse` the episode is replayed backwards (sequence reversal), which
    negates every component.
    """
    points = _densified(tour, max_time_step=osc.period / 8.0)
    if reverse:
        points = list(reversed(points))
    theta_seq = [wrap_time(t, osc) for t, _ in points]
    out = [winding_number(theta_seq)]
    for cell in cells:
        phases = [grid_phase(cell, pos) for _, pos in points]
        out.append(winding_number(phases))
    return tuple(out)


def tour_invariance(
    cfg: PlaceCellConfig,
    cells: Sequence[GridCell],
    osc: Oscillator,
    tour_a: Trajectory2D,
    tour_b: Trajectory2D,
    reverse_b: bool = False,
) -> tuple[bool, dict]:
    """Compare two closed tours: integrated totals and phase-winding classes.

    Totals must agree within ``TOTAL_REL_TOL`` relative error and the winding
    vectors of the phase-space lifts must match exactly over the integers.
    `reverse_b` treats tour B as a backward replay of its sample sequence.
    """
    for name, tour in (("A", tour_a), ("B", tour_b)):
        start, end = tour.samples[0][1], tour.samples[-1][1]
        if math.dist(start, end) > TOUR_CLOSURE_TOL:
            raise ClosureError(f"tour {name} does not close (gap {math.dist(start, end):.3g} m)")
    total_a = tour_coincidence_total(cfg, cells, tour_a, osc)
    total_b = tour_coincidence_total(cfg, cells, tour_b, osc)
    scale = max(abs(total_a), abs(total_b), 1e-30)
    totals_match = abs(total_a - total_b) <= TOTAL_REL_TOL * scale

    windings_a = tour_phase_windings(cells, osc, tour_a)
    windings_b = tour_phase_windings(cells, osc, tour_b, reverse=reverse_b)
    windings_match = windings_a == windings_b
    report = {
        "total_a": total_a,
        "total_b": total_b,
        "windings_a": windings_a,
        "windings_b": windings_b,
        "totals_match": totals_match,
        "windings_match": windings_match,
    }
    return totals_match and windings_match, report


def _densified(tour: Trajectory2D, max_time_step: float):
    """Samples along the tour, subdivided for unambiguous phase unwrapping."""
    points = []
    samples = tour.samples
    for (t0, p0), (t1, p1) in zip(samples, samples[1:]):
        steps = max(1, math.ceil(math.dist(p0, p1) / DENSIFY_STEP),
                    math.ceil((t1 - t0) / max_time_step))
        for i in range(steps):
            s = i / steps
            points.append((t0 + s * (t1 - t0), (p0[0] + s * (p1[0] - p0[0]),
                                                p0[1] + s * (p1[1] - p0[1]))))
    points.append(samples[-1])
    return points
