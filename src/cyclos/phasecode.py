"""Phase wrapping onto the circle, phase-ring chains, and winding numbers.

Unwrapping picks the nearest branch, so inputs must be sampled densely
enough that consecutive gaps stay below pi; that contract is enforced, not
guessed around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .chaincore import Chain1, ChainComplex
from .errors import ClosureError, CyclosError, UnwrapError, is_finite

TWO_PI = 2.0 * math.pi
DEFAULT_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class Oscillator:
    frequency_hz: float
    phase_offset: float = 0.0

    def __post_init__(self):
        frequency, offset = self.frequency_hz, self.phase_offset
        if not (is_finite(frequency) and frequency > 0):
            raise CyclosError(f"oscillator frequency must be finite and > 0, got {frequency!r}")
        if not is_finite(offset):
            raise CyclosError(f"oscillator phase offset must be finite, got {offset!r}")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency_hz


@dataclass(frozen=True)
class PhaseBinning:
    bin_count: int

    def __post_init__(self):
        if self.bin_count < 2:
            raise CyclosError("need at least 2 phase bins")

    def boundaries(self) -> list[float]:
        return [TWO_PI * i / self.bin_count for i in range(self.bin_count)]


@dataclass(frozen=True)
class TorusPath:
    """Samples of (theta phase, gamma phase); gaps must stay below pi."""

    samples: tuple[tuple[float, float], ...]


def wrap_time(t: float, osc: Oscillator) -> float:
    """Phase of the oscillator at time t, reduced to [0, 2*pi)."""
    raw = TWO_PI * osc.frequency_hz * t + osc.phase_offset
    wrapped = raw - TWO_PI * math.floor(raw / TWO_PI)
    return 0.0 if wrapped >= TWO_PI else wrapped


def circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def signed_gap(a: float, b: float) -> float:
    """Phase step a -> b on the nearest branch, in (-pi, pi)."""
    d = (b - a + math.pi) % TWO_PI - math.pi
    if abs(abs(d) - math.pi) < 1e-15 or d == -math.pi:
        raise UnwrapError(f"ambiguous phase gap of ~pi between {a} and {b}")
    return d


def phase_ring_chain(bins: PhaseBinning) -> tuple[ChainComplex, Chain1]:
    """Ring complex on the phase bins and the full-sweep 1-cycle."""
    count = bins.bin_count
    edges = [(i, (i + 1) % count) for i in range(count)]
    complex_ = ChainComplex(list(range(count)), edges)
    chain = Chain1.from_dict({i: 1 for i in range(count)})
    return complex_, chain


def winding_number(
    phases: Sequence[float],
    closed: bool,
    closure_tol: float = DEFAULT_CLOSURE_TOL,
) -> int:
    if len(phases) < 2:
        raise CyclosError("need at least two phase samples")
    if closed and circular_distance(phases[0], phases[-1]) > closure_tol:
        raise ClosureError(
            f"path not closed: endpoints differ by {circular_distance(phases[0], phases[-1]):.3g} rad"
        )
    total = 0.0
    for a, b in zip(phases, phases[1:]):
        total += signed_gap(a, b)
    return round(total / TWO_PI)


def torus_winding(path: TorusPath, closure_tol: float = DEFAULT_CLOSURE_TOL) -> tuple[int, int]:
    """Winding pair (k_gamma, k_theta) of a closed path on the theta x gamma torus."""
    thetas = [theta for theta, _ in path.samples]
    gammas = [gamma for _, gamma in path.samples]
    k_theta = winding_number(thetas, closed=True, closure_tol=closure_tol)
    k_gamma = winding_number(gammas, closed=True, closure_tol=closure_tol)
    return k_gamma, k_theta
