"""Phase wrapping onto the circle and winding numbers of closed phase paths.

Unwrapping picks the nearest branch, so inputs must be sampled densely
enough that consecutive gaps stay below pi; that contract is enforced, not
guessed around. A winding number is taken only over a closed path, since
the rounded turn count of an open one is not a homology class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ClosureError, CyclosError, UnwrapError, is_finite, malformed

TWO_PI = 2.0 * math.pi


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


def wrap_phase(raw: float) -> float:
    """`raw` reduced to [0, 2*pi); a tiny negative value that rounds up to 2*pi gives 0.0.

    A NaN or infinite `raw`, such as the overflowed product of a huge time and
    frequency, raises CyclosError.
    """
    try:
        wrapped = raw - TWO_PI * math.floor(raw / TWO_PI)
    except (OverflowError, ValueError) as exc:  # floor of an infinity or of NaN
        raise CyclosError(f"phase must be finite, got {raw!r}") from exc
    return 0.0 if wrapped >= TWO_PI else wrapped


def wrap_time(t: float, osc: Oscillator) -> float:
    """Phase of the oscillator at time t, reduced to [0, 2*pi)."""
    return wrap_phase(TWO_PI * osc.frequency_hz * t + osc.phase_offset)


def circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def winding_number(phases: Sequence[float]) -> int:
    """Turns of a closed phase path, whose last sample lies within 1e-6 rad of its first:
    the sum of its steps, each taken on the nearest branch, in (-pi, pi), over 2 pi."""
    total = 0.0
    with malformed("phase samples"):  # not a sequence, or a sample that is not a number
        if len(phases) < 2:
            raise CyclosError("need at least two phase samples")
        if (gap := circular_distance(phases[0], phases[-1])) > 1e-6:
            raise ClosureError(f"path not closed: endpoints differ by {gap:.3g} rad")
        for a, b in zip(phases, phases[1:]):
            d = (b - a + math.pi) % TWO_PI - math.pi
            if abs(abs(d) - math.pi) < 1e-15:
                raise UnwrapError(f"ambiguous phase gap of ~pi between {a} and {b}")
            total += d
    if not math.isfinite(total):  # a NaN or infinite phase gives NaN gaps
        raise CyclosError("phase samples must be finite")
    return round(total / TWO_PI)

