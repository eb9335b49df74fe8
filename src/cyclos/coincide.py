"""Coincidence multigraphs from spike trains and their closed cycle content.

A spike pair (i, t), (j, t') with t < t' and circular phase distance at most
delta contributes one oriented edge i -> j. Projecting the edge aggregate
onto the cycle space cancels everything that shows up in the boundary, so
what survives is exactly the closed, reproducible part of the train.

Pairs are enumerated and capped per ordered neuron pair in one pass, and
each kept pair carries its phase distance, so a ladder of windows takes
prefixes of one list sorted by distance instead of measuring every pair
again. Once all pairs of a neuron are full, its spikes keep no pair:
:func:`closed_part` counts their overflow per neuron from one phase window
of the later spikes, and :func:`coincidence_persistence` skips them.

A :class:`CoincidenceResult` holds the graph and the overflow; its closed
part is computed on first access. Jittered trials of one pattern often give
the same graph, so :func:`trial_invariance` closes each distinct graph once
and classes it once, on the union of the trials' graphs.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping, Sequence

from . import chaincore
from .chaincore import Chain1, ChainComplex
from .errors import CyclosError, PreconditionError, WindowError, is_finite, is_int, malformed
from .persist import Barcode, compute_barcode, window_filtration
from .phasecode import TWO_PI, Oscillator, wrap_time

DEFAULT_MULTIPLICITY_CAP = 16


@dataclass(frozen=True)
class SpikeTrain:
    """Timestamped spikes over `neurons` units, normalized to time order."""

    neurons: int
    spikes: tuple[tuple[int, float], ...]

    def __init__(self, neurons: int, spikes: Sequence[tuple[int, float]]):
        if not is_int(neurons) or neurons < 0:
            raise CyclosError(f"neuron count must be a non-negative integer, got {neurons!r}")
        normalized = []
        with malformed("spike list"):  # non-pairs and non-number times
            for neuron, t in spikes:
                if not is_int(neuron) or not 0 <= neuron < neurons:
                    raise CyclosError(
                        f"spike neuron {neuron!r} is not an integer in 0..{neurons - 1}")
                if isinstance(t, bool) or not math.isfinite(t):
                    raise CyclosError(f"spike times must be finite numbers, got {t!r}")
                normalized.append((int(neuron), float(t)))
        normalized.sort(key=lambda s: (s[1], s[0]))
        object.__setattr__(self, "neurons", int(neurons))
        object.__setattr__(self, "spikes", tuple(normalized))

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "SpikeTrain":
        with malformed("spike train JSON"):
            return cls(obj["neurons"], obj["spikes"])


@dataclass(frozen=True)
class CoincidenceWindow:
    delta: float  # radians

    def __post_init__(self):
        if not (is_finite(self.delta) and 0.0 < self.delta < math.pi):
            raise WindowError(f"coincidence window must lie in (0, pi), got {self.delta}")


@dataclass(frozen=True)
class CoincidenceResult:
    """A train's coincidence graph and, per ordered neuron pair, the pairs over the cap.

    The edge aggregate and its closed part are computed on first access and
    kept, so a caller pays only for what it reads.
    """

    graph: ChainComplex
    multiplicity_overflow: dict[tuple[int, int], int]

    @cached_property
    def aggregate(self) -> Chain1:
        """Every edge once."""
        return Chain1.from_dict({idx: 1 for idx in range(len(self.graph.edges))})

    @cached_property
    def closed(self) -> Chain1:
        """The aggregate projected onto the cycle space."""
        return chaincore.project_to_cycles(self.aggregate, self.graph)


def _require(value, kind: type, what: str) -> None:
    if not isinstance(value, kind):
        raise PreconditionError(
            f"{what} must be of type {kind.__name__}, got {type(value).__name__}")


def _coincident_pairs(train: SpikeTrain, osc: Oscillator, limit: float, cap: int,
                      count_overflow: bool = True):
    """Capped coincident pairs and the overflow per ordered neuron pair.

    Returns the kept (i, j, t, t', distance) tuples with t < t', i != j and
    circular phase distance at most `limit`, in time order, where at most
    `cap` pairs are kept per (i, j); the rest are counted in the overflow,
    keyed in the order of each pair's first overflow, or None without
    `count_overflow`.
    """
    if not (is_int(cap) and cap >= 1):
        raise PreconditionError(f"multiplicity cap must be a positive integer, got {cap!r}")
    neurons = [neuron for neuron, _ in train.spikes]
    times = [t for _, t in train.spikes]
    phases = [wrap_time(t, osc) for t in times]
    kept = []
    counts: dict[tuple[int, int], int] = {}
    overflow: dict[tuple[int, int], int] | None = {} if count_overflow else None
    others = len(set(neurons)) - 1
    full = [0] * train.neurons  # per neuron i: the (i, j) past the cap, or at it if not counted
    later = None  # the spikes from `indexed` on, in phase order
    for a, (i, t, phase_a) in enumerate(zip(neurons, times, phases)):
        if full[i] == others and overflow is None:
            continue  # no partner of i is kept
        # spikes are in time order and simultaneous ones stay unordered, so the
        # partners of spike a start after its time tie
        start = bisect_right(times, t, a + 1)
        if full[i] == others:
            # i is saturated: count its partners per neuron in one phase window
            if later is None:
                later = sorted(range(start, len(times)), key=phases.__getitem__)
                later_phases = [phases[b] for b in later]
                indexed = start
            for b in range(indexed, start):  # the earliest spike left leads its phase tie
                k = bisect_left(later_phases, phases[b])
                del later[k], later_phases[k]
            indexed = start
            run = _phase_run(later_phases, phase_a, limit)
            if run is not None:
                y2, y1, x1, x2 = run
                window = later[y1:x1] + later[:y2] + later[x2:]
                partners = Counter(map(neurons.__getitem__, window))
                partners.pop(i, None)  # self-pairs carry no relation
                for j, n in partners.items():
                    overflow[(i, j)] += n
                continue
        for j, t_next, phase_b in zip(neurons[start:], times[start:], phases[start:]):
            if i == j:
                continue  # self-pairs carry no relation
            # bit-identical to phasecode.circular_distance(phase_a, phase_b)
            d = abs(phase_a - phase_b) % TWO_PI
            if TWO_PI - d < d:
                d = TWO_PI - d
            if d <= limit:
                key = (i, j)
                n = counts[key] = counts.get(key, 0) + 1
                if n <= cap:
                    kept.append((i, j, t, t_next, d))
                    if n == cap and overflow is None:
                        full[i] += 1
                        if full[i] == others:
                            break
                elif overflow is None:
                    continue
                elif key in overflow:
                    overflow[key] += 1
                else:
                    overflow[key] = 1
                    full[i] += 1
    return kept, overflow


def _phase_run(phases: Sequence[float], center: float, limit: float):
    """Bounds (y2, y1, x1, x2): the sorted `phases` within circular distance
    `limit` < pi of `center` are phases[y1:x1] + phases[:y2] + phases[x2:].

    On each side of `center` the float gap |center - p| is monotone in p, so
    the near test (gap <= limit) holds on a run next to `center` and the wrap
    test (2*pi - gap <= limit) on a run at the far end. Each bisected run end
    is settled by these exact tests on its two neighbours; if one fails, None.
    """
    m = len(phases)
    pos = bisect_left(phases, center)  # phases[pos:] lie at or above center
    y1 = bisect_left(phases, center - limit, 0, pos)
    x1 = bisect_right(phases, center + limit, pos)
    y2 = bisect_right(phases, center + limit - TWO_PI, 0, y1)
    x2 = bisect_left(phases, center - limit + TWO_PI, x1)
    if (
        (y1 == pos or center - phases[y1] <= limit)
        and (y1 == 0 or center - phases[y1 - 1] > limit)
        and (x1 == pos or phases[x1 - 1] - center <= limit)
        and (x1 == m or phases[x1] - center > limit)
        and (y2 == 0 or TWO_PI - (center - phases[y2 - 1]) <= limit)
        and (y2 == pos or TWO_PI - (center - phases[y2]) > limit)
        and (x2 == m or TWO_PI - (phases[x2] - center) <= limit)
        and (x2 == pos or TWO_PI - (phases[x2 - 1] - center) > limit)
    ):
        return y2, y1, x1, x2
    return None


def closed_part(
    train: SpikeTrain,
    osc: Oscillator,
    window: CoincidenceWindow,
    multiplicity_cap: int = DEFAULT_MULTIPLICITY_CAP,
) -> CoincidenceResult:
    """The train's capped coincidence graph; its closure is computed on demand."""
    _require(train, SpikeTrain, "train")
    _require(osc, Oscillator, "oscillator")
    _require(window, CoincidenceWindow, "window")
    kept, overflow = _coincident_pairs(train, osc, window.delta, multiplicity_cap)
    graph = ChainComplex(list(range(train.neurons)), [(i, j) for i, j, *_ in kept])
    return CoincidenceResult(graph, overflow)


def _union_complex(
    graphs: Sequence[ChainComplex], union_counts: Counter
) -> tuple[ChainComplex, list[dict[int, int]]]:
    """Shared multigraph matching edges by (tail, head) and occurrence.

    ``union_counts`` holds each edge's largest multiplicity over the graphs.
    Returns the union complex and, per input graph, the map from its edge
    indices to union edge indices.
    """
    union_edges = []
    slot: dict[tuple[tuple, int], int] = {}
    for e in sorted(union_counts):
        for occurrence in range(union_counts[e]):
            slot[(e, occurrence)] = len(union_edges)
            union_edges.append(e)
    vertices = sorted({v for g in graphs for v in g.vertices})
    union = ChainComplex(vertices, union_edges)
    mappings = []
    for g in graphs:
        seen: Counter = Counter()
        mapping = {}
        for idx, e in enumerate(g.edges):
            mapping[idx] = slot[(e, seen[e])]
            seen[e] += 1
        mappings.append(mapping)
    return union, mappings


def trial_invariance(
    trials: Sequence[SpikeTrain],
    osc: Oscillator,
    window: CoincidenceWindow,
    epsilon: float,
    multiplicity_cap: int = DEFAULT_MULTIPLICITY_CAP,
) -> tuple[bool, dict]:
    """Check that all trials' closed parts lie in one homology class.

    Cross-trial edges are matched by neuron ids (and by occurrence order for
    parallel edges); the report flags pairs whose multiplicities differ across
    trials, since the matching of parallels is then a convention.

    Trials with the same ordered edge tuple have the same graph, closed part
    and class, so each distinct graph is closed once, by its first trial, and
    classed once on the union complex.
    """
    _require(window, CoincidenceWindow, "window")
    if isinstance(trials, SpikeTrain):
        raise PreconditionError("trials must be a sequence of SpikeTrains, not one SpikeTrain")
    with malformed("trials", PreconditionError):  # not a collection
        trials = list(trials)
    for t in trials:
        _require(t, SpikeTrain, "each trial")
    if not (is_finite(epsilon) and 0 <= epsilon < window.delta):
        raise PreconditionError(f"epsilon {epsilon!r} must lie in [0, {window.delta})")
    if not trials:
        raise PreconditionError("need at least one trial")
    neuron_counts = {t.neurons for t in trials}
    if len(neuron_counts) != 1:
        raise PreconditionError("trials must share one neuron set")

    results = [closed_part(t, osc, window, multiplicity_cap) for t in trials]
    first: dict[tuple, CoincidenceResult] = {}  # ordered edge tuple -> its first trial
    for r in results:
        first.setdefault(r.graph.edges, r)
    counts = [Counter(edges) for edges in first]
    union_counts = reduce(operator.or_, counts)  # largest multiplicity per edge
    union, mappings = _union_complex([r.graph for r in first.values()], union_counts)
    class_of = {}
    for (edges, result), mapping in zip(first.items(), mappings):
        embedded = Chain1.from_dict(
            {mapping[idx]: coeff for idx, coeff in result.closed.coefficients}
        )
        class_of[edges] = chaincore.homology_class(embedded, union)
    classes = [class_of[r.graph.edges] for r in results]

    ambiguous_pairs = sorted(
        e for e, top in union_counts.items() if top > 1 and any(c[e] != top for c in counts)
    )
    invariant = all(c == classes[0] for c in classes)
    report = {
        "invariant": invariant,
        "epsilon": epsilon,
        "delta": window.delta,
        "per_trial_class": [[str(c) for c in cls.coordinates] for cls in classes],
        "ambiguous_parallel_pairs": [list(p) for p in ambiguous_pairs],
        "multiplicity_overflow": [
            {f"{i}->{j}": n for (i, j), n in r.multiplicity_overflow.items()} for r in results
        ],
    }
    return invariant, report


def coincidence_persistence(
    train: SpikeTrain,
    osc: Oscillator,
    deltas: Sequence[float],
    multiplicity_cap: int = DEFAULT_MULTIPLICITY_CAP,
) -> Barcode:
    """Barcode of the nested coincidence graphs over a growing window.

    The multiplicity cap is applied once at the widest window so that the
    kept edge set is monotone in delta; each narrower window keeps the pairs
    whose stored phase distance fits it. Pairs over the cap are not counted:
    a neuron's spikes stop pairing once all its pairs are at the cap.
    """
    _require(train, SpikeTrain, "train")
    _require(osc, Oscillator, "oscillator")
    with malformed("window values", WindowError):  # not a collection
        if not deltas:
            raise CyclosError("need at least one window value")
        for d in deltas:
            CoincidenceWindow(d)  # range validation
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise CyclosError("window values must be strictly ascending")
    kept, _ = _coincident_pairs(train, osc, deltas[-1], multiplicity_cap, count_overflow=False)
    kept.sort(key=operator.itemgetter(4))  # by phase distance: each window keeps a prefix
    distances = [d for *_, d in kept]
    interned: dict[tuple[int, int], tuple[int, int]] = {}  # one tuple per neuron pair
    edges = [interned.setdefault((i, j), (i, j)) for i, j, *_ in kept]
    graphs = {delta: ChainComplex(range(train.neurons), edges[: bisect_right(distances, delta)])
              for delta in deltas}
    return compute_barcode(window_filtration(graphs))
