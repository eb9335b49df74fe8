"""Coincidence multigraphs from spike trains and their closed cycle content.

A spike pair (i, t), (j, t') with t < t' and circular phase distance at most
delta contributes one oriented edge i -> j. Projecting the edge aggregate
onto the cycle space cancels everything that shows up in the boundary, so
what survives is exactly the closed, reproducible part of the train.

Pairs are enumerated and capped per ordered neuron pair in one pass, and
each kept pair carries its phase distance, so a ladder of windows takes
prefixes of one list sorted by distance instead of measuring every pair
again. Once a neuron's pairs with every neuron that still fires later are
full, its spikes keep no pair: :func:`closed_part` still pairs them to count
the overflow that :func:`trial_invariance` reports, and
:func:`coincidence_persistence`, which reports none, skips them.

A :class:`CoincidenceResult` holds the graph and the overflow; its closed
part is computed on first access. Jittered trials of one pattern often give
the same graph, so :func:`trial_invariance` closes each distinct graph once
and classes it once, on the union of the trials' graphs.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
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

    The closed part is computed on first access and kept, so a caller pays
    only for what it reads.
    """

    graph: ChainComplex
    multiplicity_overflow: dict[tuple[int, int], int]

    @cached_property
    def closed(self) -> Chain1:
        """The edge aggregate, every edge once, projected onto the cycle space."""
        aggregate = Chain1.from_dict({idx: 1 for idx in range(len(self.graph.edges))})
        return chaincore.project_to_cycles(aggregate, self.graph)


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
    `count_overflow`. Every spike pairs with the later spikes in one time-ordered
    loop. A spike is skipped when no other neuron fires after it, and, without
    the count, when each neuron that does already holds `cap` pairs with it.
    """
    if not (is_int(cap) and cap >= 1):
        raise PreconditionError(f"multiplicity cap must be a positive integer, got {cap!r}")
    neurons = [neuron for neuron, _ in train.spikes]
    times = [t for _, t in train.spikes]
    phases = [wrap_time(t, osc) for t in times]
    kept = []
    counts: dict[tuple[int, int], int] = {}
    overflow: dict[tuple[int, int], int] | None = {} if count_overflow else None
    last = dict(zip(neurons, times))  # each neuron's last spike time
    # neurons in the order their last spike passes, then a sentinel
    ends = sorted((t_end, j) for j, t_end in last.items()) + [(math.inf, -1)]
    passed = 0  # neurons whose last spike is at or before the current one
    # per neuron i: the later-firing j with (i, j) at the cap, counted only without overflow
    full = [0] * train.neurons
    capped_by: list[list[int]] = [[] for _ in range(train.neurons)]  # j -> each i counting it
    for a, (i, t, phase_a) in enumerate(zip(neurons, times, phases)):
        while ends[passed][0] <= t:  # j fires no more after t: it stops counting in full
            for held in capped_by[ends[passed][1]]:
                full[held] -= 1
            passed += 1
        others = len(last) - passed - (last[i] > t)  # neurons j != i that fire after t
        if full[i] == others:
            continue  # no partner of i is kept
        # spikes are in time order and simultaneous ones stay unordered, so the
        # partners of spike a start after its time tie
        start = bisect_right(times, t, a + 1)
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
                        capped_by[j].append(i)
                        if full[i] == others:
                            break
                elif overflow is not None:
                    overflow[key] = overflow.get(key, 0) + 1
    return kept, overflow


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
        if len(deltas) == 0:  # a numpy ladder has no truth value
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
