"""Event-driven delay-network simulation with coincidence-detector neurons.

Neurons are pure coincidence detectors: a unit fires when at least `k`
presynaptic arrivals land within one sliding window of width `delta` ms and
their summed weights reach the firing threshold, subject to a refractory
period. The event queue is totally ordered by (time, neuron, synapse), so a
run is a pure function of (network, stimuli) and draws no random numbers;
entries equal in all three are handled alike and need no tiebreak. STDP uses
nearest-neighbor pairing on spike times (presynaptic soma time, not arrival
time): a synapse whose pre spike causally drives its post therefore sees
post - pre = conduction delay > 0 and potentiates. One update in `simulate`
serves both sides of a pairing, an arrival meeting its post neuron's last
spike and a spike meeting each incoming synapse's last arrival: with
post - pre = dt it adds `a_plus` times exp(-dt / tau_plus) when dt > 0,
subtracts `a_minus` times exp(dt / tau_minus) when dt < 0 and nothing at
coincidence, then clamps the weight to [0, net.w_max], the range
`DelayNetwork` checks weights against (Izhikevich, "Polychronization:
computation with spikes", Neural Comput. 2006).

Buffer-order invariant: stimulus times, delays and the horizon are checked
finite (a NaN would break the total order), and each arrival lands a positive
delay after the spike that sends it, also after rounding (checked), so events
pop in increasing (time, neuron, synapse) order and the log is appended in
(time, neuron) order. Each neuron's window buffer is therefore sorted by
arrival time, so expiring it from the left drops exactly the arrivals older
than `delta`, and its weights are summed oldest first.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ConfigError, is_finite, is_int, is_real, malformed

DEFAULT_MAX_CYCLE_LEN = 8


@dataclass(frozen=True)
class Synapse:
    pre: int
    post: int
    weight: float
    delay: float  # ms

    def __post_init__(self):
        if not (is_int(self.pre) and is_int(self.post)):
            raise ConfigError(f"synapse ends must be integers, got {self.pre!r} -> {self.post!r}")


@dataclass(frozen=True)
class DelayNetwork:
    neuron_count: int
    synapses: tuple[Synapse, ...]
    delta: float  # coincidence window, ms
    k: int = 1
    refractory: float = 1.0  # ms
    threshold: float = 0.5  # weighted-sum firing threshold
    w_max: float = 1.0

    def __post_init__(self):
        if not (is_int(self.neuron_count) and is_int(self.k)):
            raise ConfigError(f"non-integer neuron count or k: {self.neuron_count!r}, {self.k!r}")
        # an infinite refractory period makes -inf + inf = NaN for a neuron that never fired
        if not all(map(is_finite, (self.delta, self.threshold, self.refractory, self.w_max))):
            raise ConfigError(f"window, threshold, refractory period and weight ceiling must be "
                              f"finite, got {self.delta!r}, {self.threshold!r}, "
                              f"{self.refractory!r} and {self.w_max!r}")
        if (self.neuron_count < 0 or self.k < 1 or self.delta <= 0 or self.refractory < 0
                or self.w_max <= 0):
            raise ConfigError("invalid network parameters")
        with malformed("synapses", ConfigError):  # not a collection of synapses
            for idx, syn in enumerate(self.synapses):
                if not (0 <= syn.pre < self.neuron_count and 0 <= syn.post < self.neuron_count):
                    raise ConfigError(f"synapse {idx} references unknown neuron")
                if not (is_finite(syn.delay) and syn.delay > 0):
                    raise ConfigError(f"synapse {idx} delay must be finite and > 0")
                if not (is_real(syn.weight) and 0.0 <= syn.weight <= self.w_max):
                    raise ConfigError(f"synapse {idx} weight outside [0, {self.w_max}]")

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "DelayNetwork":
        with malformed("delay network JSON"):
            return cls(
                neuron_count=obj["neurons"],
                synapses=tuple(Synapse(p, q, float(w), float(d)) for p, q, w, d in obj["synapses"]),
                delta=float(obj["delta_ms"]),
                k=obj.get("k", 1),
                refractory=float(obj.get("refractory_ms", 1.0)),
                threshold=float(obj.get("threshold", 0.5)),
                w_max=float(obj.get("w_max", 1.0)),
            )


@dataclass(frozen=True)
class STDPParams:
    a_plus: float
    a_minus: float
    tau_plus: float  # ms
    tau_minus: float  # ms

    def __post_init__(self):
        values = (self.a_plus, self.a_minus, self.tau_plus, self.tau_minus)
        if not all(map(is_finite, values)):
            raise ConfigError(f"STDP parameters must be finite, got {values!r}")
        if self.a_plus < 0 or self.a_minus < 0 or self.tau_plus <= 0 or self.tau_minus <= 0:
            raise ConfigError(f"invalid STDP parameters {values!r}")


@dataclass(frozen=True)
class EventLog:
    records: tuple[tuple[float, int, str], ...]  # (time_ms, neuron, kind)
    final_weights: tuple[float, ...]
    horizon: float

    def spikes_of(self, neuron: int) -> list[float]:
        return [t for t, n, _ in self.records if n == neuron]


@dataclass(frozen=True)
class CycleCandidate:
    """Simple directed cycle (i1, ..., im, i1) through specific synapses."""

    vertices: tuple[int, ...]  # closed: first == last
    synapses: tuple[int, ...]
    delay_sum: float
    weight_product: float
    resonance_n: int
    t_theta: float

    @property
    def head(self) -> int:
        return self.vertices[0]


_STIMULUS = -1  # synapse slot ordering stimuli before arrivals


def simulate(
    net: DelayNetwork,
    stimuli: Sequence[tuple[int, float]],
    horizon: float,
    stdp: STDPParams | None = None,
) -> EventLog:
    if not (is_finite(horizon) and horizon > 0):
        raise ConfigError(f"horizon must be finite and positive, got {horizon!r}")
    count = net.neuron_count
    weights = [s.weight for s in net.synapses]
    delays = [s.delay for s in net.synapses]
    posts = [s.post for s in net.synapses]
    outgoing: list[list[int]] = [[] for _ in range(count)]
    incoming: list[list[int]] = [[] for _ in range(count)]
    for idx, syn in enumerate(net.synapses):
        outgoing[syn.pre].append(idx)
        incoming[syn.post].append(idx)

    # each neuron's window since its last spike: arrival times and the weights
    # they brought, oldest first (see the module docstring)
    window_times = [deque() for _ in range(count)]
    window_weights = [deque() for _ in range(count)]
    last_spike = [-math.inf] * count
    last_arrival = [-math.inf] * len(net.synapses)
    records: list[tuple[float, int, str]] = []
    delta, k, threshold, refractory = net.delta, net.k, net.threshold, net.refractory

    exp, heappush, heappop, never = math.exp, heapq.heappush, heapq.heappop, -math.inf
    if stdp is not None:
        a_plus, a_minus = stdp.a_plus, stdp.a_minus
        tau_plus, tau_minus, w_max = stdp.tau_plus, stdp.tau_minus, net.w_max

        def pair(syn: int, dt: float) -> None:
            """One STDP pairing with post - pre = dt on synapse `syn`."""
            w = weights[syn]
            if dt > 0:
                w = w + a_plus * exp(-dt / tau_plus)
            elif dt < 0:
                w = w + -a_minus * exp(dt / tau_minus)
            else:
                w = w + 0.0  # no change at coincidence, but a -0.0 weight becomes 0.0
            if w < 0.0:
                w = 0.0
            if w > w_max:
                w = w_max
            weights[syn] = w

    checked = []
    with malformed("stimulus", ConfigError):  # a stimulus that is not a pair
        for neuron, t in stimuli:
            if not (is_int(neuron) and 0 <= neuron < count):
                raise ConfigError(f"stimulus targets unknown neuron {neuron!r}")
            if not is_finite(t):
                raise ConfigError(f"stimulus time must be finite, got {t!r}")
            checked.append((float(t), neuron, _STIMULUS))
    heap = sorted(checked)  # a sorted list is a heap
    # event times lie between the earliest stimulus and the horizon; a delay of
    # more than half an ulp there lands each arrival strictly after its spike
    reach = max(abs(heap[0][0]), horizon) if heap else 0.0
    if delays and min(delays) <= math.ulp(reach) / 2:
        raise ConfigError(f"delay {min(delays)} vanishes in rounding at time {reach}")

    while heap:
        t, neuron, syn_idx = heappop(heap)
        if t > horizon:
            break
        if syn_idx == _STIMULUS:
            if not t >= last_spike[neuron] + refractory:
                continue
            kind = "stim"
        else:
            # synaptic arrival: pair it with the post neuron's last spike
            last_arrival[syn_idx] = t
            if stdp is not None and last_spike[neuron] > never:
                pair(syn_idx, last_spike[neuron] - (t - delays[syn_idx]))
            times, window = window_times[neuron], window_weights[neuron]
            cutoff = t - delta
            while times and times[0] < cutoff:
                times.popleft()
                window.popleft()
            times.append(t)
            window.append(weights[syn_idx])
            if not (
                len(window) >= k
                and sum(window) >= threshold
                and t >= last_spike[neuron] + refractory
            ):
                continue
            kind = "spike"
        # fire: pair every incoming synapse's last arrival with this spike
        records.append((t, neuron, kind))
        last_spike[neuron] = t
        window_times[neuron].clear()
        window_weights[neuron].clear()
        if stdp is not None:
            for syn_in in incoming[neuron]:
                arrival = last_arrival[syn_in]
                if arrival > never:
                    pair(syn_in, t - (arrival - delays[syn_in]))
        for syn_out in outgoing[neuron]:
            arrival_t = t + delays[syn_out]
            if arrival_t <= horizon:
                heappush(heap, (arrival_t, posts[syn_out], syn_out))

    return EventLog(tuple(records), tuple(weights), horizon)


def find_resonant_cycles(
    net: DelayNetwork,
    t_theta: float,
    delta: float,
    tau_gain: float,
    max_len: int,
) -> list[CycleCandidate]:
    """All simple directed cycles (length <= max_len) resonant with the carrier.

    A cycle qualifies when its delay sum lies within `delta` of an integer
    number of carrier periods and its weight product reaches `tau_gain`.
    Parallel synapses count as distinct hops. Sorted by weight product
    descending.
    """
    if not (is_finite(t_theta) and t_theta > 0):
        raise ConfigError(f"t_theta must be finite and > 0, got {t_theta!r}")
    if not (is_finite(delta) and is_finite(tau_gain)):
        raise ConfigError(f"delta and tau_gain must be finite, got {delta!r} and {tau_gain!r}")
    if not (is_int(max_len) and 2 <= max_len <= DEFAULT_MAX_CYCLE_LEN):
        raise ConfigError(f"max_len must be an integer from 2 to the safety cap "
                          f"{DEFAULT_MAX_CYCLE_LEN}, got {max_len!r}")
    adjacency: dict[int, list[int]] = {}
    for idx, syn in enumerate(net.synapses):
        adjacency.setdefault(syn.pre, []).append(idx)

    candidates: list[CycleCandidate] = []

    def dfs(start: int, current: int, path_v: list[int], path_s: list[int],
            delay_sum: float, weight_prod: float):
        for syn_idx in adjacency.get(current, ()):
            syn = net.synapses[syn_idx]
            nxt = syn.post
            if nxt == start and len(path_v) >= 2:
                total_delay = delay_sum + syn.delay
                total_weight = weight_prod * syn.weight
                n = max(1, round(total_delay / t_theta))
                if abs(total_delay - n * t_theta) <= delta and total_weight >= tau_gain:
                    candidates.append(CycleCandidate(
                        vertices=tuple(path_v) + (start,),
                        synapses=tuple(path_s) + (syn_idx,),
                        delay_sum=total_delay,
                        weight_product=total_weight,
                        resonance_n=n,
                        t_theta=t_theta,
                    ))
                continue
            if nxt <= start or nxt in path_v or len(path_v) >= max_len:
                continue
            dfs(start, nxt, path_v + [nxt], path_s + [syn_idx],
                delay_sum + syn.delay, weight_prod * syn.weight)

    for start in range(net.neuron_count):
        dfs(start, start, [start], [], 0.0, 1.0)
    candidates.sort(key=lambda c: (-c.weight_product, c.vertices, c.synapses))
    return candidates


def test_reentry(
    net: DelayNetwork,
    cycle: CycleCandidate,
    periods: int,
) -> tuple[bool, dict]:
    """Stimulate the cycle head once and check reactivation period by period.

    Each reactivation must land within `delta` of one resonance interval
    (n * t_theta) after the previous one, so latency errors do not accumulate
    across periods.
    """
    if not (is_int(periods) and periods >= 1):
        raise ConfigError(f"periods must be an integer of at least 1, got {periods!r}")
    expected_interval = cycle.resonance_n * cycle.t_theta
    horizon = periods * max(expected_interval, cycle.delay_sum) + net.delta + 1.0
    log = simulate(net, [(cycle.head, 0.0)], horizon)
    head_spikes = log.spikes_of(cycle.head)
    if not head_spikes or head_spikes[0] != 0.0:
        return False, {"periods_completed": 0, "latencies_ms": [],
                       "expected_interval_ms": expected_interval}
    latencies: list[float] = []
    t_prev = 0.0
    for _ in range(periods):
        target = t_prev + expected_interval
        in_window = [t for t in head_spikes
                     if target - net.delta <= t <= target + net.delta and t > t_prev]
        if not in_window:
            break
        t_hit = min(in_window, key=lambda t: (abs(t - target), t))
        latencies.append(abs(t_hit - target))
        t_prev = t_hit
    ok = len(latencies) == periods
    report = {
        "periods_completed": len(latencies),
        "latencies_ms": latencies,
        "expected_interval_ms": expected_interval,
        "max_latency_ms": max(latencies) if latencies else None,
    }
    return ok, report


def order_invariant_readout(
    net: DelayNetwork,
    routes: Sequence[Sequence[int]],
    within: float,
) -> bool:
    """Check the readout spike time over all arrival-order permutations.

    Each route is a chain of synapse indices ending on one shared target.
    Route arrivals are scheduled into fixed time slots spanning `within`
    (<= the coincidence window); permuting which route lands on which slot
    must leave the postsynaptic spike time bit-identical.
    """
    if not routes:
        raise ConfigError("need at least one route")
    if not (is_finite(within) and within >= 0):
        raise ConfigError(f"permutation span must be finite and >= 0, got {within!r}")
    if within > net.delta:
        raise ConfigError("permutation span must fit inside the coincidence window")
    chains = []
    for route in routes:
        with malformed("route", ConfigError):  # a route that is not a sequence
            route = tuple(route)
        if not route:
            raise ConfigError("empty route")
        if any(not (is_int(s) and 0 <= s < len(net.synapses)) for s in route):
            raise ConfigError("route references unknown synapse")
        for a, b in zip(route, route[1:]):
            if net.synapses[a].post != net.synapses[b].pre:
                raise ConfigError("route synapses do not chain")
        chains.append(route)
    targets = {net.synapses[r[-1]].post for r in chains}
    if len(targets) != 1:
        raise ConfigError("routes do not converge on a single neuron")
    target = targets.pop()

    delays = [sum(net.synapses[s].delay for s in route) for route in chains]
    m = len(chains)
    slots = [0.0] if m == 1 else [i * within / (m - 1) for i in range(m)]
    base = max(delays)

    readouts = []
    for perm in itertools.permutations(range(m)):
        stimuli = [
            (net.synapses[chains[r][0]].pre, base + slots[perm[r]] - delays[r])
            for r in range(m)
        ]
        horizon = base + within + net.delta + 1.0
        log = simulate(net, stimuli, horizon)
        target_spikes = [t for t, n, kind in log.records if n == target and kind == "spike"]
        if not target_spikes:
            return False
        readouts.append(target_spikes[0])
    return all(t == readouts[0] for t in readouts)

