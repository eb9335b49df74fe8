"""Event-driven delay-network simulation with coincidence-detector neurons.

Neurons are pure coincidence detectors: a unit fires when at least `k`
presynaptic arrivals land within one sliding window of width `delta` ms and
their summed weights reach the firing threshold, subject to a refractory
period. The event queue is totally ordered by (time, neuron, synapse), so a
run is a pure function of (network, stimuli); the `seed` argument only tags
the log. STDP uses nearest-neighbor pairing on spike times (presynaptic
soma time, not arrival time): a synapse whose pre spike causally drives its
post therefore sees post - pre = conduction delay > 0 and potentiates.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .errors import ConfigError, is_finite

DEFAULT_MAX_CYCLE_LEN = 8


@dataclass(frozen=True)
class Synapse:
    pre: int
    post: int
    weight: float
    delay: float  # ms


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
        if self.neuron_count < 0 or self.k < 1 or not self.delta > 0 or not self.refractory >= 0:
            raise ConfigError("invalid network parameters")  # the negated tests reject NaN
        for idx, syn in enumerate(self.synapses):
            if not (0 <= syn.pre < self.neuron_count and 0 <= syn.post < self.neuron_count):
                raise ConfigError(f"synapse {idx} references unknown neuron")
            if not (is_finite(syn.delay) and syn.delay > 0):
                raise ConfigError(f"synapse {idx} delay must be finite and > 0")
            if not (0.0 <= syn.weight <= self.w_max):
                raise ConfigError(f"synapse {idx} weight outside [0, {self.w_max}]")

    def with_weights(self, weights: Sequence[float]) -> "DelayNetwork":
        new_syn = tuple(replace(s, weight=w) for s, w in zip(self.synapses, weights))
        return replace(self, synapses=new_syn)

    def to_json_obj(self) -> dict:
        return {
            "neurons": self.neuron_count,
            "synapses": [[s.pre, s.post, s.weight, s.delay] for s in self.synapses],
            "delta_ms": self.delta,
            "k": self.k,
            "refractory_ms": self.refractory,
            "threshold": self.threshold,
            "w_max": self.w_max,
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "DelayNetwork":
        return cls(
            neuron_count=int(obj["neurons"]),
            synapses=tuple(Synapse(int(p), int(q), float(w), float(d))
                           for p, q, w, d in obj["synapses"]),
            delta=float(obj["delta_ms"]),
            k=int(obj.get("k", 1)),
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
    w_max: float = 1.0

    def __post_init__(self):
        if self.a_plus < 0 or self.a_minus < 0 or self.tau_plus <= 0 or self.tau_minus <= 0:
            raise ConfigError("invalid STDP parameters")


@dataclass(frozen=True)
class EventLog:
    records: tuple[tuple[float, int, str], ...]  # (time_ms, neuron, kind)
    final_weights: tuple[float, ...]
    horizon: float
    seed: int = 0

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


def stdp_delta(pre_t: float, post_t: float, p: STDPParams) -> float:
    """Signed weight change for one pre/post pairing; zero at coincidence."""
    dt = post_t - pre_t
    if dt > 0:
        return p.a_plus * math.exp(-dt / p.tau_plus)
    if dt < 0:
        return -p.a_minus * math.exp(dt / p.tau_minus)
    return 0.0


_STIMULUS = -1  # synapse slot ordering stimuli before arrivals


def simulate(
    net: DelayNetwork,
    stimuli: Sequence[tuple[int, float]],
    horizon: float,
    stdp: STDPParams | None = None,
    seed: int = 0,
) -> EventLog:
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    weights = [s.weight for s in net.synapses]
    outgoing: dict[int, list[int]] = {}
    for idx, syn in enumerate(net.synapses):
        outgoing.setdefault(syn.pre, []).append(idx)
    incoming: dict[int, list[int]] = {}
    for idx, syn in enumerate(net.synapses):
        incoming.setdefault(syn.post, []).append(idx)

    buffers: dict[int, list[tuple[float, float]]] = {n: [] for n in range(net.neuron_count)}
    last_spike = [-math.inf] * net.neuron_count
    last_arrival = [-math.inf] * len(net.synapses)
    records: list[tuple[float, int, str]] = []

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for neuron, t in sorted(stimuli, key=lambda s: (s[1], s[0])):
        if not (0 <= neuron < net.neuron_count):
            raise ConfigError(f"stimulus targets unknown neuron {neuron}")
        heapq.heappush(heap, (float(t), neuron, _STIMULUS, seq))
        seq += 1

    def fire(neuron: int, t: float, kind: str):
        nonlocal seq
        records.append((t, neuron, kind))
        last_spike[neuron] = t
        buffers[neuron] = []
        if stdp is not None:
            for syn_idx in incoming.get(neuron, ()):
                arrival = last_arrival[syn_idx]
                if arrival > -math.inf:
                    pre_spike = arrival - net.synapses[syn_idx].delay
                    w = weights[syn_idx] + stdp_delta(pre_spike, t, stdp)
                    weights[syn_idx] = min(max(w, 0.0), stdp.w_max)
        for syn_idx in outgoing.get(neuron, ()):
            arrival_t = t + net.synapses[syn_idx].delay
            if arrival_t <= horizon:
                heapq.heappush(heap, (arrival_t, net.synapses[syn_idx].post, syn_idx, seq))
                seq += 1

    while heap:
        t, neuron, syn_idx, _ = heapq.heappop(heap)
        if t > horizon:
            break
        if syn_idx == _STIMULUS:
            if t >= last_spike[neuron] + net.refractory:
                fire(neuron, t, "stim")
            continue
        # synaptic arrival
        last_arrival[syn_idx] = t
        if stdp is not None and last_spike[neuron] > -math.inf:
            pre_spike = t - net.synapses[syn_idx].delay
            w = weights[syn_idx] + stdp_delta(pre_spike, last_spike[neuron], stdp)
            weights[syn_idx] = min(max(w, 0.0), stdp.w_max)
        window = [(at, w) for at, w in buffers[neuron] if at >= t - net.delta]
        window.append((t, weights[syn_idx]))
        buffers[neuron] = window
        if (
            len(window) >= net.k
            and sum(w for _, w in window) >= net.threshold
            and t >= last_spike[neuron] + net.refractory
        ):
            fire(neuron, t, "spike")

    records.sort(key=lambda r: (r[0], r[1]))
    return EventLog(tuple(records), tuple(weights), horizon, seed)


def find_resonant_cycles(
    net: DelayNetwork,
    t_theta: float,
    delta: float,
    tau_gain: float,
    max_len: int,
    safety_cap: int = DEFAULT_MAX_CYCLE_LEN,
) -> list[CycleCandidate]:
    """All simple directed cycles (length <= max_len) resonant with the carrier.

    A cycle qualifies when its delay sum lies within `delta` of an integer
    number of carrier periods and its weight product reaches `tau_gain`.
    Parallel synapses count as distinct hops. Sorted by weight product
    descending.
    """
    if not (is_finite(t_theta) and t_theta > 0):
        raise ConfigError(f"t_theta must be finite and > 0, got {t_theta!r}")
    if max_len < 2:
        raise ConfigError("max_len must be at least 2")
    if max_len > safety_cap:
        raise ConfigError(f"max_len {max_len} exceeds the safety cap {safety_cap}")
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
    if periods < 1:
        raise ConfigError("periods must be at least 1")
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
    if within > net.delta:
        raise ConfigError("permutation span must fit inside the coincidence window")
    chains = []
    for route in routes:
        if not route:
            raise ConfigError("empty route")
        if any(not (0 <= s < len(net.synapses)) for s in route):
            raise ConfigError("route references unknown synapse")
        for a, b in zip(route, route[1:]):
            if net.synapses[a].post != net.synapses[b].pre:
                raise ConfigError("route synapses do not chain")
        chains.append(tuple(route))
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


def replay_consolidate(
    net: DelayNetwork,
    cycles: Sequence[CycleCandidate],
    rounds: int,
    gain: float,
    decay: float,
) -> DelayNetwork:
    """Multiply on-cycle weights by gain and all others by decay, per round."""
    if not (gain > 1.0 > decay > 0.0):
        raise ConfigError("need gain > 1 > decay > 0")
    on_cycle = {idx for c in cycles for idx in c.synapses}
    weights = [s.weight for s in net.synapses]
    for _ in range(rounds):
        for idx in range(len(weights)):
            if idx in on_cycle:
                weights[idx] = min(weights[idx] * gain, net.w_max)
            else:
                weights[idx] = weights[idx] * decay
    return net.with_weights(weights)
