"""Delay-network simulation, STDP, resonant-cycle mining, reentry, readout.

Ring reactivation times have an analytic oracle (spikes every delay-sum
milliseconds when every hop is super-threshold), which the event-driven
results are checked against.
"""

import heapq
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclos import pngsim
from cyclos.errors import ConfigError
from cyclos.pngsim import CycleCandidate, DelayNetwork, STDPParams, Synapse


def ring_network(delays, weights=None, k=1, delta=5.0, threshold=0.5, refractory=1.0):
    n = len(delays)
    weights = weights or [0.9] * n
    synapses = tuple(
        Synapse(i, (i + 1) % n, weights[i], delays[i]) for i in range(n)
    )
    return DelayNetwork(n, synapses, delta=delta, k=k, refractory=refractory,
                        threshold=threshold)


class TestSimulate:
    def test_lone_stimulus(self):
        net = DelayNetwork(1, (), delta=2.0)
        log = pngsim.simulate(net, [(0, 5.0)], horizon=20.0)
        assert log.records == ((5.0, 0, "stim"),)

    def test_convergent_coincidence_fires_at_second_arrival(self):
        delta = 4.0
        net = DelayNetwork(
            3,
            (Synapse(0, 2, 0.6, 1.0), Synapse(1, 2, 0.6, 1.0)),
            delta=delta, k=2, threshold=1.0,
        )
        # arrivals at 1.0 and 1.0 + delta/2
        log = pngsim.simulate(net, [(0, 0.0), (1, delta / 2)], horizon=20.0)
        post = [(t, k) for t, n, k in log.records if n == 2]
        assert post == [(1.0 + delta / 2, "spike")]

    def test_dispersed_arrivals_dissipate(self):
        delta = 4.0
        net = DelayNetwork(
            3,
            (Synapse(0, 2, 0.6, 1.0), Synapse(1, 2, 0.6, 1.0)),
            delta=delta, k=2, threshold=1.0,
        )
        log = pngsim.simulate(net, [(0, 0.0), (1, 3 * delta)], horizon=40.0)
        assert [r for r in log.records if r[1] == 2] == []

    def test_refractory_blocks_rapid_refire(self):
        net = DelayNetwork(1, (), delta=1.0, refractory=5.0)
        log = pngsim.simulate(net, [(0, 0.0), (0, 2.0), (0, 6.0)], horizon=10.0)
        assert [t for t, _, _ in log.records] == [0.0, 6.0]

    def test_delay_lost_in_rounding_is_rejected(self):
        # at 1e17 ms a 1 ms delay rounds away, so the arrival would land at the
        # time of the spike that sends it
        net = DelayNetwork(2, (Synapse(1, 0, 1.0, 1.0),), delta=1.0, k=1, threshold=0.5)
        with pytest.raises(ConfigError):
            pngsim.simulate(net, [(1, 1e17)], 2e17)
        with pytest.raises(ConfigError):
            pngsim.simulate(net, [(1, -1e17)], 1.0)
        assert pngsim.simulate(net, [(1, 1e12)], 2e12).records == (
            (1e12, 1, "stim"), (1e12 + 1.0, 0, "spike"))

    def test_determinism(self):
        net = ring_network([10.0, 12.0, 14.0])
        rng = random.Random(0)
        stimuli = [(rng.randrange(3), rng.uniform(0, 30)) for _ in range(6)]
        log1 = pngsim.simulate(net, stimuli, horizon=200.0)
        log2 = pngsim.simulate(net, list(reversed(stimuli)), horizon=200.0)
        assert log1.records == log2.records

    def test_ring_reactivation_matches_analytic_times(self):
        delays = [40.0, 40.0, 45.0]
        net = ring_network(delays)
        log = pngsim.simulate(net, [(0, 0.0)], horizon=500.0)
        period = sum(delays)
        expected = [k * period for k in range(5)]
        assert log.spikes_of(0) == pytest.approx(expected)


def reference_stdp_delta(pre_t, post_t, p):
    """Signed weight change for one pre/post pairing; zero at coincidence."""
    dt = post_t - pre_t
    if dt > 0:
        return p.a_plus * math.exp(-dt / p.tau_plus)
    if dt < 0:
        return -p.a_minus * math.exp(dt / p.tau_minus)
    return 0.0


def stdp_pair_weight(pre, post, p):
    """Final weight of one synapse 0 -> 1 (weight 0.5, delay 1 ms) after
    neuron 0 is stimulated at `pre` and neuron 1 at `post`; the threshold is
    out of reach, so the only post spike is the stimulated one and the
    synapse sees one pairing."""
    net = DelayNetwork(2, (Synapse(0, 1, 0.5, 1.0),), delta=1.0, threshold=2.0)
    log = pngsim.simulate(net, [(0, pre), (1, post)], horizon=200.0, stdp=p)
    return log.final_weights[0]


class TestStdpDelta:
    """The STDP rule as `simulate` applies it, on a two-neuron net."""

    def test_potentiation_value(self):
        # neuron 1 fires on the arrival, 10 ms after neuron 0's spike
        p = STDPParams(0.1, 0.12, 20.0, 20.0)
        net = DelayNetwork(2, (Synapse(0, 1, 0.6, 10.0),), delta=1.0, threshold=0.5)
        log = pngsim.simulate(net, [(0, 0.0)], horizon=50.0, stdp=p)
        assert log.spikes_of(1) == [10.0]
        assert log.final_weights == (0.6 + 0.1 * math.exp(-10.0 / 20.0),)

    def test_depression_value(self):
        p = STDPParams(0.1, 0.12, 20.0, 20.0)
        assert stdp_pair_weight(10.0, 0.0, p) == 0.5 + -0.12 * math.exp(-10.0 / 20.0)

    def test_simultaneous_is_zero(self):
        p = STDPParams(0.1, 0.12, 20.0, 20.0)
        assert stdp_pair_weight(3.0, 3.0, p) == 0.5

    def test_sign_property_random(self):
        p = STDPParams(0.05, 0.06, 15.0, 25.0)
        rng = random.Random(1)
        for _ in range(200):
            pre, post = rng.uniform(0, 100), rng.uniform(0, 100)
            weight = stdp_pair_weight(pre, post, p)
            # the pre spike time simulate sees is its arrival minus the delay
            assert weight == 0.5 + reference_stdp_delta((pre + 1.0) - 1.0, post, p)
            if post > pre:
                assert weight >= 0.5
            elif post < pre:
                assert weight <= 0.5

    def test_weights_stay_clipped_during_simulation(self):
        delays = [10.0, 12.0, 11.0]
        net = ring_network(delays, weights=[0.95, 0.95, 0.95])
        stdp = STDPParams(0.2, 0.2, 20.0, 20.0)
        log = pngsim.simulate(net, [(0, 0.0)], horizon=400.0, stdp=stdp)
        assert all(0.0 <= w <= 1.0 for w in log.final_weights)

    def test_potentiation_stops_at_the_network_weight_ceiling(self):
        # every hop potentiates, and the weights a run returns must still be
        # ones the network's own constructor accepts
        ring = ring_network([10.0, 12.0, 11.0], weights=[0.8, 0.8, 0.8])
        net = DelayNetwork(3, ring.synapses, delta=ring.delta, w_max=0.8)
        log = pngsim.simulate(net, [(0, 0.0)], horizon=300.0, stdp=STDPParams(0.2, 0.2, 20.0, 20.0))
        assert log.final_weights == (0.8, 0.8, 0.8)

    def test_on_cycle_weights_potentiate(self):
        # repeated traversal of the ring puts every hop pre-before-post
        delays = [10.0, 12.0, 11.0]
        net = ring_network(delays, weights=[0.7, 0.7, 0.7])
        stdp = STDPParams(0.05, 0.05, 20.0, 20.0)
        log = pngsim.simulate(net, [(0, 0.0)], horizon=300.0, stdp=stdp)
        assert all(w > 0.7 for w in log.final_weights)


class TestFindResonantCycles:
    def test_three_ring_accepted(self):
        net = ring_network([40.0, 40.0, 45.0])
        found = pngsim.find_resonant_cycles(net, t_theta=125.0, delta=5.0,
                                            tau_gain=0.5, max_len=5)
        assert len(found) == 1
        cand = found[0]
        assert cand.resonance_n == 1
        assert cand.delay_sum == pytest.approx(125.0)
        assert cand.weight_product == pytest.approx(0.9 ** 3)

    def test_off_resonance_rejected(self):
        net = ring_network([30.0, 30.0, 40.0])
        found = pngsim.find_resonant_cycles(net, 125.0, 5.0, 0.5, 5)
        assert found == []

    def test_gain_threshold(self):
        net = ring_network([40.0, 40.0, 45.0], weights=[0.9, 0.9, 0.9])
        accepted = pngsim.find_resonant_cycles(net, 125.0, 5.0, 0.5, 5)
        assert accepted and accepted[0].weight_product == pytest.approx(0.729)
        rejected = pngsim.find_resonant_cycles(net, 125.0, 5.0, 0.73, 5)
        assert rejected == []

    def test_multi_period_resonance(self):
        # delay sum 250 resonates with n = 2 periods of 125
        net = ring_network([80.0, 80.0, 90.0])
        found = pngsim.find_resonant_cycles(net, 125.0, 5.0, 0.5, 5)
        assert found and found[0].resonance_n == 2

    def test_length_cap_enforced(self):
        net = ring_network([40.0, 40.0, 45.0])
        with pytest.raises(ConfigError):
            pngsim.find_resonant_cycles(net, 125.0, 5.0, 0.5, max_len=9)

    def test_sorted_by_gain(self):
        synapses = (
            Synapse(0, 1, 0.9, 60.0), Synapse(1, 0, 0.9, 65.0),
            Synapse(0, 2, 0.6, 60.0), Synapse(2, 0, 0.6, 65.0),
        )
        net = DelayNetwork(3, synapses, delta=5.0)
        found = pngsim.find_resonant_cycles(net, 125.0, 5.0, 0.1, 4)
        gains = [c.weight_product for c in found]
        assert gains == sorted(gains, reverse=True)


class TestReentry:
    def test_resonant_ring_reenters(self):
        net = ring_network([40.0, 40.0, 45.0])
        cand = pngsim.find_resonant_cycles(net, 125.0, 5.0, 0.5, 5)[0]
        ok, report = pngsim.test_reentry(net, cand, periods=10)
        assert ok
        assert report["max_latency_ms"] <= net.delta

    def test_broken_weight_fails_after_first_period(self):
        net = ring_network([40.0, 40.0, 45.0], weights=[0.9, 0.9, 0.0])
        cand = CycleCandidate((0, 1, 2, 0), (0, 1, 2), 125.0, 0.0, 1, 125.0)
        ok, report = pngsim.test_reentry(net, cand, periods=3)
        assert not ok
        assert report["periods_completed"] == 0

    def test_detuned_ring_fails(self):
        # delay perturbed by 2 * delta: reactivates at 135, outside 125 +- 5
        net = ring_network([40.0, 40.0, 55.0])
        cand = CycleCandidate((0, 1, 2, 0), (0, 1, 2), 135.0, 0.729, 1, 125.0)
        ok, _ = pngsim.test_reentry(net, cand, periods=3)
        assert not ok

    def test_random_resonant_rings_property(self):
        rng = random.Random(5)
        for _ in range(12):
            length = rng.randint(2, 5)
            t_theta = 125.0
            delta = 5.0
            # delays summing within delta of one period
            base = [rng.uniform(10.0, 40.0) for _ in range(length)]
            scale = (t_theta + rng.uniform(-delta, delta)) / sum(base)
            delays = [d * scale for d in base]
            net = ring_network(delays, weights=[0.9] * length, delta=delta)
            found = pngsim.find_resonant_cycles(net, t_theta, delta, 0.5, 5)
            assert found, f"ring {delays} should be resonant"
            ok, report = pngsim.test_reentry(net, found[0], periods=10)
            assert ok and report["max_latency_ms"] <= delta


class TestOrderInvariantReadout:
    def _convergent_net(self, n_routes, delta=6.0):
        synapses = tuple(Synapse(i, n_routes, 0.5, 5.0 + i) for i in range(n_routes))
        return DelayNetwork(n_routes + 1, synapses, delta=delta, k=n_routes,
                            threshold=0.5 * n_routes)

    def test_three_routes_all_permutations(self):
        net = self._convergent_net(3)
        routes = [[0], [1], [2]]
        assert pngsim.order_invariant_readout(net, routes, within=4.0)

    def test_window_edge_inclusive(self):
        net = self._convergent_net(2)
        assert pngsim.order_invariant_readout(net, [[0], [1]], within=net.delta)

    def test_route_outside_window_changes_readout(self):
        net = self._convergent_net(2, delta=3.0)
        with pytest.raises(ConfigError):
            pngsim.order_invariant_readout(net, [[0], [1]], within=9.0)

    def test_nan_span_rejected_before_it_reaches_the_horizon(self):
        with pytest.raises(ConfigError, match="^permutation span must be finite"):
            pngsim.order_invariant_readout(self._convergent_net(2), [[0], [1]], within=math.nan)

    def test_non_converging_routes_rejected(self):
        synapses = (Synapse(0, 2, 0.9, 5.0), Synapse(1, 3, 0.9, 5.0))
        net = DelayNetwork(4, synapses, delta=4.0)
        with pytest.raises(ConfigError):
            pngsim.order_invariant_readout(net, [[0], [1]], within=2.0)

    def test_unequal_weights_with_partial_threshold_break_invariance(self):
        # threshold reachable by the heavy route alone: the spike time then
        # depends on which slot the heavy route lands on, so readout varies
        synapses = (Synapse(0, 2, 0.9, 5.0), Synapse(1, 2, 0.3, 5.0))
        net = DelayNetwork(3, synapses, delta=6.0, k=1, threshold=0.9)
        assert not pngsim.order_invariant_readout(net, [[0], [1]], within=4.0)


class TestNetworkJson:
    def test_round_trip(self):
        obj = {"neurons": 3, "synapses": [[0, 1, 0.9, 40], [1, 2, 0.9, 40], [2, 0, 0.9, 45]],
               "delta_ms": 5, "k": 1, "refractory_ms": 1, "threshold": 0.5, "w_max": 1}
        assert DelayNetwork.from_json_obj(obj) == ring_network([40.0, 40.0, 45.0])


def reference_simulate(net, stimuli, horizon, stdp=None):
    """Dict-keyed synapse lists; each arrival rebuilds its neuron's window list
    by filtering out arrivals older than delta."""
    weights = [s.weight for s in net.synapses]
    outgoing = {}
    for idx, syn in enumerate(net.synapses):
        outgoing.setdefault(syn.pre, []).append(idx)
    incoming = {}
    for idx, syn in enumerate(net.synapses):
        incoming.setdefault(syn.post, []).append(idx)

    buffers = {n: [] for n in range(net.neuron_count)}
    last_spike = [-math.inf] * net.neuron_count
    last_arrival = [-math.inf] * len(net.synapses)
    records = []
    heap = []
    seq = 0
    for neuron, t in sorted(stimuli, key=lambda s: (s[1], s[0])):
        heapq.heappush(heap, (float(t), neuron, -1, seq))
        seq += 1

    def fire(neuron, t, kind):
        nonlocal seq
        records.append((t, neuron, kind))
        last_spike[neuron] = t
        buffers[neuron] = []
        if stdp is not None:
            for syn_idx in incoming.get(neuron, ()):
                arrival = last_arrival[syn_idx]
                if arrival > -math.inf:
                    pre_spike = arrival - net.synapses[syn_idx].delay
                    w = weights[syn_idx] + reference_stdp_delta(pre_spike, t, stdp)
                    weights[syn_idx] = min(max(w, 0.0), net.w_max)
        for syn_idx in outgoing.get(neuron, ()):
            arrival_t = t + net.synapses[syn_idx].delay
            if arrival_t <= horizon:
                heapq.heappush(heap, (arrival_t, net.synapses[syn_idx].post, syn_idx, seq))
                seq += 1

    while heap:
        t, neuron, syn_idx, _ = heapq.heappop(heap)
        if t > horizon:
            break
        if syn_idx == -1:
            if t >= last_spike[neuron] + net.refractory:
                fire(neuron, t, "stim")
            continue
        last_arrival[syn_idx] = t
        if stdp is not None and last_spike[neuron] > -math.inf:
            pre_spike = t - net.synapses[syn_idx].delay
            w = weights[syn_idx] + reference_stdp_delta(pre_spike, last_spike[neuron], stdp)
            weights[syn_idx] = min(max(w, 0.0), net.w_max)
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
    return pngsim.EventLog(tuple(records), tuple(weights), horizon)


# half-millisecond grids make arrival ties, window edges (an arrival exactly
# delta old) and refractory edges (a spike exactly one period later) common
HALF_MS = st.integers(1, 8).map(lambda k: k * 0.5)
# decimal weights whose float sums depend on the order they are added in; a
# threshold that is one such sum sits exactly on the firing edge
DECIMAL_WEIGHTS = st.sampled_from([0.1, 0.2, 0.3, 0.7])


@st.composite
def networks_and_stimuli(draw):
    count = draw(st.integers(1, 5))
    neuron = st.integers(0, count - 1)
    w_max = draw(st.just(1.0) | DECIMAL_WEIGHTS | st.floats(0.05, 1))
    synapses = tuple(
        # -0.0 weights tell the clamp and the zero change at coincidence apart by
        # sign; weights at the ceiling cross it at the first potentiation
        Synapse(draw(neuron), draw(neuron),
                min(draw(DECIMAL_WEIGHTS | st.just(-0.0) | st.just(w_max) | st.floats(0, 1)),
                    w_max),
                draw(HALF_MS | st.floats(0.1, 4)))
        for _ in range(draw(st.integers(0, 10)))
    )
    net = DelayNetwork(count, synapses, delta=draw(HALF_MS | st.floats(0.1, 4)),
                       k=draw(st.integers(1, 3)), refractory=draw(HALF_MS),
                       threshold=draw(st.floats(0, 1.5)
                                      | st.lists(DECIMAL_WEIGHTS, min_size=1, max_size=4).map(sum)),
                       w_max=w_max)
    stimuli = draw(st.lists(st.tuples(neuron, st.integers(0, 20).map(lambda k: k * 0.5)),
                            max_size=8))
    # depression below 0 and potentiation past w_max reach both edges of the clamp
    amplitude = st.just(0.0) | st.floats(0, 0.3)
    stdp = draw(st.none() | st.builds(STDPParams, amplitude, amplitude, st.floats(1, 30),
                                      st.floats(1, 30)))
    return net, stimuli, draw(st.floats(1, 25)), stdp


# three arrivals whose weights reach the threshold only when summed oldest first
CONVERGENT = DelayNetwork(4, tuple(Synapse(pre, 0, w, 1.0) for pre, w in
                                   ((1, 0.1), (2, 0.2), (3, 0.3))),
                          delta=2.0, k=3, threshold=0.1 + 0.2 + 0.3)
# with no refractory period neuron 0 fires twice at t = 0, so its one synapse
# pushes two arrivals equal in (time, neuron, synapse)
TWIN_SPIKES = DelayNetwork(2, (Synapse(0, 1, 0.9, 1.0),), delta=2.0, refractory=0.0)


class TestSimulateOracle:
    @settings(max_examples=400, deadline=None)
    @given(networks_and_stimuli())
    @example((CONVERGENT, [(1, 0.0), (2, 0.5), (3, 1.0)], 10.0, None))
    @example((TWIN_SPIKES, [(0, 0.0), (0, 0.0)], 5.0, STDPParams(0.1, 0.1, 10.0, 10.0)))
    def test_matches_reference(self, case):
        net, stimuli, horizon, stdp = case
        got = pngsim.simulate(net, stimuli, horizon, stdp)
        want = reference_simulate(net, stimuli, horizon, stdp)
        assert got.records == want.records
        assert list(map(float.hex, got.final_weights)) == list(map(float.hex, want.final_weights))

    @settings(max_examples=200, deadline=None)
    @given(networks_and_stimuli())
    def test_log_is_appended_in_time_and_neuron_order(self, case):
        # simulate does not sort its log: events pop from the heap in this order
        net, stimuli, horizon, stdp = case
        records = pngsim.simulate(net, stimuli, horizon, stdp).records
        assert list(records) == sorted(records, key=lambda r: (r[0], r[1]))
