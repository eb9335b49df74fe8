"""Coincidence graph construction, closed-part extraction, trial invariance."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclos import chaincore, coincide
from cyclos.chaincore import Chain1, ChainComplex
from cyclos.coincide import CoincidenceWindow, SpikeTrain
from cyclos.errors import PreconditionError, WindowError
from cyclos.persist import compute_barcode, window_filtration
from cyclos.phasecode import Oscillator, circular_distance, wrap_time

OSC = Oscillator(8.0)  # 0.125 s period
TWO_PI = 2 * math.pi


def time_at_phase(phase, lap=0):
    """Spike time whose wrapped phase (at 8 Hz, zero offset) is `phase`."""
    return (phase + lap * TWO_PI) / (TWO_PI * OSC.frequency_hz)


def cyclic_train(extra=()):
    """0 -> 1 -> 2 -> 0 directed coincidence cycle via wrapped phases."""
    spikes = [
        (0, time_at_phase(0.0)),
        (1, time_at_phase(0.3)),
        (2, time_at_phase(0.6)),
        (0, time_at_phase(0.9)),
    ]
    neurons = 3 + len({n for n, _ in extra} - {0, 1, 2})
    return SpikeTrain(max(neurons, 3 + sum(1 for n, _ in extra if n >= 3)), list(spikes) + list(extra))


class TestBuildGraph:
    def test_pair_within_half_window(self):
        window = CoincidenceWindow(0.5)
        train = SpikeTrain(2, [(0, time_at_phase(0.0)), (1, time_at_phase(0.25))])
        graph = coincide.build_coincidence_graph(train, OSC, window)
        assert graph.edges == ((0, 1),)

    def test_pair_outside_window(self):
        window = CoincidenceWindow(0.5)
        train = SpikeTrain(2, [(0, time_at_phase(0.0)), (1, time_at_phase(1.0))])
        graph = coincide.build_coincidence_graph(train, OSC, window)
        assert graph.edges == ()

    def test_cyclic_pattern_contains_directed_3_cycle(self):
        graph = coincide.build_coincidence_graph(cyclic_train(), OSC, CoincidenceWindow(0.35))
        assert set(graph.edges) == {(0, 1), (1, 2), (2, 0)}

    def test_simultaneous_spikes_make_no_edge(self):
        train = SpikeTrain(2, [(0, 1.0), (1, 1.0)])
        graph = coincide.build_coincidence_graph(train, OSC, CoincidenceWindow(0.5))
        assert graph.edges == ()

    def test_empty_train_gives_empty_graph(self):
        graph = coincide.build_coincidence_graph(SpikeTrain(3, []), OSC, CoincidenceWindow(0.3))
        assert graph.edges == () and len(graph.vertices) == 3

    def test_invalid_window(self):
        with pytest.raises(WindowError):
            CoincidenceWindow(3.5)

    def test_multiplicity_cap_reported(self):
        spikes = [(0, time_at_phase(0.0, lap=k)) for k in range(4)]
        spikes += [(1, time_at_phase(0.1, lap=k)) for k in range(4)]
        train = SpikeTrain(2, spikes)
        result = coincide.closed_part(train, OSC, CoincidenceWindow(0.3), multiplicity_cap=3)
        # 10 forward + 6 reverse pairs; 3 kept per direction, rest reported
        assert result.multiplicity_overflow == {(0, 1): 7, (1, 0): 3}
        assert sum(1 for e in result.graph.edges if e == (0, 1)) == 3
        assert sum(1 for e in result.graph.edges if e == (1, 0)) == 3


class TestClosedPart:
    def test_open_path_cancels(self):
        train = SpikeTrain(3, [(0, time_at_phase(0.0)), (1, time_at_phase(0.2)), (2, time_at_phase(0.4))])
        result = coincide.closed_part(train, OSC, CoincidenceWindow(0.25))
        assert set(result.graph.edges) == {(0, 1), (1, 2)}
        assert result.closed.is_zero()
        assert result.cls.is_zero()

    def test_clean_cycle_survives(self):
        result = coincide.closed_part(cyclic_train(), OSC, CoincidenceWindow(0.35))
        assert result.closed == Chain1.from_dict({0: 1, 1: 1, 2: 1})
        assert not result.cls.is_zero()

    def test_dangling_edge_projects_out(self):
        # neuron 3 coincides only with the late neuron-0 spike
        extra = [(3, time_at_phase(1.1))]
        train = SpikeTrain(4, [
            (0, time_at_phase(0.0)),
            (1, time_at_phase(0.3)),
            (2, time_at_phase(0.6)),
            (0, time_at_phase(0.9)),
            (3, time_at_phase(1.1)),
        ])
        result = coincide.closed_part(train, OSC, CoincidenceWindow(0.35))
        dangle_indices = [i for i, e in enumerate(result.graph.edges) if 3 in e]
        assert dangle_indices, "construction should produce a dangling edge"
        closed = result.closed.as_dict()
        assert all(closed.get(i, 0) == 0 for i in dangle_indices)
        assert not result.cls.is_zero()

    def test_boundary_always_zero_randomized(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(1, 6)
            spikes = [(rng.randrange(n), rng.uniform(0, 0.5)) for _ in range(rng.randint(0, 20))]
            result = coincide.closed_part(SpikeTrain(n, spikes), OSC, CoincidenceWindow(0.8))
            assert chaincore.boundary1(result.closed, result.graph) == {}

    def test_window_monotonicity(self):
        rng = random.Random(42)
        for _ in range(20):
            n = rng.randint(2, 5)
            spikes = [(rng.randrange(n), rng.uniform(0, 0.4)) for _ in range(12)]
            train = SpikeTrain(n, spikes)
            small = coincide.build_coincidence_graph(train, OSC, CoincidenceWindow(0.3))
            large = coincide.build_coincidence_graph(train, OSC, CoincidenceWindow(0.9))
            def counts(graph):
                out = {}
                for e in graph.edges:
                    out[e] = out.get(e, 0) + 1
                return out
            small_counts, large_counts = counts(small), counts(large)
            assert all(large_counts.get(e, 0) >= c for e, c in small_counts.items())


class TestTrialInvariance:
    def test_identical_trials(self):
        trials = [cyclic_train(), cyclic_train()]
        ok, report = coincide.trial_invariance(trials, OSC, CoincidenceWindow(0.35), epsilon=0.05)
        assert ok and report["invariant"]

    def test_jitter_preserving_coincidences(self):
        # gaps g with g + eps <= delta < 2g - eps survive any per-spike
        # jitter of eps/2 without creating or destroying coincidences
        window = CoincidenceWindow(0.4)
        epsilon = window.delta / 4
        gap = 0.27
        rng = random.Random(9)
        base = [(0, 0.0), (1, gap), (2, 2 * gap), (0, 3 * gap)]
        trials = [SpikeTrain(3, [(n, time_at_phase(p)) for n, p in base])]
        for _ in range(4):
            jittered = [
                (n, time_at_phase(p + rng.uniform(-epsilon / 2, epsilon / 2)))
                for n, p in base
            ]
            trials.append(SpikeTrain(3, jittered))
        ok, _ = coincide.trial_invariance(trials, OSC, window, epsilon=epsilon)
        assert ok

    def test_deleted_cycle_edge_breaks_invariance(self):
        full = cyclic_train()
        broken = SpikeTrain(3, [(n, t) for n, t in full.spikes if not (n == 0 and t > 0.01)])
        ok, report = coincide.trial_invariance(
            [full, broken], OSC, CoincidenceWindow(0.35), epsilon=0.05
        )
        assert not ok
        assert report["per_trial_class"][0] != report["per_trial_class"][1]

    def test_epsilon_precondition(self):
        with pytest.raises(PreconditionError):
            coincide.trial_invariance([cyclic_train()], OSC, CoincidenceWindow(0.3), epsilon=0.3)

    def test_reversal_negates_class(self):
        window = CoincidenceWindow(0.35)
        train = cyclic_train()
        result = coincide.closed_part(train, OSC, window)
        horizon = max(t for _, t in train.spikes)
        reversed_train = SpikeTrain(3, [(n, horizon - t) for n, t in train.spikes])
        # reversal keeps phase distances only for offset-symmetric oscillators;
        # rebuild phases explicitly instead with a mirrored spike list
        mirrored = SpikeTrain(3, [
            (0, time_at_phase(0.0)),
            (2, time_at_phase(0.3)),
            (1, time_at_phase(0.6)),
            (0, time_at_phase(0.9)),
        ])
        rev = coincide.closed_part(mirrored, OSC, window)
        assert set(rev.graph.edges) == {(0, 2), (2, 1), (1, 0)}
        # identify reversed edge (j, i) with -1 * original edge (i, j); the
        # reversed pattern then lands on the negated class
        edge_index = {e: i for i, e in enumerate(result.graph.edges)}
        mapped = Chain1.from_dict({
            edge_index[(e[1], e[0])]: -coeff
            for (idx, coeff) in rev.closed.coefficients
            for e in [rev.graph.edges[idx]]
        })
        assert chaincore.homology_class(mapped, result.graph) == -result.cls


class TestCoincidencePersistence:
    def test_cycle_bar_born_at_widest_gap(self):
        # cycle pair gaps 0.2 / 0.3 / 0.35: the bar appears at the first
        # window covering the widest gap
        train = SpikeTrain(3, [
            (0, time_at_phase(0.0)),
            (1, time_at_phase(0.2)),
            (2, time_at_phase(0.5)),
            (0, time_at_phase(0.85)),
        ])
        barcode = coincide.coincidence_persistence(train, OSC, [0.1, 0.25, 0.32, 0.4, 0.5])
        h1_births = [b.birth for b in barcode.in_dim(1)]
        assert 0.4 in h1_births

    def test_betti_matches_oracle_at_every_delta(self):
        import numpy as np

        rng = random.Random(77)
        for _ in range(10):
            n = rng.randint(2, 5)
            spikes = [(rng.randrange(n), rng.uniform(0, 0.3)) for _ in range(10)]
            train = SpikeTrain(n, spikes)
            deltas = [0.2, 0.4, 0.6, 0.8]
            barcode = coincide.coincidence_persistence(train, OSC, deltas)
            for delta in deltas:
                graph = coincide.build_coincidence_graph(train, OSC, CoincidenceWindow(delta))
                d1 = np.array(graph.boundary1, dtype=float)
                rank1 = np.linalg.matrix_rank(d1) if graph.edges else 0
                beta0 = len(graph.vertices) - rank1
                beta1 = len(graph.edges) - rank1
                assert barcode.alive_count(0, delta) == beta0
                assert barcode.alive_count(1, delta) == beta1

    def test_empty_train(self):
        barcode = coincide.coincidence_persistence(SpikeTrain(0, []), OSC, [0.1, 0.2])
        assert barcode.bars == ()

    def test_non_ascending_rejected(self):
        with pytest.raises(Exception):
            coincide.coincidence_persistence(cyclic_train(), OSC, [0.3, 0.2])

    def test_noise_produces_no_long_bars(self):
        # pure noise: cycles persisting over more than one window step are
        # rare, so only a small fraction of seeds may show one
        deltas = [0.1, 0.15, 0.2, 0.25, 0.3]
        step = deltas[1] - deltas[0]
        bad_seeds = 0
        for seed in range(20):
            rng = random.Random(seed)
            spikes = [(rng.randrange(8), rng.uniform(0, 2.0)) for _ in range(6)]
            barcode = coincide.coincidence_persistence(SpikeTrain(8, spikes), OSC, deltas)
            for bar in barcode.in_dim(1):
                death = bar.death if bar.death != math.inf else deltas[-1]
                if death - bar.birth > step + 1e-12:
                    bad_seeds += 1
                    break
        assert bad_seeds <= 4


# -- reference: pair enumeration, capping and per-window filtering as three passes --


def reference_pairs(train, osc, limit):
    """All (i, j, t, t') pairs with t < t' within the phase window, time order."""
    phases = [(neuron, t, wrap_time(t, osc)) for neuron, t in train.spikes]
    pairs = []
    for a in range(len(phases)):
        i, t, phase_a = phases[a]
        for b in range(a + 1, len(phases)):
            j, t_next, phase_b = phases[b]
            if t_next <= t or i == j:
                continue
            if circular_distance(phase_a, phase_b) <= limit:
                pairs.append((i, j, t, t_next))
    return pairs


def reference_cap(pairs, cap):
    kept, overflow = [], {}
    counts = {}
    for i, j, t, t2 in pairs:
        key = (i, j)
        counts[key] = counts.get(key, 0) + 1
        if counts[key] <= cap:
            kept.append((i, j, t, t2))
        else:
            overflow[key] = overflow.get(key, 0) + 1
    return kept, overflow


def reference_persistence(train, osc, deltas, cap):
    all_pairs, _ = reference_cap(reference_pairs(train, osc, deltas[-1]), cap)
    graphs = {}
    for delta in deltas:
        edges = []
        for i, j, t, t2 in all_pairs:
            if circular_distance(wrap_time(t, osc), wrap_time(t2, osc)) <= delta:
                edges.append((i, j))
        graphs[delta] = ChainComplex(list(range(train.neurons)), edges)
    return compute_barcode(window_filtration(graphs))


NEAR_PI = (math.nextafter(math.pi, 0.0), math.pi - 1e-9, 3.0)
# a coarse time grid gives tied spike times and phase distances that repeat exactly
TIMES = st.integers(0, 48).map(lambda k: k / 96) | st.floats(-1.0, 1.0)


@st.composite
def coincidence_inputs(draw):
    neurons = draw(st.integers(0, 4))
    spikes = []
    if neurons:
        spikes = draw(st.lists(st.tuples(st.integers(0, neurons - 1), TIMES), max_size=14))
    train = SpikeTrain(neurons, spikes)
    offset = draw(st.sampled_from([0.0]) | st.floats(-7.0, 7.0))
    osc = Oscillator(draw(st.sampled_from([8.0, 5.3])), offset)
    # windows placed exactly at a spike pair's phase distance hit the <= edge
    phases = [wrap_time(t, osc) for _, t in train.spikes]
    exact = sorted({circular_distance(a, b) for a in phases for b in phases} - {0.0})
    exact = [d for d in exact if d < math.pi]
    windows = st.floats(1e-3, math.pi, exclude_max=True) | st.sampled_from(NEAR_PI)
    if exact:
        windows = windows | st.sampled_from(exact)
    deltas = sorted(set(draw(st.lists(windows, min_size=1, max_size=5))))
    return train, osc, deltas, draw(st.integers(1, 3))


class TestOnePassOracle:
    @settings(max_examples=300, deadline=None)
    @given(coincidence_inputs())
    def test_matches_three_pass_reference(self, inputs):
        train, osc, deltas, cap = inputs
        for delta in deltas:
            window = CoincidenceWindow(delta)
            kept, overflow = reference_cap(reference_pairs(train, osc, delta), cap)
            edges = tuple((i, j) for i, j, _, _ in kept)
            assert coincide.build_coincidence_graph(train, osc, window, cap).edges == edges
            result = coincide.closed_part(train, osc, window, cap)
            assert result.graph.edges == edges
            assert list(result.multiplicity_overflow.items()) == list(overflow.items())
            graph = ChainComplex(list(range(train.neurons)), edges)
            aggregate = Chain1.from_dict({idx: 1 for idx in range(len(edges))})
            expected = chaincore.project_to_cycles(aggregate, graph)
            assert result.closed.coefficients == expected.coefficients
        barcode = coincide.coincidence_persistence(train, osc, deltas, cap)
        expected = reference_persistence(train, osc, deltas, cap)
        assert barcode.to_json_obj() == expected.to_json_obj()


# -- reference: trial invariance with pairwise multiplicity comparison --


def _edge_counts(graph):
    counts = {}
    for e in graph.edges:
        counts[e] = counts.get(e, 0) + 1
    return counts


def reference_trial_invariance(trials, osc, window, epsilon, cap):
    """Union of per-trial count dicts; ambiguous pairs from every ordered pair of trials."""
    results = [coincide.closed_part(t, osc, window, cap) for t in trials]
    per_trial = [_edge_counts(r.graph) for r in results]
    max_counts = {}
    for counts in per_trial:
        for e, c in counts.items():
            max_counts[e] = max(max_counts.get(e, 0), c)
    union_edges, slot = [], {}
    for e in sorted(max_counts):
        for occurrence in range(max_counts[e]):
            slot[(e, occurrence)] = len(union_edges)
            union_edges.append(e)
    union = ChainComplex(sorted({v for r in results for v in r.graph.vertices}), union_edges)
    classes = []
    for r in results:
        seen, mapping = {}, {}
        for idx, e in enumerate(r.graph.edges):
            mapping[idx] = slot[(e, seen.get(e, 0))]
            seen[e] = seen.get(e, 0) + 1
        embedded = Chain1.from_dict({mapping[idx]: c for idx, c in r.closed.coefficients})
        classes.append(chaincore.homology_class(embedded, union))
    ambiguous = set()
    for a in per_trial:
        for b in per_trial:
            for e in set(a) | set(b):
                if a.get(e, 0) != b.get(e, 0) and max(a.get(e, 0), b.get(e, 0)) > 1:
                    ambiguous.add(e)
    invariant = all(c == classes[0] for c in classes)
    return invariant, {
        "invariant": invariant,
        "epsilon": epsilon,
        "delta": window.delta,
        "per_trial_class": [[str(c) for c in cls.coordinates] for cls in classes],
        "ambiguous_parallel_pairs": [list(p) for p in sorted(ambiguous)],
        "multiplicity_overflow": [
            {f"{i}->{j}": n for (i, j), n in r.multiplicity_overflow.items()} for r in results
        ],
    }


@st.composite
def trial_inputs(draw):
    """A few trials on one neuron set; coarse times give parallel edges whose
    multiplicities differ from trial to trial."""
    neurons = draw(st.integers(2, 4))
    spike = st.tuples(st.integers(0, neurons - 1), st.integers(0, 24).map(lambda k: k / 96))
    trials = [SpikeTrain(neurons, draw(st.lists(spike, max_size=10)))
              for _ in range(draw(st.integers(1, 4)))]
    window = CoincidenceWindow(draw(st.floats(0.05, 3.0)))
    return trials, window, window.delta / 2, draw(st.integers(1, 3))


class TestTrialInvarianceOracle:
    @settings(max_examples=300, deadline=None)
    @given(trial_inputs())
    def test_matches_pairwise_reference(self, inputs):
        trials, window, epsilon, cap = inputs
        got = coincide.trial_invariance(trials, OSC, window, epsilon, cap)
        assert got == reference_trial_invariance(trials, OSC, window, epsilon, cap)
