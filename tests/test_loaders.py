"""The JSON loaders and the constructors keep the error contract: bad input
raises a CyclosError."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cyclos import pngsim
from cyclos.chaincore import Chain1, ChainComplex
from cyclos.coincide import CoincidenceWindow, SpikeTrain, closed_part, coincidence_persistence
from cyclos.errors import CyclosError
from cyclos.ght import AccumulatorConfig, Feature, GazeTransform, ModelTable, accumulate
from cyclos.gridplace import GridCell, PlaceCellConfig, Trajectory2D, place_field_map
from cyclos.nav import Disk, Move, Workspace, compose_moves, order_invariance_check, winding_vector
from cyclos.persist import Bar, Barcode, Filtration
from cyclos.phasecode import Oscillator, winding_number, wrap_phase
from cyclos.pngsim import (
    DelayNetwork, STDPParams, Synapse, find_resonant_cycles, order_invariant_readout, simulate,
)

LOADERS = (
    Chain1.from_json_obj,
    ChainComplex.from_json_obj,
    Filtration.from_json_obj,
    Barcode.from_json_obj,
    SpikeTrain.from_json_obj,
    DelayNetwork.from_json_obj,
)
KEYS = ("vertices", "edges", "triangles", "steps", "bars", "neurons", "spikes", "synapses",
        "delta_ms", "0", "1")
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.sampled_from(["0", "1/3", "1/0", "nan", "inf", "abc", "vertex", "edge", "triangle"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), kids, max_size=3),
    max_leaves=16,
)
# rows of a few scalars, the shape of steps, bars, spikes, edges and triangles
ROWS = st.lists(st.lists(SCALARS, max_size=4), max_size=4)
DOCUMENTS = st.dictionaries(st.sampled_from(KEYS), JSON_VALUES | ROWS, max_size=4) | JSON_VALUES


class TestMalformedInput:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: Filtration.from_json_obj({}), id="filtration-no-steps"),
        pytest.param(lambda: Filtration.from_json_obj({"steps": [["abc", "vertex", 0]]}),
                     id="filtration-non-number-value"),
        pytest.param(lambda: Filtration.from_json_obj({"steps": [[0, "vertex"]]}),
                     id="filtration-two-element-step"),
        pytest.param(lambda: Filtration.from_json_obj({"steps": [[0, "vertex", []]]}),
                     id="filtration-empty-simplex"),
        pytest.param(lambda: Barcode.from_json_obj({}), id="barcode-no-bars"),
        pytest.param(lambda: Barcode.from_json_obj({"bars": [[0, "x", 1]]}),
                     id="barcode-non-number-birth"),
        pytest.param(lambda: Barcode.from_json_obj({"bars": [[0, "nan", 1]]}),
                     id="barcode-nan-birth"),
        pytest.param(lambda: Bar(0, 0.0, math.nan), id="bar-nan-death"),
        pytest.param(lambda: SpikeTrain.from_json_obj({"neurons": 2}), id="train-no-spikes"),
        pytest.param(lambda: SpikeTrain.from_json_obj({"neurons": "two", "spikes": []}),
                     id="train-non-number-count"),
        pytest.param(lambda: SpikeTrain.from_json_obj({"neurons": 2, "spikes": [[0]]}),
                     id="train-one-element-spike"),
        pytest.param(lambda: SpikeTrain.from_json_obj({"neurons": 2, "spikes": [[True, 0.0]]}),
                     id="train-json-bool-neuron"),
        pytest.param(lambda: SpikeTrain(2, [(True, 0.0)]), id="train-bool-neuron"),
        pytest.param(lambda: SpikeTrain(2, [(0.5, 0.0)]), id="train-fractional-neuron"),
        pytest.param(lambda: SpikeTrain(2, [(0, "x")]), id="train-string-time"),
        pytest.param(lambda: SpikeTrain(2, [(0,)]), id="train-one-element-spike-direct"),
        pytest.param(lambda: SpikeTrain(2, [(0, True)]), id="train-bool-time"),
        pytest.param(lambda: SpikeTrain.from_json_obj({"neurons": 2, "spikes": [[0, True]]}),
                     id="train-json-bool-time"),
        pytest.param(lambda: DelayNetwork.from_json_obj(
            {"neurons": 2.7, "synapses": [[0, 1, 0.5, 1.0]], "delta_ms": 1.0}),
            id="network-json-fractional-count"),
        pytest.param(lambda: DelayNetwork.from_json_obj(
            {"neurons": 2, "synapses": [[0.5, 1, 0.5, 1.0]], "delta_ms": 1.0}),
            id="network-json-fractional-synapse-id"),
        pytest.param(lambda: DelayNetwork.from_json_obj(
            {"neurons": 2, "synapses": [[0, 1, 0.5, 1.0]], "delta_ms": 1.0, "k": 1.9}),
            id="network-json-fractional-k"),
        pytest.param(lambda: DelayNetwork.from_json_obj(
            {"neurons": 2, "synapses": [[0, True, 0.5, 1.0]], "delta_ms": 1.0}),
            id="network-json-bool-synapse-id"),
        pytest.param(lambda: Synapse(0, 1.0, 0.5, 1.0), id="synapse-float-id"),
        pytest.param(lambda: DelayNetwork(2.0, (), delta=1.0), id="network-float-count"),
        pytest.param(lambda: DelayNetwork(2, (), delta=1.0, k=1.5), id="network-fractional-k"),
    ])
    def test_rejected_with_cyclos_error(self, build):
        with pytest.raises(CyclosError):
            build()

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(LOADERS), DOCUMENTS)
    def test_only_cyclos_errors_escape(self, loader, obj):
        try:
            loader(obj)
        except CyclosError:
            pass


class TestAcceptedInput:
    def test_spike_train_json_round_trip(self):
        train = SpikeTrain.from_json_obj({"neurons": 2, "spikes": [[1, 1], [0, 0.5]]})
        assert train == SpikeTrain(2, [(0, 0.5), (1, 1.0)])
        assert train.spikes == ((0, 0.5), (1, 1.0))
        assert all(type(t) is float for _, t in train.spikes)

    def test_move_points_may_be_non_finite(self):
        # check_feasible's exact test, not the constructor, handles them
        assert Move(((math.nan, 0.0), (math.inf, -math.inf))).path[1] == (math.inf, -math.inf)

    def test_delay_network_json_with_integer_ids(self):
        obj = {"neurons": 2, "synapses": [[0, 1, 0.5, 1]], "delta_ms": 1, "k": 1}
        net = DelayNetwork.from_json_obj(obj)
        assert (net.neuron_count, net.k, net.synapses) == (2, 1, (Synapse(0, 1, 0.5, 1.0),))


class TestConstructors:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: ChainComplex([0], [(0,)]), id="complex-one-element-edge"),
        pytest.param(lambda: ChainComplex([0, 1, 2], [(0, 1, 2)]),
                     id="complex-three-element-edge"),
        pytest.param(lambda: ChainComplex([0, 1, 2], [(0, 1), (1, 2), (2, 0)], [(0, 1)]),
                     id="complex-two-element-triangle"),
        pytest.param(lambda: Chain1.from_dict({1.5: 1}), id="chain-fractional-index"),
        pytest.param(lambda: Chain1.from_dict({True: 1}), id="chain-bool-index"),
        pytest.param(lambda: Chain1.from_dict({"1": 1}), id="chain-string-index"),
        pytest.param(lambda: Oscillator(math.nan), id="oscillator-nan-frequency"),
        pytest.param(lambda: Oscillator(math.inf), id="oscillator-inf-frequency"),
        pytest.param(lambda: Oscillator(8.0, math.nan), id="oscillator-nan-offset"),
        pytest.param(lambda: Oscillator(8.0, -math.inf), id="oscillator-inf-offset"),
    ])
    def test_rejected_with_cyclos_error(self, build):
        with pytest.raises(CyclosError):
            build()


TRIANGLE_EDGES = [(0, 1), (1, 2), (2, 0)]


def two_cycle(delay=2.0, **params):
    """Neurons 0 and 1 joined both ways: one resonant cycle of 2 * delay ms."""
    synapses = (Synapse(0, 1, 0.9, delay), Synapse(1, 0, 0.9, delay))
    return DelayNetwork(2, synapses, **{"delta": 1.0, **params})


def resonant_cycles(t_theta):
    return find_resonant_cycles(two_cycle(), t_theta, delta=0.5, tau_gain=0.1, max_len=2)


def homing_orderings(orderings):
    """Order invariance of one closed move at the base of an empty workspace."""
    lap = Move(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)))
    return order_invariance_check([lap], orderings, Workspace((), (0.0, 0.0)))


def stripe_field(region, resolution):
    """The place-field map of one grid cell."""
    return place_field_map(PlaceCellConfig((1.0,), 0.5), [GridCell((2 * math.pi, 0.0))],
                           Oscillator(8.0), region, resolution)


class TestErrorContract:
    """Each row used to raise KeyError, IndexError, TypeError, ValueError,
    ZeroDivisionError, OverflowError or AttributeError, or to pass silently,
    instead of raising a CyclosError."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: Oscillator("8"), id="oscillator-string-frequency"),
        pytest.param(lambda: Oscillator(True), id="oscillator-bool-frequency"),
        pytest.param(lambda: Oscillator(8.0, "0"), id="oscillator-string-offset"),
        pytest.param(lambda: Oscillator(10**400), id="oscillator-huge-int-frequency"),
        pytest.param(lambda: Oscillator(8.0, 10**400), id="oscillator-huge-int-offset"),
        pytest.param(lambda: ChainComplex([[0]]), id="complex-list-vertex"),
        pytest.param(lambda: ChainComplex([0, 1], [([0], 1)]), id="complex-list-endpoint"),
        pytest.param(lambda: ChainComplex([0, 1, 2], TRIANGLE_EDGES, [([0], 1, 2)]),
                     id="complex-list-triangle-vertex"),
        pytest.param(lambda: two_cycle(delay=math.nan), id="network-nan-delay"),
        pytest.param(lambda: two_cycle(delay="2"), id="network-string-delay"),
        pytest.param(lambda: two_cycle(delta=math.nan), id="network-nan-window"),
        pytest.param(lambda: two_cycle(refractory=math.nan), id="network-nan-refractory"),
        pytest.param(lambda: resonant_cycles(0.0), id="resonance-zero-period"),
        pytest.param(lambda: resonant_cycles(math.nan), id="resonance-nan-period"),
        pytest.param(lambda: resonant_cycles(-4.0), id="resonance-negative-period"),
        pytest.param(lambda: resonant_cycles(math.inf), id="resonance-inf-period"),
        pytest.param(lambda: find_resonant_cycles(two_cycle(), 4.0, 0.5, 0.1, 2.5),
                     id="resonance-fractional-max-len"),
        pytest.param(lambda: pngsim.test_reentry(two_cycle(), resonant_cycles(4.0)[0], 1.5),
                     id="reentry-fractional-periods"),
        pytest.param(lambda: Workspace.from_json_obj({"obstacles": []}),
                     id="workspace-json-no-base"),
        pytest.param(lambda: Workspace((), (math.nan, 0.0)), id="workspace-nan-base"),
        pytest.param(lambda: Workspace((), ("a", "b")), id="workspace-string-base"),
        pytest.param(lambda: Move(((0.0, 0.0), ("a", "b"))), id="move-string-point"),
        pytest.param(lambda: Move(((0.0, 0.0), (1.0, 0.0, 2.0))), id="move-three-coordinate-point"),
        pytest.param(lambda: homing_orderings([[0], [5]]), id="ordering-index-out-of-range"),
        pytest.param(lambda: homing_orderings([[0], [-1]]), id="ordering-negative-index"),
        pytest.param(lambda: homing_orderings([3]), id="ordering-not-a-sequence"),
        pytest.param(lambda: Disk((0.0, 0.0, 0.0), 1.0), id="disk-three-coordinate-center"),
        pytest.param(lambda: Workspace(None, (0.0, 0.0)), id="workspace-no-obstacles"),
        pytest.param(lambda: Workspace((1,), (0.0, 0.0)), id="workspace-number-obstacle"),
        pytest.param(lambda: Workspace({Disk((0.0, 0.0), 1.0)}, (5.0, 5.0)),
                     id="workspace-set-of-obstacles"),
        pytest.param(lambda: stripe_field((0.0, 1.0, 0.0, 1.0), (8.5, 8)),
                     id="place-field-fractional-resolution"),
        pytest.param(lambda: stripe_field((1.0, 0.0, 0.0, 1.0), (8, 8)),
                     id="place-field-inverted-region"),
        pytest.param(lambda: stripe_field((0.0, 1.0, 0.5, 0.5), (8, 8)),
                     id="place-field-zero-height-region"),
        pytest.param(lambda: simulate(two_cycle(), [(0,)], 20.0),
                     id="simulate-one-element-stimulus"),
        pytest.param(lambda: simulate(two_cycle(), [(0, 0.0), (1, "x")], 20.0),
                     id="simulate-string-time"),
        pytest.param(lambda: order_invariant_readout(two_cycle(), [[0.0]], 0.5),
                     id="readout-float-synapse-index"),
        pytest.param(lambda: order_invariant_readout(two_cycle(), [[0]], -0.5),
                     id="readout-negative-span"),
        pytest.param(lambda: order_invariant_readout(two_cycle(), [1], 0.5),
                     id="readout-route-not-a-sequence"),
        pytest.param(lambda: DelayNetwork(2, (Synapse(0, 1, "x", 1.0),), 1.0),
                     id="network-string-weight"),
        pytest.param(lambda: DelayNetwork(2, (), 1.0, w_max=0.0), id="network-zero-w-max"),
        pytest.param(lambda: DelayNetwork(2, (), 1.0, w_max=-1.0), id="network-negative-w-max"),
        pytest.param(lambda: DelayNetwork(2, 5, 1.0), id="network-synapses-not-iterable"),
        pytest.param(lambda: AccumulatorConfig((0.0, 1.0, 0.0, 1.0), (4,)),
                     id="accumulator-one-size-shape"),
        pytest.param(lambda: AccumulatorConfig((0.0, 1.0, 0.0), (4, 4)),
                     id="accumulator-three-bound-extent"),
        pytest.param(lambda: GridCell((math.nan, 1.0)), id="grid-cell-nan-wavevector"),
        pytest.param(lambda: GridCell(("a", 1.0)), id="grid-cell-string-wavevector"),
        pytest.param(lambda: PlaceCellConfig((1.0, math.nan), 0.1), id="place-config-nan-weight"),
        pytest.param(lambda: PlaceCellConfig((1.0,), math.nan), id="place-config-nan-threshold"),
        pytest.param(lambda: Trajectory2D(((0.0, (0.0, 0.0)), (math.nan, (1.0, 0.0)))),
                     id="trajectory-nan-time"),
        pytest.param(lambda: Trajectory2D(((0.0, (0.0,)),)), id="trajectory-one-coordinate"),
        pytest.param(lambda: Trajectory2D(((0.0, 0.0),)), id="trajectory-number-position"),
        pytest.param(lambda: PlaceCellConfig((1.0,), 0.1, delta="x"),
                     id="place-config-string-delta"),
        pytest.param(lambda: PlaceCellConfig(None, 0.1), id="place-config-no-weights"),
        pytest.param(lambda: AccumulatorConfig((0.0, 1.0, 0.0, 1.0), (2.5, 2)),
                     id="accumulator-fractional-shape"),
        pytest.param(lambda: winding_number(["a", "b"]), id="winding-string-phases"),
    ])
    def test_rejected_with_cyclos_error(self, build):
        with pytest.raises(CyclosError):
            build()


HUGE_TIMES = SpikeTrain(2, [(0, 1e300), (1, 1e300)])  # times a 1e10 Hz phase overflows


def homing_from_base(*paths):
    """The composed path of moves along `paths` in an empty workspace based at the origin."""
    return compose_moves([Move(path) for path in paths], Workspace((), (0.0, 0.0)))


def nan_vote():
    config = AccumulatorConfig((0.0, 10.0, 0.0, 10.0), (4, 4))
    feature = Feature((math.nan, 1.0), 0.0, 0)
    return accumulate([(GazeTransform(), [feature])], ModelTable({0: (0.0, 0.0)}), config)


class TestNonFiniteInputs:
    """Each row used to raise ValueError, TypeError, IndexError or OverflowError,
    or to pass silently with a wrong result, instead of raising a CyclosError."""

    @pytest.mark.parametrize("build", [
        pytest.param(nan_vote, id="accumulate-nan-feature"),
        pytest.param(lambda: AccumulatorConfig((0.0, 1.0, 0.0, 1.0), (4, 4), "gaussian",
                                               math.nan), id="accumulator-nan-bandwidth"),
        pytest.param(lambda: AccumulatorConfig((0.0, 1.0, 0.0, 1.0), (4, 4), "delta",
                                               math.nan), id="accumulator-nan-delta-bandwidth"),
        pytest.param(lambda: AccumulatorConfig((math.nan, 1.0, 0.0, 1.0), (4, 4)),
                     id="accumulator-nan-extent"),
        pytest.param(lambda: AccumulatorConfig((0.0, math.inf, 0.0, 1.0), (4, 4)),
                     id="accumulator-inf-extent"),
        pytest.param(lambda: winding_number([0.0, math.nan, 0.0]),
                     id="winding-nan-phase"),
        pytest.param(lambda: winding_number([0.0, 1.0, math.inf, 0.0]),
                     id="winding-inf-phase"),
        pytest.param(lambda: Trajectory2D(()).t_start, id="trajectory-empty"),
        pytest.param(lambda: Trajectory2D(((0.0, (0.0, 0.0)), (1.0, (math.nan, 0.0)))),
                     id="trajectory-nan-position"),
        pytest.param(lambda: Trajectory2D(((0.0, (0.0, 0.0)), (1.0, (0.0, math.inf)))),
                     id="trajectory-inf-position"),
        pytest.param(lambda: Disk((math.nan, 0.0), 1.0), id="disk-nan-center"),
        pytest.param(lambda: Disk((0.0, math.inf), 1.0), id="disk-inf-center"),
        pytest.param(lambda: Disk((0.0, 0.0), math.nan), id="disk-nan-radius"),
        pytest.param(lambda: two_cycle(threshold=math.nan), id="network-nan-threshold"),
        pytest.param(lambda: two_cycle(refractory=math.inf), id="network-inf-refractory"),
        pytest.param(lambda: find_resonant_cycles(two_cycle(), 4.0, math.nan, 0.1, 2),
                     id="resonance-nan-delta"),
        pytest.param(lambda: find_resonant_cycles(two_cycle(), 4.0, 0.5, math.nan, 2),
                     id="resonance-nan-gain"),
        pytest.param(lambda: simulate(two_cycle(), [(0, math.nan)], 20.0),
                     id="simulate-nan-stimulus"),
        pytest.param(lambda: simulate(two_cycle(), [(0, 0.0)], math.nan),
                     id="simulate-nan-horizon"),
        pytest.param(lambda: simulate(two_cycle(), [(0.5, 0.0)], 20.0),
                     id="simulate-fractional-neuron"),
        pytest.param(lambda: STDPParams(math.nan, 0.1, 10.0, 10.0), id="stdp-nan-a-plus"),
        pytest.param(lambda: STDPParams(math.inf, 0.1, 10.0, 10.0), id="stdp-inf-a-plus"),
        pytest.param(lambda: STDPParams(0.1, math.nan, 10.0, 10.0), id="stdp-nan-a-minus"),
        pytest.param(lambda: STDPParams(0.1, 0.1, math.nan, 10.0), id="stdp-nan-tau-plus"),
        pytest.param(lambda: STDPParams(0.1, 0.1, 10.0, math.inf), id="stdp-inf-tau-minus"),
        pytest.param(lambda: DelayNetwork(2, (), 1.0, w_max=math.nan), id="network-nan-w-max"),
        pytest.param(lambda: DelayNetwork(2, (), 1.0, w_max=math.inf), id="network-inf-w-max"),
        pytest.param(lambda: DelayNetwork(2, (), math.inf), id="network-inf-window"),
        pytest.param(lambda: stripe_field((math.nan, 1.0, 0.0, 1.0), (8, 8)),
                     id="place-field-nan-region"),
        pytest.param(lambda: stripe_field((0.0, math.inf, 0.0, 1.0), (8, 8)),
                     id="place-field-inf-region"),
        pytest.param(lambda: homing_from_base(((math.nan, 0.0), (0.0, 0.0))),
                     id="compose-nan-first-start"),
        pytest.param(lambda: homing_from_base(((0.0, 0.0), (math.nan, 0.0)),
                                              ((0.0, 0.0), (0.0, 0.0))),
                     id="compose-nan-junction"),
        pytest.param(lambda: homing_from_base(((0.0, 0.0), (1.0, 0.0), (math.nan, 0.0))),
                     id="compose-nan-return-to-base"),
        pytest.param(lambda: winding_vector([(math.nan, 0.0), (1.0, 0.0), (0.0, 1.0)],
                                            Workspace((), (0.0, 0.0))),
                     id="winding-vector-nan-loop-end"),
        pytest.param(lambda: wrap_phase(math.inf), id="wrap-phase-inf"),
        pytest.param(lambda: wrap_phase(math.nan), id="wrap-phase-nan"),
        pytest.param(lambda: closed_part(HUGE_TIMES, Oscillator(1e10), CoincidenceWindow(0.5)),
                     id="closed-part-overflowed-phase"),
        pytest.param(lambda: coincidence_persistence(HUGE_TIMES, Oscillator(1e10), [0.5]),
                     id="persistence-overflowed-phase"),
        pytest.param(lambda: place_field_map(PlaceCellConfig((1.0,), 0.5), [GridCell((1e300, 0.0))],
                                             Oscillator(8.0), (0.0, 1e10, 0.0, 1.0), (8, 8)),
                     id="place-field-overflowed-phase"),
    ])
    def test_rejected_with_cyclos_error(self, build):
        with pytest.raises(CyclosError):
            build()
