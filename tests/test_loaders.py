"""The JSON loaders and the constructors keep the error contract: bad input
raises a CyclosError."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cyclos.chaincore import Chain1, ChainComplex
from cyclos.coincide import SpikeTrain
from cyclos.errors import CyclosError
from cyclos.persist import Bar, Barcode, Filtration
from cyclos.phasecode import Oscillator

LOADERS = (
    Chain1.from_json_obj,
    ChainComplex.from_json_obj,
    Filtration.from_json_obj,
    Barcode.from_json_obj,
    SpikeTrain.from_json_obj,
)
KEYS = ("vertices", "edges", "triangles", "steps", "bars", "neurons", "spikes", "0", "1")
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
