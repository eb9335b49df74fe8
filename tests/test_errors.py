"""The shared input checks in ``cyclos.errors`` against their plain ABC definitions, and
the entry checks that turn a non-collection argument, or a ``nav`` point that is not a
pair of numbers within the float range, into a ``CyclosError``."""

import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cyclos import cech, coincide, ght, nav, phasecode
from cyclos.errors import CyclosError, is_finite, is_int


def reference_is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def reference_is_finite(x):
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # a real number that does not fit in a float
        return False


@pytest.mark.parametrize("x, integer, finite", [
    pytest.param(3, True, True, id="int"),
    pytest.param(-(2**70), True, True, id="big-int"),
    pytest.param(10**400, True, False, id="int-beyond-float"),
    pytest.param(Fraction(-(10**400), 3), False, False, id="fraction-beyond-float"),
    pytest.param(True, False, False, id="bool"),
    pytest.param(np.int64(3), True, True, id="numpy-int64"),
    pytest.param(np.bool_(True), False, False, id="numpy-bool"),
    pytest.param(2.5, False, True, id="float"),
    pytest.param(math.nan, False, False, id="nan"),
    pytest.param(math.inf, False, False, id="inf"),
    pytest.param(-math.inf, False, False, id="minus-inf"),
    pytest.param(np.float64(2.5), False, True, id="numpy-float64"),
    pytest.param(Fraction(1, 3), False, True, id="fraction"),
    pytest.param(Decimal("1.5"), False, False, id="decimal"),
    pytest.param("3", False, False, id="str"),
    pytest.param(None, False, False, id="none"),
])
def test_checks_match_their_abc_definitions(x, integer, finite):
    assert is_int(x) is reference_is_int(x) is integer
    assert is_finite(x) is reference_is_finite(x) is finite


TRAIN = coincide.SpikeTrain(2, [(0, 0.0), (1, 0.01)])
OSC = phasecode.Oscillator(8.0)
ACC = ght.Accumulator(ght.AccumulatorConfig((0.0, 1.0, 0.0, 1.0), (2, 2)), np.ones((2, 2)), 0)
WS = nav.Workspace((), (0.0, 0.0))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: coincide.coincidence_persistence(TRAIN, OSC, 5), id="coincide-deltas"),
    pytest.param(lambda: ght.peak_persistence(ACC, None), id="ght-thresholds"),
    pytest.param(lambda: cech.SheafData.build(None, {}), id="cech-sections"),
    pytest.param(lambda: cech.Pairing.build(None, {}), id="cech-open-forms"),
    pytest.param(lambda: cech.CosheafData.build([[1.0]], None), id="cech-extensions"),
    pytest.param(lambda: phasecode.winding_number(5), id="phasecode-phases"),
    pytest.param(lambda: nav.winding_vector(5, WS), id="nav-loop"),
])
def test_non_collection_arguments_raise_cyclos_errors(call):
    with pytest.raises(CyclosError, match="malformed"):
        call()


ONE_DISK = nav.Workspace((nav.Disk((5.0, 5.0), 1.0),), (0.0, 0.0))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: nav.Move(((0.0, 0.0), (10**400, 0.0))), "OverflowError", id="nav-move"),
    pytest.param(lambda: nav.check_feasible([(10**400, 0.0), (0.0, 0.0)], ONE_DISK),
                 "OverflowError", id="nav-check-feasible-start"),
    pytest.param(lambda: nav.check_feasible([(0.0, 0.0), (0.0, 10**400), (0.0, 0.0)], ONE_DISK),
                 "OverflowError", id="nav-check-feasible-middle"),
    pytest.param(lambda: nav.winding_vector([(0.0, 0.0), (10**400, 0.0), (0.0, 1.0), (0.0, 0.0)],
                                            ONE_DISK), "OverflowError", id="nav-winding-vector-middle"),
    pytest.param(lambda: nav.winding_vector([(0.0, 0.0), ("a", "b"), (0.0, 1.0), (0.0, 0.0)],
                                            ONE_DISK), "ValueError", id="nav-winding-vector-string"),
    pytest.param(lambda: nav.check_feasible([(0.0, 0.0, 0.0), (3.0, 0.0, 1.0)], ONE_DISK),
                 "ValueError", id="nav-check-feasible-three-coordinates"),
])
def test_nav_points_that_are_not_float_pairs_raise_cyclos_errors(call, match):
    with pytest.raises(CyclosError, match=match):
        call()
