import math

import pytest
from hypothesis import given, strategies as st

from cyclos import phasecode
from cyclos.errors import ClosureError, UnwrapError
from cyclos.phasecode import Oscillator

TWO_PI = 2 * math.pi


class TestWrapTime:
    def test_zero(self):
        assert phasecode.wrap_time(0.0, Oscillator(4.0)) == 0.0

    def test_full_period_at_theta_band_edge(self):
        # 8 Hz, t = one period = 0.125 s -> phase back to 0
        assert phasecode.wrap_time(0.125, Oscillator(8.0)) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period(self):
        assert phasecode.wrap_time(0.03125, Oscillator(8.0)) == pytest.approx(math.pi / 2)

    @given(
        st.floats(-50.0, 50.0),
        st.floats(0.5, 40.0),
        st.floats(0.0, TWO_PI),
    )
    def test_periodicity(self, t, freq, offset):
        osc = Oscillator(freq, offset)
        a = phasecode.wrap_time(t, osc)
        b = phasecode.wrap_time(t + osc.period, osc)
        assert phasecode.circular_distance(a, b) < 1e-9

    def test_result_in_range(self):
        for t in (-3.7, -0.1, 0.0, 0.9, 123.4):
            phase = phasecode.wrap_time(t, Oscillator(7.3, 1.2))
            assert 0.0 <= phase < TWO_PI

    def test_tiny_negative_phase_wraps_to_zero(self):
        # -1e-300 + 2*pi rounds to 2*pi, which lies outside [0, 2*pi)
        assert phasecode.wrap_phase(-1e-300) == 0.0
        assert phasecode.wrap_time(-1e-300 / TWO_PI, Oscillator(1.0)) == 0.0


class TestWindingNumber:
    def test_ccw_lap(self):
        phases = [i * TWO_PI / 8 % TWO_PI for i in range(9)]
        assert phasecode.winding_number(phases) == 1

    def test_cw_lap(self):
        phases = [(-i * TWO_PI / 8) % TWO_PI for i in range(9)]
        assert phasecode.winding_number(phases) == -1

    def test_double_speed_modular_jumps(self):
        # jumps of k=2 bins over L=12 steps return to start with winding 2
        length = 12
        phases = [(2 * i * TWO_PI / length) % TWO_PI for i in range(length + 1)]
        assert phasecode.winding_number(phases) == 2

    def test_ambiguous_gap_rejected(self):
        with pytest.raises(UnwrapError):
            phasecode.winding_number([0.0, math.pi, 0.0])

    def test_open_input_with_closed_flag_rejected(self):
        with pytest.raises(ClosureError):
            phasecode.winding_number([0.0, 1.0, 2.0])

    @given(st.integers(-3, 3), st.integers(8, 40))
    def test_winding_matches_construction(self, k, n_steps):
        # need |k| * 2pi / n < pi for unambiguous unwrapping
        if 2 * abs(k) >= n_steps:
            return
        phases = [(k * i * TWO_PI / n_steps) % TWO_PI for i in range(n_steps + 1)]
        assert phasecode.winding_number(phases) == k

    def test_concatenation_additivity_and_reversal(self):
        lap = [i * TWO_PI / 8 % TWO_PI for i in range(9)]
        double = lap + lap[1:]
        assert phasecode.winding_number(double) == 2
        assert phasecode.winding_number(list(reversed(lap))) == -1


class TestTorusWinding:
    """Each coordinate of a closed (theta, gamma) path winds on its own circle."""

    def test_gamma_nested_in_theta(self):
        # 40 Hz gamma inside 8 Hz theta over one theta period: 5 gamma laps, 1 theta lap
        theta, gamma = Oscillator(8.0), Oscillator(40.0)
        times = [i * theta.period / 256 for i in range(257)]
        assert phasecode.winding_number([phasecode.wrap_time(t, gamma) for t in times]) == 5
        assert phasecode.winding_number([phasecode.wrap_time(t, theta) for t in times]) == 1

    def test_constant_point(self):
        assert phasecode.winding_number([1.0] * 5) == 0
        assert phasecode.winding_number([2.0] * 5) == 0

    def test_theta_only_lap(self):
        thetas = [i * TWO_PI / 8 % TWO_PI for i in range(9)]
        assert phasecode.winding_number([0.5] * 9) == 0
        assert phasecode.winding_number(thetas) == 1
