"""The measurement window as a tapped delay line.

Pipeline keeps the samples since the last clear and reads every delay from
them with regression_at, on the rows of the next d seconds at once
(mixing.mix_rows). For n = 1 at epsilon = 1 its
delta is exactly 2 y(k - steps_h - steps_d), one tap of that window, from the
first warm sample k = 2 steps_h + steps_d on (a cold sample reports 0.0), so
the delay-operator semantics show in the public outputs.
"""

import math

import pytest

from conftest import window_at
from ftfreq.errors import ConfigError
from ftfreq.estimator import EstimatorSettings
from ftfreq.mixing import DremConfig
from ftfreq.pipeline import Pipeline
from ftfreq.regression import ModelConfig, delay_table, regression_at

PERIOD = 0.001


def one_tone(steps_h, steps_d, sample_period=PERIOD):
    """n = 1 session whose delta is 2 y(k - steps_h - steps_d) from sample
    2 steps_h + steps_d on, and 0.0 before; it never extracts."""
    model = ModelConfig(n=1, h=steps_h * PERIOD, omega_min=0.5, omega_max=5.0)
    return Pipeline(model, DremConfig(d=steps_d * PERIOD, epsilon=1.0),
                    EstimatorSettings(gamma=(1.0,), omega0=(2.0,), t_ft=1e6), sample_period)


def deltas(pipeline, values, first=0):
    return [pipeline.step((first + k) * PERIOD, y).delta for k, y in enumerate(values)]


class TestPushTap:
    def test_zero_pre_history(self):
        # warm from sample 5, where the tap h + d = 4 back holds sample 1
        assert deltas(one_tone(1, 3), [0.0, 1.0] + [0.0] * 5) == [0.0] * 5 + [2.0, 0.0]
        taps = delay_table(ModelConfig(n=1, h=PERIOD, omega_min=0.5, omega_max=5.0),
                           PERIOD, PERIOD)
        window = window_at([1.0], 0, taps.warm_from + 1)
        assert regression_at(window, taps) == (1.0, (0.0,))

    def test_shift_order(self):
        assert deltas(one_tone(1, 1), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == [0.0, 0.0, 0.0,
                                                                          4.0, 6.0, 8.0]

    def test_deep_tap_before_enough_pushes(self):
        # the tap h + d = 10 back first counts at the first warm sample,
        # 2h + d = 14, and reads sample 4 there
        pipeline = one_tone(4, 6)
        assert deltas(pipeline, [5.0, 6.0] * 7) == [0.0] * 14
        assert deltas(pipeline, [7.0, 8.0], first=14) == [10.0, 12.0]

    def test_wraparound_keeps_serving_taps(self):
        pipeline = one_tone(1, 2)  # a window of warm_from + 1 = 5 samples
        assert pipeline.taps.warm_from == 4
        for k, delta in enumerate(deltas(pipeline, [float(k) for k in range(50)])):
            assert delta == (2.0 * (k - 3) if k >= 3 else 0.0)

    def test_tap_bounds_checked(self):
        taps = delay_table(ModelConfig(n=2, h=2 * PERIOD, omega_min=0.5, omega_max=5.0),
                           3 * PERIOD, PERIOD)
        window = [1.0] * (taps.warm_from + 1)
        regression_at(window, taps, taps.rows[-1])
        with pytest.raises(IndexError):
            regression_at(window, taps, taps.rows[-1] + 1)
        with pytest.raises(ValueError):
            regression_at(window, taps, -1)

    def test_clear_restores_zero_history(self):
        pipeline = one_tone(1, 1)
        deltas(pipeline, [1.0, 2.0, 3.0, 4.0])
        pipeline.reset()
        assert deltas(pipeline, [5.0, 6.0, 7.0, 8.0], first=4) == [0.0, 0.0, 0.0, 12.0]

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigError):
            one_tone(1, 1.5)  # d between grid points
        for sample_period in (0.0, -PERIOD, math.nan):
            with pytest.raises(ConfigError):
                one_tone(1, 1, sample_period)


class TestOperatorSemantics:
    def test_sine_tap_matches_shifted_grid_evaluation(self):
        # the tap h + d back on a sampled sinusoid returns exactly the trace
        # value at the shifted grid point
        steps, warm = 100 + 30, 2 * 100 + 30
        values = [math.sin(2.0 * (k * PERIOD) + 0.3) for k in range(400)]
        for k, delta in enumerate(deltas(one_tone(100, 30), values)):
            assert delta == (2.0 * values[k - steps] if k >= warm else 0.0)

    def test_composition_of_delays(self):
        # a delay of h then d equals d then h: both are one delay of h + d,
        # on the samples warm in both (2h + d is 11 and 13)
        values = [math.sin(0.37 * k) + 0.1 * k for k in range(60)]
        first = deltas(one_tone(3, 5), values)
        second = deltas(one_tone(5, 3), values)
        assert first[13:] == second[13:]
        assert first == [2.0 * values[k - 8] if k >= 11 else 0.0 for k in range(60)]
        assert second == [2.0 * values[k - 8] if k >= 13 else 0.0 for k in range(60)]

    def test_linearity(self):
        alpha, beta = 1.7, -0.6
        xs = [math.sin(0.41 * k) for k in range(40)]
        ys = [math.cos(0.23 * k) for k in range(40)]
        combined = deltas(one_tone(2, 4), [alpha * x + beta * y for x, y in zip(xs, ys)])
        separate = zip(deltas(one_tone(2, 4), xs), deltas(one_tone(2, 4), ys))
        assert combined == [alpha * dx + beta * dy for dx, dy in separate]
        taps = delay_table(ModelConfig(n=3, h=2 * PERIOD, omega_min=0.5, omega_max=5.0),
                           PERIOD, PERIOD)
        wx = window_at(xs, 39, taps.warm_from + 1)
        wy = window_at(ys, 39, taps.warm_from + 1)
        wc = [alpha * x + beta * y for x, y in zip(wx, wy)]
        (px, fx), (py, fy), (pc, fc) = (regression_at(w, taps) for w in (wx, wy, wc))
        assert pc == pytest.approx(alpha * px + beta * py, rel=1e-12, abs=1e-12)
        assert fc == pytest.approx([alpha * a + beta * b for a, b in zip(fx, fy)],
                                   rel=1e-12, abs=1e-12)
