"""Unit tests for multi-sinusoidal signal generation."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftfreq.errors import ConfigError
from ftfreq.signals import (GRID_TOL, HarmonicSpec, SampledTrace, ScheduleStep,
                            SignalSpec, UniformDisturbance, generate_trace,
                            sample_signal, sample_times, signal_values)

COS_PHASE = math.pi / 2


def two_tone():
    return SignalSpec(harmonics=(
        HarmonicSpec(1.0, 2.0, 0.0),
        HarmonicSpec(1.0, 3.0, COS_PHASE),
    ))


class TestSampleSignal:
    def test_sin_plus_cos_at_zero(self):
        # sin(0) = 0, cos(0) = 1
        assert sample_signal(two_tone(), 0.0) == 1.0

    def test_matches_two_sinusoid_reference(self):
        spec = two_tone()
        for k in range(200):
            t = 0.063 * k
            expected = math.sin(2 * t) + math.cos(3 * t)
            assert sample_signal(spec, t) == pytest.approx(expected, abs=1e-12)

    def test_quarter_period_peak(self):
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),))
        assert sample_signal(spec, math.pi / 4) == pytest.approx(1.0, abs=1e-15)

    def test_amplitude_bound(self):
        spec = SignalSpec(harmonics=(
            HarmonicSpec(1.3, 2.0, 0.4),
            HarmonicSpec(0.7, 3.1, 1.1),
            HarmonicSpec(2.1, 0.9, 5.0),
        ))
        total = 1.3 + 0.7 + 2.1
        for k in range(2000):
            assert abs(sample_signal(spec, 0.017 * k)) <= total

    def test_harmonic_disturbance_added(self):
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),),
                          disturbance=HarmonicSpec(0.25, 15.0, 0.0))
        t = 0.8
        expected = math.sin(2 * t) + 0.25 * math.sin(15 * t)
        assert sample_signal(spec, t) == pytest.approx(expected, abs=1e-12)


class TestSchedule:
    def spec(self):
        return SignalSpec(
            harmonics=(HarmonicSpec(1.0, 1.8, 0.0), HarmonicSpec(1.0, 3.2, COS_PHASE)),
            schedule=(ScheduleStep(30.0, (
                HarmonicSpec(1.0, 2.0, 0.0), HarmonicSpec(1.0, 3.0, COS_PHASE))),),
        )

    def test_frequencies_switch_at_scheduled_time(self):
        spec = self.spec()
        t_before, t_after = 29.5, 31.5
        before = math.sin(1.8 * t_before) + math.sin(3.2 * t_before + COS_PHASE)
        after = math.sin(2.0 * t_after) + math.sin(3.0 * t_after + COS_PHASE)
        assert sample_signal(spec, t_before) == pytest.approx(before, abs=1e-12)
        assert sample_signal(spec, t_after) == pytest.approx(after, abs=1e-12)

    def test_switch_time_closed_on_the_right(self):
        spec = self.spec()
        at_switch = math.sin(2.0 * 30.0) + math.sin(3.0 * 30.0 + COS_PHASE)
        assert sample_signal(spec, 30.0) == pytest.approx(at_switch, abs=1e-12)

    def test_switch_times_must_increase(self):
        replacement = (HarmonicSpec(1.0, 2.0, 0.0),)
        with pytest.raises(ConfigError):
            SignalSpec(harmonics=(HarmonicSpec(1.0, 1.0, 0.0),),
                       schedule=(ScheduleStep(10.0, replacement),
                                 ScheduleStep(10.0, replacement)))


class TestUniformNoise:
    def noisy(self, seed=123):
        return SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),),
                          disturbance=UniformDisturbance(0.2, 0.001, seed))

    def test_deterministic_bitwise(self):
        a = generate_trace(self.noisy(), 0.001, 2.0)
        b = generate_trace(self.noisy(), 0.001, 2.0)
        assert a.values == b.values

    def test_seed_changes_trace(self):
        a = generate_trace(self.noisy(seed=1), 0.001, 1.0)
        b = generate_trace(self.noisy(seed=2), 0.001, 1.0)
        assert a.values != b.values

    def test_noise_within_half_range(self):
        spec = self.noisy()
        clean = SignalSpec(harmonics=spec.harmonics)
        for k in range(5000):
            t = 0.001 * k
            assert abs(sample_signal(spec, t) - sample_signal(clean, t)) <= 0.2

    def test_piecewise_constant_between_noise_samples(self):
        # noise slots are 10 signal samples wide here
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),),
                          disturbance=UniformDisturbance(0.2, 0.01, 7))
        clean = SignalSpec(harmonics=spec.harmonics)
        noise = [sample_signal(spec, 0.001 * k) - sample_signal(clean, 0.001 * k)
                 for k in range(100)]
        for slot in range(10):
            values = {round(noise[slot * 10 + j], 15) for j in range(10)}
            assert len(values) == 1
        assert len({round(v, 15) for v in noise}) > 1

    @pytest.mark.parametrize("period, times, bad", [
        (1e-300, [0.0, 0.001, 0.002], 0.001),
        (1.0, [0.0, 2.0 ** 63], 2.0 ** 63),
        (0.001, [0.0, -1e300], -1e300),
        (0.001, [0.0, math.nan], math.nan),
    ], ids=["tiny-period", "at-2**63", "far-negative", "nan"])
    def test_a_slot_outside_the_int64_range_is_rejected(self, period, times, bad):
        # the int64 cast would turn such a slot into -2**63 with a warning, so
        # that the noise silently holds one value from there on
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),),
                          disturbance=UniformDisturbance(0.2, period, 7))
        message = f"noise sample_period {period} puts the noise slot of t = {bad} outside"
        with pytest.raises(ConfigError, match=re.escape(message)):
            signal_values(spec, times)

    def test_the_int64_range_ends_are_slots(self):
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),),
                          disturbance=UniformDisturbance(0.2, 1.0, 7))
        values = signal_values(spec, [-2.0 ** 63, 2.0 ** 63 - 1024.0])
        assert all(map(math.isfinite, values))


class TestGenerateTrace:
    def test_zero_duration_single_sample(self):
        trace = generate_trace(two_tone(), 0.001, 0.0)
        assert len(trace.values) == 1
        assert trace.values[0] == 1.0

    def test_length_and_grid(self):
        trace = generate_trace(two_tone(), 0.001, 2.0)
        assert len(trace.values) == 2001
        assert trace.values[100] == sample_signal(two_tone(), sample_times(0.001, 2.0)[100])
        assert sample_times(0.001, 2.0)[100] == pytest.approx(0.1, abs=1e-15)

    def test_values_match_pointwise_evaluation(self):
        spec = two_tone()
        trace = generate_trace(spec, 0.002, 1.0)
        for k in (0, 1, 250, 500):
            assert trace.values[k] == sample_signal(spec, k * 0.002)

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(ConfigError):
            generate_trace(two_tone(), float("nan"), 1.0)
        with pytest.raises(ConfigError):
            generate_trace(two_tone(), 0.001, float("inf"))
        with pytest.raises(ConfigError):
            generate_trace(two_tone(), -0.001, 1.0)


class TestSpecValidation:
    def test_rejects_empty_harmonics(self):
        with pytest.raises(ConfigError):
            SignalSpec(harmonics=())

    def test_rejects_duplicate_frequencies(self):
        with pytest.raises(ConfigError):
            SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),
                                  HarmonicSpec(0.5, 2.0, 1.0)))

    def test_rejects_non_positive_amplitude(self):
        with pytest.raises(ConfigError):
            HarmonicSpec(0.0, 2.0, 0.0)

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ConfigError):
            HarmonicSpec(1.0, -2.0, 0.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: HarmonicSpec(1.0, 2.0, math.nan), "harmonic phase must be finite, got nan"),
        (lambda: UniformDisturbance(0.0, 0.001, 1), "noise half_range must be positive"),
        (lambda: UniformDisturbance(0.2, math.inf, 1), "noise sample_period must be positive"),
        (lambda: SignalSpec(two_tone().harmonics, schedule=(ScheduleStep(1.0, ()),)),
         "schedule replacement harmonic set must be non-empty"),
    ], ids=["phase", "half-range", "noise-period", "empty-replacement"])
    def test_rejects_each_bad_field(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    def test_sampled_trace_time_origin(self):
        # a trace starts at t = 0: sample k is the signal at k * sample_period
        trace = generate_trace(two_tone(), 0.5, 1.0)
        assert trace == SampledTrace(sample_period=0.5, values=tuple(
            sample_signal(two_tone(), t) for t in (0.0, 0.5, 1.0)))


# ---------------------------------------------------------------------------
# the vectorized sampler against a one-point-at-a-time oracle

MASK64 = (1 << 64) - 1


def oracle(spec, t):
    """The signal at t evaluated one point at a time in Python floats and
    ints: the reference the sampler must match bit for bit."""
    active = spec.harmonics
    for step in spec.schedule:
        if t >= step.switch_time:
            active = step.harmonics
        else:
            break
    value = 0.0
    for h in active:
        value += h.amplitude * math.sin(h.frequency * t + h.phase)
    d = spec.disturbance
    if isinstance(d, HarmonicSpec):
        value += d.amplitude * math.sin(d.frequency * t + d.phase)
    elif isinstance(d, UniformDisturbance):
        index = math.floor(t / d.sample_period + GRID_TOL)
        z = (d.seed * 0x9E3779B97F4A7C15 + index * 0xD1B54A32D192ED03) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        u = ((z ^ (z >> 31)) >> 11) * 2.0 ** -53
        value += (2.0 * u - 1.0) * d.half_range
    return value


def same_bits(a, b):
    return type(a) is float and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


PERIODS = (0.001, 0.01, 0.013, 0.1)
harmonics = st.lists(
    st.builds(HarmonicSpec, st.floats(0.01, 10.0), st.floats(0.01, 50.0),
              st.floats(-10.0, 10.0)),
    min_size=1, max_size=8, unique_by=lambda h: h.frequency).map(tuple)
seeds = st.one_of(st.just(0), st.integers(-2**70, -1), st.integers(0, 2**64 - 1),
                  st.integers(2**64, 2**70))


@st.composite
def specs(draw):
    """1-8 harmonics, 0-3 switches on or off the grid of period, and no
    disturbance, a harmonic one or uniform noise of any seed."""
    period = draw(st.sampled_from(PERIODS))
    switch = st.one_of(st.integers(-10, 300).map(lambda k: k * period),
                       st.floats(-0.5, 3.0))
    times = sorted(set(draw(st.lists(switch, max_size=3))))
    schedule = tuple(ScheduleStep(t, draw(harmonics)) for t in times)
    noise = st.builds(UniformDisturbance, st.floats(1e-3, 1.0),
                      st.sampled_from((*PERIODS, 2 * period, 0.0037)), seeds)
    disturbance = draw(st.one_of(st.none(), harmonics.map(lambda hs: hs[0]), noise))
    return SignalSpec(draw(harmonics), disturbance, schedule), period


@settings(max_examples=100, deadline=None)
@given(specs(), st.integers(0, 300))
def test_trace_matches_the_pointwise_oracle(drawn, count):
    spec, period = drawn
    trace = generate_trace(spec, period, count * period)
    times = sample_times(period, count * period)
    assert len(trace.values) == len(times)
    for t, value in zip(times, trace.values):
        assert same_bits(value, oracle(spec, t)), (t, value, oracle(spec, t))


@settings(max_examples=150, deadline=None)
@given(specs(), st.floats(-1e4, 1e4))
def test_one_point_matches_the_oracle(drawn, t):
    # negative t reaches negative noise slots, which wrap modulo 2**64
    spec, _ = drawn
    assert same_bits(sample_signal(spec, t), oracle(spec, t))
