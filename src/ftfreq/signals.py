"""Multi-sinusoidal test signal generation.

A signal is a sum of sinusoids A_i * sin(w_i * t + p_i) with pairwise
distinct frequencies, optionally disturbed by an extra harmonic or by
piecewise-constant uniform noise, and optionally switching to replacement
harmonic sets at scheduled times (step-wise frequency variation).

Everything here is a pure function of the spec and the query time, so the
same spec and seed always reproduce the same trace, bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

_MASK64 = (1 << 64) - 1

GRID_TOL = 1e-9  # slack for float times that land a hair off the uniform grid


def _mix64(seed: int, index: int) -> int:
    # splitmix64-style avalanche over a (seed, counter) pair; splittable and
    # random-access, which a stateful generator is not.
    z = (seed * 0x9E3779B97F4A7C15 + index * 0xD1B54A32D192ED03) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def uniform_noise_value(seed: int, index: int, half_range: float) -> float:
    """Deterministic uniform draw in [-half_range, half_range) for one noise slot."""
    u = (_mix64(seed, index) >> 11) * 2.0 ** -53
    return (2.0 * u - 1.0) * half_range


@dataclass(frozen=True)
class HarmonicSpec:
    """One sinusoidal component: amplitude * sin(frequency * t + phase)."""

    amplitude: float
    frequency: float  # rad/s
    phase: float = 0.0  # rad

    def __post_init__(self):
        bad = []
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            bad.append(f"harmonic amplitude must be positive, got {self.amplitude}")
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            bad.append(f"harmonic frequency must be positive, got {self.frequency}")
        if not math.isfinite(self.phase):
            bad.append(f"harmonic phase must be finite, got {self.phase}")
        if bad:
            raise ConfigError(bad)


@dataclass(frozen=True)
class HarmonicDisturbance:
    """Additive deterministic sinusoidal disturbance."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.frequency)
                and math.isfinite(self.phase)):
            raise ConfigError("harmonic disturbance parameters must be finite")


@dataclass(frozen=True)
class UniformDisturbance:
    """Additive uniform noise, held piecewise-constant between its own samples.

    A fresh value in [-half_range, half_range) is drawn for each noise slot
    of length sample_period and held for the whole slot.
    """

    half_range: float
    sample_period: float
    seed: int

    def __post_init__(self):
        bad = []
        if not (math.isfinite(self.half_range) and self.half_range > 0):
            bad.append(f"noise half_range must be positive, got {self.half_range}")
        if not (math.isfinite(self.sample_period) and self.sample_period > 0):
            bad.append(f"noise sample_period must be positive, got {self.sample_period}")
        if bad:
            raise ConfigError(bad)

    def value(self, t: float) -> float:
        # Nudge guards against t/p landing a hair below an integer slot edge.
        index = math.floor(t / self.sample_period + GRID_TOL)
        return uniform_noise_value(self.seed, index, self.half_range)


@dataclass(frozen=True)
class ScheduleStep:
    """Replacement harmonic set that takes effect at switch_time (inclusive)."""

    switch_time: float
    harmonics: tuple[HarmonicSpec, ...]


def _check_distinct(harmonics, label):
    freqs = [h.frequency for h in harmonics]
    if len(set(freqs)) != len(freqs):
        raise ConfigError(f"{label}: harmonic frequencies must be pairwise distinct, got {freqs}")


@dataclass(frozen=True)
class SignalSpec:
    """Full description of the measured signal.

    Args:
        harmonics: initial (non-empty) set of sinusoidal components.
        disturbance: optional additive disturbance.
        schedule: optional switch times with replacement harmonic sets,
            strictly increasing; at exactly a switch time the new set applies.
    """

    harmonics: tuple[HarmonicSpec, ...]
    disturbance: HarmonicDisturbance | UniformDisturbance | None = None
    schedule: tuple[ScheduleStep, ...] = field(default=())

    def __post_init__(self):
        if not self.harmonics:
            raise ConfigError("signal must contain at least one harmonic")
        _check_distinct(self.harmonics, "signal")
        times = [s.switch_time for s in self.schedule]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(f"schedule switch times must be strictly increasing, got {times}")
        for step in self.schedule:
            if not step.harmonics:
                raise ConfigError("schedule replacement harmonic set must be non-empty")
            _check_distinct(step.harmonics, f"schedule t={step.switch_time}")

    def harmonics_at(self, t: float) -> tuple[HarmonicSpec, ...]:
        """Harmonic set active at time t (closed on the right at switches)."""
        active = self.harmonics
        for step in self.schedule:
            if t >= step.switch_time:
                active = step.harmonics
            else:
                break
        return active

    @property
    def seed(self) -> int | None:
        if isinstance(self.disturbance, UniformDisturbance):
            return self.disturbance.seed
        return None


@dataclass(frozen=True)
class SampledTrace:
    """Signal values on the grid sample_times(sample_period, duration)."""

    sample_period: float
    values: tuple[float, ...]


def sample_signal(spec: SignalSpec, t: float) -> float:
    """Evaluate the signal (active harmonics plus disturbance) at time t."""
    value = 0.0
    for h in spec.harmonics_at(t):
        value += h.amplitude * math.sin(h.frequency * t + h.phase)
    d = spec.disturbance
    if isinstance(d, HarmonicDisturbance):
        value += d.amplitude * math.sin(d.frequency * t + d.phase)
    elif isinstance(d, UniformDisturbance):
        value += d.value(t)
    return value


def sample_times(sample_period: float, duration: float) -> list[float]:
    """The uniform grid k * sample_period, k = 0..floor(duration / sample_period)."""
    count = math.floor(duration / sample_period + GRID_TOL) + 1
    return [k * sample_period for k in range(count)]


def generate_trace(spec: SignalSpec, sample_period: float, duration: float) -> SampledTrace:
    """Sample the signal on the grid of sample_times(sample_period, duration).

    duration == 0 yields the single sample at t = 0.
    """
    if not (math.isfinite(sample_period) and sample_period > 0):
        raise ConfigError(f"sample_period must be positive and finite, got {sample_period}")
    if not (math.isfinite(duration) and duration >= 0):
        raise ConfigError(f"duration must be non-negative and finite, got {duration}")
    values = tuple(sample_signal(spec, t) for t in sample_times(sample_period, duration))
    return SampledTrace(sample_period=sample_period, values=values)
