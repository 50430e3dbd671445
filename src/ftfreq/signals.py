"""Multi-sinusoidal test signal generation.

A signal is a sum of sinusoids A_i * sin(w_i * t + p_i) with pairwise
distinct frequencies, optionally disturbed by one more sinusoid (a
HarmonicSpec outside the harmonic set) or by piecewise-constant uniform
noise, and optionally switching to replacement harmonic sets at scheduled
times (step-wise frequency variation).

Everything here is a pure function of the spec and the query time, so the
same spec and seed always reproduce the same trace, bitwise. One sampler,
signal_values, evaluates a whole array of times at once: each harmonic's
phase f*t + p in numpy, its sine through math.sin, summed in the harmonic
order; the schedule set of each time located by searchsorted; the noise
hash as numpy uint64 arithmetic, exact modulo 2**64. numpy does only the
correctly rounded +, -, * and /, so every value equals the one-point
evaluation sample_signal(spec, t), which calls the same sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1

GRID_TOL = 1e-9  # slack for float times that land a hair off the uniform grid

# splitmix64 constants: the seed and slot weights, then the two avalanche
# multipliers
_SEED_WEIGHT = 0x9E3779B97F4A7C15
_SLOT_WEIGHT = np.uint64(0xD1B54A32D192ED03)
_AVALANCHE = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


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
        disturbance: optional additive disturbance, a sinusoid or noise.
        schedule: optional switch times with replacement harmonic sets,
            strictly increasing; at exactly a switch time the new set applies.
    """

    harmonics: tuple[HarmonicSpec, ...]
    disturbance: HarmonicSpec | UniformDisturbance | None = None
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


def signal_values(spec: SignalSpec, times) -> list[float]:
    """The signal (active harmonics plus disturbance) at each of times.

    A time t reads slot floor(t / sample_period) of uniform noise, which
    must lie within the int64 range.
    """
    t = np.asarray(times, dtype=float)
    value = np.zeros(len(t))
    sets = (spec.harmonics, *(step.harmonics for step in spec.schedule))
    switches = np.array([step.switch_time for step in spec.schedule], dtype=float)
    active = np.searchsorted(switches, t, side="right")  # closed on the right at switches
    for k, harmonics in enumerate(sets):
        rows = active == k
        at = t[rows]
        part = np.zeros(len(at))
        for harmonic in harmonics:
            part += _sines(harmonic, at)
        value[rows] = part
    d = spec.disturbance
    if isinstance(d, HarmonicSpec):
        value += _sines(d, t)
    elif isinstance(d, UniformDisturbance):
        value += _uniform_noise(d, t)
    return value.tolist()


def _sines(harmonic: HarmonicSpec, t: np.ndarray) -> np.ndarray:
    phases = harmonic.frequency * t + harmonic.phase
    return harmonic.amplitude * np.fromiter(map(math.sin, phases.tolist()), float, len(t))


def _uniform_noise(d: UniformDisturbance, t: np.ndarray) -> np.ndarray:
    """Deterministic uniform draws in [-half_range, half_range), one per noise
    slot: a splitmix64-style avalanche over a (seed, slot) pair, splittable
    and random-access, which a stateful generator is not."""
    # Nudge guards against t/p landing a hair below an integer slot edge. A
    # negative slot wraps modulo 2**64 through the int64 bit pattern; a slot
    # outside the int64 range (NaN included) has no bit pattern to cast to.
    slot = np.floor(t / d.sample_period + GRID_TOL)
    if not (-2.0 ** 63 <= slot.min(initial=0.0) and slot.max(initial=0.0) < 2.0 ** 63):
        bad = t[np.flatnonzero(~((-2.0 ** 63 <= slot) & (slot < 2.0 ** 63)))[0]]
        raise ConfigError(f"noise sample_period {d.sample_period} puts the noise slot "
                          f"of t = {bad} outside the int64 range")
    slot = slot.astype(np.int64).view(np.uint64)
    z = np.uint64(d.seed * _SEED_WEIGHT & _MASK64) + slot * _SLOT_WEIGHT
    for shift, weight in zip((30, 27), _AVALANCHE):
        z = (z ^ (z >> np.uint64(shift))) * weight
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(float) * 2.0 ** -53
    return (2.0 * u - 1.0) * d.half_range


def sample_signal(spec: SignalSpec, t: float) -> float:
    """Evaluate the signal (active harmonics plus disturbance) at time t."""
    return signal_values(spec, [t])[0]


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
    values = tuple(signal_values(spec, sample_times(sample_period, duration)))
    return SampledTrace(sample_period=sample_period, values=values)
