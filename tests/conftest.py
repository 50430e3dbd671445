"""Shared helpers for driving pipeline stages over generated traces."""

import math

import numpy as np

from ftfreq.mixing import mix
from ftfreq.regression import delay_table, regression_at
from ftfreq.signals import generate_trace

SAMPLE_PERIOD = 0.001


def mixed_stream(spec, model_cfg, d, epsilon, duration, sample_period=SAMPLE_PERIOD):
    """Yield (k, (delta, psi)) at every warm sample k of a generated trace of
    the given signal: the samples the drivers mix."""
    taps = delay_table(model_cfg, d, sample_period)
    window = [0.0] * (taps.warm_from + 1)
    trace = generate_trace(spec, sample_period, duration)
    for k, y in enumerate(trace.values):
        window = [y] + window[:-1]
        if k >= taps.warm_from:
            psi_rows, phi_rows = zip(*(regression_at(window, taps, lag) for lag in taps.rows))
            yield k, mix(k * sample_period, psi_rows, phi_rows, epsilon)


def window_at(values, k, length):
    """The measurement window after sample k: values[k - j] at j, zero before
    the first sample."""
    return [values[k - j] if j <= k else 0.0 for j in range(length)]


def cascade_residual(values, freqs, h, sample_period=SAMPLE_PERIOD):
    """Apply the per-harmonic annihilators [Z^2 + 1 - 2 cos(w h) Z] in turn,
    with zero pre-history."""
    steps = round(h / sample_period)
    stream = list(values)
    for w in freqs:
        c = math.cos(w * h)
        padded = [0.0] * (2 * steps) + stream
        stream = [padded[j + 2 * steps] - 2.0 * c * padded[j + steps] + padded[j]
                  for j in range(len(stream))]
    return stream


def random_distinct_frequencies(rng, n, lo, hi, min_gap=0.05):
    while True:
        freqs = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(freqs)) > min_gap:
            return [float(w) for w in freqs]
