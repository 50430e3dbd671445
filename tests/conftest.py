"""Shared helpers for driving pipeline stages over generated traces."""

import numpy as np

from ftfreq.delay_line import TappedDelayLine
from ftfreq.mixing import RegressorExtender, mix
from ftfreq.regression import delay_table, sample_regression
from ftfreq.signals import generate_trace

SAMPLE_PERIOD = 0.001


def mixed_stream(spec, model_cfg, d, epsilon, duration, sample_period=SAMPLE_PERIOD):
    """Yield (k, MixedSample) over a generated trace of the given signal."""
    taps = delay_table(model_cfg, d, sample_period)
    line = TappedDelayLine(taps.valid_from, sample_period)
    extender = RegressorExtender(taps)
    trace = generate_trace(spec, sample_period, duration)
    for k, y in enumerate(trace.values):
        line.push(y)
        reg = sample_regression(line, taps, k * sample_period)
        yield k, mix(extender.push(reg), epsilon)


def random_distinct_frequencies(rng, n, lo, hi, min_gap=0.05):
    while True:
        freqs = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(freqs)) > min_gap:
            return [float(w) for w in freqs]
