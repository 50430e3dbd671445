"""Shared helpers for driving pipeline stages over generated traces."""

import contextlib
import math
from unittest import mock

import numpy as np

from ftfreq import pipeline as pipeline_module
from ftfreq.mixing import mix, mix_rows
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


@contextlib.contextmanager
def _stepping():
    """Yield a one-item list holding the time of the sample a Pipeline is
    stepping."""
    stepping = [None]
    check = pipeline_module.check_measurement

    def checking(t, y):
        stepping[0] = t
        return check(t, y)

    with mock.patch.object(pipeline_module, "check_measurement", checking):
        yield stepping


@contextlib.contextmanager
def batched_mixing():
    """Record every batch a Pipeline mixes ahead, as (time, deltas): time is
    the sample being stepped when mix_rows ran, deltas the delta of each row
    it mixed, that sample's first and the following samples' after it."""
    batches = []

    def recording(*args):
        delta, mixed, bad = mix_rows(*args)
        batches.append((stepping[0], delta.tolist()))
        return delta, mixed, bad

    with _stepping() as stepping, mock.patch.object(pipeline_module, "mix_rows", recording):
        yield batches


@contextlib.contextmanager
def batched_recovery():
    """Record every omega_grad recovery a Pipeline makes, in order, as
    (time, rows): time is the sample being stepped, rows the number of
    theta_hat rows one recover_rows call recovered ahead, or None for one
    recover_frequencies call on the current theta_hat."""
    calls = []
    recover_many = pipeline_module.recover_rows
    recover_one = pipeline_module.recover_frequencies

    def recording(theta, *args):
        calls.append((stepping[0], len(theta)))
        return recover_many(theta, *args)

    def recording_one(*args, **kwargs):
        calls.append((stepping[0], None))
        return recover_one(*args, **kwargs)

    with _stepping() as stepping, \
            mock.patch.object(pipeline_module, "recover_rows", recording), \
            mock.patch.object(pipeline_module, "recover_frequencies", recording_one):
        yield calls


def assert_mixed_ahead(batches, deltas, starts, warm_from, ahead, period):
    """batches (from batched_mixing) and the delta of every step of a run of
    len(deltas) samples at times k * period, whose sessions start at the
    sample indices starts, show the look-ahead at work: a batch of `ahead`
    rows is mixed exactly at the sample warm_from into each session and every
    `ahead` samples after it, so no cold sample's step mixes; every warm
    sample takes the row its session mixed for it, and every cold one
    reports 0.0."""
    edges = [*starts, len(deltas)]
    expected = {}  # first row of each batch -> its session's first sample
    for a, b in zip(edges, edges[1:]):
        expected.update((k, a) for k in range(a + warm_from, b, ahead))
    assert [round(t / period) for t, _ in batches] == list(expected)
    assert all(len(rows) == ahead for _, rows in batches)
    rows = dict(zip(expected, (rows for _, rows in batches)))
    for a, b in zip(edges, edges[1:]):
        for k in range(a, b):
            if k < a + warm_from:
                assert deltas[k] == 0.0, k
            else:
                first = k - (k - a - warm_from) % ahead
                assert deltas[k] == rows[first][k - first], k
    return sum(max(0, b - a - warm_from) for a, b in zip(edges, edges[1:]))
