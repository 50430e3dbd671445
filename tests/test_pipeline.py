"""The look-ahead Pipeline against the per-sample path it replaced.

Pipeline mixes the rows of the next d seconds, moves the gradient over
them and recovers their omega_grad in one batch; PerSamplePipeline
(tests/per_sample.py) mixes and recovers each warm sample on its own and
applies its own scalar gradient law. With batches of at most 7 rows, both
step through the same samples, with resets in mid-batch and spikes whose
faults land on batch edges and across them, and keep stepping after a
fault: every step returns the same StepResult and leaves the same
estimator state, bit for bit at every order n (as in tests/test_engine.py),
or raises the same exception with the same message.
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batched_recovery, window_at
from ftfreq import pipeline as pipeline_module
from ftfreq.config import BUILTIN_NAMES, builtin_scenario
from ftfreq.errors import NumericFault
from ftfreq.estimator import EstimatorSettings
from ftfreq.harness import build_pipeline
from ftfreq.mixing import DremConfig, _mixed_stacks, mix_fault
from ftfreq.pipeline import Pipeline, StepResult
from ftfreq.regression import ModelConfig, regression_at
from per_sample import PerSamplePipeline

AHEAD = 7
PERIOD = 0.01

# (spike, epsilon) pairs of tests/test_engine.py's TestFaultParity: a
# non-finite mixed regression, a recovery fault, a non-finite stacked
# regressor under a tiny epsilon, and non-finite measurements
SPIKES = ((1e307, 10.0), (-1e307, 2.0), (1e200, 10.0), (1e308, 1e-100),
          (math.inf, 1.0), (math.nan, 1.0))


def outcome(pipeline, t, y):
    try:
        return pipeline.step(t, y)
    except NumericFault as exc:
        return type(exc), str(exc)


def assert_same_state(mine, ref):
    """The estimator state the queue set against the one the oracle moved,
    and the epoch's extraction against the oracle's, float for float by
    repr, so that a NaN theta_hat (after a recovery fault) matches a NaN."""
    assert repr((mine.epoch.theta_ft, mine.epoch.omega_ft)) == repr((ref.theta_ft, ref.omega_ft))
    mine, ref = mine.state, ref.state
    assert repr((mine.theta_hat, mine.excitation, mine.max_decay_step)) == \
        repr((ref.theta_hat, ref.excitation, ref.max_decay_step))


def step_both(model, drem, estimator, samples, resets):
    """Step both pipelines through samples, resetting before each index in
    resets; returns the look-ahead Pipeline's outcomes, which agree with the
    per-sample path's at every step, as do the estimator states after it."""
    with mock.patch.object(pipeline_module, "_AHEAD", AHEAD):
        ahead = Pipeline(model, drem, estimator, PERIOD)
        per_sample = PerSamplePipeline(model, drem, estimator, PERIOD)
        outcomes = []
        for k, y in enumerate(samples):
            if k in resets:
                ahead.reset()
                per_sample.reset()
            mine = outcome(ahead, k * PERIOD, y)
            ref = outcome(per_sample, k * PERIOD, y)
            assert repr(mine) == repr(ref), k
            assert_same_state(ahead, per_sample)
            outcomes.append(mine)
    return outcomes


def tones(n, count, phase=0.0):
    freqs = [0.8 + 2.8 * (i + 0.5) / n for i in range(n)]
    return [sum(math.sin(w * k * PERIOD + phase + i) for i, w in enumerate(freqs))
            for k in range(count)]


def settings_for(n, t_ft, gamma=1.0):
    return EstimatorSettings(gamma=(gamma,) * n, t_ft=t_ft,
                             omega0=tuple(0.5 + 3.5 * (i + 0.25) / n for i in range(n)))


@st.composite
def runs(draw):
    """(model, drem, estimator, samples, resets) with n <= 5, h and d of a
    few samples, up to three resets and up to three spikes, each placed so
    that the first mixed row it reaches, d after it, is a batch's first or
    last row, one beside them, or any row."""
    n = draw(st.integers(1, 5))
    steps_h, steps_d = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    spike, epsilon = draw(st.sampled_from(SPIKES))
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    drem = DremConfig(d=steps_d * PERIOD, epsilon=epsilon)
    warm_from = 2 * n * steps_h + n * steps_d
    ahead = min(steps_d, AHEAD)
    count = warm_from + draw(st.integers(1, 6 * AHEAD))
    samples = tones(n, count, draw(st.floats(0.0, 2 * math.pi)))
    for _ in range(draw(st.integers(0, 3))):
        batch = warm_from + ahead * draw(st.integers(0, 6))
        row = draw(st.one_of(
            st.sampled_from((batch, batch + ahead - 1, batch - 1, batch + ahead)),
            st.integers(0, count - 1)))
        if 0 <= row - steps_d < count:
            samples[row - steps_d] = spike
    resets = set(draw(st.lists(st.integers(1, count - 1), max_size=3)))
    t_ft = (warm_from + draw(st.integers(1, 3 * AHEAD))) * PERIOD
    estimator = settings_for(n, t_ft, draw(st.floats(0.5, 20.0)))
    return model, drem, estimator, samples, resets


@settings(max_examples=120, deadline=None)
@given(runs())
def test_look_ahead_matches_per_sample_mixing(run):
    step_both(*run)


@pytest.mark.parametrize("row", [39, 45, 46, 50, 52])
@pytest.mark.parametrize("n", [2, 3])
def test_mixed_fault_at_a_batch_edge(n, row):
    # d = 10 samples and batches of 7 from the first warm sample: a 1e307
    # spike reaches the first stacked row's psi d after it, overflows the
    # mixed psi there, and the queued marker raises at that row's own step,
    # which batches start at or end at; stepping on afterwards stays in step
    steps_h, steps_d = 3, 10
    warm_from = 2 * n * steps_h + n * steps_d
    row += warm_from - 32
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    samples = tones(n, warm_from + 60)
    samples[row - steps_d] = 1e307
    outcomes = step_both(model, DremConfig(d=steps_d * PERIOD, epsilon=10.0),
                         settings_for(n, 10.0), samples, set())
    faults = [k for k, out in enumerate(outcomes) if isinstance(out, tuple)]
    assert faults[0] == row
    assert outcomes[row] == (NumericFault, outcomes[row][1])
    assert f"non-finite mixed regression at t = {row * PERIOD}" in outcomes[row][1]


@pytest.mark.parametrize("offset", [6, 7, 8, 12, 13, 14])
def test_recovery_fault_at_a_batch_edge(offset):
    # n = 3, d = 10 samples and batches of 7 from the first warm sample 48:
    # a -1e307 spike under epsilon = 2 leaves the mixed pair finite, but the
    # theta_hat it moves d later has roots that miss the residual target.
    # recover_rows flags that row, and recover_frequencies raises its fault
    # at the row's own step, which is a batch's first or last row or next to
    # one; the rows of its batch before it are served from the queue
    n, steps_h, steps_d = 3, 3, 10
    warm_from = 2 * n * steps_h + n * steps_d
    row = warm_from + offset
    first = row - (row - warm_from) % AHEAD
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    samples = tones(n, warm_from + 4 * AHEAD)
    samples[row - steps_d] = -1e307
    with batched_recovery() as recoveries:
        outcomes = step_both(model, DremConfig(d=steps_d * PERIOD, epsilon=2.0),
                             settings_for(n, 10.0), samples, set())
    assert all(isinstance(out, StepResult) for out in outcomes[first:row])
    assert outcomes[row][0] is NumericFault
    assert outcomes[row][1].startswith("root residual inf exceeds ")
    # after the session's first recovery, the fault row is the first that
    # recover_rows leaves to recover_frequencies
    one_row = [round(t / PERIOD) for t, rows in recoveries if rows is None]
    assert one_row[:2] == [0, row]


def test_a_suspect_row_whose_replay_returns():
    # recover_rows flags a row of the second batch it recovers, mid-batch:
    # that row's step recovers it with recover_frequencies, which returns,
    # and the run's outcomes are the unflagged run's
    n, steps_h, steps_d = 3, 3, 10
    warm_from = 2 * n * steps_h + n * steps_d
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    run = (model, DremConfig(d=steps_d * PERIOD, epsilon=10.0), settings_for(n, 0.6),
           tones(n, warm_from + 3 * AHEAD), set())
    recover, batches = pipeline_module.recover_rows, []

    def flagging(theta, *args):
        omega, suspect, *estimates = recover(theta, *args)
        batches.append(len(theta))
        if len(batches) == 2:
            omega[3], suspect[3] = math.nan, True
        return omega, suspect, *estimates

    with mock.patch.object(pipeline_module, "recover_rows", flagging), \
            batched_recovery() as recoveries:
        flagged = step_both(*run)
    assert flagged == step_both(*run)
    one_row = [round(t / PERIOD) for t, rows in recoveries if rows is None]
    assert one_row == [0, warm_from + AHEAD + 3]


@pytest.mark.parametrize("reset", [35, 38, 39, 40])
def test_reset_in_mid_batch_drops_the_queue(reset):
    # a reset inside, at the end of, or just after a batch: the rows mixed
    # ahead of it are never used, and the new session warms up afresh
    n, steps_h, steps_d = 2, 3, 10
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    samples = tones(n, 120)
    outcomes = step_both(model, DremConfig(d=steps_d * PERIOD, epsilon=10.0),
                         settings_for(n, 10.0), samples, {reset})
    deltas = [out.delta for out in outcomes]
    assert deltas[reset:reset + 32] == [0.0] * 32
    assert all(delta != 0.0 for delta in deltas[reset + 32:])


def test_a_mixed_fault_is_the_one_row_mix_fault():
    # a 1e307 spike d before the first warm row overflows that row's mixed
    # psi: the block stops there, and the row's step raises exactly the
    # fault of the row's stack mixed on its own, found once, by mix_rows
    n, steps_h, steps_d = 2, 3, 10
    warm_from = 2 * n * steps_h + n * steps_d
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    drem = DremConfig(d=steps_d * PERIOD, epsilon=10.0)
    pipeline = Pipeline(model, drem, settings_for(n, 10.0), PERIOD)
    samples = tones(n, warm_from + 5)
    samples[warm_from - steps_d] = 1e307
    for k, y in enumerate(samples[:warm_from]):
        pipeline.step(k * PERIOD, y)
    t, taps = warm_from * PERIOD, pipeline.taps
    window = window_at(samples, warm_from, taps.warm_from + 1)
    psi_rows, phi_rows = zip(*(regression_at(window, taps, lag) for lag in taps.rows))
    _, _, bad = _mixed_stacks(np.array([psi_rows]), np.array([phi_rows]), drem.epsilon)
    expected = mix_fault(t, *bad)
    assert "non-finite mixed regression" in str(expected)
    with mock.patch.object(pipeline_module, "mix_rows", wraps=pipeline_module.mix_rows) as rows, \
            pytest.raises(NumericFault) as got:
        pipeline.step(t, samples[warm_from])
    assert rows.call_count == 1
    assert (type(got.value), str(got.value)) == (type(expected), str(expected))


# sha256 of an n = 3 step() session (Python 3.11, numpy 2.4, x86-64): the
# repr of every StepResult, then of the first epoch's record and the last.
# d / Ts = 130 <= _AHEAD, so each batch holds all 130 rows the history
# fixes, and the reset at sample 800 lands inside the batch of rows
# 770..899. Like the built-in digests in tests/test_cli.py, a change that
# alters these numbers says so and why.
N3_SESSION_DIGEST = "163e77917ec14dbd4573ce0d8e19441d345a4ad693f583bb1d8bd401771b6844"


def test_an_n3_session_is_byte_identical():
    n, steps_h, steps_d = 3, 20, 130
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    pipeline = Pipeline(model, DremConfig(d=steps_d * PERIOD, epsilon=1.0),
                        settings_for(n, 7.0, 20.0), PERIOD)
    lines = []
    for k, y in enumerate(tones(n, 1800)):
        if k == 800:
            first = repr(pipeline.epoch)
            pipeline.reset()
        lines.append(repr(pipeline.step(k * PERIOD, y)))
    assert (pipeline.epoch.first, pipeline.epoch.fired) == (800, 1500)
    digest = hashlib.sha256("\n".join([*lines, first, repr(pipeline.epoch)]).encode())
    assert digest.hexdigest() == N3_SESSION_DIGEST


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_batch_holds_a_builtin_s_whole_horizon(name):
    # each built-in's d / Ts, 130 to 400 rows, fits one step() batch
    pipeline = build_pipeline(builtin_scenario(name))
    assert pipeline._ahead == pipeline.taps.rows[0]


def test_reset_closes_the_epoch_record():
    # the record a reset replaces ends where the new one starts, as a run's
    # records do; the current record stays open
    n = 2
    model = ModelConfig(n=n, h=0.03, omega_min=0.5, omega_max=4.0)
    pipeline = Pipeline(model, DremConfig(d=0.1, epsilon=10.0), settings_for(n, 10.0), PERIOD)
    for k, y in enumerate(tones(n, 100)):
        pipeline.step(k * PERIOD, y)
    kept = pipeline.epoch
    pipeline.reset()
    assert (kept.first, kept.stop) == (0, 100)
    assert (pipeline.epoch.first, pipeline.epoch.stop) == (100, None)
    empty = pipeline.epoch
    pipeline.reset()
    assert (empty.first, empty.stop) == (100, 100)
    assert (pipeline.epoch.first, pipeline.epoch.stop) == (100, None)


def held(pipeline):
    """Samples the session keeps: the list not yet converted, plus the
    numpy window with any array it is a view of."""
    window = pipeline._window
    return len(pipeline._history) + (window if window.base is None else window.base).size


@pytest.mark.parametrize("steps_d", [5, 10])
def test_a_long_stream_keeps_a_bounded_history(steps_d):
    # a stream runs forever: over 20 warm-ups the session never keeps
    # warm_from + 2 min(d / Ts, _AHEAD) + 1 samples, and reset() drops all
    n, steps_h = 2, 3
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    with mock.patch.object(pipeline_module, "_AHEAD", AHEAD):
        pipeline = Pipeline(model, DremConfig(d=steps_d * PERIOD, epsilon=10.0),
                            settings_for(n, 10.0), PERIOD)
        warm_from = pipeline.taps.warm_from
        most = 0
        for k, y in enumerate(tones(n, 20 * warm_from + 1)):
            pipeline.step(k * PERIOD, y)
            most = max(most, held(pipeline))
    assert warm_from < most < warm_from + 2 * min(steps_d, AHEAD) + 1
    pipeline.reset()
    assert held(pipeline) == 0


@pytest.mark.parametrize("reset", [46, 47, 51, 52, 53])
def test_a_reset_drops_a_pending_extraction(reset):
    # n = 2, d = 10 samples and batches of 7 from the first warm sample 32:
    # extraction comes due and fires at row 52, the last row of the batch
    # mixed at row 46, whose recover_rows call recovers its theta_ft as an
    # eighth row. A reset at the batch's first row or its last, or one
    # beside either, drops the queue and any extraction it fires: the new
    # epoch reports no theta_ft until its own fires, 52 rows after it
    n, steps_h, steps_d = 2, 3, 10
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    with batched_recovery() as recoveries:
        outcomes = step_both(model, DremConfig(d=steps_d * PERIOD, epsilon=10.0),
                             settings_for(n, 0.52), tones(n, reset + 60), {reset})
    batches = {round(t / PERIOD): rows for t, rows in recoveries[1:]}
    if reset > 46:
        assert batches[46] == 8
    held = [k for k, out in enumerate(outcomes) if out.theta_ft is not None]
    assert held == [*range(52, reset), *range(reset + 52, reset + 60)]


def test_a_clean_stream_session_extracts_with_its_batches():
    # the stream benchmark's config (n = 3, d = 0.37 s, Ts = 1 ms), two
    # epochs: each fired row's theta_ft rides the recover_rows call of its
    # batch, so nothing is extracted on its own, and the one one-row
    # recovery is the first sample's omega_grad
    n, period = 3, 0.001
    freqs = [1.0 + (i + 0.5) * 3.0 / n for i in range(n)]
    settings = EstimatorSettings(gamma=(1.0,) * n, t_ft=3.91,
                                 omega0=tuple(1.0 + (i + 0.25) * 3.0 / n for i in range(n)))
    pipeline = Pipeline(ModelConfig(n=n, h=0.3, omega_min=1.0, omega_max=4.0),
                        DremConfig(d=0.37, epsilon=10.0), settings, period)
    size = 4411
    with batched_recovery() as recoveries, mock.patch.object(
            pipeline_module, "finite_time_estimate",
            wraps=pipeline_module.finite_time_estimate) as extraction:
        for k in range(2 * size):
            if k == size:
                pipeline.reset()
            result = pipeline.step(k * period, sum(math.sin(w * k * period + i)
                                                   for i, w in enumerate(freqs)))
            if k == size - 1:
                assert result.omega_ft is not None
    assert result.omega_ft == pytest.approx(freqs, abs=1e-6)
    assert extraction.call_count == 0
    assert [t for t, rows in recoveries if rows is None] == [0.0]


def test_a_faulting_extraction_is_tried_again_at_the_next_row():
    # a 1e4 spike d before the first warm row, 32, throws theta_hat off: the
    # extraction due at row 33, mid-batch, misses its residual target, and
    # so does row 34's. After a fault the next row extracts on its own, as
    # the per-sample path tries every row until one fires, here row 35
    n, steps_h, steps_d = 2, 3, 10
    warm_from = 2 * n * steps_h + n * steps_d
    model = ModelConfig(n=n, h=steps_h * PERIOD, omega_min=0.5, omega_max=4.0)
    samples = tones(n, warm_from + 3 * AHEAD)
    samples[warm_from - steps_d] = 1e4
    with mock.patch.object(pipeline_module, "finite_time_estimate",
                           wraps=pipeline_module.finite_time_estimate) as extraction:
        outcomes = step_both(model, DremConfig(d=steps_d * PERIOD, epsilon=10.0),
                             settings_for(n, (warm_from + 1) * PERIOD), samples, set())
    faults = [k for k, out in enumerate(outcomes) if isinstance(out, tuple)]
    assert faults == [33, 34]
    assert all(outcomes[k][1].startswith("root residual ") for k in faults)
    assert outcomes[35].theta_ft is not None and extraction.call_count == 3
