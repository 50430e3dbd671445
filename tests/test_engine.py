"""Pipeline.run, the whole-trace entry the harness calls, against step().

The reference is the Pipeline loop: one step() per sample, resets applied
at the first sample at or after each reset time (within the grid slack), a
NumericFault re-raised naming its sample. Every record and metadata value of
run must equal it bit for bit, at every order n: both entries call the same
block routine on different runs of rows, and the batched stages' rows equal
their one-row calls (tests/test_mixing.py and tests/test_recovery.py pin
that). A run that faults must fault at the same sample with the same
exception and message.
"""

import contextlib
import hashlib
import math
import random
import re
from bisect import bisect_left
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_mixed_ahead, batched_mixing, batched_recovery,
                      write_trace_csv)
from ftfreq import estimator as estimator_module
from ftfreq import pipeline as pipeline_module
from ftfreq import recovery as recovery_module
from ftfreq.config import (BUILTIN_NAMES, EstimatorSettings, RunConfig,
                           ScenarioConfig, builtin_scenario, ensure_valid,
                           validate_config)
from ftfreq.errors import ConfigError, NumericFault
from ftfreq.estimator import EstimatorState
from ftfreq.harness import (RunResult, build_pipeline, estimate_from_file,
                            run_scenario, write_metadata)
from ftfreq.mixing import DremConfig, mix_rows
from ftfreq.pipeline import _CHUNK, Epoch, warmup_time
from ftfreq.regression import DelayTable, ModelConfig
from ftfreq.signals import (HarmonicSpec, SignalSpec, UniformDisturbance,
                            generate_trace)
from test_recovery import failing_eigvals

GRID_TOL = 1e-9


def pipeline_reference(cfg, times, samples):
    """Records and final Pipeline of the streaming path over one trace."""
    pipeline = build_pipeline(cfg)
    resets = list(cfg.run.reset_times)
    next_reset = resets.pop(0) if resets else None
    records = []
    for k, (t, y) in enumerate(zip(times, samples)):
        if next_reset is not None and t >= next_reset - GRID_TOL:
            pipeline.reset()
            next_reset = resets.pop(0) if resets else None
        try:
            records.append(pipeline.step(t, y))
        except NumericFault as exc:
            raise NumericFault(f"sample {k} (t = {t:.6g}): {exc}") from exc
    return records, pipeline


def reference_metadata(pipeline, times):
    """The Pipeline's state and its last epoch's record, stepped over times
    from the first, as metadata.txt states them."""
    state, epoch = pipeline.state, pipeline.epoch
    return {
        "pipeline.warmup_time": repr(warmup_time(pipeline.model, pipeline.drem)),
        "pipeline.max_decay_step": repr(state.max_decay_step),
        "estimator.excitation_integral": repr(state.excitation),
        "estimator.extraction_time": (repr(times[epoch.fired])
                                      if epoch.fired is not None else "none"),
        "estimator.root_residual": (repr(epoch.root_residual)
                                    if epoch.root_residual is not None else "none"),
        "estimator.clamped": repr(epoch.clamped) if epoch.clamped is not None else "none",
    }


def grid(cfg):
    period = cfg.run.sample_period
    times = [k * period for k in range(math.floor(cfg.run.duration / period + GRID_TOL) + 1)]
    return times, [y for y in generate_trace(cfg.signal, period, cfg.run.duration).values]


def outcome(run):
    """('ok', value) or (exception type, sample index or None, message)."""
    try:
        return "ok", run()
    except (NumericFault, ConfigError) as exc:
        found = re.search(r"sample (\d+)", str(exc))
        return type(exc), found and int(found.group(1)), str(exc)


def assert_parity(cfg, times, samples, tmp_path):
    """Pipeline.run, replaying the trace from a file, reproduces the Pipeline
    loop; returns the Pipeline's outcome."""
    expected = outcome(lambda: pipeline_reference(cfg, times, samples))
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, times, samples)
    got = outcome(lambda: estimate_from_file(path, cfg))
    if expected[0] != "ok":
        assert got[:2] == expected[:2]
        assert got[2] == expected[2]
        return expected
    assert got[0] == "ok", got
    records, pipeline = expected[1]
    result = got[1]
    assert len(result.records) == len(records)
    for k, (mine, ref) in enumerate(zip(result.records, records)):
        assert repr(mine) == repr(ref), k
    for key, value in reference_metadata(pipeline, times).items():
        assert result.metadata[key] == value, key
    assert result.extracted == pipeline.extracted
    # each epoch comes due where the rows since its first span t_ft, within
    # the grid's slack, and fires at the first row of its segment whose
    # Pipeline record holds omega_ft
    period = cfg.run.sample_period
    epochs = result.trajectory.epochs
    assert [epoch.first for epoch in epochs] == [0, *(epoch.stop for epoch in epochs[:-1])]
    assert epochs[-1].stop == len(records)
    for epoch in epochs:
        rows = range(epoch.first, epoch.stop)
        assert epoch.due == next((k for k in rows if (k - epoch.first) * period
                                  >= cfg.estimator.t_ft - GRID_TOL * period), None)
        assert epoch.fired == next((k for k in rows if records[k].omega_ft is not None), None)
    return expected


@st.composite
def scenarios(draw):
    """Small n <= 4 scenarios on a 0.01 s grid: random tones, amplitudes,
    phases, h and d, optional uniform noise and 0-2 resets."""
    n = draw(st.integers(1, 4))
    period = 0.01
    lo, hi = 0.5, 4.0
    steps_h = draw(st.integers(2, 30))  # h <= 0.30 < pi / (2 * hi)
    steps_d = draw(st.integers(1, 30))
    h, d = round(steps_h * period, 9), round(steps_d * period, 9)
    gaps = draw(st.lists(st.floats(0.15, 1.0), min_size=n, max_size=n))
    start = draw(st.floats(0.6, 1.0))
    freqs = [start + sum(gaps[:i]) for i in range(n)]
    if freqs[-1] > 3.9:
        scale = (3.9 - start) / (freqs[-1] - start) if n > 1 else 1.0
        freqs = [start + (w - start) * scale for w in freqs]
    harmonics = tuple(
        HarmonicSpec(draw(st.floats(0.3, 2.0)), w, draw(st.floats(0.0, 2 * math.pi)))
        for w in freqs)
    noise = None
    if draw(st.booleans()):
        noise = UniformDisturbance(draw(st.floats(0.001, 0.2)), period,
                                   draw(st.integers(0, 2**32)))
    model = ModelConfig(n=n, h=h, omega_min=lo, omega_max=hi)
    drem = DremConfig(d=d, epsilon=draw(st.sampled_from((0.5, 2.0, 10.0))))
    t_ft = round(warmup_time(model, drem) + draw(st.floats(0.05, 3.0)), 6)
    duration = round(t_ft + draw(st.floats(0.2, 2.0)), 6)
    resets = sorted(set(draw(st.lists(st.floats(0.001, duration - 0.001),
                                      max_size=2))))
    omega0 = tuple(lo + (i + 0.5) * (hi - lo) / n for i in range(n))
    cfg = ScenarioConfig(
        name="drawn",
        signal=SignalSpec(harmonics, noise),
        model=model,
        drem=drem,
        estimator=EstimatorSettings(
            gamma=tuple(draw(st.floats(0.1, 20.0)) for _ in range(n)),
            omega0=omega0, t_ft=t_ft),
        run=RunConfig(sample_period=period, duration=duration,
                      reset_times=tuple(resets)),
    )
    return ensure_valid(cfg)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_engine_matches_pipeline_on_drawn_scenarios(tmp_path_factory, cfg):
    times, samples = grid(cfg)
    assert_parity(cfg, times, samples, tmp_path_factory.mktemp("trace"))


def synthetic(n, seed):
    """Clean n-tone scenario (band [1, 4], h 0.3, d 0.4, eps 10, Ts 0.1 s)
    with a reset halfway to t_ft and time to extract again after it."""
    rng = random.Random(seed)
    freqs = [1.0 + (i + 0.5) * 3.0 / n for i in range(n)]
    harmonics = tuple(HarmonicSpec(rng.uniform(0.5, 1.5), w, rng.uniform(0.0, 2 * math.pi))
                      for w in freqs)
    t_ft = round(2 * n * 0.3 + n * 0.4 + 1.0, 9)
    return ScenarioConfig(
        name=f"n{n}", signal=SignalSpec(harmonics),
        model=ModelConfig(n=n, h=0.3, omega_min=1.0, omega_max=4.0),
        drem=DremConfig(d=0.4, epsilon=10.0),
        estimator=EstimatorSettings(
            gamma=(1.0,) * n, t_ft=t_ft,
            omega0=tuple(1.0 + (i + 0.25) * 3.0 / n for i in range(n))),
        run=RunConfig(sample_period=0.1, duration=round(1.5 * t_ft + 1.0, 9),
                      reset_times=(round(t_ft / 2, 9),)))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("seed", [1, 4])
def test_engine_matches_pipeline_for_high_orders(tmp_path, n, seed):
    cfg = synthetic(n, seed)
    times, samples = grid(cfg)
    assert_parity(cfg, times, samples, tmp_path)


def sweep(n, seed):
    """synthetic(n, seed) as the n-sweep benchmark runs it: one epoch,
    t_ft + 1 s long."""
    cfg = synthetic(n, seed)
    return replace(cfg, run=replace(cfg.run, duration=round(cfg.estimator.t_ft + 1.0, 9),
                                    reset_times=()))


# sha256 per order n of whole runs (Python 3.11, numpy 2.4, x86-64): for
# seeds 1-3, sweep's run and then synthetic's, with its reset, each as the
# repr of every record and Epoch of run_scenario, or the type and message of
# the fault it raises. The built-in digests (tests/test_cli.py) cover n = 2
# and tests/test_pipeline.py's session n = 3; these hold n = 4..8, where
# mixing goes through LU (det times inv), with Stewart's SVD form for the
# rows LU cannot take. A change that alters them says so and why.
HIGH_ORDER_DIGESTS = {
    4: "549a647ca5473ecf036cc1009fb295754747898f274d8ceca082ff14e008dbde",
    5: "931707efbbdd6576cbc5f246511d93a10042f7b4deb7df273271df5655682301",
    6: "9742ebee8fd456409923925afa7d6c17f202cef6fde3760eb642b87d57ae2882",
    7: "1710d63f8fe507152bfb39547a07b96afdf4684d927c399a36bf276260466a54",
    8: "a10ae8df64083c0da1ad65336c3752224ceaffb154bdfe7cc309a848144354f5",
}

# The same digests at n = 1 and n = 3, where mixing takes the closed-form
# cofactors from slices of the regression columns, and the n = 3 roots the
# closed-form cubic: whole runs through run_scenario, beside the stepped
# n = 3 session of tests/test_pipeline.py.
LOW_ORDER_DIGESTS = {
    1: "0ee309c3c31c2f24722eb7979e75f9eb099c8ec3cb1b585908a7dd96e66d3776",
    3: "90feef04d174c27abee1e17bd98b1500d1100db6d58ebe33ddf82101b50554e4",
}


def runs_digest(n):
    """sha256 of seeds 1-3's sweep and synthetic runs at order n."""
    lines = []
    for seed in (1, 2, 3):
        for cfg in (sweep(n, seed), synthetic(n, seed)):
            try:
                result = run_scenario(cfg)
            except NumericFault as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
            else:
                lines += map(repr, [*result.records, *result.trajectory.epochs])
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(HIGH_ORDER_DIGESTS))
def test_high_order_runs_are_byte_identical(n):
    assert runs_digest(n) == HIGH_ORDER_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(LOW_ORDER_DIGESTS))
def test_low_order_runs_are_byte_identical(n):
    assert runs_digest(n) == LOW_ORDER_DIGESTS[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_streaming_epochs_match_run(n):
    # Pipeline.epoch, read before each reset and after the last sample, is
    # the record run writes for that epoch: a short epoch that never comes
    # due, then two that extract (seed 3: at n = 8, seed 1's roots leave the
    # real axis); reset() closes a streaming record at the run's stop, and
    # the last stays open (stop None)
    cfg = synthetic(n, 3)
    t_ft = cfg.estimator.t_ft
    cfg = replace(cfg, run=replace(cfg.run, duration=round(2.5 * t_ft + 2.0, 9),
                                   reset_times=(round(t_ft / 2, 9), round(1.5 * t_ft + 1.0, 9))))
    times, samples = grid(cfg)
    resets = [bisect_left(times, reset - GRID_TOL) for reset in cfg.run.reset_times]
    pipeline = build_pipeline(cfg)
    streamed = []
    for k, (t, y) in enumerate(zip(times, samples)):
        if k in resets:
            streamed.append(pipeline.epoch)
            pipeline.reset()
        pipeline.step(t, y)
    streamed.append(pipeline.epoch)
    run = build_pipeline(cfg).run(times, samples, [0, *resets])

    def record(epoch):
        return repr((epoch.first, epoch.due, epoch.fired, epoch.theta_ft, epoch.omega_ft))

    assert list(map(record, streamed)) == list(map(record, run.epochs))
    assert [epoch.first for epoch in run.epochs] == [0, *resets]
    assert [epoch.fired is not None for epoch in run.epochs] == [False, True, True]
    assert [epoch.stop for epoch in streamed] == [*resets, None]
    assert [epoch.stop for epoch in run.epochs] == [*resets, len(times)]


def test_a_second_run_starts_a_new_session():
    # each run is a session of its own, built from the Pipeline's config: a
    # second run on the same Pipeline returns the first's trajectory, and
    # neither touches the Pipeline's own state or epoch
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=6.0))
    times, samples = grid(cfg)
    pipeline = build_pipeline(cfg)
    first = pipeline.run(times, samples, [0])
    second = pipeline.run(times, samples, [0])
    assert first.epochs[0].fired == 5000
    assert first.records()[-1].omega_ft == first.epochs[0].omega_ft
    assert second.records() == first.records()
    assert second.epochs == first.epochs
    assert (second.state.theta0, second.state.excitation) == \
        (first.state.theta0, first.state.excitation)
    assert second.state is not first.state is not pipeline.state
    assert pipeline.epoch == Epoch(0) and not pipeline.extracted
    assert pipeline.state.theta0 == tuple(pipeline.state.theta_hat) == first.state.theta0


# unchecked, these gave 2 rows from 1 sample, a bare IndexError, rows of
# uninitialised memory outside every epoch, an epoch with first > stop whose
# rows ran twice, an empty epoch and numpy's broadcast ValueError; a float
# entry gave numpy's TypeError naming neither starts nor the entry, and an
# array of starts numpy's ambiguous-truth ValueError, and a bare int a
# TypeError from the loop over it
@pytest.mark.parametrize("count, samples, starts, message", [
    (2, [1.0], [0], "times and samples differ in length: 2 and 1"),
    (0, [], [0], "no samples"),
    (100, None, [5], r"starts must begin at 0 .* got \[5\]"),
    (100, None, [], r"starts must begin at 0 .* got \[\]"),
    (100, None, [0, 50, 20], r"starts must .* got \[0, 50, 20\]"),
    (100, None, [0, 0], r"starts must .* got \[0, 0\]"),
    (100, None, [0, 200], r"rise strictly below 100, got \[0, 200\]"),
    (100, None, [0, 50.0], r"^starts entries must be integers, got 50\.0$"),
    (100, None, np.array([0, 50.0]),
     r"^starts entries must be integers, got np\.float64\(0\.0\)$"),
    (100, None, [0, "50"], r"^starts entries must be integers, got '50'$"),
    (100, None, np.array([0, 50, 20]), r"starts must .* got \[0, 50, 20\]$"),
    (100, None, np.array([], dtype=int), r"starts must begin at 0 .* got \[\]$"),
    (100, None, 5, r"^starts must be a sequence of integers, got 5$"),
], ids=["unequal-lengths", "empty", "late-first", "no-starts", "falling", "repeated",
        "past-the-end", "float-entry", "float-array", "text-entry", "falling-array",
        "empty-array", "not-a-sequence"])
def test_run_rejects_a_malformed_trace(count, samples, starts, message):
    times = [k * 0.001 for k in range(count)]
    samples = [1.0] * count if samples is None else samples
    with pytest.raises(ConfigError, match=message):
        build_pipeline(builtin_scenario("noiseless-2h")).run(times, samples, starts)


@pytest.mark.parametrize("starts", [[0, np.int64(50)], np.array([0, 50]), (0, 50)],
                         ids=["numpy-int-entry", "int-array", "tuple"])
def test_run_takes_starts_as_plain_ints(starts):
    # any sequence of integers, each read with operator.index: the Epochs
    # record Python ints, and the run is the one a list of ints gives
    cfg = synthetic(3, 1)
    cfg = replace(cfg, run=replace(cfg.run, duration=10.0, reset_times=(5.0,)))
    times, samples = grid(cfg)
    run = build_pipeline(cfg).run(times, samples, starts)
    assert [type(value) for epoch in run.epochs for value in (epoch.first, epoch.stop)] == \
        [int] * 4
    expected = build_pipeline(cfg).run(times, samples, [0, 50])
    assert repr(run.epochs) == repr(expected.epochs)
    assert repr(run.records()) == repr(expected.records())


def test_steps_after_a_run_leave_its_trajectory_alone():
    # a run shares no record with the Pipeline's streaming session: stepping
    # on after it changes neither the returned epochs nor the returned
    # state, and the steps are those of a fresh Pipeline
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=8.0))
    times, samples = grid(cfg)
    pipeline = build_pipeline(cfg)
    run = pipeline.run(times[:3000], samples[:3000], [0])
    epochs = repr(run.epochs)
    state = repr([getattr(run.state, name) for name in run.state.__slots__])
    fresh = build_pipeline(cfg)
    for t, y in zip(times, samples):
        assert repr(pipeline.step(t, y)) == repr(fresh.step(t, y))
    assert repr(run.epochs) == epochs
    assert repr([getattr(run.state, name) for name in run.state.__slots__]) == state
    assert (run.epochs[0].due, run.epochs[0].fired) == (None, None)
    assert pipeline.epoch == fresh.epoch
    assert pipeline.epoch.fired == 5000


def test_a_huge_int_sample_steps_as_run_takes_it():
    # 10**20 is finite but beyond int64: step() converts its window to float,
    # as run()'s buffer does, so both entries mix the same samples
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=0.67))
    times, samples = grid(cfg)
    samples[20] = 10**20
    records, _ = pipeline_reference(cfg, times, samples)
    run = engine_run(cfg, times, samples)
    assert repr([record.delta for record in records]) == repr(run.delta.tolist())
    assert any(record.delta != 0.0 for record in records)


def test_an_int_beyond_the_float_range_is_a_numeric_fault():
    # 10**400 has no float: step() rejects it in its measurement check, and
    # run() at its row, after the rows before it, as a non-finite sample; at
    # sample 5000, where extraction would fire, the check comes first
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=6.0))
    times, samples = grid(cfg)
    message = ("measurement at t = {} is beyond the float range: "
               "int too large to convert to float")
    with pytest.raises(NumericFault, match=f"^{re.escape(message.format(0.0))}$"):
        build_pipeline(cfg).step(0.0, 10**400)
    for k in (20, 5000, len(samples) - 1):
        huge = samples[:k] + [10**400] + samples[k + 1:]
        expected = outcome(lambda: pipeline_reference(cfg, times, huge))
        assert outcome(lambda: engine_run(cfg, times, huge)) == expected
        assert expected == (NumericFault, k,
                            f"sample {k} (t = {times[k]:.6g}): {message.format(times[k])}")


def test_a_harness_run_builds_one_session(tmp_path):
    # run_scenario and estimate_from_file each build one delay table and one
    # estimator state: the session their run goes through
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=6.0))
    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), *grid(cfg))
    built = {}

    def counted(cls):
        init = cls.__init__

        def counting(self, *args, **kwargs):
            built[cls.__name__] = built.get(cls.__name__, 0) + 1
            init(self, *args, **kwargs)
        return mock.patch.object(cls, "__init__", counting)

    with counted(DelayTable), counted(EstimatorState):
        run_scenario(cfg)
        assert built == {"DelayTable": 1, "EstimatorState": 1}
        built.clear()
        estimate_from_file(str(trace), cfg)
        assert built == {"DelayTable": 1, "EstimatorState": 1}


def engine_run(cfg, times, samples):
    """Pipeline.run called directly, without the harness's validation or reader."""
    return build_pipeline(cfg).run(times, samples, [0])


def test_t_ft_inside_the_warm_up():
    # validation wants t_ft after the warm-up 2nh + nd = 0.66 s, but both
    # drivers take an earlier one: extraction is tried from t_ft on and fires
    # once warm samples have brought every 1 - W_i up to w_floor
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, estimator=replace(cfg.estimator, t_ft=0.5),
                  run=replace(cfg.run, duration=3.0))
    assert any("warm-up" in v for v in validate_config(cfg))
    times, samples = grid(cfg)
    records, pipeline = pipeline_reference(cfg, times, samples)
    run = engine_run(cfg, times, samples)
    assert run.records() == records
    fired = pipeline.epoch.fired
    assert run.epochs[0].fired == fired
    assert times[fired] >= warmup_time(cfg.model, cfg.drem)


def assert_entries_agree(cfg, times, samples, starts):
    """run() and the step() loop give equal records and equal Epochs;
    returns the Epochs."""
    records, pipeline = pipeline_reference(cfg, times, samples)
    run = build_pipeline(cfg).run(times, samples, starts)
    assert repr(run.records()) == repr(records)
    assert repr(run.epochs[-1]) == repr(replace(pipeline.epoch, stop=len(times)))
    return run.epochs


def test_the_stream_session_batches_its_whole_horizon():
    # the stream benchmark's session (n = 3, h = 0.3 s, d = 0.37 s, Ts = 1 ms,
    # t_ft 1 s after the warm-up, epochs of 4411 samples): every step() batch
    # holds all d / Ts = 370 rows the history fixes, the last of the first
    # epoch running 349 rows past the reset, and step() and run() agree bit
    # for bit over both epochs
    cfg, size = synthetic(3, 1), 4411
    t_ft = round(2 * 3 * 0.3 + 3 * 0.37 + 1.0, 9)
    cfg = replace(cfg, drem=replace(cfg.drem, d=0.37),
                  estimator=replace(cfg.estimator, t_ft=t_ft),
                  run=replace(cfg.run, sample_period=0.001, duration=(2 * size - 1) / 1000,
                              reset_times=(size / 1000,)))
    times, samples = grid(cfg)
    assert len(times) == 2 * size
    with batched_mixing() as batches:
        records, pipeline = pipeline_reference(cfg, times, samples)
    assert (pipeline.taps.rows[0], pipeline._ahead) == (370, 370)
    warm = assert_mixed_ahead(batches, [rec.delta for rec in records], [0, size],
                              pipeline.taps.warm_from, 370, 0.001)
    assert warm == 2 * (size - pipeline.taps.warm_from) and len(batches) == 2 * 5
    run = build_pipeline(cfg).run(times, samples, [0, size])
    assert repr(run.records()) == repr(records)
    assert repr(run.epochs[-1]) == repr(replace(pipeline.epoch, stop=len(times)))
    assert repr((run.state.theta_hat, run.state.excitation, run.state.max_decay_step)) == \
        repr((pipeline.state.theta_hat, pipeline.state.excitation, pipeline.state.max_decay_step))
    assert all(epoch.fired is not None for epoch in run.epochs)


def test_an_off_grid_time_stamp_only_labels_its_row():
    # the epoch clock counts samples, so one stamp far off the grid moves
    # neither entry's due row: both come due and fire at t_ft / Ts = 5000
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=7.0))
    times, samples = grid(cfg)
    times[100] = 1e6
    [epoch] = assert_entries_agree(cfg, times, samples, [0])
    assert (epoch.due, epoch.fired) == (5000, 5000)


def test_every_epoch_comes_due_the_same_rows_after_its_first():
    # t_ft = 2.1 s at Ts = 0.01 s is 210 rows in every epoch, although the
    # stamps 10.1 and 8.0 of the second epoch's due and first rows differ
    # by 2.0999999999999996 in floats
    cfg = synthetic(2, 1)
    cfg = replace(cfg, estimator=replace(cfg.estimator, t_ft=2.1),
                  run=replace(cfg.run, sample_period=0.01, duration=12.0, reset_times=(8.0,)))
    times, samples = grid(cfg)
    epochs = assert_entries_agree(cfg, times, samples, [0, 800])
    assert [epoch.due for epoch in epochs] == [210, 1010]
    assert all(epoch.fired is not None for epoch in epochs)


def test_pipeline_rejects_a_non_finite_time():
    # the sample count is the epoch clock, but a time labels its row in the
    # outputs and in fault messages: a non-finite one is rejected before it
    # takes a row
    for bad in (math.nan, math.inf, -math.inf):
        pipeline = build_pipeline(builtin_scenario("noiseless-2h"))
        with pytest.raises(NumericFault, match=f"non-finite time {bad}"):
            pipeline.step(bad, 0.0)
    # step() passes a pair of finite Python floats without calling
    # check_measurement; every sample raises or passes as that check does,
    # in the time and in the value alike
    def checked(call):
        try:
            call()
        except (NumericFault, TypeError) as exc:
            return type(exc), str(exc)
        return None

    entries = (0.25, -0.0, math.nan, math.inf, -math.inf, np.float64(0.25), np.float64(math.inf),
               True, 3, 10**400)
    for t, y in [*((entry, 0.5) for entry in entries), *((1.5, entry) for entry in entries)]:
        pipeline = build_pipeline(builtin_scenario("noiseless-2h"))
        expected = checked(lambda: pipeline_module.check_measurement(t, y))
        assert checked(lambda: pipeline.step(t, y)) == expected, (t, y)
        assert pipeline._count == (0 if expected else 1), (t, y)  # a rejected sample takes no row


def test_cold_samples_are_not_mixed_or_recovered():
    # n = 3 at 0.1 s: warm 30 samples after the start and after the reset at
    # 5 s, so 20 of the first epoch's 50 samples and 21 of the second's 51
    # are warm. Only their steps mix (d = 4 samples ahead at a time) and take
    # a mixed row, and only their gradient steps move theta_hat and so call
    # for a new omega_grad: the step that mixes a batch recovers its rows in
    # one recover_rows call, with the theta_ft of the row where its epoch's
    # extraction fires if it holds that row, and only the session's first,
    # cold sample recovers on its own. The last batch runs 3 rows past the
    # trace's end
    cfg = synthetic(3, 1)
    cfg = replace(cfg, run=replace(cfg.run, duration=10.0, reset_times=(5.0,)))
    times, samples = grid(cfg)
    warm = [20, 21]
    with batched_mixing() as batches, batched_recovery() as recoveries:
        records, _ = pipeline_reference(cfg, times, samples)
    assert assert_mixed_ahead(batches, [rec.delta for rec in records], [0, 50], 30, 4,
                              cfg.run.sample_period) == sum(warm)
    fired = [next(k for k in range(a, b) if records[k].omega_ft is not None)
             for a, b in ((0, 50), (50, len(records)))]

    def recovered(t, rows):
        first = round(t / cfg.run.sample_period)
        return len(rows) + sum(first <= k < first + len(rows) for k in fired)

    assert recoveries == [(times[0], None), *((t, recovered(t, rows)) for t, rows in batches)]
    assert sum(rows for _, rows in recoveries[1:]) == sum(warm) + 3 + len(fired)

    rows = []

    def recording(y, taps, first, stop, epsilon):
        rows.append(stop - first)
        return mix_rows(y, taps, first, stop, epsilon)

    with mock.patch.object(pipeline_module, "mix_rows", recording):
        run = build_pipeline(cfg).run(times, samples, [0, 50])
    assert rows == warm
    cold = [*range(30), *range(50, 80)]
    assert all(records[k].delta == 0.0 and run.delta[k] == 0.0 for k in cold)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("short", [False, True], ids=["warm", "shorter-than-warm-up"])
def test_a_run_recovers_its_first_theta_hat_with_its_first_block(n, short):
    # a fresh session's theta_hat rides the first recover_rows call as its
    # lead row, for the cold rows, and the fired row's theta_ft as its
    # trailing row, so a clean run makes no recover_frequencies call; a
    # trace shorter than the warm-up has no warm row, and recovers its
    # theta_hat on its own. The records and Epoch are step()'s either way
    cfg = sweep(n, 1)
    if short:
        cfg = replace(cfg, run=replace(cfg.run, duration=0.5))
    times, samples = grid(cfg)
    warm_from = build_pipeline(cfg).taps.warm_from
    recover_one = estimator_module.recover_frequencies
    with batched_recovery() as recoveries, mock.patch.object(
            estimator_module, "recover_frequencies", wraps=recover_one) as extraction:
        run = engine_run(cfg, times, samples)
    if short:
        assert len(times) <= warm_from
        assert (recoveries, extraction.call_count) == ([(None, None)], 0)
    else:
        assert recoveries == [(None, len(times) - warm_from + 2)]
        assert extraction.call_count == 0 and run.epochs[0].fired is not None
    records, pipeline = pipeline_reference(cfg, times, samples)
    assert repr(run.records()) == repr(records)
    assert repr(run.epochs) == repr([replace(pipeline.epoch, stop=len(times))])


@pytest.mark.parametrize("n", range(1, 8))
def test_a_clean_sweep_run_calls_the_root_finder_once(n):
    # the n-sweep benchmark's clean runs that extract: the cold rows'
    # theta_hat, every warm row and the fired row's theta_ft go through one
    # _roots call, and no one-row recovery is left
    roots = recovery_module._roots
    with mock.patch.object(recovery_module, "_roots", wraps=roots) as found, \
            mock.patch.object(estimator_module, "recover_frequencies") as extraction, \
            mock.patch.object(pipeline_module, "recover_frequencies") as settling:
        result = run_scenario(sweep(n, 1))
    assert result.extracted
    assert (found.call_count, extraction.call_count, settling.call_count) == (1, 0, 0)


def test_the_benchmark_n3_rows_are_settled_without_eigvals():
    # the closed form settles every n = 3 row the benchmark recovers, so no
    # row goes on to eigvals: the stream's step() session (d = 0.37 s,
    # Ts = 1 ms, two epochs of 4411 samples with a reset between them) and
    # the n-sweep's n = 3 run
    size = 4411
    t_ft = round(2 * 3 * 0.3 + 3 * 0.37 + 1.0, 9)
    cfg = synthetic(3, 1)
    stream = replace(cfg, drem=replace(cfg.drem, d=0.37),
                     estimator=replace(cfg.estimator, t_ft=t_ft),
                     run=replace(cfg.run, sample_period=0.001, duration=(2 * size - 1) / 1000,
                                 reset_times=(size / 1000,)))
    calls = []
    with mock.patch.object(recovery_module.np.linalg, "eigvals", failing_eigvals(calls)), \
            mock.patch.object(recovery_module, "_cubic_roots",
                              wraps=recovery_module._cubic_roots) as closed:
        records, pipeline = pipeline_reference(stream, *grid(stream))
        swept = len(closed.call_args_list)
        result = run_scenario(sweep(3, 1))
    rows = [len(call.args[0]) for call in closed.call_args_list]
    assert calls == []
    # every warm row of both epochs, and the sweep's block
    assert sum(rows[:swept]) >= 2 * (size - pipeline.taps.warm_from) and sum(rows[swept:]) > 0
    assert records[size - 1].omega_ft is not None and pipeline.epoch.fired is not None
    assert result.extracted


@pytest.mark.parametrize("chunk", [_CHUNK, 64], ids=["one-block", "64-row-blocks"])
def test_an_extraction_deferred_past_due(monkeypatch, chunk):
    # under a small gain and a raised w_floor every 1 - W_i reaches the
    # floor 391 rows after extraction comes due. run() finds that row by
    # bisection over its block's excitation, in the due row's block or,
    # with 64-row blocks, six blocks after it, and recovers its theta_ft
    # with the block's rows: the Epoch and records are step()'s
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, estimator=replace(cfg.estimator, gamma=(1e-6,) * 2, w_floor=0.5,
                                         t_ft=0.7), run=replace(cfg.run, duration=3.0))
    monkeypatch.setattr(pipeline_module, "_CHUNK", chunk)
    times, samples = grid(cfg)
    warm_from = build_pipeline(cfg).taps.warm_from
    with batched_recovery() as recoveries:
        run = engine_run(cfg, times, samples)
    assert (warm_from, run.epochs[0].due, run.epochs[0].fired) == (660, 700, 1091)
    assert all(rows is not None for _, rows in recoveries)
    assert sum(rows for _, rows in recoveries) == len(times) - warm_from + 2
    records, pipeline = pipeline_reference(cfg, times, samples)
    assert repr(run.records()) == repr(records)
    assert repr(run.epochs) == repr([replace(pipeline.epoch, stop=len(times))])


def test_only_the_first_epoch_leads_with_its_theta_hat():
    # after a reset the cold rows hold the last omega_grad, as step() does,
    # so the second epoch's recover_rows call has no lead row: its 21 warm
    # rows and, as in the first epoch's, its fired row's theta_ft
    cfg = synthetic(3, 1)
    cfg = replace(cfg, run=replace(cfg.run, duration=10.0, reset_times=(5.0,)))
    times, samples = grid(cfg)
    with batched_recovery() as recoveries:
        run = build_pipeline(cfg).run(times, samples, [0, 50])
    assert recoveries == [(None, 1 + 20 + 1), (None, 21 + 1)]
    assert (run.omega_grad[50:80] == run.omega_grad[49]).all()
    records, _ = pipeline_reference(cfg, times, samples)
    assert repr(run.records()) == repr(records)


@pytest.mark.parametrize("duration", [6.0, 2.0], ids=["warm", "shorter-than-warm-up"])
def test_a_failing_first_recovery_faults_at_the_first_sample(duration):
    # the root finder misses theta0's residual target: the lead row is
    # suspect, and run raises recover_frequencies' fault at sample 0, as
    # step() does at its first step, before any of the block's own rows
    cfg = synthetic(3, 1)
    cfg = replace(cfg, run=replace(cfg.run, duration=duration, reset_times=()))
    times, samples = grid(cfg)
    theta0 = build_pipeline(cfg).state.theta0
    roots = recovery_module._roots

    def missing(theta):
        found, residual, allowed = roots(theta)
        residual[(theta == theta0).all(axis=1)] = math.inf
        return found, residual, allowed

    with mock.patch.object(recovery_module, "_roots", missing):
        expected = outcome(lambda: pipeline_reference(cfg, times, samples))
        assert outcome(lambda: engine_run(cfg, times, samples)) == expected
    assert expected[:2] == (NumericFault, 0)
    assert expected[2].startswith("sample 0 (t = 0): root residual inf exceeds ")


def test_an_int_time_beyond_the_float_range_is_a_numeric_fault():
    # 10**400 has no float: step() rejects it in its measurement check, and
    # run() at its row, after the rows before it, as a non-finite time; at
    # sample 5000, where extraction would fire, the check comes first
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=6.0))
    times, samples = grid(cfg)
    message = "time beyond the float range: int too large to convert to float"
    with pytest.raises(NumericFault, match=f"^{re.escape(message)}$"):
        build_pipeline(cfg).step(10**400, 0.0)
    records, _ = pipeline_reference(cfg, times, samples)
    for k in (20, 5000, len(samples) - 1):
        huge = times[:k] + [10**400] + times[k + 1:]
        pipeline = build_pipeline(cfg)
        assert [pipeline.step(t, y) for t, y in zip(huge[:k], samples)] == records[:k]
        with pytest.raises(NumericFault, match=f"^{re.escape(message)}$"):
            pipeline.step(huge[k], samples[k])
        assert outcome(lambda: engine_run(cfg, huge, samples)) == \
            (NumericFault, k, f"sample {k} (t = inf): {message}")


@pytest.mark.parametrize("column", ["times", "samples"])
@pytest.mark.parametrize("entry", ["0.25", None, 0.25 + 0j], ids=["str", "None", "complex"])
def test_an_entry_that_is_no_real_number_raises_as_step_does(column, entry):
    # run() reads such an entry as NaN, and check_measurement raises its
    # TypeError at that row, as step() does at that sample; numpy would parse
    # a str sample if it were copied into a float buffer
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=6.0))
    times, samples = grid(cfg)
    {"times": times, "samples": samples}[column][500] = entry
    pipeline = build_pipeline(cfg)
    for t, y in zip(times[:500], samples):
        pipeline.step(t, y)
    with pytest.raises(TypeError) as stepped:
        pipeline.step(times[500], samples[500])
    with pytest.raises(TypeError) as ran:
        engine_run(cfg, times, samples)
    assert str(ran.value) == str(stepped.value)


@pytest.mark.parametrize("column", ["times", "samples"])
@pytest.mark.parametrize("kind", ["complex128", "complex64", "complex128 array"])
def test_a_numpy_complex_raises_as_a_python_complex_does(column, kind):
    # numpy converts a complex to float by its real part, with only a
    # ComplexWarning; both entries raise a Python complex's TypeError at the
    # same row instead: the entry's own, or a complex array's first
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=6.0))
    columns = dict(zip(("times", "samples"), grid(cfg)))
    if kind == "complex128 array":
        row, columns[column] = 0, np.array(columns[column], dtype=complex)
    else:
        row, columns[column][500] = 500, getattr(np, kind)(0.25 + 1j)
    times, samples = columns["times"], columns["samples"]
    pipeline, stepped = build_pipeline(cfg), None
    with mock.patch.object(pipeline_module, "check_measurement",
                           wraps=pipeline_module.check_measurement) as checks:
        for k, (t, y) in enumerate(zip(times, samples)):
            try:
                pipeline.step(t, y)
            except TypeError as exc:
                stepped = k, str(exc)
                break
        checks.reset_mock()
        with pytest.raises(TypeError) as ran:
            engine_run(cfg, times, samples)
    assert stepped == (row, "must be real number, not complex")
    assert (checks.call_args.args, str(ran.value)) == ((times[row], samples[row]), stepped[1])


def test_a_list_and_a_float64_array_run_alike():
    # the run converts its entry once: a float64 array is taken as it is,
    # and a list of the same floats gives the same run, bit for bit
    cfg = builtin_scenario("uniform-noise")
    cfg = replace(cfg, run=replace(cfg.run, duration=22.0))  # two epochs past t_ft
    times, samples = grid(cfg)
    pipeline = build_pipeline(cfg)
    starts = [0, len(times) // 2]
    listed = pipeline.run(times, samples, starts)
    arrayed = pipeline.run(np.array(times), np.array(samples), starts)
    for column in ("times", "samples", "delta", "theta_hat", "omega_grad"):
        mine, ref = getattr(arrayed, column), getattr(listed, column)
        assert mine.dtype == ref.dtype == np.float64, column
        assert mine.tobytes() == ref.tobytes(), column
    assert arrayed.epochs == listed.epochs
    assert all(epoch.fired is not None for epoch in listed.epochs)

    def state(run):
        return repr((run.state.theta_hat, run.state.excitation, run.state.max_decay_step))

    assert state(arrayed) == state(listed)


def test_resets_closer_than_a_sample(tmp_path):
    # one reset per sample: the second and third of a burst land on the
    # following samples; one before the first sample changes nothing
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=8.0,
                                   reset_times=(1e-10, 2.0, 2.0002, 2.0004)))
    times, samples = grid(cfg)
    assert_parity(cfg, times, samples, tmp_path)


@pytest.mark.parametrize("name, run_fields, estimator_fields, expected", [
    # small-lambda rows at 3210, 3232, 3286, 3455 and 3759; extraction comes
    # due at 3500 and w_floor defers it to 3521
    ("uniform-noise", {"duration": 4.0}, {"t_ft": 3.5, "w_floor": 2.2e-5}, [(3500, 3521)]),
    # a small-lambda row at 8249, in the second epoch
    ("noiseless-2h", {"duration": 8.5, "reset_times": (1.0,)}, {},
     [(None, None), (6000, 6000)]),
], ids=["uniform-noise", "noiseless-2h-reset"])
def test_gradient_blocks_of_seven_rows(tmp_path, monkeypatch, name, run_fields,
                                       estimator_fields, expected):
    # with 7-row blocks, the small-lambda rows, the deferral and the due and
    # fired rows fall on and across block edges; run still matches
    # the streaming path exactly
    monkeypatch.setattr(pipeline_module, "_CHUNK", 7)
    cfg = builtin_scenario(name)
    cfg = replace(cfg, run=replace(cfg.run, **run_fields),
                  estimator=replace(cfg.estimator, **estimator_fields))
    times, samples = grid(cfg)
    assert assert_parity(cfg, times, samples, tmp_path)[0] == "ok"
    epochs = run_scenario(cfg).trajectory.epochs
    assert [(epoch.due, epoch.fired) for epoch in epochs] == expected


class TestFaultParity:
    def quick(self):
        cfg = builtin_scenario("noiseless-2h")
        return replace(cfg, run=replace(cfg.run, duration=6.0))

    def test_non_finite_measurement_after_warm_up(self, tmp_path):
        cfg = self.quick()
        times, samples = grid(cfg)
        samples[3000] = math.inf
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 3000
        assert "non-finite measurement" in message

    def test_non_finite_time(self):
        # a trace file cannot hold one (its reader rejects the row), so both
        # drivers are called directly
        cfg = self.quick()
        times, samples = grid(cfg)
        times[3000] = math.nan
        expected = outcome(lambda: pipeline_reference(cfg, times, samples))
        assert outcome(lambda: engine_run(cfg, times, samples)) == expected
        kind, index, message = expected
        assert kind is NumericFault and index == 3000
        assert "non-finite time nan" in message

    def test_unphysical_roots_at_extraction(self, tmp_path):
        # under heavy noise theta_ft's roots leave the real axis: the
        # finite-time step faults at t_ft = 5 s, the extraction sample
        cfg = self.quick()
        noise = UniformDisturbance(0.5, 0.001, 7)
        cfg = replace(cfg, signal=replace(cfg.signal, disturbance=noise))
        times, samples = grid(cfg)
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 5000
        assert "imaginary part beyond tolerance 0.001" in message

    @pytest.mark.parametrize("flagged, index, fault", [
        (5001, 5000, "imaginary part beyond tolerance 0.001"), (4990, 4990, "a flagged row"),
        (6001, 5000, "imaginary part beyond tolerance 0.001")])
    def test_suspect_rows_around_an_extraction_fault(self, flagged, index, fault):
        # recover_rows flags every warm row from `flagged` on, and recovering
        # any of them on its own fails. The block holding the extraction
        # fault at 5000 has such rows after it or before it: the first of
        # the two faults, by row, is the run's, as in the streaming path.
        # run()'s first recover_rows call leads with the cold rows'
        # theta_hat, so there the rows are counted from warm_from - 1, and
        # the block's theta_ft trails its last row, 6000: from 6001 on, it
        # alone is flagged, and it is extracted on its own, to the same fault
        cfg = self.quick()
        noise = UniformDisturbance(0.5, 0.001, 7)
        cfg = replace(cfg, signal=replace(cfg.signal, disturbance=noise))
        times, samples = grid(cfg)
        warm_from = pipeline_module.delay_table(cfg.model, cfg.drem.d,
                                                cfg.run.sample_period).warm_from

        @contextlib.contextmanager
        def failing_from(row, lead=0):
            seen, flagged = [warm_from - lead], set()
            recover_many = pipeline_module.recover_rows
            recover_one = pipeline_module.recover_frequencies

            def flagging(theta, *args):
                omega, suspect, *estimates = recover_many(theta, *args)
                for i in range(max(0, row - seen[0]), len(theta)):
                    suspect[i] = True
                    flagged.add(tuple(theta[i].tolist()))
                seen[0] += len(theta)
                return omega, suspect, *estimates

            def failing(theta, *args, **kwargs):
                if tuple(theta) in flagged:
                    raise NumericFault("a flagged row")
                return recover_one(theta, *args, **kwargs)

            with mock.patch.object(pipeline_module, "recover_rows", flagging), \
                    mock.patch.object(pipeline_module, "recover_frequencies", failing):
                yield

        with failing_from(flagged):
            expected = outcome(lambda: pipeline_reference(cfg, times, samples))
        with failing_from(flagged, lead=1):
            assert outcome(lambda: engine_run(cfg, times, samples)) == expected
        assert expected[:2] == (NumericFault, index)
        assert fault in expected[2]

    @pytest.mark.parametrize("n", [None, 3, 6], ids=["noiseless-2h", "n3", "n6"])
    def test_a_suspect_theta_ft_is_extracted_on_its_own(self, n):
        # the root finder misses its residual target on the fired row's
        # theta_ft alone: run() extracts that row on its own, and raises
        # recover_frequencies' fault at step()'s sample with its message
        # (at n = 1 a theta_hat row equals theta_ft, and faults first)
        cfg = self.quick() if n is None else sweep(n, 1)
        times, samples = grid(cfg)
        epoch = pipeline_reference(cfg, times, samples)[1].epoch
        theta_ft, roots = np.array(epoch.theta_ft), recovery_module._roots

        def missing(theta):
            found, residual, allowed = roots(theta)
            residual[(theta == theta_ft).all(axis=1)] = math.inf
            return found, residual, allowed

        with mock.patch.object(recovery_module, "_roots", missing):
            expected = outcome(lambda: pipeline_reference(cfg, times, samples))
            assert outcome(lambda: engine_run(cfg, times, samples)) == expected
        assert expected[:2] == (NumericFault, epoch.fired)
        assert re.match(rf"sample {epoch.fired} \(t = .*\): root residual inf exceeds ",
                        expected[2])

    def test_a_non_physical_theta_ft_at_n8(self):
        # the n-sweep benchmark's n = 8 run on seed 1: theta_ft's roots leave
        # the real axis at the due row, 90, so its trailing row is suspect,
        # and run() raises the fault recover_rows found for its roots there,
        # step()'s, with no extraction on its own
        cfg = sweep(8, 1)
        times, samples = grid(cfg)
        expected = outcome(lambda: pipeline_reference(cfg, times, samples))
        recover_one = estimator_module.recover_frequencies
        with mock.patch.object(estimator_module, "recover_frequencies",
                               wraps=recover_one) as extraction:
            assert outcome(lambda: engine_run(cfg, times, samples)) == expected
        assert extraction.call_count == 0
        assert expected[:2] == (NumericFault, 90)
        assert expected[2].startswith("sample 90 (t = 9): root (")
        assert expected[2].endswith("has imaginary part beyond tolerance 0.001")

    def test_sample_42(self, tmp_path):
        cfg = self.quick()
        times = [k * 0.001 for k in range(100)]
        samples = [0.5] * 100
        samples[42] = math.nan
        kind, index, _ = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 42

    def test_non_finite_mixed_regression(self, tmp_path):
        # a 1e307 spike reaches the first stacked row through psi's lag-0 tap
        # while every stacked phi entry is still finite; eps^2 = 1e4 then
        # overflows the mixed psi
        cfg = self.quick()
        times, samples = grid(cfg)
        samples[2000] = 1e307
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 2000 + 130
        assert "non-finite mixed regression" in message

    def test_non_finite_mixed_regression_stacked_svd(self, tmp_path):
        # n = 3 mixes through the closed-form cofactors: a finite 1e307 spike
        # after the reset at sample 20 overflows the cofactors' products at
        # the segment's first warm sample (20 + 2nh + nd = 50), where
        # inf - inf turns them NaN; both drivers raise the fault without a
        # numpy warning
        cfg = synthetic(3, 1)
        times, samples = grid(cfg)
        samples[35] = 1e307
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 50
        assert "non-finite mixed regression" in message

    def test_non_finite_mixed_regression_stacked_svd_n4(self, tmp_path):
        # n = 4 mixes through LU: the same spike after the reset at sample 25
        # overflows the LU determinant at the segment's first warm sample
        # (25 + 2nh + nd = 65), which sends that row to the SVD form, whose
        # products of the singular values overflow there and, where inf * 0,
        # turn the adjugate NaN; both drivers raise the fault without a
        # numpy warning
        cfg = synthetic(4, 1)
        times, samples = grid(cfg)
        samples[45] = 1e307
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 65
        assert "non-finite mixed regression" in message

    def test_recovery_fault_after_a_spike(self, tmp_path):
        # a 1e200 spike leaves the mixed regression finite but throws
        # theta_hat so far that the omega_grad roots miss their residual
        cfg = self.quick()
        times, samples = grid(cfg)
        samples[2000] = 1e200
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 2000 + 130
        assert "root residual" in message

    @pytest.mark.parametrize("n, index", [(3, 55), (8, 130)])
    def test_recovery_fault_after_a_spike_high_order(self, tmp_path, n, index):
        # the same through the companion eigenvalues: a 1e100 spike 20
        # samples before the end, after the reset, reaches theta_hat through
        # the stack's first row d = 4 samples later, and the polished roots
        # miss their residual there
        cfg = synthetic(n, 1)
        times, samples = grid(cfg)
        samples[len(samples) - 20] = 1e100
        kind, at, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and at == index == len(samples) - 20 + 4
        assert "root residual" in message

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("after_reset", [False, True], ids=["t0", "after-reset"])
    def test_non_finite_first_sample_of_a_segment(self, tmp_path, n, after_reset):
        # the segment's measurement scan stops at its first row, so the
        # regression, stack and mix run on empty arrays before the replay
        cfg = synthetic(n, 1)
        times, samples = grid(cfg)
        reset = cfg.run.reset_times[0] - GRID_TOL
        k = next(i for i, t in enumerate(times) if t >= reset) if after_reset else 0
        samples[k] = math.nan
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == k
        assert "non-finite measurement" in message

    def test_overflowing_excitation(self, tmp_path):
        # 1e100 tones keep delta finite, but delta^2 * dt overflows at the
        # first warm sample (2nh + nd = 660 samples): theta_hat turns NaN and
        # omega_grad recovery faults on its coefficients
        cfg = self.quick()
        tones = tuple(replace(tone, amplitude=1e100) for tone in cfg.signal.harmonics)
        cfg = replace(cfg, signal=replace(cfg.signal, harmonics=tones))
        times, samples = grid(cfg)
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 660
        assert "coefficients must be finite" in message

    def test_overflowing_regressor(self, tmp_path):
        # a finite 1e308 overflows phi after warm-up, a fault of the data:
        # mix_rows stops at it once the stack holds it, after phi's
        # shallowest tap (h = 100 samples) and the first stacked row
        # (d = 130 samples). One
        # h earlier the first stacked psi row holds the spike: the adjugate
        # entries that multiply it are below 1 in magnitude there, so the
        # mixed sum stays finite, and eps^2 = 1e-200 keeps it so
        cfg = self.quick()
        cfg = replace(cfg, drem=replace(cfg.drem, epsilon=1e-100))
        times, samples = grid(cfg)
        samples[2600] = 1e308
        kind, index, message = assert_parity(cfg, times, samples, tmp_path)
        assert kind is NumericFault and index == 2600 + 100 + 130
        assert "non-finite stacked regressor" in message


def summed_excitation(deltas, dt):
    """The sum of d * d * dt in row order, as step_gradient accumulates
    the excitation; a cold row's delta 0.0 adds exactly nothing."""
    total = 0.0
    for d in deltas:
        total += d * d * dt
    return total


@pytest.mark.parametrize("name, resets", [
    *(pytest.param(name, (), id=name) for name in BUILTIN_NAMES),
    pytest.param("noiseless-2h", (20.0,), id="noiseless-2h-reset")])
def test_builtin_outputs_match_pipeline_files(tmp_path, name, resets):
    """run_scenario writes the files a Pipeline-driven run writes, byte for
    byte, and their delta column integrates to the last epoch's excitation."""
    cfg = builtin_scenario(name)
    cfg = replace(cfg, run=replace(cfg.run, reset_times=resets))
    result = run_scenario(cfg, out_dir=str(tmp_path / "engine"))
    times, samples = grid(cfg)
    records, pipeline = pipeline_reference(cfg, times, samples)
    assert result.records == records

    dt = cfg.run.sample_period
    last = bisect_left(times, resets[-1] - GRID_TOL) if resets else 0
    assert summed_excitation([rec.delta for rec in records[last:]], dt) == \
        pipeline.state.excitation
    assert summed_excitation(result.trajectory.delta[last:].tolist(), dt) == \
        result.trajectory.state.excitation
    rows = (tmp_path / "engine" / "estimates.csv").read_text().splitlines()[1 + last:]
    assert summed_excitation([float(row.split(",")[2]) for row in rows], dt) == \
        float(result.metadata["estimator.excitation_integral"])

    n = cfg.model.n
    ref = tmp_path / "ref"
    ref.mkdir()
    write_trace_csv(str(ref / "trace.csv"), times, samples)
    header = ["time", "y", "delta"] + [
        f"{name}_{i}" for name in ("theta_hat", "theta_ft", "omega_grad", "omega_ft")
        for i in range(1, n + 1)]
    with open(ref / "estimates.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rec in records:
            fields = [repr(rec.time), repr(rec.y), repr(rec.delta)]
            for values in (rec.theta_hat, rec.theta_ft, rec.omega_grad, rec.omega_ft):
                fields += [repr(v) for v in values] if values is not None else [""] * n
            fh.write(",".join(fields) + "\n")
    meta = dict(result.metadata)
    meta.update(reference_metadata(pipeline, times))
    write_metadata(str(ref / "metadata.txt"), RunResult(
        config=cfg, trajectory=result.trajectory, metadata=meta))

    for file in ("trace.csv", "estimates.csv", "metadata.txt"):
        assert (tmp_path / "engine" / file).read_bytes() == (ref / file).read_bytes(), file
