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
import math
import random
import re
from bisect import bisect_left
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_mixed_ahead, batched_mixing, batched_recovery
from ftfreq import pipeline as pipeline_module
from ftfreq.config import (BUILTIN_NAMES, EstimatorSettings, RunConfig,
                           ScenarioConfig, builtin_scenario, ensure_valid,
                           validate_config)
from ftfreq.errors import ConfigError, NumericFault
from ftfreq.estimator import EstimatorState
from ftfreq.harness import (RunResult, build_pipeline, estimate_from_file,
                            run_scenario, write_metadata, write_trace_csv)
from ftfreq.mixing import DremConfig, mix_rows
from ftfreq.pipeline import Epoch, warmup_time
from ftfreq.regression import DelayTable, ModelConfig
from ftfreq.signals import (HarmonicSpec, SignalSpec, UniformDisturbance,
                            generate_trace)

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
    # each epoch comes due where its clock reaches t_ft and fires at the
    # first row of its segment whose Pipeline record holds omega_ft
    epochs = result.trajectory.epochs
    assert [epoch.first for epoch in epochs] == [0, *(epoch.stop for epoch in epochs[:-1])]
    assert epochs[-1].stop == len(records)
    for epoch in epochs:
        rows = range(epoch.first, epoch.stop)
        start = times[epoch.first]
        assert epoch.due == next(
            (k for k in rows if times[k] - start >= cfg.estimator.t_ft), None)
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


@pytest.mark.parametrize("n", range(1, 9))
def test_streaming_epochs_match_run(n):
    # Pipeline.epoch, read before each reset and after the last sample, is
    # the record run writes for that epoch: a short epoch that never comes
    # due, then two that extract (seed 3: at n = 8, seed 1's roots leave the
    # real axis); a streaming record stays open (stop None)
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
    assert [epoch.stop for epoch in streamed] == [None] * 3


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


def test_pipeline_rejects_a_non_finite_time():
    # a non-finite first time would become the epoch start, so that
    # t - start >= t_ft never holds and extraction silently never fires
    for bad in (math.nan, math.inf, -math.inf):
        pipeline = build_pipeline(builtin_scenario("noiseless-2h"))
        with pytest.raises(NumericFault, match=f"non-finite time {bad}"):
            pipeline.step(bad, 0.0)


def test_cold_samples_are_not_mixed_or_recovered():
    # n = 3 at 0.1 s: warm 30 samples after the start and after the reset at
    # 5 s, so 20 of the first epoch's 50 samples and 21 of the second's 51
    # are warm. Only their steps mix (d = 4 samples ahead at a time) and take
    # a mixed row, and only their gradient steps move theta_hat and so call
    # for a new omega_grad: the step that mixes a batch recovers its rows in
    # one recover_rows call, and only the session's first, cold sample
    # recovers on its own. The last batch runs 3 rows past the trace's end
    cfg = synthetic(3, 1)
    cfg = replace(cfg, run=replace(cfg.run, duration=10.0, reset_times=(5.0,)))
    times, samples = grid(cfg)
    warm = [20, 21]
    with batched_mixing() as batches, batched_recovery() as recoveries:
        records, _ = pipeline_reference(cfg, times, samples)
    assert assert_mixed_ahead(batches, [rec.delta for rec in records], [0, 50], 30, 4,
                              cfg.run.sample_period) == sum(warm)
    assert recoveries == [(times[0], None), *((t, len(rows)) for t, rows in batches)]
    assert sum(rows for _, rows in recoveries[1:]) == sum(warm) + 3

    rows = []

    def recording(y, taps, first, stop, epsilon):
        rows.append(stop - first)
        return mix_rows(y, taps, first, stop, epsilon)

    with mock.patch.object(pipeline_module, "mix_rows", recording):
        run = build_pipeline(cfg).run(times, samples, [0, 50])
    assert rows == warm
    cold = [*range(30), *range(50, 80)]
    assert all(records[k].delta == 0.0 and run.delta[k] == 0.0 for k in cold)


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
        (5001, 5000, "imaginary part beyond tolerance 0.001"), (4990, 4990, "a flagged row")])
    def test_suspect_rows_around_an_extraction_fault(self, flagged, index, fault):
        # recover_rows flags every warm row from `flagged` on, and recovering
        # any of them on its own fails. The block holding the extraction
        # fault at 5000 has such rows after it or before it: the first of
        # the two faults, by row, is the run's, as in the streaming path
        cfg = self.quick()
        noise = UniformDisturbance(0.5, 0.001, 7)
        cfg = replace(cfg, signal=replace(cfg.signal, disturbance=noise))
        times, samples = grid(cfg)
        warm_from = pipeline_module.delay_table(cfg.model, cfg.drem.d,
                                                cfg.run.sample_period).warm_from

        @contextlib.contextmanager
        def failing_from(row):
            seen, flagged = [warm_from], set()
            recover_many = pipeline_module.recover_rows
            recover_one = pipeline_module.recover_frequencies

            def flagging(theta, *args):
                omega, suspect = recover_many(theta, *args)
                for i in range(max(0, row - seen[0]), len(theta)):
                    suspect[i] = True
                    flagged.add(tuple(theta[i].tolist()))
                seen[0] += len(theta)
                return omega, suspect

            def failing(theta, *args, **kwargs):
                if tuple(theta) in flagged:
                    raise NumericFault("a flagged row")
                return recover_one(theta, *args, **kwargs)

            with mock.patch.object(pipeline_module, "recover_rows", flagging), \
                    mock.patch.object(pipeline_module, "recover_frequencies", failing):
                yield

        with failing_from(flagged):
            expected = outcome(lambda: pipeline_reference(cfg, times, samples))
        with failing_from(flagged):
            assert outcome(lambda: engine_run(cfg, times, samples)) == expected
        assert expected[:2] == (NumericFault, index)
        assert fault in expected[2]

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
        # n = 4 mixes through the stacked SVD: the same spike after the reset
        # at sample 25 overflows the products of the singular values at the
        # segment's first warm sample (25 + 2nh + nd = 65), where inf * 0
        # turns the adjugate NaN; both drivers raise the fault without a
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
        # mix raises it once the stack holds it, after phi's shallowest tap
        # (h = 100 samples) and the first stacked row (d = 130 samples). One
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
