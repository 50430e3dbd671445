"""Unit tests for the gradient estimator and finite-time re-estimation."""

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import SAMPLE_PERIOD, mixed_stream
from ftfreq.config import RunConfig, ScenarioConfig, ensure_valid
from ftfreq.errors import ConfigError, EstimateNotPhysical, NumericFault
from ftfreq.estimator import (EstimatorSettings, EstimatorState,
                              finite_time_estimate, gradient_rows,
                              reset_estimator, step_gradient)
from ftfreq.harness import build_pipeline, run_scenario
from ftfreq.mixing import DremConfig
from ftfreq.pipeline import Pipeline, warmup_time
from ftfreq.recovery import recover_frequencies
from ftfreq.regression import ModelConfig, true_theta
from ftfreq.signals import HarmonicSpec, SignalSpec, generate_trace
from per_sample import step_gradient as scalar_step_gradient

H = 0.1  # model delay that maps the initial guesses omega0 to theta0


def settings(gamma, omega0=(2.0, 5.0), t_ft=1.0, **kwargs):
    return EstimatorSettings(gamma=gamma, omega0=omega0[:len(gamma)], t_ft=t_ft, **kwargs)


def new_state(cfg):
    """Estimator state of an n = len(gamma) model with delay H."""
    return EstimatorState(cfg, ModelConfig(n=len(cfg.gamma), h=H, omega_min=0.5, omega_max=6.0))


def constant_session(cfg, delta, theta, steps, dt=SAMPLE_PERIOD):
    """Drive a state with a constant-excitation synthetic stream."""
    state = new_state(cfg)
    psi = tuple(delta * t for t in theta)
    for _ in range(steps):
        step_gradient(state, delta, psi, dt)
    return state


def two_tone():
    return SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),
                                 HarmonicSpec(1.0, 3.0, math.pi / 2)))


@st.composite
def clean_sessions(draw):
    """Configs of n <= 3 clean tones on a 0.02 s grid, with h and d on the
    grid and t_ft 1 ms to 3 s after the warm-up 2nh + nd, log-uniformly, so
    that many draws extract while W_i is still far from 0.
    h, d >= 0.2 s, eps = 10 and amplitudes >= 0.8 excite every draw enough
    to extract: at the weakest corner (n = 3, h = d = 0.2, tones 0.6, 1.0
    and 1.4 of amplitude 0.8, gains 0.1) 1 - W_i reaches 6.6e-5, 66x
    w_floor, by the end of the run, 3 s after t_ft."""
    n = draw(st.integers(1, 3))
    period = 0.02
    h = round(draw(st.integers(10, 15)) * period, 9)  # h * 4.0 <= 1.2 < pi / 2
    d = round(draw(st.integers(10, 20)) * period, 9)
    start = draw(st.floats(0.6, 1.0))
    gaps = draw(st.lists(st.floats(0.4, 1.0), min_size=n, max_size=n))
    freqs = [start + sum(gaps[:i]) for i in range(n)]
    harmonics = tuple(HarmonicSpec(draw(st.floats(0.8, 2.0)), w,
                                   draw(st.floats(0.0, 2 * math.pi))) for w in freqs)
    model = ModelConfig(n=n, h=h, omega_min=0.5, omega_max=4.0)
    drem = DremConfig(d=d, epsilon=10.0)
    after = 10.0 ** draw(st.floats(-3.0, math.log10(3.0)))
    t_ft = round(warmup_time(model, drem) + after, 6)
    cfg = ScenarioConfig(
        name="clean", signal=SignalSpec(harmonics), model=model, drem=drem,
        estimator=EstimatorSettings(
            gamma=tuple(draw(st.floats(0.1, 5.0)) for _ in range(n)),
            omega0=tuple(0.5 + (i + 0.5) * 3.5 / n for i in range(n)), t_ft=t_ft),
        run=RunConfig(sample_period=period, duration=round(t_ft + 3.0, 6)))
    return ensure_valid(cfg)


@st.composite
def gradient_steps(draw):
    """Gains of n <= 4 parameters and up to six (delta, psi, dt) steps, with
    deltas small enough for lam < 1e-12, large enough for lam >> 2, signed
    zeros and NaN."""
    n = draw(st.integers(1, 4))
    gamma = tuple(draw(st.floats(1e-3, 1e3)) for _ in range(n))
    deltas = st.one_of(st.floats(-1e-6, 1e-6), st.floats(-1e3, 1e3),
                       st.sampled_from([0.0, -0.0, math.nan]))
    psi = st.tuples(*[st.floats(-1e3, 1e3)] * n)
    steps = draw(st.lists(st.tuples(deltas, psi, st.sampled_from([1e-3, 0.01, 0.5])),
                          min_size=1, max_size=6))
    return gamma, steps


@st.composite
def shared_gain_rows(draw):
    """Gains of n <= 5 parameters drawn from a pool of two values, so that
    equal and distinct gains mix, a dt, up to four runs of up to five rows
    of (delta, psi), and the incoming theta_hat, or None to start from
    theta0. A run's deltas are small enough for lam < 1e-12, large enough
    for lam >> 2, signed zeros and NaN, or put the first gain's lam in
    (37, 745], where expm1(-lam) is -1.0 but exp(-lam) is not 0.0, or
    beyond 745, where it is (the underflow); psi holds signed zeros, so a
    row's drive may be +-0.0, and 1e308, whose drive may overflow; the
    incoming theta_hat may hold NaN and +-inf."""
    pool = draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2))
    n = draw(st.integers(1, 5))
    gamma = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.5]))

    def at(lo, hi):  # the deltas that put the first gain's lam in [lo, hi]
        return st.builds(lambda lam, sign: sign * math.sqrt(lam / (gamma[0] * dt)),
                         st.floats(lo, hi), st.sampled_from([1.0, -1.0]))

    deltas = st.sampled_from([
        st.one_of(st.floats(-1e-6, 1e-6), st.floats(-1e3, 1e3),
                  st.sampled_from([0.0, -0.0, math.nan])),
        at(37.5, 745.0), at(745.0, 1e6)])
    psi = st.tuples(*[st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e308]))] * n)
    rows = []
    for kind in draw(st.lists(deltas, min_size=1, max_size=4)):
        rows += draw(st.lists(st.tuples(kind, psi), min_size=1, max_size=5))
    theta = draw(st.none() | st.lists(
        st.floats(-2.0, 2.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
        min_size=n, max_size=n))
    return gamma, dt, rows, theta


class TestStepGradient:
    @hypothesis.settings(max_examples=300, deadline=None)
    @given(gradient_steps())
    @example(((1.0, 2.0), [(1e-7, (1.0, -1.0), 0.01), (40.0, (3.0, 2.0), 0.5),
                           (math.nan, (0.0, 0.0), 0.01), (0.5, (0.1, 0.2), 0.01)]))
    def test_one_row_call_is_the_scalar_law(self, case):
        # step_gradient, gradient_rows' one-row call, against the scalar law
        # of tests/per_sample.py, bit for bit; a NaN delta turns theta_hat
        # NaN and leaves max_decay_step as it was
        gamma, steps = case
        cfg = settings(gamma, omega0=tuple(0.5 + i for i in range(len(gamma))))
        mine, ref = new_state(cfg), new_state(cfg)
        for delta, psi, dt in steps:
            before = mine.max_decay_step
            step_gradient(mine, delta, psi, dt)
            scalar_step_gradient(ref, delta, psi, dt)
            assert list(map(repr, (*mine.theta_hat, mine.excitation, mine.max_decay_step))) == \
                list(map(repr, (*ref.theta_hat, ref.excitation, ref.max_decay_step)))
            if math.isnan(delta):
                assert mine.max_decay_step == before
                assert all(map(math.isnan, mine.theta_hat))

    @hypothesis.settings(max_examples=300, deadline=None)
    @given(shared_gain_rows())
    @example(((2.0, 5.0, 2.0), 0.01, [(1e-7, (1.0, -1.0, 0.5)), (40.0, (3.0, 2.0, 1.0)),
                                      (-0.0, (1.0, 1.0, 1.0)), (math.nan, (0.0, 0.0, 0.0)),
                                      (0.5, (0.1, 0.2, 0.3))], None))
    @example(((1.0, 1.0, 3.0), 0.01, [(400.0, (1.0, -0.0, 0.5)), (500.0, (2.0, 1.0, 1e308)),
                                      (1e-7, (1.0, 1.0, 1.0)), (450.0, (0.0, 3.0, 1.0)),
                                      (300.0, (1.0, 2.0, 3.0))], [math.nan, 0.5, -1.5]))
    # wholly underflowed blocks (lam > 746 on every row for every gain): a
    # -0.0 drive, an overflowed drive and a NaN incoming theta_hat each keep
    # their column on the general law; one row, and 370 rows as a stream
    # batch, take the drives as they are
    @example(((1.0, 2.0), 0.01, [(400.0, (1.0, -0.0)), (500.0, (2.0, 1.0))], None))
    @example(((1.0, 2.0), 0.01, [(500.0, (1e308, 1.0)), (450.0, (1.0, 2.0))], None))
    @example(((1.0, 1.0), 0.01, [(400.0, (1.0, 2.0)), (-450.0, (0.5, 1.0))], [math.nan, 0.5]))
    @example(((1.0, 1.0, 1.0), 0.01, [(600.0, (1.0, 2.0, 3.0))], None))
    @example(((1.0, 1.0, 1.0), 0.001,
              [(1000.0 + k, (1.0 + k / 370, -2.0, 0.5)) for k in range(370)], [0.3, -0.2, 0.1]))
    def test_rows_with_shared_gains_are_the_scalar_law(self, case):
        # gradient_rows shares each distinct gain's decay among the
        # parameters with that gain, and a run of underflowed rows takes
        # its drives where theta * 0.0 + b is b: every row of a multi-row
        # call is the scalar law of tests/per_sample.py stepped row by row,
        # bit for bit
        gamma, dt, rows, theta = case
        cfg = settings(gamma, omega0=tuple(0.5 + i for i in range(len(gamma))))
        state, ref = new_state(cfg), new_state(cfg)
        if theta is not None:
            state.theta_hat[:], ref.theta_hat[:] = theta, theta
        deltas, psis = zip(*rows)
        theta, excitation, max_steps = gradient_rows(
            state, np.array(deltas, dtype=float), np.array(psis, dtype=float), dt)
        assert repr(state.theta_hat) == repr(ref.theta_hat)  # left as it was
        for k, (delta, psi) in enumerate(rows):
            scalar_step_gradient(ref, delta, psi, dt)
            assert list(map(repr, (*theta[k].tolist(), float(excitation[k]),
                                   float(max_steps[k])))) == \
                list(map(repr, (*ref.theta_hat, ref.excitation, ref.max_decay_step))), k

    def test_zero_delta_changes_nothing(self):
        state = new_state(settings((1.0, 1.0)))
        step_gradient(state, 0.0, (0.0, 0.0), SAMPLE_PERIOD)
        assert state.theta_hat == list(true_theta((2.0, 5.0), H))
        assert state.W == (1.0, 1.0)

    def test_constant_delta_reproduces_error_exponential(self):
        # err(t) = err(0) * exp(-gamma * delta^2 * t), checked at 1 s and 10 s
        gamma = (2.0, 1.0)
        theta = (0.3, -0.2)
        cfg = settings(gamma, t_ft=0.5)
        theta0 = true_theta(cfg.omega0, H)
        delta = 0.1
        for t_check in (1.0, 10.0):
            steps = round(t_check / SAMPLE_PERIOD)
            state = constant_session(cfg, delta, theta, steps)
            for i in range(2):
                expected = theta[i] + (theta0[i] - theta[i]) * math.exp(
                    -gamma[i] * delta ** 2 * t_check)
                assert abs(state.theta_hat[i] - expected) <= 1e-6

    def test_error_monotone_on_consistent_data(self):
        cfg_model = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.5)
        theta_star = true_theta([2.0, 3.0], cfg_model.h)
        state = EstimatorState(settings((0.005, 0.005)), cfg_model)
        previous = [abs(t0 - ts) for t0, ts in zip(state.theta0, theta_star)]
        for _, (delta, psi) in mixed_stream(two_tone(), cfg_model, d=0.13,
                                            epsilon=100.0, duration=3.0):
            step_gradient(state, delta, psi, SAMPLE_PERIOD)
            current = [abs(th - ts) for th, ts in zip(state.theta_hat, theta_star)]
            for now, before in zip(current, previous):
                assert now <= before + 1e-12
            previous = current
        # something actually happened
        assert max(previous) < 1e-6

    def test_large_decay_steps_remain_contractive(self):
        # gamma * delta^2 * dt far above the explicit-Euler limit of 2
        state = constant_session(settings((500.0,)), delta=5.0, theta=(0.2,), steps=200)
        assert state.max_decay_step > 2.0
        assert abs(state.theta_hat[0] - 0.2) < 1e-9

    def test_non_finite_delta_is_not_silent(self):
        # step_gradient leaves the finiteness check to mix_rows; given a NaN
        # delta anyway, theta_hat turns NaN and recovery rejects it, so no
        # silent number comes out
        state = new_state(settings((1.0, 1.0)))
        step_gradient(state, float("nan"), (0.0, 0.0), SAMPLE_PERIOD)
        assert not any(map(math.isfinite, state.theta_hat))
        with pytest.raises(NumericFault, match="coefficients must be finite"):
            recover_frequencies(tuple(state.theta_hat), H, (0.5, 6.0), math.inf)

    def test_w_consistency_with_recomputed_integral(self):
        rng = np.random.default_rng(8)
        cfg = settings((0.7, 1.3))
        state = new_state(cfg)
        deltas = rng.uniform(-2, 2, 4000)
        for delta in deltas.tolist():
            step_gradient(state, delta, (delta * 0.5, delta * -0.25), SAMPLE_PERIOD)
        integral = float(np.sum(deltas ** 2) * SAMPLE_PERIOD)
        for g, w in zip(cfg.gamma, state.W):
            assert w == pytest.approx(math.exp(-g * integral), rel=1e-9)


class TestExcitationLevel:
    def test_zero_before_any_warm_data(self):
        assert new_state(settings((1.0, 2.0))).excitation == 0.0

    def test_constant_delta_integral(self):
        state = constant_session(settings((1.0, 2.0)), delta=0.5, theta=(0.1, 0.2), steps=2000)
        assert state.excitation == pytest.approx(0.25 * 2.0, rel=1e-12)

    def test_strictly_increasing_under_excitation(self):
        state = new_state(settings((1.0,)))
        last = 0.0
        for _ in range(100):
            step_gradient(state, 0.3, (0.0,), SAMPLE_PERIOD)
            level = state.excitation
            assert level > last
            last = level


def slots(state):
    """Every slot of an estimator state, by repr."""
    return repr([getattr(state, name) for name in EstimatorState.__slots__])


class TestFiniteTimeEstimate:
    def test_no_learning_returns_initial_estimate(self):
        cfg = settings((1.0, 1.0), t_ft=0.5)
        state = new_state(cfg)
        state.excitation = 0.35  # W < 1, theta_hat still at theta0
        theta_ft, _ = finite_time_estimate(state)
        assert theta_ft == pytest.approx(state.theta0, rel=1e-14)

    def test_fully_excited_returns_current_estimate(self):
        cfg = settings((1.0, 1.0), t_ft=0.5)
        state = new_state(cfg)
        state.theta_hat = [0.9, 0.7]
        state.excitation = 1e6  # W underflows to 0
        theta_ft, estimate = finite_time_estimate(state)
        assert theta_ft == (0.9, 0.7)
        assert estimate == recover_frequencies(theta_ft, H, state.model.band, cfg.imag_tol)

    def test_recovers_omega_ft_with_theta_ft(self):
        cfg = settings((1.0, 1.0), t_ft=0.5)
        state = new_state(cfg)
        state.theta_hat = list(true_theta((2.0, 3.0), H))
        state.excitation = 1e6  # W underflows to 0: theta_ft = theta_hat
        theta_ft, estimate = finite_time_estimate(state)
        assert theta_ft == tuple(state.theta_hat)
        assert estimate.omega_hat == pytest.approx((2.0, 3.0), rel=1e-12)
        assert (estimate.residual, estimate.clamped) == (0.0, False)
        # a reset clears the excitation: the new epoch defers until excited
        reset_estimator(state)
        assert finite_time_estimate(state) is None

    @pytest.mark.parametrize("roots, residual, clamped", [
        ((0.5 + 1e-6j, 0.5 - 1e-6j), 1e-6, False),  # a pair just off the real axis
        ((1.0 + 1e-9, 0.5), 0.0, True),  # a cosine just above 1
    ])
    def test_keeps_the_recovery_diagnostics(self, roots, residual, clamped):
        cfg = settings((1.0, 1.0), t_ft=0.5)
        state = new_state(cfg)
        a, b = roots
        state.theta_hat = [(a + b).real, -(a * b).real]
        state.excitation = 1e6
        _, estimate = finite_time_estimate(state)
        assert estimate.residual == pytest.approx(residual, rel=1e-4)  # b^2 - 4c cancels
        assert estimate.clamped is clamped

    def test_failed_recovery_records_nothing(self):
        # x^2 + 1 has roots +-i: the fault leaves the state as it was, so a
        # second call raises it again
        cfg = settings((1.0, 1.0), t_ft=0.5)
        state = new_state(cfg)
        state.theta_hat = [0.0, -1.0]
        state.excitation = 1e6
        before = slots(state)
        for _ in range(2):
            with pytest.raises(EstimateNotPhysical, match="beyond tolerance 0.001"):
                finite_time_estimate(state)
            assert slots(state) == before

    @pytest.mark.parametrize("theta_hat, excitation, outcome", [
        ((0.9, 0.7), 1e-9, None),  # deferred: 1 - W_i below w_floor
        (true_theta((2.0, 3.0), H), 0.35, "extracted"),
        ((0.0, -1.0), 1e6, EstimateNotPhysical),  # roots +-i
    ], ids=["deferred", "extracted", "not-physical"])
    def test_leaves_the_state_as_it_was(self, theta_hat, excitation, outcome):
        # the estimator computes and records nothing: on deferral, success
        # and an unphysical fault every slot keeps its value
        state = new_state(settings((1.0, 1.0), t_ft=0.5))
        state.theta_hat, state.excitation, state.max_decay_step = list(theta_hat), excitation, 0.25
        before = slots(state)
        if outcome is EstimateNotPhysical:
            with pytest.raises(EstimateNotPhysical):
                finite_time_estimate(state)
        elif outcome is None:
            assert finite_time_estimate(state) is None
        else:
            assert finite_time_estimate(state) is not None
        assert slots(state) == before

    def test_deferred_until_excited(self):
        cfg = settings((1.0,), t_ft=0.01, w_floor=1e-6)
        state = constant_session(cfg, delta=1e-5, theta=(0.3,), steps=20)
        assert 1.0 - state.W[0] < cfg.w_floor
        before = slots(state)
        assert finite_time_estimate(state) is None
        assert slots(state) == before
        # excitation arrives later; the next attempt extracts
        state2 = constant_session(cfg, delta=1.0, theta=(0.3,), steps=100)
        assert finite_time_estimate(state2)[0] == pytest.approx((0.3,), abs=1e-9)

    def test_exact_on_simulated_session_at_any_time(self):
        model = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.5)
        theta_star = true_theta([2.0, 3.0], model.h)
        cfg = settings((1.0, 1.0), omega0=(1.0, 4.0), t_ft=0.7)
        for t_extract in (0.8, 1.5, 3.0):
            state = EstimatorState(cfg, model)
            for _, (delta, psi) in mixed_stream(two_tone(), model, d=0.13,
                                                epsilon=1.0, duration=t_extract):
                step_gradient(state, delta, psi, SAMPLE_PERIOD)
            result = finite_time_estimate(state)
            assert result is not None
            # gradient estimate itself is still far off at epsilon = 1
            assert max(abs(w - 1.0) for w in state.W) < 0.9
            for got, want in zip(result[0], theta_star):
                assert abs(got - want) <= 1e-4

    @hypothesis.settings(max_examples=50, deadline=None)
    @given(clean_sessions())
    def test_exact_at_extraction_after_any_t_ft(self, cfg):
        # On clean tones psi = delta * theta holds at every warm sample, so
        # theta_ft is the true theta up to rounding. The rounding of theta_hat
        # (~1e-15) is divided by 1 - W_i >= w_floor = 1e-6 when extraction
        # fires on the deferral edge: below 2e-9 over 2000 draws, so the
        # bound leaves 50x to spare. The gradient estimate alone is off by
        # W_i * |theta0 - theta|, far above the bound unless W_i is ~0.
        run = run_scenario(cfg).trajectory
        epoch, = run.epochs
        assert epoch.fired is not None
        assert run.times[epoch.fired] >= cfg.estimator.t_ft - 1e-9
        freqs = [tone.frequency for tone in cfg.signal.harmonics]
        for got, want in zip(epoch.theta_ft, true_theta(freqs, cfg.model.h)):
            assert abs(got - want) <= 1e-7

    def test_held_constant_after_extraction(self):
        # the estimator keeps no cache: a later call re-estimates from the
        # state it is given, and the first result, which the driver holds
        # in its epoch's record, does not change
        cfg = settings((1.0,), t_ft=0.05)
        state = constant_session(cfg, delta=1.0, theta=(0.3,), steps=100)
        first = finite_time_estimate(state)
        held = repr(first)
        for _ in range(200):
            step_gradient(state, 0.5, (0.5 * -0.9,), SAMPLE_PERIOD)  # new "truth"
        later = finite_time_estimate(state)
        assert repr(first) == held
        assert first[0] == pytest.approx((0.3,), abs=1e-9)
        assert later[0] != first[0]


class TestReset:
    def test_reset_starts_new_epoch_with_carried_estimate(self):
        cfg = settings((1.0,), t_ft=0.05)
        state = constant_session(cfg, delta=1.0, theta=(0.3,), steps=100)
        finite_time_estimate(state)
        carried = tuple(state.theta_hat)
        reset_estimator(state)
        assert state.theta0 == carried
        assert state.excitation == 0.0
        assert finite_time_estimate(state) is None
        assert state.W == (1.0,)

    def test_post_reset_extraction_reflects_new_data(self):
        cfg = settings((1.0,), t_ft=0.05)
        state = constant_session(cfg, delta=1.0, theta=(0.3,), steps=100)
        finite_time_estimate(state)
        reset_estimator(state)
        for _ in range(120):
            step_gradient(state, 1.0, (-0.9,), SAMPLE_PERIOD)
        result, _ = finite_time_estimate(state)
        assert result == pytest.approx((-0.9,), abs=1e-9)


class TestPipelineReset:
    @staticmethod
    def records(cfg, resets, repeat=1, before=False):
        """Pipeline records over cfg's trace, with reset() called repeat
        times before each sample index in resets (and once before the first
        sample if before)."""
        pipeline = build_pipeline(cfg)
        period = cfg.run.sample_period
        values = generate_trace(cfg.signal, period, cfg.run.duration).values
        if before:
            pipeline.reset()
        out = []
        for k, y in enumerate(values):
            for _ in range(repeat if k in resets else 0):
                pipeline.reset()
            out.append(pipeline.step(k * period, y))
        return out

    @hypothesis.settings(max_examples=25, deadline=None)
    @given(clean_sessions(), st.data())
    def test_reset_is_idempotent(self, cfg, data):
        count = round(cfg.run.duration / cfg.run.sample_period) + 1
        resets = set(data.draw(st.lists(st.integers(1, count - 1), max_size=3)))
        once = self.records(cfg, resets)
        assert self.records(cfg, resets, repeat=2) == once
        assert self.records(cfg, resets, before=True) == once


class TestEstimatorSettings:
    def test_rejects_bad_settings(self):
        with pytest.raises(ConfigError):
            EstimatorSettings(gamma=(0.0,), omega0=(2.0,), t_ft=1.0)
        with pytest.raises(ConfigError):
            EstimatorSettings(gamma=(1.0,), omega0=(2.0,), t_ft=-1.0)
        with pytest.raises(ConfigError):
            EstimatorSettings(gamma=(1.0,), omega0=(2.0, 3.0), t_ft=1.0)
        with pytest.raises(ConfigError):
            EstimatorSettings(gamma=(1.0,), omega0=(2.0,), t_ft=1.0, w_floor=2.0)
        with pytest.raises(ConfigError):
            EstimatorSettings(gamma=(1.0, 1.0), omega0=(2.0, 2.0), t_ft=1.0)
        with pytest.raises(ConfigError):
            EstimatorSettings(gamma=(1.0,), omega0=(-2.0,), t_ft=1.0)
        for imag_tol in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ConfigError, match="estimator.imag_tol must be positive"):
                EstimatorSettings(gamma=(1.0,), omega0=(2.0,), t_ft=1.0, imag_tol=imag_tol)

    def test_length_must_match_the_model(self):
        # checked once, by the state a Pipeline builds for step() and run() alike
        model = ModelConfig(n=2, h=H, omega_min=0.5, omega_max=6.0)
        drem = DremConfig(d=0.13, epsilon=100.0)
        short = settings((0.005,), t_ft=5.0)
        with pytest.raises(ConfigError, match="model.n = 2"):
            EstimatorState(short, model)
        with pytest.raises(ConfigError, match="model.n = 2"):
            Pipeline(model, drem, short, SAMPLE_PERIOD)
        with pytest.raises(ConfigError, match="model.n = 2"):
            Pipeline(model, drem, short, SAMPLE_PERIOD).run(
                [0.0, SAMPLE_PERIOD], [0.0, 1.0], [0])

    def test_state_starts_at_the_initial_guesses(self):
        state = new_state(settings((1.0, 1.0)))
        assert state.theta0 == true_theta((2.0, 5.0), H)
        assert state.theta_hat == list(state.theta0)
        assert state.__slots__ == ("settings", "model", "theta_hat", "theta0", "excitation",
                                   "max_decay_step")
