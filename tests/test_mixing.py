"""Unit tests for regressor extension (the stacked rows) and adjugate mixing."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (SAMPLE_PERIOD, assert_mixed_ahead, batched_mixing,
                      mixed_stream, random_distinct_frequencies, window_at)
from ftfreq.errors import ConfigError, NumericFault
from ftfreq.estimator import EstimatorSettings
from ftfreq.mixing import DremConfig, adjugate, mix
from ftfreq.pipeline import Pipeline
from ftfreq.regression import (ModelConfig, delay_table, regression_at,
                               true_theta)
from ftfreq.signals import HarmonicSpec, SignalSpec


def session(n, steps_h, steps_d, period=SAMPLE_PERIOD):
    """Pipeline of an n-harmonic model with h and d on the sample grid; it
    never extracts, and its gains barely move theta_hat."""
    model = ModelConfig(n=n, h=steps_h * period, omega_min=0.5, omega_max=5.0)
    omega0 = tuple(1.0 + 0.5 * i for i in range(n))
    return Pipeline(model, DremConfig(d=steps_d * period, epsilon=1.0),
                    EstimatorSettings(gamma=(1e-6,) * n, omega0=omega0, t_ft=1e6), period)


class TestExtender:
    """The stacked system: row i is the regression taps.rows[i] samples back."""

    def test_single_delay_case(self):
        # n = 1, h = d = 10 samples: psi = y(k) + y(k - 20), phi = 2 y(k - 10)
        model = ModelConfig(n=1, h=0.01, omega_min=0.5, omega_max=5.0)
        taps = delay_table(model, 0.01, SAMPLE_PERIOD)
        window = window_at([float(k) for k in range(30)], 29, taps.warm_from + 1)
        assert taps.rows == (10,)
        assert regression_at(window, taps, taps.rows[0]) == (19.0, (18.0,))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 200), st.integers(0, 2**32))
    def test_rows_at_multiples_of_d(self, n, steps_h, steps_d, count, seed):
        # the row at lag r is the lag-0 regression r samples earlier, and
        # exactly zero before any history
        model = ModelConfig(n=n, h=steps_h * SAMPLE_PERIOD, omega_min=0.5, omega_max=5.0)
        taps = delay_table(model, steps_d * SAMPLE_PERIOD, SAMPLE_PERIOD)
        assert taps.rows == tuple(i * steps_d for i in range(1, n + 1))
        rng = random.Random(seed)
        values = [rng.uniform(-2.0, 2.0) for _ in range(count)]
        length = taps.warm_from + 1
        window = window_at(values, count - 1, length)
        for lag in taps.rows:
            if lag >= count:
                assert regression_at(window, taps, lag) == (0.0, (0.0,) * n)
            else:
                earlier = window_at(values, count - 1 - lag, length)
                assert regression_at(window, taps, lag) == regression_at(earlier, taps)

    def test_zero_stream_stays_zero(self):
        pipeline = session(2, 10, 10)
        for k in range(100):
            assert pipeline.step(k * SAMPLE_PERIOD, 0.0).delta == 0.0
        assert pipeline.state.excitation == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 80), st.integers(1, 80))
    def test_complete_requires_valid_history_at_deepest_lag(self, n, steps_h, steps_d,
                                                            reset_at, after):
        # warm exactly from sample warm_from after the start and after a
        # reset: only warm steps mix, each batch holding the rows of the
        # next d seconds, and each warm sample takes its own row
        pipeline = session(n, steps_h, steps_d, period=0.01)
        warm_from = 2 * n * steps_h + n * steps_d
        assert pipeline.taps.warm_from == warm_from
        freqs = [1.0 + 0.4 * i for i in range(n)]
        signal = [sum(math.sin(w * 0.01 * k + i) for i, w in enumerate(freqs))
                  for k in range(reset_at + after)]
        with batched_mixing() as batches:
            deltas = []
            for k, y in enumerate(signal):
                if k == reset_at:
                    pipeline.reset()
                deltas.append(pipeline.step(k * 0.01, y).delta)
        warm = assert_mixed_ahead(batches, deltas, sorted({0, reset_at}), warm_from,
                                  steps_d, 0.01)
        assert warm == max(0, reset_at - warm_from) + max(0, after - warm_from)

    def test_off_grid_d_rejected(self):
        with pytest.raises(ConfigError):
            session(2, 10, 10.5)

    def test_clear_restarts_history(self):
        # n = 1: delta is 2 y(k - 20) exactly once warm (from 2h + d = 30
        # samples on), and reads zero again after a reset
        pipeline = session(1, 10, 10)
        for k in range(50):
            pipeline.step(k * SAMPLE_PERIOD, 1.0)
        pipeline.reset()
        with batched_mixing() as batches:
            deltas = [pipeline.step((50 + k) * SAMPLE_PERIOD, 7.0).delta for k in range(31)]
        assert deltas == [0.0] * 30 + [14.0]
        # one batch, at the first warm sample: its row and the next d's
        assert batches == [(80 * SAMPLE_PERIOD, [14.0] * 10)]


def cofactor_adjugate(m):
    """Reference adjugate: transposed signed minors, each from np.linalg.det."""
    n = len(m)
    adj = np.ones((n, n))
    if n > 1:
        for i in range(n):
            for j in range(n):
                minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
                adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


@st.composite
def low_rank_matrices(draw):
    """M = B C with B n x r and C r x n, so rank(M) <= r for r = 0..n."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, n))
    entries = st.floats(-2.0, 2.0)
    b = draw(arrays(float, (n, r), elements=entries))
    c = draw(arrays(float, (r, n), elements=entries))
    return b @ c


class TestAdjugate:
    def test_2x2_closed_form(self):
        assert adjugate([[1.0, 2.0], [3.0, 4.0]]) == ([[4.0, -2.0], [-3.0, 1.0]], -2.0)

    def test_identity_fixed_point(self):
        for n in range(1, 9):
            eye = np.eye(n).tolist()
            adj, det = adjugate(eye)
            assert np.allclose(adj, eye)
            assert det == pytest.approx(1.0)

    def test_defining_identity_random_3x3(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.uniform(-2, 2, (3, 3))
            adj, det = adjugate(m.tolist())
            assert np.allclose(np.array(adj) @ m, det * np.eye(3), atol=1e-12 * max(1, abs(det)))

    def test_svd_path_matches_cofactor_oracle(self):
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            m = rng.uniform(-2, 2, (n, n))
            adj = np.array(adjugate(m.tolist())[0])
            cof = cofactor_adjugate(m)
            assert np.allclose(adj, cof, rtol=1e-9, atol=1e-9 * np.abs(cof).max())

    def test_singular_matrix_still_satisfies_identity(self):
        # duplicated rows: det = 0, so adj(M) M must vanish
        m = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        adj = np.array(adjugate(m)[0])
        product = adj @ np.array(m)
        assert np.abs(product).max() < 1e-12
        m5 = np.vstack([np.ones((1, 5)), np.ones((1, 5)), np.random.default_rng(1).uniform(-1, 1, (3, 5))])
        adj5 = np.array(adjugate(m5.tolist())[0])
        assert np.abs(adj5 @ m5).max() < 1e-10

    def test_determinant_matches_numpy(self):
        rng = np.random.default_rng(13)
        for n in range(1, 7):
            m = rng.uniform(-3, 3, (n, n))
            assert adjugate(m.tolist())[1] == pytest.approx(
                float(np.linalg.det(m)), rel=1e-10, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(low_rank_matrices())
    def test_identity_on_rank_deficient_matrices(self, m):
        n = len(m)
        adj, det = adjugate(m.tolist())
        norm = float(np.linalg.norm(m))
        bound = 1e-10 * (1.0 + norm) * max(1.0, norm ** (n - 1))
        assert np.abs(np.array(adj) @ m - det * np.eye(n)).max() <= bound
        with np.errstate(divide="ignore"):  # numpy's LU meets subnormal pivots
            reference = np.linalg.det(m)
        assert abs(det - reference) <= bound * max(1.0, norm)

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ConfigError):
            adjugate([[1.0, 2.0]])
        with pytest.raises(ConfigError):
            adjugate([[1.0, 2.0], [3.0]])
        with pytest.raises(ConfigError):
            adjugate([1.0, 2.0])
        with pytest.raises(ConfigError):
            adjugate([[1.0, float("nan")], [0.0, 1.0]])
        for n in (3, 8):
            for bad in (float("nan"), float("inf"), -float("inf")):
                m = np.eye(n)
                m[n - 1, 0] = bad
                with pytest.raises(ConfigError):
                    adjugate(m.tolist())


def two_tone():
    return SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),
                                 HarmonicSpec(1.0, 3.0, math.pi / 2)))


class TestMix:
    def test_n1_reduces_to_scaled_scalars(self):
        delta, psi = mix(1.0, (0.7,), ((0.2,),), 10.0)
        assert delta == pytest.approx(2.0, abs=1e-15)
        assert psi[0] == pytest.approx(7.0, abs=1e-14)

    def test_mixing_identity_against_true_theta(self):
        for n, seed in ((1, 21), (2, 22), (3, 23), (4, 24), (5, 25), (6, 26)):
            rng = np.random.default_rng(seed)
            freqs = random_distinct_frequencies(rng, n, 0.6, 5.4)
            spec = SignalSpec(harmonics=tuple(
                HarmonicSpec(1.0, w, float(rng.uniform(0, 6))) for w in freqs))
            cfg = ModelConfig(n=n, h=0.05, omega_min=0.5, omega_max=6.0)
            theta = true_theta(freqs, cfg.h)
            epsilon = 1.0
            scale = math.factorial(n) * (epsilon * (2 ** n) * n) ** n
            checked = 0
            for k, (delta, psi) in mixed_stream(spec, cfg, d=0.07, epsilon=epsilon,
                                                duration=4.0):
                for i in range(n):
                    assert abs(psi[i] - delta * theta[i]) <= 1e-9 * scale
                checked += 1
            assert checked > 1000

    def test_scaling_law_in_epsilon(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        base = dict(mixed_stream(two_tone(), cfg, d=0.13, epsilon=1.0, duration=2.0))
        hundred = dict(mixed_stream(two_tone(), cfg, d=0.13, epsilon=100.0, duration=2.0))
        kappa_n = 100.0 ** 2
        for k in range(700, 2001, 97):
            (delta, psi), (delta_100, psi_100) = base[k], hundred[k]
            assert delta_100 == pytest.approx(kappa_n * delta, rel=1e-12)
            for i in range(2):
                assert psi_100[i] == pytest.approx(kappa_n * psi[i], rel=1e-12)
            if abs(delta) > 1e-6:
                assert psi_100[0] / delta_100 == pytest.approx(psi[0] / delta, rel=1e-9)

    def test_delta_periodic_with_positive_energy(self):
        # grid-aligned common period: 2 s for tones at pi and 2*pi rad/s
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, math.pi, 0.2),
                                     HarmonicSpec(1.0, 2 * math.pi, 1.1)))
        cfg = ModelConfig(n=2, h=0.2, omega_min=1.0, omega_max=7.0)
        period_samples = 2000
        deltas = {k: delta for k, (delta, _) in
                  mixed_stream(spec, cfg, d=0.25, epsilon=1.0, duration=6.0)}
        warm = round((2 * 2 * 0.2 + 2 * 0.25) / SAMPLE_PERIOD)
        peak = max(abs(d) for d in deltas.values())
        energy = 0.0
        for k in range(warm, warm + period_samples):
            assert abs(deltas[k + period_samples] - deltas[k]) <= 1e-9 * peak
            energy += deltas[k] ** 2 * SAMPLE_PERIOD
        assert energy > 1e-6 * peak ** 2

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigError):
            mix(0.0, (0.0,), ((0.0,),), 0.0)
        with pytest.raises(ConfigError):
            DremConfig(d=0.1, epsilon=-1.0)

    def test_overflowed_stack_is_a_numeric_fault(self):
        # adjugate rejects the matrix as input; mix reports it as a data fault
        rows = ((float("inf"), 0.0), (0.0, 1.0))
        with pytest.raises(NumericFault, match="t = 0.25"):
            mix(0.25, (0.0, 0.0), rows, 1.0)
        with pytest.raises(ConfigError):
            mix(0.25, (0.0,), ((1.0, 2.0),), 1.0)

    def test_non_finite_mixed_output_is_a_numeric_fault(self):
        # a finite stack whose mixed psi overflows: the gradient stage gets
        # only finite (delta, psi) pairs
        with pytest.raises(NumericFault, match="non-finite mixed regression at t = 0.25"):
            mix(0.25, (1e308,), ((1.0,),), 10.0)
