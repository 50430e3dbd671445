"""Unit tests for regressor extension and adjugate mixing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SAMPLE_PERIOD, mixed_stream, random_distinct_frequencies
from ftfreq.errors import ConfigError, NumericFault
from ftfreq.mixing import DremConfig, RegressorExtender, adjugate, mix
from ftfreq.regression import (ModelConfig, RegressionSample, delay_table,
                               true_theta)
from ftfreq.signals import HarmonicSpec, SignalSpec


def make_samples(n, count, valid_from=0):
    """Deterministic distinctive regression samples for lag checks."""
    for k in range(count):
        yield RegressionSample(
            time=k * SAMPLE_PERIOD,
            psi=float(k),
            phi=tuple(float(1000 * (j + 1) + k) for j in range(n)),
            valid=k >= valid_from,
        )


def extender_for(n, d):
    """Extender of an n-harmonic session with stacked rows d seconds apart."""
    model = ModelConfig(n=n, h=0.01, omega_min=0.5, omega_max=5.0)
    return RegressorExtender(delay_table(model, d, SAMPLE_PERIOD))


class TestExtender:
    def test_single_delay_case(self):
        extender = extender_for(1, 0.01)
        last = None
        for sample in make_samples(1, 30):
            last = extender.push(sample)
        assert last.psi_delayed == (float(29 - 10),)
        assert last.phi_rows == ((float(1000 + 29 - 10),),)

    def test_rows_at_multiples_of_d(self):
        # d = 0.13 at 1 kHz puts the two rows 130 and 260 samples back
        extender = extender_for(2, 0.13)
        for sample in make_samples(2, 400):
            ext = extender.push(sample)
        assert ext.psi_delayed == (float(399 - 130), float(399 - 260))
        assert ext.phi_rows[0] == (float(1000 + 399 - 130), float(2000 + 399 - 130))
        assert ext.phi_rows[1] == (float(1000 + 399 - 260), float(2000 + 399 - 260))

    def test_zero_stream_stays_zero(self):
        extender = extender_for(2, 0.01)
        for k in range(100):
            ext = extender.push(RegressionSample(k * SAMPLE_PERIOD, 0.0, (0.0, 0.0), True))
        assert ext.psi_delayed == (0.0, 0.0)
        assert ext.phi_rows == ((0.0, 0.0), (0.0, 0.0))

    def test_complete_requires_valid_history_at_deepest_lag(self):
        valid_from = 40
        extender = extender_for(2, 0.01)  # deepest lag 20
        for k, sample in enumerate(make_samples(2, 100, valid_from=valid_from)):
            ext = extender.push(sample)
            assert ext.complete == (k - 20 >= valid_from)

    def test_off_grid_d_rejected(self):
        with pytest.raises(ConfigError):
            extender_for(2, 0.0105)

    def test_clear_restarts_history(self):
        extender = extender_for(1, 0.01)
        for sample in make_samples(1, 50):
            extender.push(sample)
        extender.clear()
        ext = extender.push(RegressionSample(0.0, 7.0, (7.0,), True))
        assert ext.psi_delayed == (0.0,)
        assert not ext.complete


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
        from ftfreq.mixing import ExtendedRegression
        ext = ExtendedRegression(time=1.0, psi_delayed=(0.7,), phi_rows=((0.2,),),
                                 complete=True)
        sample = mix(ext, 10.0)
        assert sample.delta == pytest.approx(2.0, abs=1e-15)
        assert sample.psi[0] == pytest.approx(7.0, abs=1e-14)
        assert sample.warm

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
            for k, sample in mixed_stream(spec, cfg, d=0.07, epsilon=epsilon,
                                          duration=4.0):
                if not sample.warm:
                    continue
                for i in range(n):
                    assert abs(sample.psi[i] - sample.delta * theta[i]) <= 1e-9 * scale
                checked += 1
            assert checked > 1000

    def test_scaling_law_in_epsilon(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        base = dict(mixed_stream(two_tone(), cfg, d=0.13, epsilon=1.0, duration=2.0))
        hundred = dict(mixed_stream(two_tone(), cfg, d=0.13, epsilon=100.0, duration=2.0))
        kappa_n = 100.0 ** 2
        for k in range(700, 2001, 97):
            assert hundred[k].delta == pytest.approx(kappa_n * base[k].delta, rel=1e-12)
            for i in range(2):
                assert hundred[k].psi[i] == pytest.approx(kappa_n * base[k].psi[i], rel=1e-12)
            if abs(base[k].delta) > 1e-6:
                assert (hundred[k].psi[0] / hundred[k].delta ==
                        pytest.approx(base[k].psi[0] / base[k].delta, rel=1e-9))

    def test_warm_flag_threshold(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        warm_index = round((2 * 2 * 0.1 + 2 * 0.13) / SAMPLE_PERIOD)
        for k, sample in mixed_stream(two_tone(), cfg, d=0.13, epsilon=1.0, duration=1.0):
            assert sample.warm == (k >= warm_index)

    def test_delta_periodic_with_positive_energy(self):
        # grid-aligned common period: 2 s for tones at pi and 2*pi rad/s
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, math.pi, 0.2),
                                     HarmonicSpec(1.0, 2 * math.pi, 1.1)))
        cfg = ModelConfig(n=2, h=0.2, omega_min=1.0, omega_max=7.0)
        period_samples = 2000
        deltas = {k: s.delta for k, s in
                  mixed_stream(spec, cfg, d=0.25, epsilon=1.0, duration=6.0)}
        warm = round((2 * 2 * 0.2 + 2 * 0.25) / SAMPLE_PERIOD)
        peak = max(abs(d) for d in deltas.values())
        energy = 0.0
        for k in range(warm, warm + period_samples):
            assert abs(deltas[k + period_samples] - deltas[k]) <= 1e-9 * peak
            energy += deltas[k] ** 2 * SAMPLE_PERIOD
        assert energy > 1e-6 * peak ** 2

    def test_epsilon_must_be_positive(self):
        from ftfreq.mixing import ExtendedRegression
        ext = ExtendedRegression(0.0, (0.0,), ((0.0,),), False)
        with pytest.raises(ConfigError):
            mix(ext, 0.0)
        with pytest.raises(ConfigError):
            DremConfig(d=0.1, epsilon=-1.0)

    def test_overflowed_stack_is_a_numeric_fault(self):
        # adjugate rejects the matrix as input; mix reports it as a data fault
        from ftfreq.mixing import ExtendedRegression
        rows = ((float("inf"), 0.0), (0.0, 1.0))
        with pytest.raises(NumericFault, match="t = 0.25"):
            mix(ExtendedRegression(0.25, (0.0, 0.0), rows, False), 1.0)
        with pytest.raises(ConfigError):
            mix(ExtendedRegression(0.25, (0.0,), ((1.0, 2.0),), False), 1.0)
