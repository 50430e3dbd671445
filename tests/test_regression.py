"""Unit tests for the delay-line regression parameterization.

The heart of this module is the pair of constructed identities that pin the
sign convention down:

* annihilation: cascading [Z^2 + 1 - 2 cos(w_i h) Z] over all harmonics
  sends a noiseless n-harmonic trace to zero once taps have real history;
* regression consistency: psi(t) = phi(t) . true_theta on the same data.
"""

import math

import numpy as np
import pytest

from ftfreq.delay_line import TappedDelayLine
from ftfreq.errors import ConfigError
from ftfreq.regression import (ModelConfig, binomial, compute_phi, compute_psi,
                               delay_table, elementary_symmetric, phi_taps,
                               psi_taps, sample_regression, true_theta)
from ftfreq.signals import HarmonicSpec, SignalSpec, generate_trace

SAMPLE_PERIOD = 0.001


def random_signal(rng, n, lo=0.6, hi=5.4, min_gap=0.05):
    """Random distinct in-band harmonics with random amplitudes/phases."""
    while True:
        freqs = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(freqs)) > min_gap:
            break
    harmonics = tuple(
        HarmonicSpec(float(rng.uniform(0.5, 2.0)), float(w),
                     float(rng.uniform(0, 2 * math.pi)))
        for w in freqs)
    return SignalSpec(harmonics=harmonics), [h.amplitude for h in harmonics]


def taps(cfg):
    """The session table; the regression reads its taps, not its d rows."""
    return delay_table(cfg, cfg.h, SAMPLE_PERIOD)


def feed_line(values, capacity):
    line = TappedDelayLine(capacity, SAMPLE_PERIOD)
    for v in values:
        line.push(v)
        yield line


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(7, 0) == 1
        assert binomial(6, 3) == 20
        assert binomial(20, 10) == 184756

    def test_out_of_range_rejected(self):
        for n, i in ((4, 5), (4, -1), (21, 3), (-1, 0)):
            with pytest.raises(ValueError):
                binomial(n, i)
        with pytest.raises(ValueError):
            binomial(4.0, 2)


class TestTapTables:
    def test_psi_lags_cover_even_multiples(self):
        assert psi_taps(2) == ((1.0, 4), (2.0, 2), (1.0, 0))

    def test_phi_last_component_single_tap(self):
        for n in (1, 2, 3, 4):
            assert phi_taps(n)[n - 1] == ((float(2 ** n), n),)

    def test_phi_lag_ranges(self):
        # component k only touches lags in [k*h, (2n-k)*h]
        for n in range(1, 6):
            for k, row in enumerate(phi_taps(n), start=1):
                lags = [lag for _, lag in row]
                assert min(lags) == k
                assert max(lags) == 2 * n - k


class TestExpansions:
    def test_psi_n1_is_two_tap_sum(self):
        cfg = ModelConfig(n=1, h=0.1, omega_min=0.5, omega_max=5.0)
        steps = round(cfg.h / SAMPLE_PERIOD)
        values = [float(k % 17) for k in range(350)]  # integer-valued: exact sums
        for k, line in enumerate(feed_line(values, 2 * steps)):
            expected = values[k] + (values[k - 2 * steps] if k >= 2 * steps else 0.0)
            assert compute_psi(line, taps(cfg)) == expected

    def test_psi_n2_binomial_weights(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        s = round(cfg.h / SAMPLE_PERIOD)
        values = [float((3 * k) % 23) for k in range(520)]
        tap = lambda k, lag: values[k - lag] if k >= lag else 0.0
        for k, line in enumerate(feed_line(values, 4 * s)):
            expected = tap(k, 0) + 2.0 * tap(k, 2 * s) + tap(k, 4 * s)
            assert compute_psi(line, taps(cfg)) == expected

    def test_phi_n2_components(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        s = round(cfg.h / SAMPLE_PERIOD)
        values = [float((5 * k) % 19) for k in range(520)]
        tap = lambda k, lag: values[k - lag] if k >= lag else 0.0
        for k, line in enumerate(feed_line(values, 4 * s)):
            phi = compute_phi(line, taps(cfg))
            assert phi[0] == 2.0 * (tap(k, s) + tap(k, 3 * s))
            assert phi[1] == 4.0 * tap(k, 2 * s)

    def test_phi_n1_single_harmonic_form(self):
        cfg = ModelConfig(n=1, h=0.1, omega_min=0.5, omega_max=5.0)
        s = round(cfg.h / SAMPLE_PERIOD)
        values = [float(k % 11) for k in range(250)]
        for k, line in enumerate(feed_line(values, 2 * s)):
            expected = 2.0 * (values[k - s] if k >= s else 0.0)
            assert compute_phi(line, taps(cfg)) == (expected,)

    def test_zero_input_gives_zero_outputs(self):
        cfg = ModelConfig(n=3, h=0.05, omega_min=0.5, omega_max=6.0)
        line = TappedDelayLine(6 * 50, SAMPLE_PERIOD)
        for _ in range(700):
            line.push(0.0)
        assert compute_psi(line, taps(cfg)) == 0.0
        assert compute_phi(line, taps(cfg)) == (0.0, 0.0, 0.0)

    def test_impulse_response_matches_tap_tables(self):
        # degree correctness: phi_k sees the impulse only at its table lags
        cfg = ModelConfig(n=3, h=0.05, omega_min=0.5, omega_max=6.0)
        s = round(cfg.h / SAMPLE_PERIOD)
        line = TappedDelayLine(2 * cfg.n * s, SAMPLE_PERIOD)
        tables = phi_taps(cfg.n)
        responses = {k: {} for k in range(cfg.n)}
        line.push(1.0)
        for step in range(2 * cfg.n * s + 1):
            phi = compute_phi(line, taps(cfg))
            for k, value in enumerate(phi):
                if value != 0.0:
                    responses[k][step] = value
            line.push(0.0)
        for k, row in enumerate(tables):
            expected = {lag * s: weight for weight, lag in row}
            assert responses[k] == expected


class TestTrueTheta:
    def test_single_harmonic_cosine(self):
        assert true_theta([2.0], 0.1) == (math.cos(0.2),)
        assert true_theta([2.0], 0.1)[0] == pytest.approx(0.9800666, abs=1e-7)

    def test_two_harmonics_signed_symmetric(self):
        theta = true_theta([2.0, 3.0], 0.1)
        c1, c2 = math.cos(0.2), math.cos(0.3)
        assert theta[0] == pytest.approx(c1 + c2, abs=1e-15)
        assert theta[1] == pytest.approx(-c1 * c2, abs=1e-15)
        assert theta == pytest.approx((1.9354031, -0.9362934), abs=1e-7)

    def test_last_component_is_signed_product(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            freqs = np.sort(rng.uniform(0.5, 5.0, n))
            while len(set(freqs)) != n:
                freqs = np.sort(rng.uniform(0.5, 5.0, n))
            h = 0.07
            theta = true_theta(list(freqs), h)
            product = math.prod(math.cos(w * h) for w in freqs)
            assert theta[-1] == pytest.approx(((-1) ** (n + 1)) * product, rel=1e-12)

    def test_repeated_frequencies_rejected(self):
        with pytest.raises(ValueError):
            true_theta([2.0, 2.0], 0.1)

    def test_elementary_symmetric_recurrence(self):
        e = elementary_symmetric([1.0, 2.0, 3.0])
        assert e == [1.0, 6.0, 11.0, 6.0]


class TestConstructedIdentities:
    def cascade_residual(self, values, freqs, h):
        """Apply the per-harmonic annihilators in sequence via delay lines."""
        steps = round(h / SAMPLE_PERIOD)
        stream = list(values)
        for w in freqs:
            c = math.cos(w * h)
            line = TappedDelayLine(2 * steps, SAMPLE_PERIOD)
            out = []
            for v in stream:
                line.push(v)
                out.append(line.tap(0) - 2.0 * c * line.tap(steps) + line.tap(2 * steps))
            stream = out
        return stream

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_annihilation(self, n):
        rng = np.random.default_rng(100 + n)
        spec, amps = random_signal(rng, n)
        h = 0.05
        trace = generate_trace(spec, SAMPLE_PERIOD, 8.0)
        residual = self.cascade_residual(
            trace.values, [hm.frequency for hm in spec.harmonics], h)
        start = round(2 * n * h / SAMPLE_PERIOD)
        worst = max(abs(r) for r in residual[start:])
        assert worst <= 1e-9 * sum(amps)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_regression_consistency(self, n):
        rng = np.random.default_rng(200 + n)
        spec, amps = random_signal(rng, n)
        cfg = ModelConfig(n=n, h=0.05, omega_min=0.5, omega_max=6.0)
        steps = round(cfg.h / SAMPLE_PERIOD)
        theta = true_theta([hm.frequency for hm in spec.harmonics], cfg.h)
        trace = generate_trace(spec, SAMPLE_PERIOD, 6.0)
        scale = (2 ** n) * sum(amps)
        start = 2 * n * steps
        checked = 0
        for k, line in enumerate(feed_line(trace.values, 2 * n * steps)):
            if k < start:
                continue
            sample = sample_regression(line, taps(cfg), k * SAMPLE_PERIOD)
            assert sample.valid
            predicted = sum(p * t for p, t in zip(sample.phi, theta))
            assert abs(sample.psi - predicted) <= 1e-9 * scale
            checked += 1
        assert checked > 1000

    def test_valid_flag_tracks_warmup(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        steps = round(cfg.h / SAMPLE_PERIOD)
        spec, _ = random_signal(np.random.default_rng(3), 2)
        trace = generate_trace(spec, SAMPLE_PERIOD, 1.0)
        for k, line in enumerate(feed_line(trace.values, 4 * steps)):
            sample = sample_regression(line, taps(cfg), k * SAMPLE_PERIOD)
            assert sample.valid == (k >= 2 * cfg.n * steps)

    def test_regressor_gram_matrix_positive_definite(self):
        # distinct in-band tones leave the regressor components independent
        # over any window at least one common period long
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),
                                     HarmonicSpec(1.0, 3.0, math.pi / 2)))
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        steps = round(cfg.h / SAMPLE_PERIOD)
        period = 2 * math.pi  # common period of 2 and 3 rad/s
        window = math.ceil(period / SAMPLE_PERIOD)
        start = 2 * cfg.n * steps
        trace = generate_trace(spec, SAMPLE_PERIOD, (start + window) * SAMPLE_PERIOD + 1.0)
        rows = []
        for k, line in enumerate(feed_line(trace.values, 4 * steps)):
            if start <= k < start + window:
                rows.append(compute_phi(line, taps(cfg)))
        gram = np.array(rows).T @ np.array(rows) * SAMPLE_PERIOD
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues[0] > 0
        assert eigenvalues[0] > 1e-6 * np.trace(gram)


class TestModelConfig:
    def test_quarter_period_rule_default(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=10.0)
        assert cfg.check_h_bound() == []
        tight = ModelConfig(n=2, h=0.2, omega_min=0.5, omega_max=10.0)
        assert tight.check_h_bound()

    def test_half_period_rule_relaxes_bound(self):
        cfg = ModelConfig(n=2, h=0.6, omega_min=0.3, omega_max=4.5,
                          h_rule="half-period")
        assert cfg.check_h_bound() == []
        assert any("half-period" in note for note in cfg.warnings())

    def test_conditioning_warning(self):
        cfg = ModelConfig(n=2, h=0.15, omega_min=0.5, omega_max=10.0)
        assert any("ill-conditioned" in note for note in cfg.warnings())

    def test_basic_invariants(self):
        with pytest.raises(ConfigError):
            ModelConfig(n=0, h=0.1, omega_min=0.5, omega_max=5.0)
        with pytest.raises(ConfigError):
            ModelConfig(n=2, h=-0.1, omega_min=0.5, omega_max=5.0)
        with pytest.raises(ConfigError):
            ModelConfig(n=2, h=0.1, omega_min=5.0, omega_max=0.5)
        with pytest.raises(ConfigError):
            ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0, h_rule="granular")

    def test_off_grid_h_rejected_at_use(self):
        cfg = ModelConfig(n=1, h=0.0105, omega_min=0.5, omega_max=5.0)
        line = TappedDelayLine(100, SAMPLE_PERIOD)
        with pytest.raises(ConfigError):
            compute_psi(line, taps(cfg))
