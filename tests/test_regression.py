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
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cascade_residual, window_at
from ftfreq.errors import ConfigError
from ftfreq.regression import (ModelConfig, delay_table, elementary_symmetric,
                               phi_taps, psi_taps, regression_at, true_theta)
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


def windows(values, length):
    """The measurement window after each sample of values."""
    for k in range(len(values)):
        yield window_at(values, k, length)


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
        for k, window in enumerate(windows(values, 2 * steps + 1)):
            expected = values[k] + (values[k - 2 * steps] if k >= 2 * steps else 0.0)
            assert regression_at(window, taps(cfg))[0] == expected

    def test_psi_n2_binomial_weights(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        s = round(cfg.h / SAMPLE_PERIOD)
        values = [float((3 * k) % 23) for k in range(520)]
        tap = lambda k, lag: values[k - lag] if k >= lag else 0.0
        for k, window in enumerate(windows(values, 4 * s + 1)):
            expected = tap(k, 0) + 2.0 * tap(k, 2 * s) + tap(k, 4 * s)
            assert regression_at(window, taps(cfg))[0] == expected

    def test_phi_n2_components(self):
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        s = round(cfg.h / SAMPLE_PERIOD)
        values = [float((5 * k) % 19) for k in range(520)]
        tap = lambda k, lag: values[k - lag] if k >= lag else 0.0
        for k, window in enumerate(windows(values, 4 * s + 1)):
            phi = regression_at(window, taps(cfg))[1]
            assert phi[0] == 2.0 * (tap(k, s) + tap(k, 3 * s))
            assert phi[1] == 4.0 * tap(k, 2 * s)

    def test_phi_n1_single_harmonic_form(self):
        cfg = ModelConfig(n=1, h=0.1, omega_min=0.5, omega_max=5.0)
        s = round(cfg.h / SAMPLE_PERIOD)
        values = [float(k % 11) for k in range(250)]
        for k, window in enumerate(windows(values, 2 * s + 1)):
            expected = 2.0 * (values[k - s] if k >= s else 0.0)
            assert regression_at(window, taps(cfg))[1] == (expected,)

    def test_zero_input_gives_zero_outputs(self):
        cfg = ModelConfig(n=3, h=0.05, omega_min=0.5, omega_max=6.0)
        assert regression_at([0.0] * (6 * 50 + 1), taps(cfg)) == (0.0, (0.0, 0.0, 0.0))

    def test_impulse_response_matches_tap_tables(self):
        # degree correctness: phi_k sees the impulse only at its table lags
        cfg = ModelConfig(n=3, h=0.05, omega_min=0.5, omega_max=6.0)
        s = round(cfg.h / SAMPLE_PERIOD)
        tables = phi_taps(cfg.n)
        responses = {k: {} for k in range(cfg.n)}
        for step in range(2 * cfg.n * s + 1):
            window = [0.0] * (2 * cfg.n * s + 1)
            window[step] = 1.0  # the impulse, step samples ago
            phi = regression_at(window, taps(cfg))[1]
            for k, value in enumerate(phi):
                if value != 0.0:
                    responses[k][step] = value
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

    @pytest.mark.parametrize("freqs, h, message", [
        ([], 0.1, "at least one frequency required"),
        ([2.0, 0.0], 0.1, "frequencies must be positive and finite, got 0.0"),
        ([2.0, math.inf], 0.1, "frequencies must be positive and finite, got inf"),
        ([2.0], 0.0, "h must be positive and finite, got 0.0"),
        ([2.0], math.nan, "h must be positive and finite, got nan"),
    ])
    def test_invalid_input_rejected(self, freqs, h, message):
        with pytest.raises(ValueError, match=message):
            true_theta(freqs, h)

    def test_elementary_symmetric_recurrence(self):
        e = elementary_symmetric([1.0, 2.0, 3.0])
        assert e == [1.0, 6.0, 11.0, 6.0]


class TestConstructedIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_annihilation(self, n):
        rng = np.random.default_rng(100 + n)
        spec, amps = random_signal(rng, n)
        h = 0.05
        trace = generate_trace(spec, SAMPLE_PERIOD, 8.0)
        residual = cascade_residual(
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
        for k, window in enumerate(windows(trace.values, start + 1)):
            if k < start:
                continue
            psi, phi = regression_at(window, taps(cfg))
            predicted = sum(p * t for p, t in zip(phi, theta))
            assert abs(psi - predicted) <= 1e-9 * scale
            checked += 1
        assert checked > 1000

    def test_valid_flag_tracks_warmup(self):
        # the regression holds from sample valid_from on, and not one sample
        # earlier, when the deepest psi tap still reads zero pre-history
        cfg = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=5.0)
        spec, amps = random_signal(np.random.default_rng(3), 2)
        theta = true_theta([hm.frequency for hm in spec.harmonics], cfg.h)
        trace = generate_trace(spec, SAMPLE_PERIOD, 1.0)
        valid_from = taps(cfg).valid_from
        assert valid_from == 2 * cfg.n * round(cfg.h / SAMPLE_PERIOD)
        scale = (2 ** cfg.n) * sum(amps)
        for k, window in enumerate(windows(trace.values, valid_from + 1)):
            psi, phi = regression_at(window, taps(cfg))
            residual = abs(psi - sum(p * t for p, t in zip(phi, theta)))
            if k >= valid_from:
                assert residual <= 1e-9 * scale
            elif k == valid_from - 1:
                assert residual > 1e-6 * scale

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
        for k, last in enumerate(windows(trace.values, 4 * steps + 1)):
            if start <= k < start + window:
                rows.append(regression_at(last, taps(cfg))[1])
        gram = np.array(rows).T @ np.array(rows) * SAMPLE_PERIOD
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues[0] > 0
        assert eigenvalues[0] > 1e-6 * np.trace(gram)


@st.composite
def spectra(draw):
    """n <= 8 distinct tones with random amplitudes and phases, and h on the
    sample grid."""
    n = draw(st.integers(1, 8))
    freqs = draw(st.lists(st.floats(0.2, 6.0), min_size=n, max_size=n, unique=True))
    harmonics = tuple(HarmonicSpec(draw(st.floats(0.1, 2.0)), w,
                                   draw(st.floats(0.0, 2 * math.pi))) for w in freqs)
    steps_h = draw(st.integers(1, 30))
    return SignalSpec(harmonics=harmonics), steps_h


class TestWindowIdentities:
    @settings(max_examples=60, deadline=None)
    @given(spectra(), st.integers(0, 40))
    def test_annihilation_once_the_window_holds_valid_from_samples(self, drawn, extra):
        # psi - phi . theta = 0 at every sample with real history under every tap
        spec, steps_h = drawn
        n = len(spec.harmonics)
        cfg = ModelConfig(n=n, h=steps_h * SAMPLE_PERIOD, omega_min=0.1, omega_max=7.0)
        table = taps(cfg)
        theta = true_theta([hm.frequency for hm in spec.harmonics], cfg.h)
        values = generate_trace(spec, SAMPLE_PERIOD,
                                (table.valid_from + extra) * SAMPLE_PERIOD).values
        scale = 4 ** n * sum(hm.amplitude for hm in spec.harmonics)
        for k in range(table.valid_from, len(values)):
            psi, phi = regression_at(window_at(values, k, table.valid_from + 1), table)
            assert abs(psi - sum(p * t for p, t in zip(phi, theta))) <= 1e-12 * scale


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
        with pytest.raises(ConfigError):
            taps(cfg)
