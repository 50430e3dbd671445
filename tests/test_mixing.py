"""Unit tests for regressor extension (the stacked rows) and adjugate mixing."""

import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import exact
from conftest import (SAMPLE_PERIOD, assert_mixed_ahead, batched_mixing,
                      mixed_stream, random_distinct_frequencies, window_at)
from ftfreq import mixing
from ftfreq.errors import ConfigError, NumericFault
from ftfreq.estimator import EstimatorSettings
from ftfreq.harness import run_scenario
from ftfreq.mixing import DremConfig, adjugate, mix_fault, mix_rows
from ftfreq.pipeline import Pipeline
from ftfreq.regression import (ModelConfig, delay_table, regression_at,
                               true_theta)
from ftfreq.signals import HarmonicSpec, SignalSpec
from test_engine import sweep


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
def low_rank_matrices(draw, n=None):
    """M = B C with B n x r and C r x n, so rank(M) <= r for r = 0..n; n is
    drawn from 1..8 unless given."""
    n = draw(st.integers(1, 8)) if n is None else n
    r = draw(st.integers(0, n))
    entries = st.floats(-2.0, 2.0)
    b = draw(arrays(float, (n, r), elements=entries))
    c = draw(arrays(float, (r, n), elements=entries))
    return b @ c


def criterion_8_bound(m):
    """Acceptance criterion 8's scale-aware bound on |adj(M) M - det(M) I|."""
    norm = float(np.linalg.norm(m))
    return 1e-10 * (1.0 + norm) * max(1.0, norm ** (len(m) - 1))


def per_i_products(sign, s):
    """The SVD form's (others, det) with each product of singular values
    formed by math.prod, left to right from 1, one i at a time."""
    count, n = s.shape
    s, ones = s.T, np.ones(count)
    others = np.stack([sign * math.prod(s[:i], start=ones) * math.prod(s[i + 1:], start=ones)
                       for i in range(n)], axis=1)
    return others, sign * math.prod(s, start=ones)


class TestAdjugate:
    def test_2x2_closed_form(self):
        assert adjugate([[1.0, 2.0], [3.0, 4.0]]) == ([[4.0, -2.0], [-3.0, 1.0]], -2.0)

    def test_3x3_closed_form(self):
        assert adjugate([[2.0, -1.0, 0.0], [1.0, 3.0, 2.0], [4.0, 1.0, 5.0]]) == (
            [[13.0, 5.0, -2.0], [3.0, 10.0, -4.0], [-11.0, -6.0, 7.0]], 23.0)
        # rank 2: the cofactors are exact integers, so det reads exactly 0.0
        assert adjugate([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]) == (
            [[-3.0, 6.0, -3.0], [6.0, -12.0, 6.0], [-3.0, 6.0, -3.0]], 0.0)

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

    @pytest.mark.parametrize("n", range(4, 9))
    def test_products_are_the_per_i_products_bit_for_bit(self, n):
        # the SVD form's products of singular values, on stacks of scales
        # 1e-200..1e200, a third of them singular, plus rows whose products
        # overflow to inf and, times a zero, to NaN: every product is the
        # one math.prod forms left to right from 1
        rng = np.random.default_rng(n)
        kinds = set()
        for trial in range(60):
            count = int(rng.integers(1, 60))
            stacks = rng.standard_normal((count, n, n)) * 10.0 ** rng.uniform(-200, 200,
                                                                              (count, 1, 1))
            if trial % 3 == 0:
                stacks[:, -1] = stacks[:, 0]
            u, s, vt = np.linalg.svd(stacks)
            sign = np.copysign(1.0, np.linalg.det(u @ vt))
            s = np.concatenate((s, [[1e300] * (n - 1) + [0.0], [0.0] * n]))
            sign = np.concatenate((sign, [-1.0, 1.0]))
            with np.errstate(all="ignore"):
                got, want = mixing._products(sign, s), per_i_products(sign, s)
            for mine, ref in zip(got, want):
                assert mine.shape == ref.shape
                assert mine.view(np.int64).tolist() == ref.view(np.int64).tolist()
                kinds.update({"inf"} if np.isinf(ref).any() else ())
                kinds.update({"nan"} if np.isnan(ref).any() else ())
        assert kinds == {"inf", "nan"}

    def test_singular_matrix_still_satisfies_identity(self):
        # duplicated rows: det = 0, so adj(M) M must vanish
        m = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        adj = np.array(adjugate(m)[0])
        product = adj @ np.array(m)
        assert np.abs(product).max() < 1e-12
        m5 = np.vstack([np.ones((1, 5)), np.ones((1, 5)), np.random.default_rng(1).uniform(-1, 1, (3, 5))])
        adj5 = np.array(adjugate(m5.tolist())[0])
        assert np.abs(adj5 @ m5).max() < 1e-10

    @pytest.mark.parametrize("n", range(4, 9))
    def test_identity_on_exactly_singular_matrices(self, n):
        # criterion 8's identity and bound on matrices of rank < n in exact
        # arithmetic: the zero matrix, a zero row or column, a repeated row,
        # and integer products B C of rank r < n. LU may meet an exactly zero
        # pivot (the SVD form then takes the row) or, by rounding, a tiny
        # non-zero one (det times inv)
        rng = np.random.default_rng(n)
        matrices = [np.zeros((n, n))]
        for _ in range(10):
            m = rng.uniform(-3.0, 3.0, (n, n))
            zero_row, zero_column, repeated = m.copy(), m.copy(), m.copy()
            zero_row[rng.integers(n)] = 0.0
            zero_column[:, rng.integers(n)] = 0.0
            repeated[n - 1] = repeated[rng.integers(n - 1)]
            r = int(rng.integers(1, n))
            product = rng.integers(-3, 4, (n, r)) @ rng.integers(-3, 4, (r, n))
            matrices += [zero_row, zero_column, repeated, product.astype(float)]
        for m in matrices:
            adj, det = adjugate(m.tolist())
            assert np.abs(np.array(adj) @ m - det * np.eye(n)).max() <= criterion_8_bound(m)

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
        with pytest.raises(ConfigError, match="could not convert string to float"):
            adjugate([["x", 1.0], [2.0, 3.0]])
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
        delta, psi, bad = mixing._mixed_stacks(np.array([[0.7]]), np.array([[[0.2]]]), 10.0)
        assert bad is None
        assert delta[0] == pytest.approx(2.0, abs=1e-15)
        assert psi[0, 0] == pytest.approx(7.0, abs=1e-14)

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
        for epsilon in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError, match="drem.epsilon must be positive"):
                DremConfig(d=0.1, epsilon=epsilon)

    @pytest.mark.parametrize("d", [0.0, -0.1, math.nan])
    def test_delay_must_be_positive(self, d):
        with pytest.raises(ConfigError, match="drem.d must be positive"):
            DremConfig(d=d, epsilon=1.0)

    @pytest.mark.parametrize("phi_rows", [[1.0], [[1.0, math.nan]], [["x", 1.0], [2.0, 3.0]],
                                          [[[1.0], [2.0]], [[3.0], [4.0]]]],
                             ids=["flat", "not-square", "text", "nested"])
    def test_a_malformed_stack_is_bad_input(self, phi_rows):
        # adjugate's shape check, before any finiteness check: a flat vector,
        # a non-square stack with a NaN entry, a non-numeric entry and a
        # list entry are not data faults
        with pytest.raises(ConfigError, match="matrix must be square with size 1..8"):
            adjugate(phi_rows)

    def test_overflowed_stack_is_a_numeric_fault(self):
        # a 1e308 sample overflows phi = 2 y(k - 5) from row 9 on: the rows
        # before it are mixed, and the stack is a fault of the data, which
        # the driver raises at row 9's time
        delta, mixed, bad = spiked_rows(4, 1e308, 1.0)
        assert (delta.tolist(), mixed.tolist(), bad) == ([2.0, 2.0], [[1e308], [2.0]], ())
        with pytest.raises(NumericFault, match="non-finite stacked regressor at t = 0.25"):
            raise mix_fault(0.25, *bad)

    def test_non_finite_mixed_output_is_a_numeric_fault(self):
        # a finite stack whose mixed psi overflows once scaled by eps = 10:
        # the gradient stage gets only finite (delta, psi) pairs
        delta, mixed, bad = spiked_rows(6, 1e308, 10.0)
        assert (delta.tolist(), bad) == ([20.0, 20.0], (20.0, (math.inf,)))
        with pytest.raises(NumericFault, match=r"non-finite mixed regression at t = 0.25: "
                                               r"delta = 20.0, psi = \(inf,\)"):
            raise mix_fault(0.25, *bad)


def spiked_rows(at, spike, epsilon):
    """mix_rows of rows 7..11 of ones with y[at] = spike, at n = 1 with
    h = 2 and d = 3 samples: row k's stack is psi = y(k - 3) + y(k - 7)
    and phi = 2 y(k - 5)."""
    model = ModelConfig(n=1, h=2 * SAMPLE_PERIOD, omega_min=0.5, omega_max=5.0)
    taps = delay_table(model, 3 * SAMPLE_PERIOD, SAMPLE_PERIOD)
    y = np.ones(12)
    y[at] = spike
    return mix_rows(y, taps, 7, 12, epsilon)


def stacked_mix(y, taps, first, stop, epsilon):
    """mix_rows' (delta, mixed) of rows first..stop-1, all finite, with the
    stacks (psi_rows, phi_rows) they are mixed from."""
    delta, mixed, bad = mix_rows(y, taps, first, stop, epsilon)
    assert bad is None
    return (delta, mixed, *stacks_at(y, taps, first, stop))


def stacks_at(y, taps, first, stop):
    """psi_rows (K, n) and phi_rows (K, n, n) of rows first..stop-1 of the
    samples y, each row's stacked row i from regression_at at taps.rows[i]."""
    y = y.tolist()
    stacks = [zip(*(regression_at(window_at(y, k, taps.warm_from + 1), taps, lag)
                    for lag in taps.rows)) for k in range(first, stop)]
    psi_rows, phi_rows = zip(*stacks)
    return np.array(psi_rows, dtype=float), np.array(phi_rows, dtype=float)


@st.composite
def spiked_samples(draw, n):
    """(y, taps, first, stop, epsilon): an order-n session of 1-3 samples
    per h and d and 1-12 rows of samples in [-2, 2] or signed zeros, up to
    three of them replaced by a non-finite or an overflowing value."""
    model = ModelConfig(n=n, h=draw(st.integers(1, 3)) * SAMPLE_PERIOD, omega_min=0.5,
                        omega_max=5.0)
    taps = delay_table(model, draw(st.integers(1, 3)) * SAMPLE_PERIOD, SAMPLE_PERIOD)
    first = taps.warm_from
    stop = first + draw(st.integers(1, 12))
    y = np.array(draw(st.lists(st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0]),
                               min_size=stop, max_size=stop)))
    specials = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
    for k, value in draw(st.lists(st.tuples(st.integers(0, stop - 1), specials), max_size=3)):
        y[k] = value
    return y, taps, first, stop, draw(st.sampled_from([1.0, 10.0, 1e100]))


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_view_mixing_is_stacked_mixing(n, data):
    # at n <= 3 mix_rows mixes slices of the regression columns, with no
    # stack: its (delta, mixed, bad) is _mixed_stacks' on the stacks
    # regression_at gives row by row, bit for bit, up to and at a
    # non-finite stack or output
    y, taps, first, stop, epsilon = data.draw(spiked_samples(n))
    delta, mixed, bad = mix_rows(y, taps, first, stop, epsilon)
    want = mixing._mixed_stacks(*stacks_at(y, taps, first, stop), epsilon)
    assert repr((delta.tolist(), mixed.tolist(), bad)) == \
        repr((want[0].tolist(), want[1].tolist(), want[2]))


def tone_rows(n, steps_h, steps_d, tones, offset, rows, epsilon, period=0.01):
    """stacked_mix of `rows` rows of an n-tone signal, offset samples past
    the warm-up; tones holds (slot, amplitude, phase) per tone, the i-th
    frequency at 0.5 + 4.5 (i + slot) / n rad/s, so neighbours may crowd."""
    model = ModelConfig(n=n, h=steps_h * period, omega_min=0.5, omega_max=5.0)
    taps = delay_table(model, steps_d * period, period)
    first = taps.warm_from + offset
    t = np.arange(first + rows) * period
    y = sum(a * np.sin((0.5 + 4.5 * (i + slot) / n) * t + phase)
            for i, (slot, a, phase) in enumerate(tones))
    return stacked_mix(y, taps, first, first + rows, epsilon)


@st.composite
def tone_stacks(draw, n):
    """Stacks mix_rows builds from n random tones, up to 3 rows of each."""
    tone = st.tuples(st.floats(0.0, 0.99), st.floats(0.2, 2.0), st.floats(0.0, 6.3))
    epsilon = draw(st.sampled_from([1.0, 2.0, 10.0]) | st.floats(0.5, 20.0))
    delta, mixed, psi_rows, phi_rows = tone_rows(
        n, draw(st.integers(5, 30)), draw(st.integers(10, 60)),
        draw(st.lists(tone, min_size=n, max_size=n)), draw(st.integers(0, 300)),
        draw(st.integers(1, 3)), epsilon)
    return [(delta[k], mixed[k], psi_rows[k], phi_rows[k], epsilon) for k in range(len(delta))]


@st.composite
def low_rank_systems(draw, n):
    """A low_rank_matrices stack with random psi rows, mixed on its own. Entries
    below 2^-100 are flushed to zero, so that no product of up to 9 of them
    underflows: the rounding model the oracle bound rests on has no
    underflow, and a determinant that underflows has no relative accuracy."""
    def flushed(values):
        return np.where(np.abs(values) < 2.0 ** -100, 0.0, values)

    phi_rows = flushed(draw(low_rank_matrices(n)))
    psi_rows = flushed(draw(arrays(float, (n,), elements=st.floats(-2.0, 2.0))))
    epsilon = draw(st.sampled_from([1.0, 2.0, 10.0]))
    delta, mixed, bad = mixing._mixed_stacks(psi_rows[None], phi_rows[None], epsilon)
    assert bad is None
    return [(delta[0], mixed[0], psi_rows, phi_rows, epsilon)]


UNIT_ROUNDOFF = 2.0 ** -53
ORACLE_C = 64.0  # fitted; see oracle_ratio


def hadamard(matrix) -> float:
    """Hadamard's bound on |det M|: the product of M's row norms."""
    return math.prod(math.hypot(*row) for row in matrix)


def oracle_ratio(delta, mixed, psi_rows, phi_rows, epsilon) -> float:
    """The larger of delta's and mixed psi's distance from their exact
    values, each over u eps^n (P + H); mixing is sound where this stays
    below ORACLE_C.

    P is the first-order change of the exact value when Phi moves by a
    relative u in the 2-norm, which bounds a backward-stable route such as
    the SVD up to its backward-error constant: for delta,
    ||Phi|| ||adj Phi|| = s_1 s_1 ... s_{n-1}, which is kappa_2(Phi)
    |det Phi| for invertible Phi and stays finite at singular Phi; for
    psi = adj(Phi) b, ||Phi|| s_1 ... s_{n-2} ||b||, the derivative of adj
    being a sum of (n-2)-fold products of singular values. H is Hadamard's
    bound, of Phi for delta and of the Cramer matrix Phi_i(b) for psi_i,
    which scales the rounding of the closed-form cofactors and covers the
    stacks where P vanishes. Fitted by targeted searches: the closed forms
    (n <= 3) stayed below 1, and LAPACK's SVD, whose backward error reached
    50 u ||Phi||, below 24; ORACLE_C = 64 leaves a margin of about 2.7."""
    n = len(phi_rows)
    want_delta, want_psi = exact.mixed(psi_rows.tolist(), phi_rows.tolist(), epsilon)
    s = np.linalg.svd(phi_rows, compute_uv=False).tolist()
    scale = float(epsilon) ** n
    adj_norm = math.prod(s[:n - 1])

    def ratio(got, want, perturbed, bound):
        error = abs(Fraction(float(got)) - want)
        return float(error) / (UNIT_ROUNDOFF * scale * (perturbed + bound)) if error else 0.0

    ratios = [ratio(delta, want_delta, s[0] * adj_norm, hadamard(phi_rows))]
    perturbed = s[0] * math.prod(s[:n - 2]) * math.hypot(*psi_rows)
    ratios += [ratio(got, want, perturbed,
                     hadamard(exact.replaced(phi_rows.tolist(), i, psi_rows.tolist())))
               for i, (got, want) in enumerate(zip(mixed, want_psi))]
    return max(ratios)


def relative_errors(delta, mixed, psi_rows, phi_rows, epsilon) -> tuple[float, float]:
    """delta's distance from its exact value, and mixed psi's in the max
    norm, each relative to the exact value's size."""
    want_delta, want_psi = exact.mixed(psi_rows.tolist(), phi_rows.tolist(), epsilon)
    psi_error = max(abs(Fraction(float(got)) - want) for got, want in zip(mixed, want_psi))
    return (float(abs(Fraction(float(delta)) - want_delta) / abs(want_delta)),
            float(psi_error / max(map(abs, want_psi))))


class TestExactOracle:
    """mix_rows against tests/exact.py's rational (delta, mixed psi)."""

    # per n, so that every route (n = 3's cofactors above all) is drawn in
    # every run: one draw over all n clumps on a few of them
    @pytest.mark.parametrize("n", range(1, 9))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_tone_stacks_within_conditioned_roundoff_of_exact(self, n, data):
        for system in data.draw(tone_stacks(n)):
            assert oracle_ratio(*system) <= ORACLE_C

    @pytest.mark.parametrize("n", range(1, 9))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_low_rank_stacks_within_conditioned_roundoff_of_exact(self, n, data):
        for system in data.draw(low_rank_systems(n)):
            assert oracle_ratio(*system) <= ORACLE_C

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("rows", [1, 7, 128])
    def test_rows_are_mixed_independently(self, n, rows):
        # each row of one mix_rows call is bit for bit its stack mixed on
        # its own, whatever else the call holds: both drivers' parity rests
        # on it
        rng = random.Random(n * 1000 + rows)
        tones = [(rng.random(), rng.uniform(0.2, 2.0), rng.uniform(0.0, 6.3)) for _ in range(n)]
        delta, mixed, psi_rows, phi_rows = tone_rows(n, 20, 37, tones, 11, rows, 10.0)
        assert len(delta) == rows
        for k in range(rows):
            one, psi, bad = mixing._mixed_stacks(psi_rows[k][None], phi_rows[k][None], 10.0)
            assert bad is None
            assert repr((one.tolist(), psi.tolist())) == \
                repr(([delta[k].item()], [mixed[k].tolist()])), k


def route_stacks(n, rng):
    """Stacks at order n, ones LU takes (uniform entries) interleaved with
    ones the SVD form takes: the zero stack, an exactly zero row and column
    (a zero pivot: det 0), a subnormal diagonal entry (finite det, inv
    overflows), and, last, entries near 1e300, whose det overflows; and the
    indices of the SVD rows."""
    lu = rng.uniform(-2.0, 2.0, (5, n, n))
    zero_row, zero_column = rng.uniform(-2.0, 2.0, (2, n, n))
    zero_row[1] = 0.0
    zero_column[:, 2] = 0.0
    subnormal = np.diag([1e10] + [1.0] * (n - 2) + [1e-310])
    huge = rng.uniform(-2.0, 2.0, (n, n)) * 1e300
    stacks = [lu[0], np.zeros((n, n)), lu[1], zero_row, lu[2], zero_column, lu[3], subnormal,
              lu[4], huge]
    return np.array(stacks), [1, 3, 5, 7, 9]


class TestRoutes:
    """_adjugates at n >= 4: det times inv through one LU, Stewart's SVD
    form for the rows LU cannot take."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_svd_rows_interleaved_with_lu_rows(self, n):
        # each row of one _mixed_stacks call is bit for bit its one-row mix,
        # whichever route it took; only the SVD rows reach the SVD; the
        # identity holds on every finite row, and the last, whose det
        # overflows, stops the call with the fault its own mix gives
        rng = np.random.default_rng(n)
        phi_rows, svd_rows = route_stacks(n, rng)
        psi_rows = rng.uniform(-2.0, 2.0, (len(phi_rows), n))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            delta, mixed, bad = mixing._mixed_stacks(psi_rows, phi_rows, 2.0)
        (taken,), _ = svd.call_args
        assert taken.tolist() == phi_rows[svd_rows].tolist()
        assert len(delta) == len(phi_rows) - 1
        for k in range(len(phi_rows)):
            one = mixing._mixed_stacks(psi_rows[k][None], phi_rows[k][None], 2.0)
            if k < len(delta):
                assert one[2] is None
                assert repr((one[0].tolist(), one[1].tolist())) == \
                    repr(([delta[k].item()], [mixed[k].tolist()])), k
            else:
                assert one[0].size == 0 and repr(one[2]) == repr(bad)
        assert math.isinf(bad[0])
        with np.errstate(all="ignore"):  # as its callers hold it
            adj, det = mixing._adjugates(phi_rows[:-1])
        for m, a, d in zip(phi_rows[:-1], adj, det):
            assert np.abs(a @ m - d * np.eye(n)).max() <= criterion_8_bound(m)

    # Relative error bounds (delta, psi) per n on the seed-1 sweep stacks:
    # 10x the worst measured, which was 5.4e-14 / 9.8e-14 (n = 4),
    # 1.1e-11 / 7.8e-12 (5), 4.3e-11 / 5.3e-11 (6), 7.4e-7 / 8.9e-7 (7) and
    # 4.3e-7 / 2.5e-7 (8). oracle_ratio's absolute scale, Hadamard's bound,
    # exceeds |det Phi| by orders at n >= 6, so it cannot see lost digits.
    RELATIVE_BOUNDS = {4: (5.4e-13, 9.8e-13), 5: (1.1e-10, 7.9e-11), 6: (4.3e-10, 5.4e-10),
                       7: (7.4e-6, 9.0e-6), 8: (4.4e-6, 2.6e-6)}

    @pytest.mark.parametrize("n", range(4, 9))
    def test_sweep_stacks_within_conditioned_roundoff_of_exact(self, n):
        # every stack the n-sweep benchmark's seed-1 run mixes, against the
        # exact oracle (n = 8 faults at extraction, after mixing its rows):
        # within oracle_ratio's bound, and delta and psi (in the max norm)
        # within RELATIVE_BOUNDS of their exact values
        stacks = []
        mixed_stacks = mixing._mixed_stacks

        def recording(psi_rows, phi_rows, epsilon):
            stacks.append((psi_rows, phi_rows, epsilon))
            return mixed_stacks(psi_rows, phi_rows, epsilon)

        with mock.patch.object(mixing, "_mixed_stacks", recording), \
                contextlib.suppress(NumericFault):
            run_scenario(sweep(n, 1))
        ((psi_rows, phi_rows, epsilon),) = stacks
        delta, mixed, bad = mixed_stacks(psi_rows, phi_rows, epsilon)
        assert bad is None and len(delta) == 21
        for system in zip(delta, mixed, psi_rows, phi_rows):
            assert oracle_ratio(*system, epsilon) <= ORACLE_C
            errors = relative_errors(*system, epsilon)
            assert all(e <= bound for e, bound in zip(errors, self.RELATIVE_BOUNDS[n])), errors
