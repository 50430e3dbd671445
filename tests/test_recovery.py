"""Unit tests for polynomial-based frequency recovery."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distinct_frequencies
from ftfreq.errors import EstimateNotPhysical, NumericFault
from ftfreq.recovery import (find_roots, recover_frequencies, recover_rows,
                             roots_to_frequencies, theta_to_polynomial)
from ftfreq.regression import true_theta


class TestThetaToPolynomial:
    def test_single_parameter(self):
        c = math.cos(0.2)
        assert theta_to_polynomial((c,)) == [1.0, -c]

    def test_two_parameters_signed(self):
        theta = true_theta([2.0, 3.0], 0.1)
        coeffs = theta_to_polynomial(theta)
        assert coeffs == pytest.approx([1.0, -1.9354031, 0.9362934], abs=1e-7)
        # the true cosines really are roots of this polynomial
        for c in (math.cos(0.2), math.cos(0.3)):
            value = coeffs[0] * c * c + coeffs[1] * c + coeffs[2]
            assert abs(value) < 1e-15

    def test_zero_vector_gives_pure_power(self):
        assert theta_to_polynomial((0.0, 0.0, 0.0)) == [1.0, -0.0, -0.0, -0.0]
        roots = find_roots(theta_to_polynomial((0.0, 0.0, 0.0)))
        assert all(abs(r) < 1e-12 for r in roots)


class TestFindRoots:
    def test_known_quadratic(self):
        roots = sorted(r.real for r in find_roots(
            [1.0, -1.9354030669668476, 0.9362933635841992]))
        assert roots[0] == pytest.approx(math.cos(0.3), abs=1e-9)
        assert roots[1] == pytest.approx(math.cos(0.2), abs=1e-9)

    def test_double_root(self):
        roots = find_roots([1.0, -1.0, 0.25])  # (x - 0.5)^2
        assert [r.real for r in roots] == [0.5, 0.5]
        assert all(r.imag == 0.0 for r in roots)
        # theta = (0, 0): the larger root q is 0, so Vieta cannot give its mate
        assert find_roots([1.0, 0.0, 0.0]) == [0j, 0j]

    def test_cubic_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            wanted = sorted(rng.uniform(-0.9, 0.9, 3))
            coeffs = np.poly(wanted)
            got = sorted(r.real for r in find_roots(list(coeffs)))
            assert got == pytest.approx(wanted, abs=1e-9)

    def test_complex_pair(self):
        roots = find_roots([1.0, 0.0, 1.0])  # x^2 + 1
        assert sorted(r.imag for r in roots) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_residual_certificate_on_high_degree(self):
        rng = np.random.default_rng(32)
        for degree in (5, 8):
            wanted = sorted(rng.uniform(-0.95, 0.95, degree))
            coeffs = [float(c) for c in np.poly(wanted)]
            roots = find_roots(coeffs)
            bound = 1e-10 * (1 + max(abs(c) for c in coeffs))
            for r in roots:
                value = 0.0 + 0.0j
                for c in coeffs:
                    value = value * r + c
                assert abs(value) <= bound

    def test_input_validation(self):
        with pytest.raises(ValueError):
            find_roots([1.0])  # degree 0
        with pytest.raises(ValueError):
            find_roots([1.0] + [0.0] * 9)  # degree 9
        with pytest.raises(ValueError):
            find_roots([2.0, 1.0])  # not monic
        with pytest.raises(NumericFault):  # a fault of the data, not a bad call
            find_roots([1.0, float("nan")])


class TestRootsToFrequencies:
    BOUNDS = (0.5, 5.5)

    def test_known_cosine_pair(self):
        # cos(0.2) = 0.9800666..., cos(0.3) = 0.9553365...
        est = roots_to_frequencies([math.cos(0.2), math.cos(0.3)], 0.1, self.BOUNDS)
        assert est.omega_hat == pytest.approx((2.0, 3.0), abs=1e-6)
        assert est.residual == 0.0
        assert not est.clamped

    def test_root_at_one_projects_to_band_floor(self):
        est = roots_to_frequencies([1.0], 0.1, self.BOUNDS)
        assert est.omega_hat == (0.5,)
        assert not est.clamped

    def test_noise_inflated_root_clamped(self):
        est = roots_to_frequencies([1.02], 0.1, self.BOUNDS)
        assert est.clamped
        assert est.omega_hat == (0.5,)

    def test_excessive_imaginary_part_rejected(self):
        with pytest.raises(EstimateNotPhysical) as info:
            roots_to_frequencies([complex(0.9, 0.2)], 0.1, self.BOUNDS)
        assert info.value.roots == (complex(0.9, 0.2),)

    def test_small_imaginary_part_tolerated_and_reported(self):
        est = roots_to_frequencies([complex(0.98, 1e-5)], 0.1, self.BOUNDS)
        assert est.residual == pytest.approx(1e-5)
        assert est.omega_hat[0] == pytest.approx(math.acos(0.98) / 0.1, rel=1e-9)

    def test_monotone_endpoints(self):
        h = 0.1
        lo, hi = self.BOUNDS
        at_hi = roots_to_frequencies([math.cos(hi * h)], h, self.BOUNDS)
        at_lo = roots_to_frequencies([math.cos(lo * h)], h, self.BOUNDS)
        assert at_hi.omega_hat[0] == pytest.approx(hi, rel=1e-12)
        assert at_lo.omega_hat[0] == pytest.approx(lo, rel=1e-12)
        # strictly decreasing in the cosine across the band
        cs = np.linspace(math.cos(hi * h), math.cos(lo * h), 50)
        omegas = [roots_to_frequencies([c], h, self.BOUNDS).omega_hat[0] for c in cs]
        assert all(b < a for a, b in zip(omegas, omegas[1:]))

    def test_sorted_ascending(self):
        est = roots_to_frequencies([0.5, 0.99, 0.8], 0.1, self.BOUNDS)
        assert est.omega_hat == tuple(sorted(est.omega_hat))


class TestRoundtrip:
    H = 0.5
    BOUNDS = (0.5, 5.5)

    def roundtrip(self, freqs):
        theta = true_theta(freqs, self.H)
        est = recover_frequencies(theta, self.H, self.BOUNDS)
        return max(abs(a - b) for a, b in zip(est.omega_hat, sorted(freqs)))

    def test_seeded_random_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            freqs = self.sample_set(rng, n)
            assert self.roundtrip(freqs) <= 1e-9

    def sample_set(self, rng, n):
        while True:
            freqs = sorted(float(w) for w in rng.uniform(*self.BOUNDS, n))
            cosines = [math.cos(w * self.H) for w in freqs]
            gaps = [abs(a - b) for i, a in enumerate(cosines)
                    for b in cosines[i + 1:]]
            if not gaps or min(gaps) >= 1e-6:
                return freqs

    def test_permutation_invariance(self):
        freqs = [3.1, 0.9, 2.2, 4.4]
        reference = recover_frequencies(true_theta(freqs, self.H), self.H, self.BOUNDS)
        for perm in ([0.9, 2.2, 3.1, 4.4], [4.4, 3.1, 0.9, 2.2], [2.2, 4.4, 0.9, 3.1]):
            est = recover_frequencies(true_theta(perm, self.H), self.H, self.BOUNDS)
            assert est.omega_hat == pytest.approx(reference.omega_hat, abs=1e-9)


@st.composite
def clustered_tones(draw):
    """(omegas, h, bounds): n = 2..8 ascending tones whose gaps run
    log-uniformly from 1e-6 to 1e-1 rad/s, all inside the quarter-period
    band 0 < omega h < pi / 2, so every cosine lies in (0, 1)."""
    n = draw(st.integers(2, 8))
    h = draw(st.floats(0.05, 0.5))
    top = math.pi / (2 * h)
    gaps = [10.0 ** draw(st.floats(-6.0, -1.0)) for _ in range(n - 1)]
    start = draw(st.floats(0.01 * top, 0.99 * top - sum(gaps)))
    omegas = [start + sum(gaps[:i]) for i in range(n)]
    return omegas, h, (0.5 * start, top)


def recovery_condition(omegas, h):
    """max_i 1 / (h |sin(omega_i h)| |p'(c_i)|): the first-order gain from
    an error in the coefficients of p(x) = prod_j (x - c_j), relative to
    their size, to an error in the omegas."""
    cosines = [math.cos(w * h) for w in omegas]
    return max(
        1.0 / (h * abs(math.sin(w * h))
               * abs(math.prod(c - other for j, other in enumerate(cosines) if j != i)))
        for i, (w, c) in enumerate(zip(omegas, cosines)))


# Error allowed per unit of eps * condition. 60k random draws peaked at 23;
# the rounding of true_theta and of the roots each add a few units.
ROUNDTRIP_K = 1e3


@settings(max_examples=300, deadline=None)
@given(clustered_tones())
def test_roundtrip_with_clustered_cosines(case):
    # imag_tol = inf, as for omega_grad: a cluster of several cosines closer
    # than about eps^(1/m) may come back as a complex group, which the
    # default tolerance reports as EstimateNotPhysical
    omegas, h, bounds = case
    got = recover_frequencies(true_theta(omegas, h), h, bounds, math.inf).omega_hat
    allowed = ROUNDTRIP_K * sys.float_info.epsilon * recovery_condition(omegas, h)
    for w_hat, w in zip(got, omegas):
        assert abs(w_hat - w) <= allowed, (w_hat, w, allowed)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("rows", [1, 7, 128])
def test_rows_are_recovered_independently(n, rows):
    # each row of one recover_rows call is bit for bit its one-row call,
    # whatever else the call holds: both drivers' parity rests on it
    rng = np.random.default_rng(n * 1000 + rows)
    h = 0.3
    freqs = random_distinct_frequencies(rng, n, 1.0, 4.0)
    theta = np.array(true_theta(freqs, h)) * (1.0 + rng.normal(0.0, 1e-3, (rows, n)))
    omega, suspect = recover_rows(theta, h, (1.0, 4.0))
    for k in range(rows):
        one = recover_rows(theta[k:k + 1], h, (1.0, 4.0))
        assert repr((omega[k].tolist(), bool(suspect[k]))) == repr(
            (one[0][0].tolist(), bool(one[1][0]))), k
