"""Unit tests for polynomial-based frequency recovery: the one root
finder, recovery._roots, on rows of theta, and recover_frequencies, its
one-row call from theta to sorted in-band frequencies."""

import math
import random
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distinct_frequencies
from ftfreq import recovery
from ftfreq.errors import EstimateNotPhysical, NumericFault
from ftfreq.estimator import EstimatorSettings
from ftfreq.mixing import DremConfig
from ftfreq.pipeline import Pipeline
from ftfreq.recovery import _roots, recover_frequencies, recover_rows
from ftfreq.regression import ModelConfig, true_theta


def roots_of(coeffs):
    """_roots' roots, as Python complexes, of the monic polynomial with
    coefficients coeffs (descending powers): theta = -coeffs[1:]."""
    return _roots(-np.array([coeffs[1:]], dtype=float))[0][0].tolist()


def vieta(roots):
    """theta of the cosines roots: minus the trailing coefficients of
    their monic polynomial."""
    return tuple((-np.poly(roots)[1:]).real.tolist())


class TestThetaToPolynomial:
    """theta holds the signed coefficients of the cosines' monic polynomial
    x^n - theta_1 x^(n-1) - ... - theta_n."""

    def test_single_parameter(self):
        # x - c: the closed form returns c itself
        c = math.cos(0.2)
        assert roots_of([1.0, -c]) == [complex(c, 0.0)]
        assert recover_frequencies((c,), 0.1, (0.5, 5.5)).omega_hat == (math.acos(c) / 0.1,)

    def test_two_parameters_signed(self):
        theta = true_theta([2.0, 3.0], 0.1)
        assert theta == pytest.approx([1.9354031, -0.9362934], abs=1e-7)
        # the true cosines really are roots of this polynomial
        for c in (math.cos(0.2), math.cos(0.3)):
            assert abs(c * c - theta[0] * c - theta[1]) < 1e-15
        assert sorted(r.real for r in roots_of([1.0, *(-t for t in theta)])) == \
            pytest.approx([math.cos(0.3), math.cos(0.2)], abs=1e-9)

    def test_zero_vector_gives_pure_power(self):
        roots, residual, allowed = _roots(np.zeros((1, 3)))
        assert np.abs(roots).max() < 1e-12
        assert (residual <= allowed[:, None]).all()


class TestFindRoots:
    """_roots on theta = -coeffs[1:], and the checks recover_frequencies
    makes before it."""

    def test_known_quadratic(self):
        roots = sorted(r.real for r in roots_of(
            [1.0, -1.9354030669668476, 0.9362933635841992]))
        assert roots[0] == pytest.approx(math.cos(0.3), abs=1e-9)
        assert roots[1] == pytest.approx(math.cos(0.2), abs=1e-9)

    def test_double_root(self):
        roots = roots_of([1.0, -1.0, 0.25])  # (x - 0.5)^2
        assert [r.real for r in roots] == [0.5, 0.5]
        assert all(r.imag == 0.0 for r in roots)
        # theta = (0, 0): the larger root q is 0, so Vieta cannot give its mate
        assert roots_of([1.0, 0.0, 0.0]) == [0j, 0j]

    def test_cubic_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            wanted = sorted(rng.uniform(-0.9, 0.9, 3))
            coeffs = np.poly(wanted)
            got = sorted(r.real for r in roots_of(list(coeffs)))
            assert got == pytest.approx(wanted, abs=1e-9)

    def test_complex_pair(self):
        roots = roots_of([1.0, 0.0, 1.0])  # x^2 + 1
        assert sorted(r.imag for r in roots) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_residual_certificate_on_high_degree(self):
        rng = np.random.default_rng(32)
        for degree in (5, 8):
            wanted = sorted(rng.uniform(-0.95, 0.95, degree))
            coeffs = [float(c) for c in np.poly(wanted)]
            roots, residual, allowed = _roots(-np.array([coeffs[1:]]))
            assert (residual <= allowed[:, None]).all()
            bound = 1e-10 * (1 + max(abs(c) for c in coeffs))
            for r in roots[0].tolist():
                value = 0.0 + 0.0j
                for c in coeffs:
                    value = value * r + c
                assert abs(value) <= bound

    @pytest.mark.parametrize("coeffs, expected", [
        ((1.0, 0.0), "[(-0+0j)]"),
        ((1.0, -0.0), "[0j]"),
        ((1.0, 0.0, 0.0), "[(-0+0j), (-0+0j)]"),
        ((1.0, -0.0, 0.0), "[0j, 0j]"),
        ((1.0, 0.0, -0.0), "[(-0+0j), (-0+0j)]"),
        ((1.0, -0.0, -0.0), "[0j, 0j]"),
        ((1.0, 0.0, 1.0), "[(-0+1j), (-0-1j)]"),
        ((1.0, -0.0, 1.0), "[1j, -1j]"),
        ((1.0, 0.0, -1.0), "[(-1+0j), (1+0j)]"),
        ((1.0, -0.0, -1.0), "[(1+0j), (-1+0j)]"),
        ((1.0, 1.0, 0.0), "[(-1+0j), (-0+0j)]"),
        ((1.0, -1.0, 0.0), "[(1+0j), 0j]"),
        ((1.0, -1.0, -0.0), "[(1+0j), (-0+0j)]"),
    ])
    def test_signed_zeros_at_low_degree(self, coeffs, expected):
        # the closed forms' roots, signs of zero and order included
        assert repr(roots_of(coeffs)) == expected

    def test_input_validation(self):
        with pytest.raises(ValueError, match=r"^degree must be in 1\.\.8, got 0$"):
            recover_frequencies((), 0.1, (0.5, 5.5))
        with pytest.raises(ValueError, match=r"^degree must be in 1\.\.8, got 9$"):
            recover_frequencies((0.0,) * 9, 0.1, (0.5, 5.5))
        # a fault of the data, not a bad call, found before h is checked
        with pytest.raises(NumericFault) as info:
            recover_frequencies((math.nan,), 0.0, (0.5, 5.5))
        assert str(info.value) == "polynomial coefficients must be finite, got [1.0, nan]"


class TestRootsToFrequencies:
    """recover_frequencies from the theta of given cosines: a single root c
    is theta = (c,), which the n = 1 closed form returns bit for bit, and
    pairs and triples are theta by Vieta."""

    BOUNDS = (0.5, 5.5)

    def test_known_cosine_pair(self):
        # cos(0.2) = 0.9800666..., cos(0.3) = 0.9553365...
        est = recover_frequencies(vieta([math.cos(0.2), math.cos(0.3)]), 0.1, self.BOUNDS)
        assert est.omega_hat == pytest.approx((2.0, 3.0), abs=1e-6)
        assert est.residual == 0.0
        assert not est.clamped

    def test_root_at_one_projects_to_band_floor(self):
        est = recover_frequencies((1.0,), 0.1, self.BOUNDS)
        assert est.omega_hat == (0.5,)
        assert not est.clamped

    def test_noise_inflated_root_clamped(self):
        est = recover_frequencies((1.02,), 0.1, self.BOUNDS)
        assert est.clamped
        assert est.omega_hat == (0.5,)

    @pytest.mark.parametrize("bounds, omega", [((0.5, 5.5), 5.5), ((0.5, 40.0), math.pi / 0.1)])
    def test_root_below_minus_one_clamped(self, bounds, omega):
        # clamped to -1, whose arccos is pi: omega = pi / h, projected into the band
        est = recover_frequencies((-1.02,), 0.1, bounds)
        assert est.clamped
        assert est.omega_hat == (omega,)

    @pytest.mark.parametrize("h, bounds, message", [
        (0.0, BOUNDS, "h must be positive"),
        (math.nan, BOUNDS, "h must be positive"),
        (0.1, (5.5, 0.5), "bounds must satisfy omega_min < omega_max"),
        (0.1, (0.5, 0.5), "bounds must satisfy omega_min < omega_max"),
    ])
    def test_input_validation(self, h, bounds, message):
        with pytest.raises(ValueError, match=message):
            recover_frequencies((0.9,), h, bounds)

    def test_excessive_imaginary_part_rejected(self):
        theta = vieta([complex(0.9, 0.2), complex(0.9, -0.2)])
        with pytest.raises(EstimateNotPhysical) as info:
            recover_frequencies(theta, 0.1, self.BOUNDS)
        assert info.value.roots == tuple(roots_of([1.0, *(-t for t in theta)]))
        assert info.value.roots == pytest.approx((complex(0.9, 0.2), complex(0.9, -0.2)))
        # a permissive tolerance, as for omega_grad, takes the real parts
        assert recover_frequencies(theta, 0.1, self.BOUNDS, math.inf).omega_hat == \
            pytest.approx((math.acos(0.9) / 0.1,) * 2)

    def test_small_imaginary_part_tolerated_and_reported(self):
        est = recover_frequencies(vieta([complex(0.98, 1e-5), complex(0.98, -1e-5)]),
                                  0.1, self.BOUNDS)
        assert est.residual == pytest.approx(1e-5, rel=1e-4)
        assert est.omega_hat == pytest.approx((math.acos(0.98) / 0.1,) * 2, rel=1e-9)

    def test_monotone_endpoints(self):
        h = 0.1
        lo, hi = self.BOUNDS
        at_hi = recover_frequencies((math.cos(hi * h),), h, self.BOUNDS)
        at_lo = recover_frequencies((math.cos(lo * h),), h, self.BOUNDS)
        assert at_hi.omega_hat[0] == pytest.approx(hi, rel=1e-12)
        assert at_lo.omega_hat[0] == pytest.approx(lo, rel=1e-12)
        # strictly decreasing in the cosine across the band
        cs = np.linspace(math.cos(hi * h), math.cos(lo * h), 50)
        omegas = [recover_frequencies((c,), h, self.BOUNDS).omega_hat[0] for c in cs]
        assert all(b < a for a, b in zip(omegas, omegas[1:]))

    def test_sorted_ascending(self):
        est = recover_frequencies(vieta([0.5, 0.99, 0.8]), 0.1, (0.5, 20.0))
        assert est.omega_hat == tuple(sorted(est.omega_hat))
        assert est.omega_hat == pytest.approx(
            [math.acos(c) / 0.1 for c in (0.99, 0.8, 0.5)], rel=1e-9)


@pytest.mark.parametrize("theta", [
    (1e300, 1e300), (1e300, -1e300), (-1e300, 1e300), (1e300,) * 3, (1e200,) * 5,
    (-1e300, 1e300, -1e300, 1e300), (1e300,) * 8,
], ids=lambda theta: f"n{len(theta)}")
def test_overflowing_roots_are_a_residual_fault(theta):
    # a finite theta whose roots overflow: the closed form (n = 2) or
    # eigvals (n >= 3) returns a non-finite root or residual, which misses
    # the residual target; recovery faults, and never returns a clamped
    # omega, whatever the imaginary-part tolerance
    for imag_tol in (recovery.DEFAULT_IMAG_TOL, math.inf):
        with pytest.raises(NumericFault, match="^root residual ") as info:
            recover_frequencies(theta, 0.3, (1.0, 4.0), imag_tol)
        assert type(info.value) is NumericFault
    for held in (None, recovery.DEFAULT_IMAG_TOL):  # held: the row is a run's theta_ft
        omega, suspect, estimate = recover_rows(np.array([theta]), 0.3, (1.0, 4.0), held)
        assert suspect.all() and np.isnan(omega).all() and estimate is None


@pytest.mark.parametrize("n", range(1, 9))
def test_a_non_finite_root_always_misses_the_residual_target(n):
    # so recover_frequencies needs no check of its own for one: over finite
    # theta from 1e-300 to 1e308 in size, every row with a non-finite root
    # fails the residual check (the closed form at n = 2 returns about a
    # thousand such rows; balanced eigvals none)
    rng = np.random.default_rng(n)
    theta = rng.choice([-1.0, 1.0], (4000, n)) * 10.0 ** rng.uniform(-300, 308, (4000, n))
    roots, residual, allowed = _roots(theta)
    assert np.isfinite(theta).all()
    non_finite = ~np.isfinite(roots).all(axis=1)
    assert not (residual <= allowed[:, None]).all(axis=1)[non_finite].any()
    assert non_finite.any() or n != 2


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


@pytest.mark.parametrize("n", range(3, 9))
def test_the_real_polish_is_the_complex_one(n):
    # _polished polishes real roots, given as floats, in float arithmetic,
    # each step dividing as p * (1 / p'): bit for bit the complex polish of
    # the same roots at zero imaginary parts, roots and residuals alike, on
    # rows of spread cosines, of clustered ones and of real roots from
    # 1e-30 to 1e30 in size, each row kept where _roots would start it
    # from real roots
    rng = np.random.default_rng(n)
    families = (np.sort(rng.uniform(-1.0, 1.0, (200, n)), axis=1),
                0.5 + rng.normal(0.0, 1e-2, (200, n)),
                rng.choice([-1.0, 1.0], (200, n)) * 10.0 ** rng.uniform(-30, 30, (200, n)))
    theta = np.array([-np.poly(row)[1:] for roots in families for row in roots])
    theta = theta[[start_is_real(theta[k:k + 1]) for k in range(len(theta))]]
    assert len(theta) > 300
    start = recovery._cubic_roots(theta) if n == 3 else recovery._companion_roots(theta)
    real, residual = recovery._polished(theta, start)
    assert start.dtype.kind == real.dtype.kind == "f"
    roots, residuals = recovery._polished(theta, start.astype(complex))
    assert repr((real.astype(complex).tolist(), residual.tolist())) == \
        repr((roots.tolist(), residuals.tolist()))


def mixed_block(rng, n, h):
    """n >= 3 rows of theta whose block takes _roots' complex path: rows of
    real cosines of tones, which alone take its real path, and among them
    one row with a complex pair of roots, one non-finite row and one whose
    polish overflows at its large real root, 1e160."""
    def tones(count):
        return np.cos(np.array(random_distinct_frequencies(rng, count, 1.0, 4.0)) * h)

    rows = [true_theta(random_distinct_frequencies(rng, n, 1.0, 4.0), h) for _ in range(6)]
    rows[1:1] = [vieta([0.3 + 0.4j, 0.3 - 0.4j, *tones(n - 2)])]
    rows[4:4] = [[math.nan] * n, vieta([1e160, *tones(n - 1)])]
    return np.array(rows)


def start_is_real(theta):
    """Whether _roots starts theta's block from real roots (floats)."""
    with np.errstate(all="ignore"):
        start = recovery._cubic_roots(theta) if theta.shape[1] == 3 else \
            recovery._companion_roots(theta)
    return start.dtype.kind == "f"


@pytest.mark.parametrize("n, rows", [
    *(pytest.param(n, rows, id=f"{rows}-{n}") for rows in (1, 7, 128) for n in range(1, 9)),
    *(pytest.param(n, "mixed", id=f"mixed-{n}") for n in range(3, 9))])
def test_rows_are_recovered_independently(n, rows):
    # each row of one recover_rows call is bit for bit its one-row call,
    # whatever else the call holds: both drivers' parity rests on it. The
    # mixed block takes _roots' complex path while each tone row alone
    # takes its real path, polished in float arithmetic, as is the
    # overflowing row, which then falls back to the complex path (at n = 3
    # its depressed cubic overflows, so the closed form gives it NaN roots,
    # which eigvals' real roots replace)
    h = 0.3
    mixed = rows == "mixed"
    if mixed:
        theta = mixed_block(np.random.default_rng(n), n, h)
        rows = len(theta)
    else:
        rng = np.random.default_rng(n * 1000 + rows)
        freqs = random_distinct_frequencies(rng, n, 1.0, 4.0)
        theta = np.array(true_theta(freqs, h)) * (1.0 + rng.normal(0.0, 1e-3, (rows, n)))
    block = np.where(np.isfinite(theta).all(axis=1)[:, None], theta, 0.0)  # as it is rooted
    if mixed:
        assert not start_is_real(block)
        # all but the complex pair's row, and at n = 3 the overflowing row
        assert [start_is_real(block[k:k + 1]) for k in range(rows)] == \
            [k != 1 and not (n == 3 and k == 5) for k in range(rows)]
    omega, suspect, estimate = recover_rows(theta, h, (1.0, 4.0))
    assert estimate is None
    for k in range(rows):
        one = recover_rows(theta[k:k + 1], h, (1.0, 4.0))
        assert repr((omega[k].tolist(), bool(suspect[k]))) == repr(
            (one[0][0].tolist(), bool(one[1][0]))), k
        # and recover_frequencies, as the drivers' suspect replays call it,
        # returns that row, or for a suspect row raises the fault that
        # names the block's own roots of it
        try:
            alone = recover_frequencies(tuple(theta[k].tolist()), h, (1.0, 4.0), math.inf)
        except NumericFault as exc:
            assert suspect[k], k
            if np.isfinite(theta[k]).all():
                roots, residual, allowed = _roots(block)
                worst = next(r for r in residual[k].tolist() if not r <= allowed[k])
                assert str(exc) == (
                    f"root residual {worst:.3g} exceeds {allowed[k]:.3g} for coefficients "
                    f"{[1.0, *(-theta[k]).tolist()]} (roots {roots[k].tolist()})"), k
        else:
            assert not suspect[k], k
            assert repr(alone.omega_hat) == repr(tuple(omega[k].tolist())), k
    # a held last row, as a run's theta_ft, is recover_frequencies' call
    # under imag_tol: its FrequencyEstimate, or suspect where that raises,
    # with the EstimateNotPhysical it raises for roots beyond imag_tol
    for imag_tol in (recovery.DEFAULT_IMAG_TOL, 1e-12):
        held = recover_rows(theta, h, (1.0, 4.0), imag_tol)
        assert repr((held[0][:-1].tolist(), held[1][:-1].tolist())) == repr(
            (omega[:-1].tolist(), suspect[:-1].tolist()))
        try:
            alone = recover_frequencies(tuple(theta[-1].tolist()), h, (1.0, 4.0), imag_tol)
        except EstimateNotPhysical as exc:
            assert held[1][-1] and np.isnan(held[0][-1]).all()
            assert type(held[2]) is EstimateNotPhysical
            assert (str(held[2]), held[2].roots) == (str(exc), exc.roots)
        except NumericFault:
            assert held[1][-1] and np.isnan(held[0][-1]).all() and held[2] is None
        else:
            assert not held[1][-1] and repr(held[2]) == repr(alone)
            assert repr(held[0][-1].tolist()) == repr(list(alone.omega_hat))


def failing_eigvals(calls):
    """A stand-in for np.linalg.eigvals that records each call's stack size
    in calls and fails as LAPACK's iteration does when it does not converge."""
    def failing(matrices):
        calls.append(len(matrices))
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return failing


def test_a_failed_eigenvalue_iteration():
    freqs = (1.2, 2.0, 2.8, 3.6)
    model = ModelConfig(n=4, h=0.3, omega_min=1.0, omega_max=4.0)
    pipeline = Pipeline(model, DremConfig(d=0.4, epsilon=10.0),
                        EstimatorSettings(gamma=(1.0,) * 4, omega0=(1.1, 1.9, 2.7, 3.5),
                                          t_ft=100.0), 0.1)
    signal = [sum(math.cos(w * 0.1 * k) for w in freqs)
              for k in range(pipeline.taps.warm_from + 1)]
    for k, y in enumerate(signal[:-1]):  # the cold steps
        pipeline.step(0.1 * k, y)
    with mock.patch.object(recovery.np.linalg, "eigvals", failing_eigvals([])):
        with pytest.raises(NumericFault) as info:
            recover_frequencies((3.0, -3.5, 2.0, -0.5), 0.3, (1.0, 4.0), math.inf)
        assert str(info.value) == ("companion eigenvalue iteration failed for coefficients "
                                   "[1.0, -3.0, 3.5, -2.0, 0.5]: Eigenvalues did not converge")
        # the batch flags every row: one failure fails the stacked call
        omega, suspect, _ = recover_rows(np.array([[3.0, -3.5, 2.0, -0.5]] * 5), 0.3, (1.0, 4.0))
        assert suspect.all() and np.isnan(omega).all()
        # the first warm step recovers its batch, then replays its own row
        with pytest.raises(NumericFault) as stepped:
            pipeline.step(0.1 * (len(signal) - 1), signal[-1])
        with pytest.raises(NumericFault) as alone:
            recover_frequencies(pipeline.state.theta_hat, 0.3, (1.0, 4.0), math.inf)
    assert str(stepped.value) == str(alone.value)
    assert "companion eigenvalue iteration failed" in str(stepped.value)


def test_eigvals_at_n3_takes_only_the_rows_the_closed_form_leaves():
    # tone rows never reach eigvals, in a session or on their own; a row
    # whose coefficients span twelve orders of magnitude (roots 1e6 and
    # about +-1e-3), which the closed form cannot settle, does, and its
    # failure is the companion route's fault, message for message
    freqs = (1.5, 2.5, 3.5)
    model = ModelConfig(n=3, h=0.3, omega_min=1.0, omega_max=4.0)
    pipeline = Pipeline(model, DremConfig(d=0.4, epsilon=10.0),
                        EstimatorSettings(gamma=(1.0,) * 3, omega0=(1.2, 2.2, 3.2), t_ft=100.0),
                        0.1)
    wide = (1e6, 1e-6, -1.0)
    calls = []
    with mock.patch.object(recovery.np.linalg, "eigvals", failing_eigvals(calls)):
        for k in range(pipeline.taps.warm_from + 20):  # the cold steps and 5 batches
            pipeline.step(0.1 * k, sum(math.cos(w * 0.1 * k) for w in freqs))
        recover_frequencies((2.8, -2.6, 0.8), 0.3, (1.0, 4.0), math.inf)
        omega, suspect, _ = recover_rows(np.array([[2.8, -2.6, 0.8]] * 5), 0.3, (1.0, 4.0))
        assert not suspect.any() and not calls
        with pytest.raises(NumericFault) as info:
            recover_frequencies(wide, 0.3, (1.0, 4.0), math.inf)
        assert str(info.value) == ("companion eigenvalue iteration failed for coefficients "
                                   "[1.0, -1000000.0, -1e-06, 1.0]: Eigenvalues did not converge")
        # in a batch, the one row eigvals takes fails the stacked call
        omega, suspect, _ = recover_rows(np.array([[2.8, -2.6, 0.8]] * 4 + [wide]), 0.3,
                                         (1.0, 4.0))
        assert suspect.all() and np.isnan(omega).all()
        assert calls == [1, 1]
    # where eigvals converges, it settles the row
    roots, residual, allowed = _roots(np.array([wide]))
    assert (residual <= allowed[:, None]).all()
    assert sorted(roots[0].real.tolist()) == pytest.approx([-1e-3, 1e-3, 1e6], rel=1e-6)


class TestImagTol:
    """recover_frequencies' imag_tol: positive, math.inf included."""

    @pytest.mark.parametrize("imag_tol", [math.nan, 0.0, -1e-3, -math.inf])
    def test_must_be_positive(self, imag_tol):
        # a NaN tolerance would pass the roots +-i of x^2 + 1 as real cosines,
        # and a negative one would reject real roots
        with pytest.raises(ValueError, match=r"^imag_tol must be positive, got "):
            recover_frequencies((0.0, -1.0), 0.3, (1.0, 4.0), imag_tol)
        with pytest.raises(ValueError, match=r"^imag_tol must be positive, got "):
            recover_frequencies((0.9,), 0.3, (1.0, 4.0), imag_tol)

    def test_infinity_takes_the_real_parts(self):
        # as omega_grad's recovery does: arccos(0) / h, projected into the band
        assert recover_frequencies((0.0, -1.0), 0.3, (1.0, 4.0), math.inf) == \
            recovery.FrequencyEstimate((4.0, 4.0), 1.0, False)


def rational_cosines(rng):
    """Three distinct rational cosines in (-1, 1), ascending, at least 1e-5
    apart: uniform, or a tone-like cluster with gaps from 1e-5 to 1e-1."""
    q = rng.randint(1000, 100000)
    if rng.random() < 0.5:
        cosines = {Fraction(rng.randint(1 - q, q - 1), q) for _ in range(3)}
    else:
        first = Fraction(rng.randint(1 - q, q // 2), q)
        gaps = [Fraction(10.0 ** rng.uniform(-5.0, -1.0)) for _ in range(2)]
        cosines = {first, first + gaps[0], first + gaps[0] + gaps[1]}
    cosines = sorted(cosines)
    if len(cosines) < 3 or min(b - a for a, b in zip(cosines, cosines[1:])) < Fraction(1, 10 ** 5):
        return rational_cosines(rng)
    return cosines


UNIT_ROUNDOFF = 2.0 ** -53
# Error allowed per unit of u * sum_k |theta_k| |c|^(3-k) / |p'(c)| (theta_0
# = 1). 120k draws of rational_cosines peaked at 3.3 on the closed form and
# 4.1 on the companion eigenvalues, both polished.
CUBIC_C = 16.0


class TestCubic:
    """n = 3: Viete's and Cardano's closed form under the Newton polish, and
    eigvals for the rows it cannot settle."""

    def test_within_conditioned_roundoff_of_exact(self):
        # theta of exact rational cosines, rounded once: each root within a
        # few units of its first-order error bound. The extra u covers a
        # root at 0 of theta_3 = 0, which the closed form starts about u off
        # and the polish brings only to a power of u, not to 0
        rng = random.Random(3)
        for _ in range(2000):
            cosines = rational_cosines(rng)
            c1, c2, c3 = cosines
            exact = (c1 + c2 + c3, -(c1 * c2 + c1 * c3 + c2 * c3), c1 * c2 * c3)
            theta = [float(t) for t in exact]
            roots = sorted(roots_of([1.0, *(-t for t in theta)]), key=lambda z: z.real)
            for i, (root, c) in enumerate(zip(roots, cosines)):
                slope = abs(math.prod(c - other for j, other in enumerate(cosines) if j != i))
                size = sum(abs(t) * abs(float(c)) ** (3 - k)
                           for k, t in enumerate([1.0, *theta]))
                error = math.hypot(float(Fraction(root.real) - c), root.imag)
                assert error <= CUBIC_C * UNIT_ROUNDOFF * (size + UNIT_ROUNDOFF) / float(slope), \
                    (cosines, roots)

    @pytest.mark.parametrize("spread", [300, 30, 8, 2])
    def test_no_row_the_companion_settles_is_left_suspect(self, spread):
        # random-sign theta of size 10^U(-spread, spread): every row the
        # polished eigenvalues settle is settled; a row the polished closed
        # form misses is the companion route's row bit for bit, and every
        # other row is the closed form's. At wide spreads the closed form
        # misses rows that eigvals settles, so the fallback is needed
        rng = np.random.default_rng(spread)
        theta = rng.choice([-1.0, 1.0], (20000, 3)) * 10.0 ** rng.uniform(
            -spread, spread, (20000, 3))
        roots, residual, allowed = _roots(theta)
        with np.errstate(all="ignore"):
            companion = recovery._polished(theta, recovery._companion_roots(theta))
            closed = recovery._polished(theta, recovery._cubic_roots(theta))

        def settled(residuals):
            return (residuals <= allowed[:, None]).all(axis=1)

        assert not (settled(companion[1]) & ~settled(residual)).any()
        fallback = ~settled(closed[1])
        for rows, route in ((fallback, companion), (~fallback, closed)):
            assert roots[rows].tobytes() == route[0][rows].tobytes()
            assert residual[rows].tobytes() == route[1][rows].tobytes()
        assert (fallback & settled(companion[1])).any() == (spread > 2)

    @pytest.mark.parametrize("k", [-300, -128, -60, -7, 1, 13, 90, 150, 300])
    def test_roots_scale_exactly_with_theta(self, k):
        # theta scaled by (2^k, 2^2k, 2^3k) has the roots scaled by 2^k, bit
        # for bit, and the closed form settles every row without eigvals,
        # wherever the depressed cubic stays in range. At 2^+-300 it over-
        # or underflows on some rows, which eigvals takes: every row is
        # still settled
        rng = np.random.default_rng(k + 1000)
        cosines = rng.uniform(-1.0, 1.0, (500, 3))
        cosines[250:] = cosines[250:, :1] + 10.0 ** rng.uniform(-5.0, -1.0, (250, 3))
        with_zeros = [(0.0, 0.0, 0.0), (0.75, 0.0, -0.0625), (0.0, -1.0, 0.0)]
        theta = np.concatenate([[vieta(row) for row in cosines], rng.uniform(-2.0, 2.0, (500, 3)),
                                with_zeros])
        scale = 2.0 ** k
        scaled_theta = theta * (scale, scale * scale, scale ** 3)
        if abs(k) < 300:
            with mock.patch.object(recovery.np.linalg, "eigvals", failing_eigvals([])):
                roots, _, _ = _roots(theta)
                scaled, _, _ = _roots(scaled_theta)
            assert scaled.tobytes() == (roots * scale).tobytes()
        else:
            with mock.patch.object(recovery.np.linalg, "eigvals",
                                   wraps=np.linalg.eigvals) as eigvals:
                _, residual, allowed = _roots(scaled_theta)
            assert eigvals.called and (residual <= allowed[:, None]).all()

    @pytest.mark.parametrize("theta, roots", [
        ((0.0, 0.0, 0.0), [0j, 0j, 0j]),
        ((0.75, 0.0, -0.0625), [(0.5 + 0j), (0.5 + 0j), (-0.25 + 0j)]),  # (x - 0.5)^2 (x + 0.25)
        ((1.5, -0.75, 0.125), [(0.5 + 0j)] * 3),  # (x - 0.5)^3
        ((0.5, 1.0, -0.5), [(1 + 0j), (0.5 + 0j), (-1 + 0j)]),  # (x^2 - 1)(x - 0.5)
    ])
    def test_edge_rows(self, theta, roots):
        # zero, exact double and triple roots and roots at +-1, from the
        # closed form alone, to the last bit or next to it, with |p| = 0
        with mock.patch.object(recovery.np.linalg, "eigvals", failing_eigvals([])):
            got = _roots(np.array([theta]))
        assert sorted(got[0][0].tolist(), key=lambda z: -z.real) == pytest.approx(roots, abs=2e-16)
        assert got[1].tolist() == [[0.0] * 3]

    def test_complex_pair(self):
        # (x - 0.5)(x^2 + 1): the real root and the pair +-i
        theta = (0.5, -1.0, 0.5)
        roots = roots_of([1.0, *(-t for t in theta)])
        assert roots[0] == 0.5
        assert roots[1:] == pytest.approx([1j, -1j], abs=1e-15)
        with pytest.raises(EstimateNotPhysical):
            recover_frequencies(theta, 0.3, (1.0, 4.0))
        assert recover_frequencies(theta, 0.3, (0.5, 20.0), math.inf).omega_hat == \
            pytest.approx((math.acos(0.5) / 0.3, math.pi / 2 / 0.3, math.pi / 2 / 0.3))

    @pytest.mark.parametrize("edge, clamped", [(1.0, False), (1.02, True)])
    def test_roots_at_the_ends_of_the_cosine_range(self, edge, clamped):
        # cosines +-1, exact or noise-inflated beyond: omega 0 and pi / h,
        # projected into the band, with the clamp reported only beyond
        est = recover_frequencies(vieta([edge, -edge, 0.5]), 0.3, (0.5, 20.0))
        assert est.clamped is clamped
        assert est.omega_hat == (0.5, pytest.approx(math.acos(0.5) / 0.3), math.pi / 0.3)
