"""Frequency recovery: parameter vector -> cosines -> frequencies.

The estimated theta packs the cosines c_i = cos(w_i h) as the (signed)
coefficients of their monic polynomial, so recovery is root finding on

    x^n - theta_1 x^(n-1) - theta_2 x^(n-2) - ... - theta_n

followed by w_i = arccos(c_i) / h, projection into the known band, and an
ascending sort (the regression is symmetric in the harmonics, so sorted
order is the only canonical labeling).

Root finding has one written form, _roots, over stacked rows of theta in
numpy complex arithmetic. recover_rows is its batched call, with which
Pipeline's block routine recovers omega_grad; find_roots is its one-row
call, which runs for omega_ft, for a session's first omega_grad and to
settle a row recover_rows flags. The tail from cosines to sorted in-band
frequencies has one written form as well, _frequencies, which recover_rows
calls on all its rows and roots_to_frequencies on its one row, after
checking each root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimateNotPhysical, NumericFault
from .regression import MAX_HARMONICS

DEFAULT_IMAG_TOL = 1e-3

# Residual target for every returned root: |p(r)| <= RESIDUAL_TOL * (1 + max|coeff|).
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class FrequencyEstimate:
    """Sorted frequency estimates with recovery diagnostics.

    residual is the largest root imaginary-part magnitude seen before the
    real-axis projection; clamped reports whether any real part had to be
    clamped into [-1, 1] before the arccos.
    """

    omega_hat: tuple[float, ...]
    residual: float
    clamped: bool


def theta_to_polynomial(theta) -> list[float]:
    """Monic coefficients (descending powers) of the polynomial with roots c_i."""
    coeffs = [1.0]
    coeffs.extend(-t for t in theta)
    return coeffs


def _horner(coeffs, x):
    """sum_i coeffs[i] x^(len(coeffs) - 1 - i) at every x, by Horner's rule."""
    value = coeffs[0]
    for c in coeffs[1:]:
        value = value * x + c
    return value


def _roots(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of x^n - theta_1 x^(n-1) - ... - theta_n for each row of theta.

    Returns (roots (K, n) complex, |p| at each root, the |p| allowed per
    row). Closed forms for n = 1 and 2; above that the stacked companion
    matrices' eigenvalues, each polished by up to two Newton steps, a step
    kept only if it shrinks |p|. An overflow shows as a residual miss, not
    as a warning; eigvals' LinAlgError propagates.
    """
    count, n = theta.shape
    with np.errstate(all="ignore"):
        coeffs = [1.0, *(-theta.T[:, :, None])]
        if n <= 2:
            # set part by part, so that signed zeros survive
            roots = np.empty((count, n), dtype=complex)
            if n == 1:
                roots.real, roots.imag = theta, 0.0
            else:
                b, c = coeffs[1][:, 0], coeffs[2][:, 0]
                disc = b * b - 4.0 * c
                real = disc >= 0.0
                root = np.sqrt(np.abs(disc))
                # the root further from cancellation first, its mate by Vieta
                q = -0.5 * (b + np.copysign(root, b))
                mid = -0.5 * b
                double = ~real | (q == 0.0)
                roots.real[:, 0] = np.where(double, mid, q)
                roots.real[:, 1] = np.where(double, mid, c / q)
                roots.imag = np.where(real[:, None], 0.0, (0.5 * root)[:, None] * (1.0, -1.0))
            residual = np.abs(_horner(coeffs, roots))
        else:
            companion = np.zeros((count, n, n))
            companion[:, 0, :] = theta
            companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            roots = np.linalg.eigvals(companion).astype(complex)
            slopes = [(n - i) * c for i, c in enumerate(coeffs[:-1])]
            active = np.ones(roots.shape, dtype=bool)
            p = _horner(coeffs, roots)
            for _ in range(2):
                dp = _horner(slopes, roots)
                candidate = roots - p / dp
                p_candidate = _horner(coeffs, candidate)
                active &= ~(np.abs(dp) < 1e-300) & (np.abs(p_candidate) < np.abs(p))
                if not active.any():
                    break
                roots = np.where(active, candidate, roots)
                p = np.where(active, p_candidate, p)
            residual = np.abs(p)
        allowed = RESIDUAL_TOL * (1.0 + np.abs(theta).max(axis=1, initial=1.0))
    return roots, residual, allowed


def find_roots(coeffs) -> list[complex]:
    """All roots of a monic polynomial of degree 1..8, multiplicities repeated.

    The one-row call of recover_rows' root finder: closed forms for degrees
    1 and 2, companion-matrix eigenvalues with Newton polishing above that.
    Every root is checked against the residual target; missing it raises
    NumericFault with the offending data, and so do non-finite coefficients
    (a fault of the data that produced them) and a failed eigenvalue
    iteration.
    """
    coeffs = [float(c) for c in coeffs]
    degree = len(coeffs) - 1
    if not 1 <= degree <= MAX_HARMONICS:
        raise ValueError(f"degree must be in 1..{MAX_HARMONICS}, got {degree}")
    if coeffs[0] != 1.0:
        raise ValueError(f"polynomial must be monic, got leading coefficient {coeffs[0]}")
    if any(not math.isfinite(c) for c in coeffs):
        raise NumericFault(f"polynomial coefficients must be finite, got {coeffs}")
    try:
        roots, residuals, allowed = _roots(-np.array([coeffs[1:]]))
    except np.linalg.LinAlgError as exc:
        raise NumericFault(
            f"companion eigenvalue iteration failed for coefficients {coeffs}: {exc}"
        ) from exc
    roots, allowed = roots[0].tolist(), float(allowed[0])
    for residual in residuals[0].tolist():
        if not residual <= allowed:
            raise NumericFault(
                f"root residual {residual:.3g} exceeds {allowed:.3g} "
                f"for coefficients {coeffs} (roots {roots})")
    return roots


def roots_to_frequencies(roots, h: float, bounds: tuple[float, float],
                         imag_tol: float = DEFAULT_IMAG_TOL) -> FrequencyEstimate:
    """Map cosine roots to sorted in-band frequency estimates.

    A root with a non-finite real or imaginary part raises NumericFault.
    Imaginary parts up to imag_tol * (1 + |Re|) are treated as numeric noise
    and dropped; anything larger means the parameter estimate does not
    describe real cosines and raises EstimateNotPhysical. Real parts are
    clamped into [-1, 1], mapped through arccos, scaled by 1/h, and finally
    projected into [omega_min, omega_max].
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive, got {h}")
    omega_min, omega_max = bounds
    if not omega_min < omega_max:
        raise ValueError(f"bounds must satisfy omega_min < omega_max, got {bounds}")
    values = [complex(root) for root in roots]
    for root in values:
        if not (math.isfinite(root.real) and math.isfinite(root.imag)):
            raise NumericFault(f"root {root} is not finite")
        if abs(root.imag) > imag_tol * (1.0 + abs(root.real)):
            raise EstimateNotPhysical(
                f"root {root} has imaginary part beyond tolerance {imag_tol}", roots)
    return FrequencyEstimate(
        omega_hat=tuple(_frequencies(np.array([[root.real for root in values]]), h,
                                     bounds)[0].tolist()),
        residual=max((abs(root.imag) for root in values), default=0.0),
        clamped=any(abs(root.real) > 1.0 for root in values))


def recover_frequencies(theta, h: float, bounds: tuple[float, float],
                        imag_tol: float = DEFAULT_IMAG_TOL) -> FrequencyEstimate:
    """Full recovery chain theta -> polynomial -> roots -> frequencies.

    Used with the finite-time estimate for the headline output and, with a
    permissive imag_tol (math.inf), on a raw gradient estimate that
    recover_rows does not settle: the exponentially convergent companion
    stream.
    """
    return roots_to_frequencies(
        find_roots(theta_to_polynomial(theta)), h, bounds, imag_tol)


def recover_rows(theta: np.ndarray, h: float,
                 bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """omega_grad of every row of theta under recover_frequencies(imag_tol=inf).

    Returns (omega, suspect): rows whose coefficients are not finite or whose
    roots miss find_roots' residual target are suspect, with NaN omegas; the
    caller settles them with recover_frequencies, which raises its fault.
    """
    count, n = theta.shape
    finite = np.isfinite(theta).all(axis=1)
    try:
        roots, residual, allowed = _roots(np.where(finite[:, None], theta, 0.0))
    except np.linalg.LinAlgError:  # find_roots names the matrix that failed
        return np.full((count, n), np.nan), np.ones(count, dtype=bool)
    suspect = ~(finite & (residual <= allowed[:, None]).all(axis=1))
    omega = _frequencies(roots.real, h, bounds)
    omega[suspect] = np.nan
    return omega, suspect


def _frequencies(cosines: np.ndarray, h: float, bounds: tuple[float, float]) -> np.ndarray:
    """omega (K, n) of cosines (K, n): each clipped into [-1, 1], mapped
    through arccos (math.acos, value by value), scaled by 1/h, projected
    into [omega_min, omega_max] and sorted ascending within its row."""
    count, n = cosines.shape
    clipped = np.clip(cosines, -1.0, 1.0).ravel().tolist()
    omega = np.array(list(map(math.acos, clipped))).reshape(count, n) / h
    return np.sort(np.minimum(bounds[1], np.maximum(bounds[0], omega)), axis=1)
