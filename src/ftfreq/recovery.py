"""Frequency recovery: parameter vector -> cosines -> frequencies.

The estimated theta packs the cosines c_i = cos(w_i h) as the (signed)
coefficients of their monic polynomial, so recovery is root finding on

    x^n - theta_1 x^(n-1) - theta_2 x^(n-2) - ... - theta_n

followed by w_i = arccos(c_i) / h, projection into the known band, and an
ascending sort (the regression is symmetric in the harmonics, so sorted
order is the only canonical labeling).

Root finding has two written forms: find_roots, one polynomial in CPython
complex arithmetic, and recover_rows, the same operations on (real,
imaginary) float arrays, with which both drivers recover omega_grad (the
engine per segment, Pipeline per look-ahead batch). find_roots runs for
omega_ft, for a session's first omega_grad and to replay a row
recover_rows flags. A one-row recover_rows call costs several times
find_roots, and numpy complex arithmetic would round differently.
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


def _eval_poly(coeffs, x):
    value = 0.0 + 0.0j
    for c in coeffs:
        value = value * x + c
    return value


def _eval_deriv(coeffs, x):
    degree = len(coeffs) - 1
    value = 0.0 + 0.0j
    for i, c in enumerate(coeffs[:-1]):
        value = value * x + (degree - i) * c
    return value


def _polish(coeffs, root):
    """(root, |p(root)|) after one or two Newton corrections, each kept only
    if it shrinks |p|; each |p| is evaluated once."""
    p = _eval_poly(coeffs, root)
    for _ in range(2):
        dp = _eval_deriv(coeffs, root)
        if abs(dp) < 1e-300:
            break
        candidate = root - p / dp
        p_candidate = _eval_poly(coeffs, candidate)
        if abs(p_candidate) < abs(p):
            root, p = candidate, p_candidate
        else:
            break
    return root, abs(p)


def find_roots(coeffs) -> list[complex]:
    """All roots of a monic polynomial of degree 1..8, multiplicities repeated.

    Closed forms for degrees 1 and 2; companion-matrix eigenvalues with
    Newton polishing above that. Every root is checked against the residual
    target; missing it raises NumericFault with the offending data, and so
    do non-finite coefficients (a fault of the data that produced them).
    """
    coeffs = [float(c) for c in coeffs]
    degree = len(coeffs) - 1
    if not 1 <= degree <= MAX_HARMONICS:
        raise ValueError(f"degree must be in 1..{MAX_HARMONICS}, got {degree}")
    if coeffs[0] != 1.0:
        raise ValueError(f"polynomial must be monic, got leading coefficient {coeffs[0]}")
    if any(not math.isfinite(c) for c in coeffs):
        raise NumericFault(f"polynomial coefficients must be finite, got {coeffs}")

    if degree == 1:
        roots = [complex(-coeffs[1], 0.0)]
    elif degree == 2:
        b, c = coeffs[1], coeffs[2]
        disc = b * b - 4.0 * c
        if disc >= 0.0:
            # root further from cancellation first, mate via Vieta
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            if q == 0.0:
                roots = [complex(-0.5 * b, 0.0)] * 2
            else:
                roots = [complex(q, 0.0), complex(c / q, 0.0)]
        else:
            half_im = 0.5 * math.sqrt(-disc)
            roots = [complex(-0.5 * b, half_im), complex(-0.5 * b, -half_im)]
    else:
        companion = np.zeros((degree, degree))
        companion[0, :] = [-c for c in coeffs[1:]]
        companion[1:, :-1] = np.eye(degree - 1)
        try:
            eigen = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError as exc:
            raise NumericFault(
                f"companion eigenvalue iteration failed for coefficients {coeffs}: {exc}"
            ) from exc
        roots, residuals = map(list, zip(*(_polish(coeffs, complex(r)) for r in eigen)))
    if degree <= 2:
        residuals = [abs(_eval_poly(coeffs, r)) for r in roots]

    allowed = RESIDUAL_TOL * (1.0 + max(abs(c) for c in coeffs))
    for residual in residuals:
        if not residual <= allowed:
            raise NumericFault(
                f"root residual {residual:.3g} exceeds {allowed:.3g} "
                f"for coefficients {coeffs} (roots {roots})")
    return roots


def roots_to_frequencies(roots, h: float, bounds: tuple[float, float],
                         imag_tol: float = DEFAULT_IMAG_TOL) -> FrequencyEstimate:
    """Map cosine roots to sorted in-band frequency estimates.

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
    residual = 0.0
    clamped = False
    omegas = []
    for root in roots:
        root = complex(root)
        if abs(root.imag) > imag_tol * (1.0 + abs(root.real)):
            raise EstimateNotPhysical(
                f"root {root} has imaginary part beyond tolerance {imag_tol}", roots)
        residual = max(residual, abs(root.imag))
        c = root.real
        if c > 1.0:
            c = 1.0
            clamped = True
        elif c < -1.0:
            c = -1.0
            clamped = True
        omega = math.acos(c) / h
        omegas.append(min(omega_max, max(omega_min, omega)))
    return FrequencyEstimate(
        omega_hat=tuple(sorted(omegas)), residual=residual, clamped=clamped)


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


# ---------------------------------------------------------------------------
# recover_rows: complex arithmetic on (real, imaginary) float arrays,
# operation for operation as CPython evaluates find_roots' complex values

def _cmul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """CPython's complex quotient (Smith's algorithm, by the larger part)."""
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    real = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    imag = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return real, imag


def _horner_rows(coeffs, xr, xi, weights=None):
    """p(x) (or, with weights degree - i, p'(x)) as _eval_poly/_eval_deriv."""
    vr, vi = np.zeros_like(xr), np.zeros_like(xr)
    for i, c in enumerate(coeffs):
        pr, pi = _cmul(vr, vi, xr, xi)
        vr, vi = pr + (c if weights is None else weights[i] * c), pi + 0.0
    return vr, vi


def _polish_rows(coeffs, xr, xi):
    """find_roots' Newton polish: up to two steps, each kept only if it
    helps. Returns the roots and |p| at them, each p evaluated once."""
    degree = len(coeffs) - 1
    weights = [float(degree - i) for i in range(degree)]
    active = np.ones(xr.shape, dtype=bool)
    pr, pi = _horner_rows(coeffs, xr, xi)
    for _ in range(2):
        dr, di = _horner_rows(coeffs[:-1], xr, xi, weights)
        active &= ~(np.hypot(dr, di) < 1e-300)
        qr, qi = _cdiv(pr, pi, dr, di)
        cr, ci = xr - qr, xi - qi
        cpr, cpi = _horner_rows(coeffs, cr, ci)
        active &= np.hypot(cpr, cpi) < np.hypot(pr, pi)
        xr, xi = np.where(active, cr, xr), np.where(active, ci, xi)
        pr, pi = np.where(active, cpr, pr), np.where(active, cpi, pi)
    return xr, xi, np.hypot(pr, pi)


def recover_rows(theta: np.ndarray, h: float,
                 bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """omega_grad of every row of theta under recover_frequencies(imag_tol=inf).

    Returns (omega, suspect): rows whose coefficients are not finite or whose
    roots miss find_roots' residual target are suspect, with NaN omegas; the
    caller settles them with recover_frequencies, which raises its fault.
    """
    with np.errstate(all="ignore"):  # suspect rows are flagged, not warned about
        count, n = theta.shape
        finite = np.isfinite(theta).all(axis=1)
        theta = np.where(finite[:, None], theta, 0.0)
        coeffs = [np.ones((count, 1))] + [-theta[:, k:k + 1] for k in range(n)]
        if n == 1:
            xr, xi = -coeffs[1], np.zeros((count, 1))
        elif n == 2:
            b, c = coeffs[1][:, 0], coeffs[2][:, 0]
            disc = b * b - 4.0 * c
            real = disc >= 0.0
            root = np.sqrt(np.abs(disc))
            q = -0.5 * (b + np.copysign(root, b))
            mid = -0.5 * b
            double = ~real | (q == 0.0)
            xr = np.stack((np.where(double, mid, q), np.where(double, mid, c / q)), axis=1)
            half_im = np.where(real, 0.0, 0.5 * root)
            xi = np.stack((half_im, -half_im), axis=1)
        else:
            companion = np.zeros((count, n, n))
            companion[:, 0, :] = theta
            companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            try:
                eigen = np.linalg.eigvals(companion)
            except np.linalg.LinAlgError:  # find_roots names the matrix that failed
                return np.full((count, n), np.nan), np.ones(count, dtype=bool)
            xr, xi, residual = _polish_rows(coeffs, eigen.real.copy(), np.imag(eigen).copy())
        if n <= 2:
            residual = np.hypot(*_horner_rows(coeffs, xr, xi))
        allowed = RESIDUAL_TOL * (1.0 + np.maximum.reduce([np.abs(c) for c in coeffs]))
        suspect = ~(finite & (residual <= allowed).all(axis=1))
        cosines = np.clip(xr, -1.0, 1.0).ravel().tolist()
        omega = np.array(list(map(math.acos, cosines))).reshape(count, n) / h
        omega = np.sort(np.minimum(bounds[1], np.maximum(bounds[0], omega)), axis=1)
        omega[suspect] = np.nan
        return omega, suspect
