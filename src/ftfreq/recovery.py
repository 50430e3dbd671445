"""Frequency recovery: parameter vector -> cosines -> frequencies.

The estimated theta packs the cosines c_i = cos(w_i h) as the (signed)
coefficients of their monic polynomial, so recovery is root finding on

    x^n - theta_1 x^(n-1) - theta_2 x^(n-2) - ... - theta_n

followed by w_i = arccos(c_i) / h, projection into the known band, and an
ascending sort (the regression is symmetric in the harmonics, so sorted
order is the only canonical labeling).
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
    # One or two Newton corrections; keep a step only if it shrinks |p|.
    for _ in range(2):
        p = _eval_poly(coeffs, root)
        dp = _eval_deriv(coeffs, root)
        if abs(dp) < 1e-300:
            break
        candidate = root - p / dp
        if abs(_eval_poly(coeffs, candidate)) < abs(p):
            root = candidate
        else:
            break
    return root


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
        roots = [_polish(coeffs, complex(r)) for r in eigen]

    allowed = RESIDUAL_TOL * (1.0 + max(abs(c) for c in coeffs))
    for r in roots:
        residual = abs(_eval_poly(coeffs, r))
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
    permissive imag_tol (math.inf), on the raw gradient estimates at every
    sample to produce the exponentially convergent companion stream.
    """
    return roots_to_frequencies(
        find_roots(theta_to_polynomial(theta)), h, bounds, imag_tol)
