"""Frequency recovery: parameter vector -> cosines -> frequencies.

The estimated theta packs the cosines c_i = cos(w_i h) as the (signed)
coefficients of their monic polynomial, so recovery is root finding on

    x^n - theta_1 x^(n-1) - theta_2 x^(n-2) - ... - theta_n

followed by w_i = arccos(c_i) / h, projection into the known band, and an
ascending sort (the regression is symmetric in the harmonics, so sorted
order is the only canonical labeling).

Root finding has one written form, _roots, over stacked rows of theta in
numpy complex arithmetic: closed forms for n <= 3 (at n = 3 Viete's and
Cardano's cubic, _cubic_roots), and LAPACK's eigvals on the companion
matrices for n >= 4. At n = 3 the closed form takes the rows whose
depressed cubic stays in range, and eigvals the rest: a row whose
closed-form roots, once polished, still miss the residual target (its
cubic over- or underflows, or its coefficients span many orders of
magnitude) is found again from its companion matrix. A block whose
roots all come out real (every row in Viete's branch at n = 3, or eigvals
returning floats) is polished in float arithmetic by the same Newton
polish, _polished, bit for bit the complex one; a block with a complex
pair, or whose float polish overflows, is polished as complex. The real
cosines of clean tones take the float path. So has the tail
from cosines to sorted in-band frequencies, _frequencies, whose band rule,
_in_band, also puts a session's guesses in band for its cold rows.
recover_rows runs both on many rows, with which Pipeline's block routine
recovers omega_grad and theta_ft, held to imag_tol as the last row, with
the block where extraction fires; recover_frequencies runs both on one
row, after checking it and then each root, to settle a row recover_rows
flags, a suspect theta_ft among them.
Both form an estimate through _estimate, which holds the roots to imag_tol;
recover_rows returns the EstimateNotPhysical of a held row beyond it, the
fault recover_frequencies would raise for that row.
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


def _horner(coeffs, x):
    """sum_i coeffs[i] x^(len(coeffs) - 1 - i) at every x, by Horner's rule."""
    value = coeffs[0]
    for c in coeffs[1:]:
        value = value * x + c
    return value


def _roots(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of x^n - theta_1 x^(n-1) - ... - theta_n for each row of theta.

    Returns (roots (K, n) complex, |p| at each root, the |p| allowed per
    row). Closed forms for n <= 3; above that the stacked companion
    matrices' eigenvalues. The roots at n >= 3 are each polished by up to
    two Newton steps, a step kept only if it shrinks |p| (_polished: in
    float arithmetic where every root of the block is real); a row whose
    polished closed-form roots (n = 3) miss the residual target, as every
    row whose depressed cubic over- or underflows does, is found again from
    its companion matrix, so it is that route's row bit for bit. An
    overflow shows as a residual miss, not as a warning; eigvals'
    LinAlgError propagates.
    """
    count, n = theta.shape
    with np.errstate(all="ignore"):
        allowed = RESIDUAL_TOL * (1.0 + np.abs(theta).max(axis=1, initial=1.0))
        if n <= 2:
            coeffs = [1.0, *(-theta.T[:, :, None])]
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
        elif n == 3:
            roots, residual = _polished(theta, _cubic_roots(theta))
            missed = ~(residual <= allowed[:, None]).all(axis=1)
            if missed.any():
                found, residual[missed] = _polished(
                    theta[missed], _companion_roots(theta[missed]))
                roots = roots.astype(np.result_type(roots, found), copy=False)
                roots[missed] = found
        else:
            roots, residual = _polished(theta, _companion_roots(theta))
    return roots.astype(complex, copy=False), residual, allowed


_TINY = np.finfo(float).tiny
_TURNS = np.array([0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0])
_CARDANO = np.array([1.0, -0.5, -0.5])  # A + B, and the pair's real part, per unit of A + B
_PAIR = np.array([0.0, 1.0, -1.0]) * (0.5 * math.sqrt(3.0))  # its imaginary parts, per |A - B|


def _cubic_roots(theta: np.ndarray) -> np.ndarray:
    """Roots of x^3 - theta_1 x^2 - theta_2 x - theta_3 for each row of
    theta, in closed form.

    x = y + theta_1 / 3 gives the depressed cubic y^3 + p y + q;
    where D = (q/2)^2 + (p/3)^3 <= 0 its three real roots are Viete's
    2 sqrt(-p/3) cos(phi - 2 pi k / 3), cos(3 phi) = -q / (2 sqrt(-p/3)^3),
    else Cardano's real root A + B, with A = -sign(q) cbrt(|q|/2 + sqrt(D))
    and B = -p / (3 A) free of cancellation (D > 0, so A != 0), and its
    conjugate pair -(A + B)/2 +- i sqrt(3)/2 (A - B). Where every row is
    Viete's, the roots are returned as floats, else as complex. A row
    whose depressed cubic over- or underflows comes out far off or not
    finite, and misses the residual target, so _roots gives it to eigvals.
    """
    t1, t2, t3 = theta.T
    u = t1 / 3.0
    p = -t2 - t1 * u
    q = -t3 - u * (t2 + 2.0 * u * u)
    disc = 0.25 * q * q + p * p * p / 27.0
    real = (disc <= 0.0)[:, None]
    r = np.sqrt(-p / 3.0)
    # r^3 = 0 at a triple root, where q = 0 as well: cos(3 phi) = 0, not 0/0
    # (an underflowed r^3 takes the guard too; the residual target judges it)
    cosine = np.minimum(np.maximum(-0.5 * q / np.maximum(r * r * r, _TINY), -1.0), 1.0)
    viete = 2.0 * r[:, None] * np.cos((np.arccos(cosine) / 3.0)[:, None] - _TURNS)
    if real.all():
        return viete + u[:, None]
    a = -np.copysign(np.cbrt(0.5 * np.abs(q) + np.sqrt(disc)), q)
    b = -p / (3.0 * a)
    parts = np.empty((len(theta), 3, 2))
    np.add(np.where(real, viete, (a + b)[:, None] * _CARDANO), u[:, None], out=parts[..., 0])
    parts[..., 1] = np.where(real, 0.0, np.abs(a - b)[:, None] * _PAIR)
    return parts.view(complex)[..., 0]


def _companion_roots(theta: np.ndarray) -> np.ndarray:
    """The eigenvalues of each row of theta's companion matrix: the roots
    of its polynomial, by one stacked LAPACK call."""
    count, n = theta.shape
    companion = np.zeros((count, n, n))
    companion[:, 0, :] = theta
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(companion)  # floats where every eigenvalue is real


def _polished(theta: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """roots of each row of theta's polynomial after up to two Newton
    steps, a step kept only where it shrinks |p|, and |p| at each.

    Real roots, given as floats, are polished in float arithmetic, each
    step dividing as p * (1 / p'): with finite values that is bit for bit
    numpy's complex arithmetic at zero imaginary parts, whose division
    scales by 1 / p'. An overflow is not (complex products of an infinity
    turn to NaN), so a float block whose residuals are not all finite is
    polished again as complex."""
    n = theta.shape[1]
    coeffs = [1.0, *(-theta.T[:, :, None])]
    slopes = [(n - i) * c for i, c in enumerate(coeffs[:-1])]
    start = roots
    while True:
        real = roots.dtype.kind == "f"
        active = np.ones(roots.shape, dtype=bool)
        p = _horner(coeffs, roots)
        for _ in range(2):
            dp = _horner(slopes, roots)
            candidate = roots - (p * (1.0 / dp) if real else p / dp)
            p_candidate = _horner(coeffs, candidate)
            active &= ~(np.abs(dp) < 1e-300) & (np.abs(p_candidate) < np.abs(p))
            if not active.any():
                break
            roots = np.where(active, candidate, roots)
            p = np.where(active, p_candidate, p)
        residual = np.abs(p)
        if not real or np.isfinite(residual).all():
            return roots, residual
        roots = start.astype(complex)


def recover_frequencies(theta, h: float, bounds: tuple[float, float],
                        imag_tol: float = DEFAULT_IMAG_TOL) -> FrequencyEstimate:
    """Sorted in-band frequencies of one theta: recover_rows' root finder
    and tail on its one row.

    The degree must be in 1..MAX_HARMONICS, and imag_tol positive (math.inf
    included). Non-finite theta, a failed eigenvalue iteration (n >= 4, or
    an n = 3 row the closed form leaves to eigvals) and a root that misses
    the residual target each raise NumericFault naming the polynomial's
    coefficients. Imaginary parts up to imag_tol * (1 + |Re|) are treated
    as numeric noise and dropped; anything larger means theta does not
    describe real cosines and raises EstimateNotPhysical with the roots. Used with the finite-time
    estimate for the headline output and, with a permissive imag_tol
    (math.inf), on a raw gradient estimate that recover_rows does not
    settle: the exponentially convergent companion stream.
    """
    theta = np.array([[float(t) for t in theta]])  # a non-numeric element raises TypeError
    degree = theta.shape[1]
    if not 1 <= degree <= MAX_HARMONICS:
        raise ValueError(f"degree must be in 1..{MAX_HARMONICS}, got {degree}")
    if not np.isfinite(theta).all():
        raise NumericFault(f"polynomial coefficients must be finite, got {_coefficients(theta)}")
    try:
        roots, residuals, allowed = _roots(theta)
    except np.linalg.LinAlgError as exc:
        raise NumericFault(f"companion eigenvalue iteration failed for coefficients "
                           f"{_coefficients(theta)}: {exc}") from exc
    values, allowed = roots[0].tolist(), float(allowed[0])
    for residual in residuals[0].tolist():
        if not residual <= allowed:
            raise NumericFault(
                f"root residual {residual:.3g} exceeds {allowed:.3g} "
                f"for coefficients {_coefficients(theta)} (roots {values})")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive, got {h}")
    omega_min, omega_max = bounds
    if not omega_min < omega_max:
        raise ValueError(f"bounds must satisfy omega_min < omega_max, got {bounds}")
    if not imag_tol > 0:  # NaN included; math.inf, omega_grad's, passes
        raise ValueError(f"imag_tol must be positive, got {imag_tol}")
    return _estimate(values, _frequencies(roots.real, h, bounds)[0], imag_tol)


def _estimate(values: list[complex], omega: np.ndarray, imag_tol: float) -> FrequencyEstimate:
    """The FrequencyEstimate of one row's roots values and frequencies
    omega; a root whose imaginary part exceeds imag_tol * (1 + |Re|)
    raises EstimateNotPhysical with the roots."""
    for root in values:
        if abs(root.imag) > imag_tol * (1.0 + abs(root.real)):
            raise EstimateNotPhysical(
                f"root {root} has imaginary part beyond tolerance {imag_tol}", values)
    return FrequencyEstimate(tuple(omega.tolist()), max(abs(root.imag) for root in values),
                             any(abs(root.real) > 1.0 for root in values))


def _coefficients(theta: np.ndarray) -> list[float]:
    """The monic coefficients, descending, of the polynomial of theta's one
    row, as a fault names them."""
    return [1.0, *(-theta[0]).tolist()]


def recover_rows(theta: np.ndarray, h: float, bounds: tuple[float, float],
                 imag_tol: float | None = None):
    """omega_grad of every row of theta under recover_frequencies(imag_tol=inf);
    given imag_tol, the last row is held to it instead, as a run's theta_ft.

    Returns (omega, suspect, estimate): rows that are not finite or whose
    roots miss the residual target, and a last row beyond imag_tol, are
    suspect, with NaN omegas; the caller settles them with
    recover_frequencies, which raises its fault. estimate is the held last
    row's FrequencyEstimate, or, if its roots are beyond imag_tol, the
    EstimateNotPhysical recover_frequencies raises for them; None if the
    row is otherwise suspect or no row is held.
    """
    count, n = theta.shape
    finite = np.isfinite(theta).all(axis=1)
    try:
        roots, residual, allowed = _roots(np.where(finite[:, None], theta, 0.0))
    except np.linalg.LinAlgError:  # recover_frequencies names the row that failed
        return np.full((count, n), np.nan), np.ones(count, dtype=bool), None
    suspect = ~(finite & (residual <= allowed[:, None]).all(axis=1))
    omega, estimate = _frequencies(roots.real, h, bounds), None
    if imag_tol is not None and not suspect[-1]:
        try:
            estimate = _estimate(roots[-1].tolist(), omega[-1], imag_tol)
        except EstimateNotPhysical as exc:
            suspect[-1], estimate = True, exc
    omega[suspect] = np.nan
    return omega, suspect, estimate


def _frequencies(cosines: np.ndarray, h: float, bounds: tuple[float, float]) -> np.ndarray:
    """omega (K, n) of cosines (K, n): each clipped into [-1, 1], mapped
    through arccos (math.acos, value by value: np.arccos differs from it
    in the last bit on some values), scaled by 1/h, projected and sorted
    by _in_band."""
    count, n = cosines.shape
    clipped = np.clip(cosines, -1.0, 1.0).ravel().tolist()
    omega = np.fromiter(map(math.acos, clipped), float, count * n).reshape(count, n) / h
    return _in_band(omega, bounds)


def _in_band(omega: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """omega (..., n) projected into [omega_min, omega_max] and sorted
    ascending along its last axis: the band rule of every omega the
    package reports."""
    return np.sort(np.minimum(bounds[1], np.maximum(bounds[0], omega)), axis=-1)
