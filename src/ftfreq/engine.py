"""Whole-trace engine: the estimation chain over a trace already in memory.

Pipeline takes one sample per step(); run_trace takes a whole (time, y)
trace and runs each stage over all of it at once:

* regression and extension: shifted copies of the trace at the sample lags
  of the session's DelayTable, summed in the tap order of regression_at;
* mixing: adjugate's closed forms for n <= 2 elementwise and, for n >= 3,
  one stacked SVD with adjugate's product-of-others form;
* gradient and extraction: one scalar loop over the warm samples calling
  advance_gradient and finite_time_estimate, the functions Pipeline uses;
* per-sample omega_grad recovery: find_roots' closed forms (n <= 2) or
  stacked companion eigenvalues with its Newton polish (n >= 3), its
  residual check on every root, and the math.acos of roots_to_frequencies.

Each elementwise operation is the one the streaming stage performs, in the
same order and in the same float (or emulated complex) arithmetic, so the
outputs equal Pipeline's bit for bit. A reset starts a new segment: cleared
history, a new epoch, theta_hat carried over. The first fault is raised
where Pipeline would raise it, by the streaming stage itself replayed on
that sample's inputs, so its exception and message are Pipeline's too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFault
from .estimator import (EstimatorSettings, EstimatorState, advance_gradient,
                        finite_time_estimate, reset_estimator, step_gradient)
from .mixing import DremConfig, MixedSample, mix
from .pipeline import StepResult, check_measurement
from .recovery import RESIDUAL_TOL, recover_frequencies
from .regression import DelayTable, ModelConfig, delay_table

_CHUNK = 4096  # rows per gradient-loop or recovery block: bounds the Python objects held


@dataclass(eq=False)
class Trajectory:
    """Every per-sample output of one run, held column by column.

    held lists (first, stop, theta_ft, omega_ft): the rows [first, stop)
    that report an extracted finite-time estimate; every other row reports
    none. state is the estimator state after the last sample.
    """

    times: list[float]
    samples: list[float]
    delta: np.ndarray  # (K,)
    theta_hat: np.ndarray  # (K, n)
    omega_grad: np.ndarray  # (K, n)
    held: list[tuple[int, int, tuple[float, ...], tuple[float, ...]]]
    state: EstimatorState

    def __len__(self) -> int:
        return len(self.times)

    def held_in(self, first: int, stop: int):
        """(lo, hi, theta_ft, omega_ft) for each held run within rows
        first..stop-1, with lo and hi counted from first."""
        for a, b, theta_ft, omega_ft in self.held:
            lo, hi = max(a, first) - first, min(b, stop) - first
            if lo < hi:
                yield lo, hi, theta_ft, omega_ft

    def records(self, first: int = 0, stop: int | None = None) -> list[StepResult]:
        """Rows first..stop-1 as the StepResults Pipeline.step returns."""
        stop = len(self) if stop is None else stop
        theta_ft = [None] * (stop - first)
        omega_ft = [None] * (stop - first)
        for lo, hi, theta, omega in self.held_in(first, stop):
            theta_ft[lo:hi] = [theta] * (hi - lo)
            omega_ft[lo:hi] = [omega] * (hi - lo)
        return list(map(
            StepResult, self.times[first:stop], self.samples[first:stop],
            self.delta[first:stop].tolist(),
            map(tuple, self.theta_hat[first:stop].tolist()), theta_ft,
            map(tuple, self.omega_grad[first:stop].tolist()), omega_ft))


def run_trace(model: ModelConfig, drem: DremConfig, estimator: EstimatorSettings,
              sample_period: float, imag_tol: float, times: list[float],
              samples: list[float], starts: list[int]) -> Trajectory:
    """Estimate over a whole uniform trace; a reset precedes each start > 0.

    The arguments are Pipeline's, plus the trace and the sample indices at
    which its segments start (0 first, strictly increasing).
    """
    run = _Run(model, drem, estimator, sample_period, imag_tol, times, samples)
    edges = [*starts, len(times)]
    with np.errstate(all="ignore"):  # non-finite values are checked, not warned about
        for first, stop in zip(edges, edges[1:]):
            if first:
                reset_estimator(run.state)
            run.segment(first, stop)
    return Trajectory(times=times, samples=samples, delta=run.delta,
                      theta_hat=run.theta_hat, omega_grad=run.omega_grad,
                      held=run.held, state=run.state)


class _Run:
    """Output columns and estimator state of one run_trace call."""

    def __init__(self, model: ModelConfig, drem: DremConfig, estimator: EstimatorSettings,
                 sample_period: float, imag_tol: float, times: list[float],
                 samples: list[float]):
        self.taps = delay_table(model, drem.d, sample_period)
        self.model = model
        self.epsilon = drem.epsilon
        self.estimator = estimator
        self.dt = sample_period
        self.imag_tol = imag_tol
        self.bounds = (model.omega_min, model.omega_max)
        self.times = times
        self.samples = samples
        self.t = np.array(times, dtype=float)
        self.y = np.array(samples, dtype=float)
        count, n = len(times), model.n
        self.delta = np.empty(count)
        self.theta_hat = np.empty((count, n))
        self.omega_grad = np.empty((count, n))
        self.held = []
        self.state = EstimatorState(estimator, model)

    def segment(self, first: int, stop: int) -> None:
        """Samples first..stop-1, starting from flushed history and a new epoch."""
        delta, mixed, fault = self._mixed(first, stop)
        self.delta[first:first + len(delta)] = delta
        fault = self._gradient(first, stop, delta, mixed, fault)
        end = first + (stop - first if fault is None else fault[0])
        for a in range(first, end, _CHUNK):
            self._recover(a, min(a + _CHUNK, end))
        if fault is not None:
            k = first + fault[0]
            _replay(k, self.times[k], *fault[1:])
            raise RuntimeError(f"sample {k}: whole-trace check and streaming stage disagree")

    def _mixed(self, first: int, stop: int):
        """delta and mixed psi of the segment up to its first pre-gradient fault.

        Returns (delta, mixed, fault): fault is None, or (row, streaming
        stage, its arguments) for the first non-finite measurement, stacked
        regressor or warm mixed sample, and delta and mixed stop at that row.
        """
        taps, times = self.taps, self.times
        y = self.y[first:stop]
        fault = None
        end = _first(~np.isfinite(y))
        if end < len(y):
            fault = (end, check_measurement, times[first + end], self.samples[first + end])
        psi, phi = _regression(y[:end], taps)
        psi_rows, phi_rows = _stack(psi, taps.rows), _stack(phi, taps.rows)
        bad = _first(~np.isfinite(phi_rows).all(axis=(1, 2)))
        if bad < end:
            end, fault = bad, (bad, mix, times[first + bad], tuple(psi_rows[bad].tolist()),
                               tuple(map(tuple, phi_rows[bad].tolist())), False, self.epsilon)
        delta, mixed = _mix(phi_rows[:end], psi_rows[:end], self.epsilon)
        warm = min(taps.warm_from, end)
        bad = warm + _first(~(np.isfinite(delta[warm:]) & np.isfinite(mixed[warm:]).all(axis=1)))
        if bad < end:
            sample = MixedSample(times[first + bad], float(delta[bad]),
                                 tuple(mixed[bad].tolist()), True)
            fault = (bad, step_gradient, self.state, sample, self.dt)
        return delta[:bad], mixed[:bad], fault

    def _gradient(self, first: int, stop: int, delta: np.ndarray,
                  mixed: np.ndarray, fault):
        """theta_hat rows of the segment and its extraction; returns the first
        fault, which an extraction whose recovery fails moves earlier."""
        state, times, estimator = self.state, self.times, self.estimator
        end = len(delta)
        warm = min(self.taps.warm_from, end)
        # Priming: the epoch clock starts at the segment's first sample.
        state.time = state.epoch_start = times[first]
        elapsed = self.t[first:first + end] - times[first]
        extract_from = int(np.searchsorted(elapsed, estimator.t_ft, side="left"))
        theta = state.theta_hat
        n = len(theta)
        self.theta_hat[first:first + warm] = theta  # holds still until the stack is warm
        h, dt = self.model.h, self.dt
        for a in range(warm, end, _CHUNK):
            b = min(a + _CHUNK, end)
            rows, failed = [], None
            for j, d, psi in zip(range(a, b), delta[a:b].tolist(), mixed[a:b].tolist()):
                advance_gradient(state, d, psi, dt)
                rows += theta
                if state.theta_ft is None and j >= extract_from:
                    state.time = times[first + j]
                    theta_ft = finite_time_estimate(state, estimator)
                    if theta_ft is None:
                        continue
                    try:
                        omega_ft = recover_frequencies(
                            theta_ft, h, self.bounds, self.imag_tol).omega_hat
                    except (NumericFault, ValueError):
                        failed = (j, recover_frequencies, theta_ft, h, self.bounds, self.imag_tol)
                        break
                    self.held.append((first + j, stop, theta_ft, omega_ft))
            self.theta_hat[first + a:first + a + len(rows) // n] = np.reshape(rows, (-1, n))
            if failed is not None:
                return failed
        state.time = times[stop - 1]
        return fault

    def _recover(self, first: int, stop: int) -> None:
        """omega_grad of rows first..stop-1; a row that faults raises here."""
        h, bounds = self.model.h, self.bounds
        theta = self.theta_hat[first:stop]
        omega, suspect = _grad_omegas(theta, h, bounds)
        for j in np.flatnonzero(suspect).tolist():
            omega[j] = _replay(first + j, self.times[first + j], recover_frequencies,
                               tuple(theta[j].tolist()), h, bounds, math.inf).omega_hat
        self.omega_grad[first:stop] = omega


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask) if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _replay(k: int, t: float, stage, *args):
    """Call a streaming stage on sample k's inputs; its faults name the sample."""
    try:
        return stage(*args)
    except NumericFault as exc:
        raise NumericFault(f"sample {k} (t = {t:.6g}): {exc}") from exc


def _delayed(values: np.ndarray, lag: int, depth: int) -> np.ndarray:
    """values delayed by lag samples, reading 0.0 before the first; values is
    padded with depth leading zeros."""
    return values[depth - lag:len(values) - lag]


def _regression(y: np.ndarray, taps: DelayTable) -> tuple[np.ndarray, np.ndarray]:
    """psi (K,) and phi (K, n) at every sample, as regression_at at lag 0."""
    depth = taps.valid_from
    padded = np.concatenate((np.zeros(depth), y))
    psi = np.zeros(len(y))
    for weight, lag in taps.psi:
        psi += weight * _delayed(padded, lag, depth)
    phi = np.zeros((len(y), len(taps.phi)))
    for k, row in enumerate(taps.phi):
        acc = np.zeros(len(y))
        for weight, lag in row:
            acc += weight * _delayed(padded, lag, depth)
        phi[:, k] = acc
    return psi, phi


def _stack(values: np.ndarray, lags: tuple[int, ...]) -> np.ndarray:
    """Row i of sample j is values[j - lags[i]], zero before the first sample:
    the stacked rows Pipeline reads with regression_at at lag lags[i]."""
    depth = lags[-1]
    padded = np.concatenate((np.zeros((depth,) + values.shape[1:]), values))
    return np.stack([_delayed(padded, lag, depth) for lag in lags], axis=1)


def _mix(phi_rows: np.ndarray, psi_rows: np.ndarray,
         epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """delta (K,) and mixed psi (K, n) at every sample, as mix does."""
    count, n = psi_rows.shape
    scale = epsilon ** n
    if n == 1:
        adj, det = np.ones((count, 1, 1)), phi_rows[:, 0, 0]
    elif n == 2:
        (a, b), (c, d) = phi_rows[:, 0].T, phi_rows[:, 1].T
        adj = np.stack((np.stack((d, -b), axis=1), np.stack((-c, a), axis=1)), axis=1)
        det = a * d - b * c
    elif count == 0:
        adj, det = np.zeros((0, n, n)), np.zeros(0)
    else:
        u, s, vt = np.linalg.svd(phi_rows)
        sign = np.copysign(1.0, np.linalg.det(u @ vt))
        # math.prod(s[:i]) and math.prod(s[i + 1:]), each multiplied left to right
        before = [np.ones(count)]
        for i in range(n):
            before.append(before[-1] * s[:, i])
        others = np.empty((count, n))
        for i in range(n):
            after = np.ones(count)
            for j in range(i + 1, n):
                after = after * s[:, j]
            others[:, i] = sign * before[i] * after
        adj = (np.swapaxes(vt, 1, 2) * others[:, None, :]) @ np.swapaxes(u, 1, 2)
        det = sign * before[n]
    mixed = np.empty((count, n))
    for i in range(n):
        acc = np.zeros(count)
        for j in range(n):
            acc = acc + adj[:, i, j] * psi_rows[:, j]
        mixed[:, i] = scale * acc
    return scale * det, mixed


# ---------------------------------------------------------------------------
# omega_grad recovery: complex arithmetic on (real, imaginary) float arrays,
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


def _horner(coeffs, xr, xi, weights=None):
    """p(x) (or, with weights degree - i, p'(x)) as _eval_poly/_eval_deriv."""
    vr, vi = np.zeros_like(xr), np.zeros_like(xr)
    for i, c in enumerate(coeffs):
        pr, pi = _cmul(vr, vi, xr, xi)
        vr, vi = pr + (c if weights is None else weights[i] * c), pi + 0.0
    return vr, vi


def _polish(coeffs, xr, xi):
    """find_roots' Newton polish: up to two steps, each kept only if it helps."""
    degree = len(coeffs) - 1
    weights = [float(degree - i) for i in range(degree)]
    active = np.ones(xr.shape, dtype=bool)
    for _ in range(2):
        pr, pi = _horner(coeffs, xr, xi)
        dr, di = _horner(coeffs[:-1], xr, xi, weights)
        active &= ~(np.hypot(dr, di) < 1e-300)
        qr, qi = _cdiv(pr, pi, dr, di)
        cr, ci = xr - qr, xi - qi
        active &= np.hypot(*_horner(coeffs, cr, ci)) < np.hypot(pr, pi)
        xr, xi = np.where(active, cr, xr), np.where(active, ci, xi)
    return xr, xi


def _grad_omegas(theta: np.ndarray, h: float,
                 bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """omega_grad of every row of theta under recover_frequencies(imag_tol=inf).

    Returns (omega, suspect): rows whose coefficients are not finite or whose
    roots miss find_roots' residual target are suspect, with NaN omegas; the
    caller settles them with the streaming stage, which raises its fault.
    """
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
            eigen = np.linalg.eigvals(companion) if count else np.zeros((0, n))
        except np.linalg.LinAlgError:  # find_roots names the matrix that failed
            return np.full((count, n), np.nan), np.ones(count, dtype=bool)
        xr, xi = _polish(coeffs, eigen.real.copy(), np.imag(eigen).copy())
    allowed = RESIDUAL_TOL * (1.0 + np.maximum.reduce([np.abs(c) for c in coeffs]))
    residual = np.hypot(*_horner(coeffs, xr, xi))
    suspect = ~(finite & (residual <= allowed).all(axis=1))
    cosines = np.clip(xr, -1.0, 1.0).ravel().tolist()
    omega = np.array(list(map(math.acos, cosines))).reshape(count, n) / h
    omega = np.sort(np.minimum(bounds[1], np.maximum(bounds[0], omega)), axis=1)
    omega[suspect] = np.nan
    return omega, suspect
