"""Whole-trace engine: the estimation chain over a trace already in memory.

Pipeline takes one sample per step(); run_trace takes a whole (time, y)
trace, allocates one Trajectory with one Epoch per segment, and for each
segment calls the stages in the chain's order, each writing its rows (and
_gradient the segment's Epoch) into the Trajectory:

* _mixed: regression_at on a window whose entry k is the whole segment k
  samples back, the extension _stack (those columns shifted by the stacked
  lags), _mix on the warm rows only (a cold row's delta is 0.0), and the
  scan for the first fault before the gradient step: a non-finite time or
  measurement on any row, or a warm row that mix rejects (a non-finite
  stack or mixed output), one fault replayed through mix;
* _gradient: step_gradient's law by columns. Per _CHUNK-row block, every
  row's d^2*dt, lambda, exp(-lambda) and expm1(-lambda) (math.exp and
  math.expm1, never numpy's), drive and running excitation come first, then
  one loop per parameter, theta = theta*a + b, keeping step_gradient's
  Euler form on rows with lambda < 1e-12. The state is set to a row only
  where extraction is tried (finite_time_estimate, which also recovers
  omega_ft); the epoch's record gets the row where extraction came due and
  the row where it fired;
* _recover: omega_grad in _CHUNK-row blocks; the cold rows, whose
  theta_hat is the segment's first, share one recovery by the streaming
  stage, recover_frequencies, as Pipeline's first recovery of the epoch;
* _replay: the first fault, raised by the streaming stage itself on that
  sample's inputs, so its exception and message are Pipeline's too.

The stages call Pipeline's own stage functions, on arrays where a stage
runs per sample. Three are batched re-implementations instead, kept because
one call per row costs several times more: the gradient above (a second
written form of step_gradient, which the engine-Pipeline parity tests
pin to it), the n >= 3 adjugate in _mix (one stacked SVD; mixing's closed
forms and scaled product are shared) and _grad_omegas (find_roots over
stacked companion matrices, in CPython's complex arithmetic, then
math.acos).

Each elementwise operation is the streaming stage's, in the same order and
the same float (or emulated complex) arithmetic, so for n <= 2 the outputs
equal Pipeline's bit for bit. For n >= 3 the stacked LAPACK and BLAS calls
(svd, det, matmul, eigvals) need not round as one-matrix calls do: they
have matched in every case checked, and tests/test_engine.py holds them to
1e-12 relative. A reset starts a new segment: cleared history, a new epoch
timed from its first sample, theta_hat carried over.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import NumericFault
from .estimator import (EstimatorSettings, EstimatorState,
                        finite_time_estimate, reset_estimator)
from .mixing import DremConfig, _closed_form, _scaled_product, mix
from .pipeline import StepResult, check_measurement
from .recovery import RESIDUAL_TOL, recover_frequencies
from .regression import DelayTable, ModelConfig, delay_table, regression_at

_CHUNK = 4096  # rows per gradient-loop or recovery block: bounds the Python objects held


@dataclass(slots=True)
class Epoch:
    """Rows [first, stop) of one segment: due is the row where its clock
    reached t_ft and fired the row where extraction succeeded, each None if
    never; the rows from fired on report theta_ft and omega_ft."""

    first: int
    stop: int
    due: int | None = None
    fired: int | None = None
    theta_ft: tuple[float, ...] | None = None
    omega_ft: tuple[float, ...] | None = None


@dataclass(eq=False)
class Trajectory:
    """Every per-sample output of one run, held column by column.

    epochs holds one Epoch per segment, in order; every row before an
    epoch's fired row reports no finite-time estimate. state is the
    estimator state after the last sample.
    """

    times: list[float]
    samples: list[float]
    delta: np.ndarray  # (K,)
    theta_hat: np.ndarray  # (K, n)
    omega_grad: np.ndarray  # (K, n)
    epochs: list[Epoch]
    state: EstimatorState

    def __len__(self) -> int:
        return len(self.times)

    def held_in(self, first: int, stop: int):
        """(lo, hi, theta_ft, omega_ft) for each epoch's rows from fired on
        within rows first..stop-1, with lo and hi counted from first."""
        for epoch in self.epochs:
            if epoch.fired is not None:
                lo, hi = max(epoch.fired, first) - first, min(epoch.stop, stop) - first
                if lo < hi:
                    yield lo, hi, epoch.theta_ft, epoch.omega_ft

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
              sample_period: float, times: list[float], samples: list[float],
              starts: list[int]) -> Trajectory:
    """Estimate over a whole uniform trace; a reset precedes each start > 0.

    The arguments are Pipeline's, plus the trace and the sample indices at
    which its segments start (0 first, strictly increasing).
    """
    taps = delay_table(model, drem.d, sample_period)
    count, n = len(times), model.n
    edges = [*starts, count]
    run = Trajectory(times=times, samples=samples, delta=np.empty(count),
                     theta_hat=np.empty((count, n)), omega_grad=np.empty((count, n)),
                     epochs=[Epoch(a, b) for a, b in zip(edges, edges[1:])],
                     state=EstimatorState(estimator, model))
    with np.errstate(all="ignore"):  # non-finite values are checked, not warned about
        for epoch in run.epochs:
            first, stop = epoch.first, epoch.stop
            if first:
                reset_estimator(run.state)
            warm, mixed, fault = _mixed(run, first, stop, taps, drem.epsilon)
            fault = _gradient(run, epoch, warm, mixed, sample_period) or fault
            end = stop if fault is None else first + fault[0]
            if warm:  # theta_hat holds still over the cold rows: one streaming recovery
                run.omega_grad[first:first + warm] = _replay(
                    first, times[first], recover_frequencies, tuple(run.theta_hat[first].tolist()),
                    model.h, model.band, math.inf).omega_hat
            for a in range(first + warm, end, _CHUNK):
                _recover(run, a, min(a + _CHUNK, end), model)
            if fault is not None:
                k = first + fault[0]
                _replay(k, times[k], *fault[1:])
                raise RuntimeError(f"sample {k}: whole-trace check and streaming stage disagree")
    return run


def _mixed(run: Trajectory, first: int, stop: int, taps: DelayTable, epsilon: float):
    """Regression, stack and mix of rows first..stop-1, up to their first
    pre-gradient fault; writes their delta rows, 0.0 on the cold ones.

    Returns (warm, mixed, fault): warm is the number of cold rows before that
    fault, and mixed holds the mixed psi of the warm rows after them. fault
    is None, or (row, streaming stage, its arguments), counted from first,
    for the first row with a non-finite time or measurement
    (check_measurement) or, if earlier, the first warm row whose stack or
    mixed output is non-finite (mix); mixed stops at that row.
    """
    times = run.times
    y = np.array(run.samples[first:stop], dtype=float)
    fault = None
    # times are checked one by one: a float copy of them raised the builtins
    # benchmark's peak RSS by 2 MB
    timed = np.fromiter(map(math.isfinite, islice(times, first, stop)), bool, len(y))
    end = _first(~(np.isfinite(y) & timed))
    if end < len(y):
        fault = (end, check_measurement, times[first + end], run.samples[first + end])
    depth = taps.valid_from
    padded = np.concatenate((np.zeros(depth), y[:end]))
    # regression_at reads window[lag] for the lag of each tap: here the
    # whole segment that many samples back
    window = {lag: _delayed(padded, lag, depth)
              for _, lag in chain(taps.psi, *taps.phi)}
    psi, phi = regression_at(window, taps)
    warm = min(taps.warm_from, end)
    psi_rows = _stack(psi, taps.rows)[warm:end]
    phi_rows = _stack(np.stack(phi, axis=1), taps.rows)[warm:end]
    # the SVD rejects a non-finite stack: mix only the rows before the first
    finite = _first(~np.isfinite(phi_rows).all(axis=(1, 2)))
    delta, mixed = _mix(phi_rows[:finite], psi_rows[:finite], epsilon)
    bad = _first(~(np.isfinite(delta) & np.isfinite(mixed).all(axis=1)))
    if bad < len(phi_rows):
        fault = (warm + bad, mix, times[first + warm + bad], tuple(psi_rows[bad].tolist()),
                 tuple(map(tuple, phi_rows[bad].tolist())), epsilon)
    run.delta[first:first + warm] = 0.0
    run.delta[first + warm:first + warm + bad] = delta[:bad]
    return warm, mixed[:bad], fault


def _gradient(run: Trajectory, epoch: Epoch, warm: int, mixed: np.ndarray, dt: float):
    """Gradient and extraction over the epoch's rows, of which the first
    warm are cold and mixed holds the mixed psi of the rest. Writes their
    theta_hat rows and the epoch's due and fired rows and estimates. Returns
    None, or the fault of an extraction whose recovery fails, as (row,
    finite_time_estimate, its arguments): the failed call leaves the state
    as it was, so the replay raises it again. The state is set to a row
    only where extraction is tried, and to a block's last row after it.
    """
    state, times, first = run.state, run.times, epoch.first
    end = warm + len(mixed)
    start = times[first]  # the epoch clock starts at the segment's first sample
    extract_from = bisect_left(times, state.settings.t_ft, first, first + end,
                               key=lambda t: t - start) - first
    if extract_from < end:
        epoch.due = first + extract_from
    run.theta_hat[first:first + warm] = state.theta_hat  # holds still until the stack is warm
    gains = state.settings.gamma
    for a in range(warm, end, _CHUNK):
        b = min(a + _CHUNK, end)
        delta = run.delta[first + a:first + b]
        psi = mixed[a - warm:b - warm]
        d2dt = delta * delta * dt
        excitation = np.add.accumulate(np.concatenate(([state.excitation], d2dt)))[1:]
        columns = []
        for i, g in enumerate(gains):
            lam = g * d2dt
            # fmax skips a NaN lam, which step_gradient's lam > max never takes
            state.max_decay_step = float(np.fmax.reduce(lam, initial=state.max_decay_step))
            columns.append(_advance(state.theta_hat[i], g * dt, lam, delta, psi[:, i]))
        rows = np.array(columns).T
        run.theta_hat[first + a:first + b] = rows
        for j in range(max(a, extract_from), b) if state.theta_ft is None else ():
            state.theta_hat[:], state.excitation = rows[j - a].tolist(), float(excitation[j - a])
            try:
                theta_ft = finite_time_estimate(state, times[first + j])
            except NumericFault:
                return j, finite_time_estimate, state, times[first + j]
            if theta_ft is not None:
                epoch.fired, epoch.theta_ft, epoch.omega_ft = first + j, theta_ft, state.omega_ft
                break
        state.theta_hat[:], state.excitation = rows[-1].tolist(), float(excitation[-1])
    return None


def _advance(theta: float, gdt: float, lam: np.ndarray, delta: np.ndarray,
             psi: np.ndarray) -> list[float]:
    """theta_hat_i after each row, as step_gradient moves it: theta*exp(-lam)
    + ((gdt*delta)*psi)*growth, or below lam 1e-12 the Euler form
    theta + (gdt*delta)*(psi - delta*theta)."""
    exponents = (-lam).tolist()
    decay = list(map(math.exp, exponents))
    growth = -np.fromiter(map(math.expm1, exponents), float, len(lam)) / lam
    drive = (gdt * delta * psi * growth).tolist()
    small = np.flatnonzero(lam < 1e-12).tolist()
    delta, psi = delta.tolist(), psi.tolist()
    out = []
    append = out.append
    lo = 0
    for s in [*small, len(decay)]:
        for a, b in zip(decay[lo:s], drive[lo:s]):
            theta = theta * a + b
            append(theta)
        if s < len(decay):
            theta += gdt * delta[s] * (psi[s] - delta[s] * theta)
            append(theta)
        lo = s + 1
    return out


def _recover(run: Trajectory, first: int, stop: int, model: ModelConfig) -> None:
    """omega_grad of rows first..stop-1; a row that faults raises here."""
    theta = run.theta_hat[first:stop]
    omega, suspect = _grad_omegas(theta, model.h, model.band)
    for j in np.flatnonzero(suspect).tolist():
        omega[j] = _replay(first + j, run.times[first + j], recover_frequencies,
                           tuple(theta[j].tolist()), model.h, model.band, math.inf).omega_hat
    run.omega_grad[first:stop] = omega


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
    if n <= 2:
        adj, det = _closed_form(np.moveaxis(phi_rows, 0, -1))
    else:
        u, s, vt = np.linalg.svd(phi_rows)
        sign = np.copysign(1.0, np.linalg.det(u @ vt))
        s, ones = s.T, np.ones(count)  # adjugate's math.prod, left to right from 1
        others = np.stack([sign * math.prod(s[:i], start=ones) * math.prod(s[i + 1:], start=ones)
                           for i in range(n)], axis=1)
        adj = (np.swapaxes(vt, 1, 2) * others[:, None, :]) @ np.swapaxes(u, 1, 2)
        adj, det = np.moveaxis(adj, 0, -1), sign * math.prod(s, start=ones)
    delta, mixed = _scaled_product(adj, det, psi_rows.T, epsilon)
    return delta, np.stack(mixed, axis=1)


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
            eigen = np.linalg.eigvals(companion)
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
