"""Whole-trace engine: the estimation chain over a trace already in memory.

Pipeline takes one sample per step(); run_trace takes a whole (time, y)
trace, allocates one Trajectory with one Epoch per segment, and for each
segment calls the stages in the chain's order, each writing its rows (and
_gradient the segment's Epoch) into the Trajectory. The engine is a
driver only: each stage's math has one written form in its own module,
called here on a segment's rows and by Pipeline on a shorter batch.

* _mixed: the scan for the first non-finite time or measurement, then
  mixing.mix_rows on the warm rows before it (a cold row's delta is 0.0),
  whose first non-finite stack or mixed output is the one fault of these
  replayed through mix before the gradient step;
* _gradient: estimator.gradient_rows in _CHUNK-row blocks, and the
  extraction search: the state is set to a row only where extraction is
  tried (finite_time_estimate, which also recovers omega_ft) and at the end
  of each block; the epoch's record gets the row where extraction came due
  and the row where it fired;
* _recover: omega_grad by recovery.recover_rows in _CHUNK-row blocks; the
  cold rows, whose theta_hat is the segment's first, share a single
  one-row recovery by recover_frequencies, as Pipeline's first recovery of
  a session (after a reset, Pipeline keeps the omega_grad its last batch
  recovered for that theta_hat);
* _replay: the first fault, raised by the streaming stage itself on that
  sample's inputs, so its exception and message are Pipeline's too.

The outputs equal Pipeline's bit for bit at every order n, because each
stacked routine's row equals its one-row call, as the two row-independence
tests (tests/test_mixing.py, tests/test_recovery.py) pin. A reset starts a
new segment: cleared history, a new epoch timed from its first sample,
theta_hat carried over.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NumericFault
from .estimator import (EstimatorSettings, EstimatorState,
                        finite_time_estimate, gradient_rows, reset_estimator)
from .mixing import DremConfig, _first, mix, mix_rows
from .pipeline import StepResult, check_measurement
from .recovery import recover_frequencies, recover_rows
from .regression import DelayTable, ModelConfig, delay_table

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


# _mixed, _gradient and _recover keep their separate scopes and this order:
# merging them moved the builtins benchmark's peak RSS by +2 to +15 MB.
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
    warm = min(taps.warm_from, end)
    # the zeros before the segment make every row a valid mix_rows row;
    # warm rows never read them
    depth = taps.warm_from
    padded = np.concatenate((np.zeros(depth), y[:end]))
    delta, mixed, bad = mix_rows(padded, taps, depth + warm, depth + end, epsilon)
    row = warm + len(delta)
    if bad is not None:
        fault = (row, mix, times[first + row], *bad, epsilon)
    run.delta[first:first + warm] = 0.0
    run.delta[first + warm:first + row] = delta
    return warm, mixed, fault


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
    for a in range(warm, end, _CHUNK):
        b = min(a + _CHUNK, end)
        rows, excitation, max_steps = gradient_rows(
            state, run.delta[first + a:first + b], mixed[a - warm:b - warm], dt)
        run.theta_hat[first + a:first + b] = rows
        for j in range(max(a, extract_from), b) if state.theta_ft is None else ():
            state.theta_hat[:] = rows[j - a].tolist()
            state.excitation = float(excitation[j - a])
            state.max_decay_step = float(max_steps[j - a])
            try:
                theta_ft = finite_time_estimate(state, times[first + j])
            except NumericFault:
                return j, finite_time_estimate, state, times[first + j]
            if theta_ft is not None:
                epoch.fired, epoch.theta_ft, epoch.omega_ft = first + j, theta_ft, state.omega_ft
                break
        state.theta_hat[:] = rows[-1].tolist()
        state.excitation, state.max_decay_step = float(excitation[-1]), float(max_steps[-1])
    return None


def _recover(run: Trajectory, first: int, stop: int, model: ModelConfig) -> None:
    """omega_grad of rows first..stop-1; a row that faults raises here."""
    theta = run.theta_hat[first:stop]
    omega, suspect = recover_rows(theta, model.h, model.band)
    for j in np.flatnonzero(suspect).tolist():
        omega[j] = _replay(first + j, run.times[first + j], recover_frequencies,
                           tuple(theta[j].tolist()), model.h, model.band, math.inf).omega_hat
    run.omega_grad[first:stop] = omega


def _replay(k: int, t: float, stage, *args):
    """Call a streaming stage on sample k's inputs; its faults name the sample."""
    try:
        return stage(*args)
    except NumericFault as exc:
        raise NumericFault(f"sample {k} (t = {t:.6g}): {exc}") from exc
