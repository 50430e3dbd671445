"""The estimation chain's one driver, Pipeline, with two entry points.

measurement history -> stacked regression -> adjugate mixing into
(delta, psi) -> per-parameter gradient -> omega_grad recovery, with the
finite-time extraction (theta_ft and its omega_ft) once per epoch. step()
takes one arriving sample, run() a whole trace in memory, as a session of
its own. Both drive the chain through one block routine, Pipeline._rows:
one mix_rows, one gradient_rows and one recover_rows call over a run of
rows. The driver holds no stage math: it chooses the rows, tries extraction
where it is due and writes its result to the epoch's one record, an Epoch,
settles each row recover_rows flags as suspect with recover_frequencies
(which may recover a row the stacked eigvals call did not) and raises each
fault once, at its row, with its stage's own exception and message.

step() looks ahead: the stack reads the regression d, 2d, ..., nd seconds
back, so the next d seconds' mixed pairs, theta_hat after each and its
omega_grad are fixed by the history. A warm step with nothing queued
converts the samples since the last batch to floats, keeps the last
warm_from + 1 in the window it carries, calls the block routine on its own
row and up to min(d / Ts, _AHEAD) - 1 later ones, and queues each row as
step() returns it; each later step pops its row. The cost is latency: on
the n = 3 stream benchmark (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6, one
thread) a 128-row batching step takes 0.8-1.4 ms across runs (0.13 mixing,
0.15 gradient and 0.44 recovery in the fastest), against about 2 us for
the 99th-percentile step. run() calls the block routine per
_CHUNK rows of each epoch and finds the row where the epoch comes due by
bisection over the known times. Both entries' outputs, Epoch records and
faults are equal bit for bit at every order n, because each batched
stage's row equals its one-row call (tests/test_mixing.py,
tests/test_recovery.py).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NumericFault
from .estimator import (EstimatorSettings, EstimatorState,
                        finite_time_estimate, gradient_rows, reset_estimator)
from .mixing import DremConfig, _first, mix_fault, mix_rows
from .recovery import recover_frequencies, recover_rows
from .regression import ModelConfig, delay_table

# Most rows one step() batch computes ahead. Per row at n = 3 (same machine),
# mix_rows costs about 20 us at 8 rows, 1.5 at 128 and 0.4 at 370, against
# 61 us for one sample's regression and mix, and recover_rows 27-47 us at 4
# rows and 4-6 at 128, against 90-175 us for recover_frequencies: 128 rows
# spread each call's fixed part thin, while larger batches only lengthen
# the step that computes them, and batching steps stay under 1 % of warm
# steps, out of the 99th latency percentile.
_AHEAD = 128

# Rows per run() block: bounds what one block holds. On the builtins
# benchmark (2-vCPU Xeon, Python 3.11, alternating pairs against the former
# whole-trace engine, which ran each stage over a whole segment), 4096-row
# blocks read a median peak RSS of 92.4 against 91.6 MB over 10 pairs of
# 20 s runs; in a 5 s prototype 90.2 against 88.2 MB, and 8192 rows 92.6 MB.
_CHUNK = 4096


@dataclass(slots=True)
class StepResult:
    """Everything the harness logs for one processed sample."""

    time: float
    y: float
    delta: float
    theta_hat: tuple[float, ...]
    theta_ft: tuple[float, ...] | None
    omega_grad: tuple[float, ...]
    omega_ft: tuple[float, ...] | None


@dataclass(slots=True)
class Epoch:
    """The one record of an epoch's rows [first, stop) and its extraction:
    due is the row where its clock reached t_ft and fired the row where
    extraction succeeded, each None if never; the rows from fired on report
    theta_ft and omega_ft, whose recovery dropped root imaginary parts up to
    root_residual and clamped a root's real part into [-1, 1] if clamped.
    stop reads None while the epoch is open: Pipeline.epoch, which reset()
    replaces."""

    first: int
    stop: int | None = None
    due: int | None = None
    fired: int | None = None
    theta_ft: tuple[float, ...] | None = None
    omega_ft: tuple[float, ...] | None = None
    root_residual: float | None = None
    clamped: bool | None = None


@dataclass(eq=False)
class Trajectory:
    """Every per-sample output of one run, held column by column.

    epochs holds one Epoch per segment, in order, each the one record of
    its extraction; every row before an epoch's fired row reports no
    finite-time estimate. state is the estimator state after the last
    sample. Both are the run's own: no Pipeline holds them.
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


def warmup_time(model: ModelConfig, drem: DremConfig) -> float:
    """Seconds of history before mixed samples become warm: 2nh + nd."""
    return 2 * model.n * model.h + model.n * drem.d


def check_measurement(t: float, y: float) -> None:
    """Reject a measurement sample with a non-finite time or value."""
    if not math.isfinite(t):
        raise NumericFault(f"non-finite time {t}")
    if not math.isfinite(y):
        raise NumericFault(f"non-finite measurement {y} at t = {t}")


@contextmanager
def _at_sample(k: int, t: float):
    """Re-raise a stage's NumericFault as one naming sample k of a run."""
    try:
        yield
    except NumericFault as exc:
        raise NumericFault(f"sample {k} (t = {t:.6g}): {exc}") from exc


class Pipeline:
    """Drives one estimation session over a uniform sample stream.

    A sample is warm once more than taps.warm_from samples arrived since
    the last clear (the start or a reset); only warm samples are mixed and
    moved into theta_hat. Of the measurements since the last clear, step()
    keeps at most warm_from + 2 min(d / Ts, _AHEAD) samples: those since
    its last batch and the float window that batch read. It keeps the queue
    of rows computed ahead, the first last. An epoch
    starts at the first sample after a clear, and extraction is tried from
    t_ft after it on; epoch is its one record, which holds the extraction
    and which step() reports theta_ft and omega_ft from, rows counted from
    the session's first sample. state holds the gradient alone. omega_grad
    is recovered with no imaginary-part limit (transients can wander
    through complex root territory), omega_ft under the estimator's
    imag_tol.
    """

    def __init__(self, model: ModelConfig, drem: DremConfig,
                 estimator: EstimatorSettings, sample_period: float):
        self.model = model
        self.drem = drem
        self.estimator = estimator
        self.sample_period = sample_period
        self.taps = delay_table(model, drem.d, sample_period)
        self.state = EstimatorState(estimator, model)
        self.epoch = Epoch(0)
        # per-session constants step() reads: the last cold count, the
        # clock of extraction and the rows one batch queues
        self._warm_from = self.taps.warm_from
        self._t_ft = estimator.t_ft
        self._ahead = min(self.taps.rows[0], _AHEAD)
        # what step() reports: theta_hat as a tuple and its omega_grad, both
        # set when omega_grad is recovered or a queued row is popped
        self._theta_hat = self._omega_grad = None
        self._clear_history()

    def step(self, t: float, y: float) -> StepResult:
        """Process one measurement sample and report the session outputs."""
        check_measurement(t, y)
        if self._count == 0:
            # epochs are measured from the first sample actually processed
            self._epoch_start = t
        self._history.append(y)
        self._count += 1
        delta = 0.0  # a cold sample adds no excitation, and theta_hat holds
        if self._count > self._warm_from:
            if not self._queue and self._bad is None:
                self._mix_ahead()
            if not self._queue:  # the block stopped at this row
                bad, self._bad = self._bad, None
                raise mix_fault(t, *bad)
            # a suspect row's omega_grad is None: recovered below
            state = self.state
            delta, state.theta_hat, self._theta_hat, state.excitation, state.max_decay_step, \
                self._omega_grad = self._queue.pop()

        epoch = self.epoch
        if epoch.fired is None and t - self._epoch_start >= self._t_ft:
            self._extract(epoch.first + self._count - 1)

        if self._omega_grad is None:
            self._theta_hat = tuple(self.state.theta_hat)
            self._omega_grad = self._omega(self._theta_hat)
        return StepResult(t, y, delta, self._theta_hat, epoch.theta_ft, self._omega_grad,
                          epoch.omega_ft)

    def run(self, times: list[float], samples: list[float], starts: list[int]) -> Trajectory:
        """Estimate over a whole uniform trace, whose epochs start at the
        sample indices starts (0 first, increasing), each after a reset:
        the outputs a fresh Pipeline's step() gives and one Epoch per epoch.
        A fault is raised as a NumericFault naming its sample, from the
        stage's own. The run is a session of its own, built from this
        Pipeline's config: it neither reads nor changes this Pipeline's
        streaming session, so the Trajectory is the run's alone."""
        return Pipeline(self.model, self.drem, self.estimator, self.sample_period)._run_fresh(
            times, samples, starts)

    def _run_fresh(self, times: list[float], samples: list[float],
                   starts: list[int]) -> Trajectory:
        """run() with this Pipeline, built for the one run and never
        stepped, as its session, which it leaves holding the run's last
        epoch and its state."""
        count, n = len(times), self.model.n
        edges = [*starts, count]
        state, depth = self.state, self.taps.warm_from
        run = Trajectory(times=times, samples=samples, delta=np.empty(count),
                         theta_hat=np.empty((count, n)), omega_grad=np.empty((count, n)),
                         epochs=[Epoch(a, b) for a, b in zip(edges, edges[1:])], state=state)
        for epoch in run.epochs:
            first, stop = epoch.first, epoch.stop
            self.reset()  # a fresh Pipeline's state is the same after it
            self.epoch = epoch
            # the zeros before the segment make every row a valid mix_rows
            # row; warm rows never read them
            y = np.zeros(depth + stop - first)
            y[depth:] = samples[first:stop]
            # times are checked one by one: a float copy of them raised the
            # builtins benchmark's peak RSS by 2 MB
            timed = np.fromiter(map(math.isfinite, islice(times, first, stop)), bool, stop - first)
            end = first + _first(~(np.isfinite(y[depth:]) & timed))
            warm = min(first + depth, end)
            start = times[first]  # the epoch clock starts at the segment's first sample
            due = bisect_left(times, self.estimator.t_ft, first, end, key=lambda t: t - start)
            epoch.due = due if due < end else None
            run.delta[first:warm] = 0.0
            run.theta_hat[first:warm] = state.theta_hat  # holds still until the stack is warm
            if warm > first:
                if self._omega_grad is None:
                    with _at_sample(first, start):
                        self._omega_grad = self._omega(tuple(state.theta_hat))
                run.omega_grad[first:warm] = self._omega_grad
            for a in range(warm, end, _CHUNK):
                self._run_block(run, y, depth - first, a, min(a + _CHUNK, end), due)
            if end < stop:
                with _at_sample(end, times[end]):
                    check_measurement(times[end], samples[end])
        return run

    def _run_block(self, run: Trajectory, y: np.ndarray, offset: int, a: int, b: int,
                   due: int) -> None:
        """Rows a..b-1 of run from y[offset + a:]: the block routine, then
        extraction from row due on, the suspect rows and the first fault."""
        state, times = self.state, run.times
        delta, theta, excitation, max_steps, omega, suspect, bad = self._rows(
            y, offset + a, offset + b)
        b = a + len(delta)  # the block stops at its first non-finite row, if any
        run.delta[a:b], run.theta_hat[a:b] = delta, theta
        fault = None if bad is None else (b, mix_fault(times[b], *bad))
        for j in range(max(a, due), b) if self.epoch.fired is None else ():
            state.theta_hat[:], state.excitation, state.max_decay_step = \
                theta[j - a].tolist(), float(excitation[j - a]), float(max_steps[j - a])
            try:
                if self._extract(j):
                    break
            except NumericFault as exc:  # the failed call left the state as it was
                fault = j, exc
                break
        settled = b if fault is None else fault[0]
        for j in np.flatnonzero(suspect[:settled - a]).tolist():
            with _at_sample(a + j, times[a + j]):
                omega[j] = self._omega(tuple(theta[j].tolist()))
        if fault is not None:
            with _at_sample(fault[0], times[fault[0]]):
                raise fault[1]
        run.omega_grad[a:b] = omega
        state.theta_hat[:], state.excitation, state.max_decay_step = \
            theta[-1].tolist(), float(excitation[-1]), float(max_steps[-1])
        self._omega_grad = tuple(omega[-1].tolist())

    def _rows(self, y: np.ndarray, first: int, stop: int):
        """The block routine: (delta, theta_hat, excitation, max_decay_step,
        omega_grad, suspect) of the K rows first..first+K-1 of the samples
        y, mixed, moved from the state (left as it was) and recovered, and
        bad: None, or mix_fault's arguments for row first + K < stop."""
        delta, mixed, bad = mix_rows(y, self.taps, first, stop, self.drem.epsilon)
        theta, excitation, max_steps = gradient_rows(self.state, delta, mixed, self.sample_period)
        omega, suspect = recover_rows(theta, self.model.h, self.model.band)
        return delta, theta, excitation, max_steps, omega, suspect, bad

    def _mix_ahead(self) -> None:
        """Queue the rows of this sample and the next, min(d / Ts, _AHEAD)
        in all, last first, each as step() reports it: (delta, theta_hat as
        the state's list and as a tuple, excitation, max_decay_step,
        omega_grad), omega_grad None where suspect. The samples since the
        last batch join the window as floats, which keeps the last
        warm_from + 1, this sample last. _bad keeps the fault of the row a
        block stops at for that row's step."""
        depth, count, history = self._warm_from, self._ahead, self._history
        window = np.concatenate((self._window, np.array(history, dtype=float)))
        del history[:]
        self._window = window = window[-(depth + 1):]
        delta, theta, excitation, max_steps, omega, suspect, self._bad = self._rows(
            window[:depth + count - self.taps.rows[0]], depth, depth + count)
        theta = theta.tolist()
        omega = [None if flagged else tuple(row)
                 for row, flagged in zip(omega.tolist(), suspect.tolist())]
        self._queue = list(zip(delta.tolist(), theta, map(tuple, theta), excitation.tolist(),
                               max_steps.tolist(), omega))[::-1]

    def _extract(self, row: int) -> bool:
        """Try extraction at row, where it is due, and say whether it fired;
        the epoch's record gets the row where it first came due and, with
        the result, the row where it fired."""
        epoch = self.epoch
        if epoch.due is None:
            epoch.due = row
        found = finite_time_estimate(self.state)
        if found is not None:
            epoch.theta_ft, estimate = found
            epoch.fired, epoch.omega_ft = row, estimate.omega_hat
            epoch.root_residual, epoch.clamped = estimate.residual, estimate.clamped
        return found is not None

    def _omega(self, theta_hat: tuple[float, ...]) -> tuple[float, ...]:
        """omega_grad of one theta_hat, recovered on its own."""
        return recover_frequencies(
            theta_hat, self.model.h, self.model.band, imag_tol=math.inf).omega_hat

    def reset(self) -> None:
        """Restart the session mid-stream after an external signal change.

        Flushes all delay history and the rows computed ahead from it (the
        pipeline re-warms on post-reset data only) and starts a new epoch,
        with a new record, carrying the gradient estimate over. Without a
        reset the finite-time output keeps its stale extracted value.
        """
        self.epoch = Epoch(self.epoch.first + self._count)
        self._clear_history()
        reset_estimator(self.state)

    def _clear_history(self) -> None:
        """Drop the history and the queue: the session re-warms from scratch."""
        self._history = []  # the samples since the last batch
        self._window = np.empty(0)  # the converted ones a batch reads
        self._queue = []
        self._bad = None  # mix_fault's arguments for the row the queue stops at
        self._count = 0  # samples since the last clear

    @property
    def extracted(self) -> bool:
        """Whether the current epoch has extracted."""
        return self.epoch.fired is not None
