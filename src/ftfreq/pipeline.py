"""The estimation chain's one driver, Pipeline, with two entry points.

measurement history -> stacked regression -> adjugate mixing into
(delta, psi) -> per-parameter gradient -> omega_grad recovery, with the
finite-time extraction (theta_ft and its omega_ft) once per epoch. step()
takes one arriving sample, run() a whole trace in memory, as a session of
its own, converted once to float64 arrays that it mixes from by row. Both
drive the chain through one block routine, Pipeline._rows: one mix_rows,
one gradient_rows and one recover_rows call over a run of rows. The driver
holds no stage math: it chooses the rows, records each extraction in the
epoch's one record, an Epoch, settles each row recover_rows flags as
suspect with recover_frequencies (which may recover a row the stacked
eigvals call did not) and raises each fault once, at its row, with its
stage's own exception and message.

The epoch clock counts samples: extraction comes due D = ceil(t_ft / Ts -
GRID_TOL) rows after the epoch's first row, and time stamps only label
rows. Each entry tells a block how many of its rows come before the due
row. The block tests the due row and, if it defers, finds the row where
extraction fires by bisection over its excitation, which never falls; it
forms that row's theta_ft with the estimator's one formula,
finite_time_theta, and recovers it as its trailing row under imag_tol.
The entry then records it, through one routine, Pipeline._fire, when it
reaches that row: roots that leave the real axis raise the
EstimateNotPhysical recover_rows found for them, and an otherwise suspect
row is extracted on its own, which raises its fault or recovers what the
stacked call missed. So a clean session makes no one-row extraction.

step() checks each sample with check_measurement, but for a pair of
finite Python floats, which that check would pass: x is one when type(x)
is float and x - x is 0.0 (NaN for an infinity or a NaN). step() looks
ahead: the stack reads the regression d, 2d, ..., nd seconds back, so the
next d seconds' mixed pairs, theta_hat after each and its omega_grad are
fixed by the history. A warm step with nothing queued converts the
samples since the last batch to floats, keeps the last warm_from + 1 in
the window it carries, calls the block routine on its own row and up to
min(d / Ts, _AHEAD) - 1 later ones, and queues each row as step() returns
it; each later step pops its row, and the fired row's extraction waits for
the step that pops it. As _AHEAD exceeds every shipped d / Ts, a batch
holds every row the history fixes. The cost is latency: on the n = 3
stream benchmark (d / Ts = 370; 2-vCPU Xeon, Python 3.11.7, numpy 2.4.6,
one thread) a batching step takes 0.78-0.80 ms in median across runs,
0.87-0.94 ms at the 90th percentile (0.085 mixing, 0.075 gradient and 0.28
recovery in the fastest, 0.65 ms), and at n = 8 with the same d / Ts
7.2-8.5 ms in median, against 0.70 us for the median step and 1.3-1.6 us
for the 99th-percentile one. run() calls the block routine per _CHUNK
rows of each epoch. The cold rows report the session's theta_hat and
omega_grad as they stand: at the start theta0 and the guesses omega0 it
is built from, put in band as recovery puts every omega, with no round
trip through the root finder; after a reset the last warm row's. So a
clean session calls the root finder once per block and no other time.
Both entries' outputs, Epoch records and faults are equal bit for bit at
every order n, because each batched stage's row equals its one-row call
(tests/test_mixing.py, tests/test_recovery.py).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericFault
from .estimator import (EstimatorSettings, EstimatorState, finite_time_estimate,
                        finite_time_theta, gradient_rows, reset_estimator)
from .mixing import DremConfig, _first, mix_fault, mix_rows
from .recovery import _in_band, recover_frequencies, recover_rows
from .regression import ModelConfig, delay_table
from .signals import GRID_TOL

# Most rows one step() batch computes ahead: more than every shipped d / Ts
# (130-400 rows for the built-ins, 370 for the stream benchmark), so a batch
# holds all the rows the history fixes. Per row at n = 3 (same machine),
# the block routine costs about 26 us at 8 rows, 2.4 at 128, 1.25 at 370 and
# 1.05 at 512, against 64 us for one sample's regression and mixing and
# about 90 us for one recover_frequencies call: the larger the batch, the
# thinner each call's fixed part is spread, at the price of a longer
# batching step, and batching steps stay 1 in d / Ts warm steps, out of the
# 99th latency percentile.
_AHEAD = 512

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
    due is the row where it came due, t_ft rounded up to whole sample
    periods (within GRID_TOL) after first, and fired the row where it
    succeeded, each None if never reached; the rows from fired on report
    theta_ft and omega_ft, whose recovery dropped root imaginary parts up to
    root_residual and clamped a root's real part into [-1, 1] if clamped.
    stop reads None while the epoch is open: Pipeline.epoch, until reset()
    closes and replaces it."""

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
    """Every per-sample output of one run, held column by column: times and
    samples are the run's float64 arrays, as run() converted them.

    epochs holds one Epoch per segment, in order, each the one record of
    its extraction; every row before an epoch's fired row reports no
    finite-time estimate. state is the estimator state after the last
    sample. Both are the run's own: no Pipeline holds them.
    """

    times: np.ndarray  # (K,)
    samples: np.ndarray  # (K,)
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
            StepResult, self.times[first:stop].tolist(), self.samples[first:stop].tolist(),
            self.delta[first:stop].tolist(),
            map(tuple, self.theta_hat[first:stop].tolist()), theta_ft,
            map(tuple, self.omega_grad[first:stop].tolist()), omega_ft))


def warmup_time(model: ModelConfig, drem: DremConfig) -> float:
    """Seconds of history before mixed samples become warm: 2nh + nd."""
    return 2 * model.n * model.h + model.n * drem.d


def check_measurement(t: float, y: float) -> None:
    """Reject a measurement sample with a non-finite time or value, or with
    a time or value (an int) beyond the float range. A complex time or
    value, numpy's included, raises math.isfinite's TypeError."""
    t, y = _real(t), _real(y)
    try:
        finite = math.isfinite(t)
    except OverflowError as exc:
        raise NumericFault(f"time beyond the float range: {exc}") from None
    if not finite:
        raise NumericFault(f"non-finite time {t}")
    try:
        finite = math.isfinite(y)
    except OverflowError as exc:
        raise NumericFault(f"measurement at t = {t} is beyond the float range: {exc}") from None
    if not finite:
        raise NumericFault(f"non-finite measurement {y} at t = {t}")


def _real(value):
    """value as check_measurement reads it: a numpy complex as a Python
    complex, which math.isfinite rejects, where numpy's conversion to float
    would keep the real part with only a ComplexWarning."""
    return complex(value) if isinstance(value, (complex, np.complexfloating)) else value


def _floats(values) -> np.ndarray:
    """values as one float64 array, itself if it is one. An array of any
    other dtype kind than bool, int or float is read entry by entry, each as
    check_measurement reads it: an int beyond the float range as +-inf, and
    anything it rejects as no real number as NaN, so that entry's row is
    where the check raises."""
    array = np.asarray(values)
    if array.dtype.kind in "biuf":
        return array.astype(float, copy=False)
    return np.fromiter(map(_as_float, values), float, len(values))


def _as_float(value) -> float:
    try:
        math.isfinite(_real(value))  # check_measurement's reading of it
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        return math.nan
    return float(value)


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
    of rows computed ahead, in order, and the extraction one of them
    fires. An epoch starts at the first sample after a clear, and extraction
    comes due D = ceil(t_ft / Ts - GRID_TOL) rows after it; a sample step()
    rejects takes no row. epoch is its one record, which holds the extraction
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
        # per-session constants step() reads: the last cold count, the rows
        # from an epoch's first to its due row, D, and the rows one batch queues
        self._warm_from = self.taps.warm_from
        self._due = math.ceil(estimator.t_ft / sample_period - GRID_TOL)
        self._ahead = min(self.taps.rows[0], _AHEAD)
        # what step() reports: theta_hat as a tuple and its omega_grad, set
        # when a queued row is popped; until then theta0 and the guesses it
        # was built from, put in band, and after a reset the last popped row's
        self._theta_hat = tuple(self.state.theta_hat)
        self._omega_grad = tuple(_in_band(np.array(estimator.omega0), model.band).tolist())
        self._clear_history()

    def step(self, t: float, y: float) -> StepResult:
        """Process one measurement sample and report the session outputs."""
        # check_measurement passes a pair of finite Python floats without a
        # word, so they skip the call: x - x is 0.0 for a finite float alone
        if not (type(t) is float and type(y) is float and t - t == 0.0 and y - y == 0.0):
            check_measurement(t, y)
        self._history.append(y)
        self._count = count = self._count + 1
        epoch = self.epoch
        due = self._due
        if count == due + 1:
            epoch.due = epoch.first + due
        delta = 0.0  # a cold sample adds no excitation, and theta_hat holds
        if count > self._warm_from:
            row = next(self._queue, None)
            if row is None and self._bad is None:
                self._mix_ahead()
                row = next(self._queue, None)
            if row is None:  # the block stopped at this row
                bad, self._bad = self._bad, None
                raise mix_fault(t, *bad)
            # a suspect row's omega_grad is None: recovered below
            state = self.state
            delta, state.theta_hat, self._theta_hat, state.excitation, state.max_decay_step, \
                self._omega_grad = row
            ft = self._ft
            if ft is not None and ft[0] == count:
                # should it fault, the next row tries again on its own:
                # extraction is tried at each row from due on until it fires
                self._ft = (ft[0] + 1, None, None)
                self._fire(epoch.first + ft[0] - 1, *ft[1:])
                self._ft = None

        if self._omega_grad is None:
            self._omega_grad = self._omega(self._theta_hat)
        return StepResult(t, y, delta, self._theta_hat, epoch.theta_ft, self._omega_grad,
                          epoch.omega_ft)

    def run(self, times, samples, starts: list[int]) -> Trajectory:
        """Estimate over a whole uniform trace, whose epochs start at the
        sample indices starts, each after a reset: the outputs a fresh
        Pipeline's step() gives and one Epoch per epoch. times and samples
        are sequences or arrays, converted once to float64 arrays (no copy
        for float64 arrays); the Trajectory holds those. times and samples
        of unequal lengths or none, or starts that are not a sequence, have
        an entry that is not an integer or do not begin at 0 and rise
        strictly below the sample count, are a ConfigError; the Epochs hold
        starts as ints. A fault is raised as a NumericFault naming its
        sample, from the stage's own; an entry that is not a real number
        raises check_measurement's TypeError at its row, as in step().
        The run is a session of its own, built from this Pipeline's config:
        it neither reads nor changes this Pipeline's streaming session, so
        the Trajectory is the run's alone."""
        return Pipeline(self.model, self.drem, self.estimator, self.sample_period)._run_fresh(
            times, samples, starts)

    def _run_fresh(self, times, samples, starts: list[int]) -> Trajectory:
        """run() with this Pipeline, built for the one run and never
        stepped, as its session, which it leaves holding the run's last
        epoch and its state. An epoch's cold rows hold the session's
        theta_hat and omega_grad: the first epoch's are theta0 and the
        guesses, put in band, a later epoch's its previous epoch's last."""
        count, n = len(times), self.model.n
        if len(samples) != count:
            raise ConfigError(f"times and samples differ in length: {count} and {len(samples)}")
        if not count:
            raise ConfigError("no samples")
        try:
            entries = iter(starts)
        except TypeError:
            raise ConfigError(f"starts must be a sequence of integers, got {starts!r}") from None
        edges = []
        for entry in entries:  # as plain ints, for the Epochs
            try:
                edges.append(operator.index(entry))
            except TypeError:
                raise ConfigError(f"starts entries must be integers, got {entry!r}") from None
        if not edges or edges[0] != 0 or any(a >= b for a, b in zip(edges, [*edges[1:], count])):
            raise ConfigError(f"starts must begin at 0 and rise strictly below {count}, "
                              f"got {edges}")
        edges.append(count)
        state, depth = self.state, self.taps.warm_from
        run = Trajectory(times=_floats(times), samples=_floats(samples), delta=np.empty(count),
                         theta_hat=np.empty((count, n)), omega_grad=np.empty((count, n)),
                         epochs=[Epoch(a, b) for a, b in zip(edges, edges[1:])], state=state)
        finite = np.isfinite(run.times) & np.isfinite(run.samples)
        for epoch in run.epochs:
            first, stop = epoch.first, epoch.stop
            self.reset()  # a fresh Pipeline's state is the same after it
            self.epoch = epoch
            # the epoch's rows up to its first non-finite entry, which is
            # checked at its row
            end = first + _first(~finite[first:stop])
            warm = min(first + depth, end)
            due = first + self._due
            epoch.due = due if due < end else None
            run.delta[first:warm] = 0.0
            # theta_hat and omega_grad hold still until the stack is warm
            run.theta_hat[first:warm] = state.theta_hat
            run.omega_grad[first:warm] = self._omega_grad
            for a in range(warm, end, _CHUNK):
                self._run_block(run, a, min(a + _CHUNK, end), due)
            if end < stop:
                with _at_sample(end, run.times[end]):
                    check_measurement(times[end], samples[end])
        return run

    def _run_block(self, run: Trajectory, a: int, b: int, due: int) -> None:
        """Rows a..b-1 of run, mixed straight from its samples by row (a warm
        row never reads before its epoch's first sample): the block routine,
        then the extraction it formed at the row fired from row due on,
        recorded by _fire (its fault raised there), the suspect rows and the
        first fault."""
        state, times = self.state, run.times
        delta, theta, excitation, max_steps, omega, suspect, bad, ft = self._rows(
            run.samples, a, b, max(due, a) - a)
        b = a + len(delta)  # the block stops at its first non-finite row, if any
        run.delta[a:b], run.theta_hat[a:b] = delta, theta
        fault = None if bad is None else (b, mix_fault(times[b], *bad))
        if ft is not None:
            k = ft[0]
            state.theta_hat[:], state.excitation = theta[k].tolist(), float(excitation[k])
            try:
                self._fire(a + k, *ft[1:])
            except NumericFault as exc:
                fault = a + k, exc
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

    def _rows(self, y: np.ndarray, first: int, stop: int, due: int):
        """The block routine: (delta, theta_hat, excitation, max_decay_step,
        omega_grad, suspect) of the K rows first..first+K-1 of the samples
        y, mixed, moved from the state (left as it was) and recovered; bad:
        None, or mix_fault's arguments for row first + K < stop; and ft.

        Extraction comes due at row first + due. While the epoch has not
        fired, the theta_ft of the fired row, if any, rides the one
        recover_rows call as its last row, the one row under imag_tol: the
        first row from first + due on where finite_time_theta finds one,
        first + due itself if it does, else found by bisection, as the
        excitation never falls.
        ft is then (that row, counted from first; its theta_ft; recover_rows'
        estimate of it: a FrequencyEstimate, the EstimateNotPhysical its
        roots raise, or None if the row is otherwise suspect), else None."""
        state = self.state
        delta, mixed, bad = mix_rows(y, self.taps, first, stop, self.drem.epsilon)
        theta, excitation, max_steps = gradient_rows(state, delta, mixed, self.sample_period)
        count, theta_ft, imag_tol = len(theta), None, None
        fired = count
        if due < count and self.epoch.fired is None:
            fired = due
            if finite_time_theta(state, (), excitation[due]) is None:  # deferred
                fired = bisect_left(excitation, True, due + 1, count,
                                    key=lambda s: finite_time_theta(state, (), s) is not None)
        rows = theta
        if fired < count:
            theta_ft = finite_time_theta(state, theta[fired].tolist(), float(excitation[fired]))
            rows, imag_tol = np.vstack((theta, theta_ft)), self.estimator.imag_tol
        omega, suspect, estimate = recover_rows(rows, self.model.h, self.model.band, imag_tol)
        ft = None if theta_ft is None else (fired, theta_ft, estimate)
        return delta, theta, excitation, max_steps, omega[:count], suspect[:count], bad, ft

    def _mix_ahead(self) -> None:
        """Queue the rows of this sample and the next, min(d / Ts, _AHEAD)
        in all, in order, each as step() reports it: (delta, theta_hat as
        the state's list and as a tuple, excitation, max_decay_step,
        omega_grad), omega_grad None where suspect, in a lazy zip over the
        block's lists, which builds each row as step() takes it. The samples
        since the last batch join the window as floats, which keeps the last
        warm_from + 1, this sample last. _bad keeps the fault of the row a
        block stops at for that row's step, and _ft the extraction it fires,
        with the sample count at its row, for that row's step."""
        depth, count, history = self._warm_from, self._ahead, self._history
        window = np.concatenate((self._window, np.array(history, dtype=float)))
        del history[:]
        self._window = window = window[-(depth + 1):]
        delta, theta, excitation, max_steps, omega, suspect, self._bad, ft = self._rows(
            window[:depth + count - self.taps.rows[0]], depth, depth + count,
            max(self._due + 1 - self._count, 0))
        self._ft = None if ft is None else (self._count + ft[0], *ft[1:])
        theta = theta.tolist()
        omega = list(map(tuple, omega.tolist()))
        for j in np.flatnonzero(suspect).tolist():
            omega[j] = None
        self._queue = zip(delta.tolist(), theta, map(tuple, theta), excitation.tolist(),
                          max_steps.tolist(), omega)

    def _fire(self, row: int, theta_ft, estimate) -> None:
        """Record the extraction a block formed at row, where it fired, in
        the epoch's record, given the block's theta_ft and recover_rows'
        estimate of it (as _rows' ft): an EstimateNotPhysical is raised; an
        otherwise suspect row (estimate None) is extracted on its own from
        the state, which holds the row, for its fault or a recovery the
        stacked call missed."""
        if isinstance(estimate, NumericFault):  # its roots left the real axis
            raise estimate
        if estimate is None:
            theta_ft, estimate = finite_time_estimate(self.state)
        epoch = self.epoch
        epoch.fired, epoch.theta_ft, epoch.omega_ft = row, theta_ft, estimate.omega_hat
        epoch.root_residual, epoch.clamped = estimate.residual, estimate.clamped

    def _omega(self, theta_hat: tuple[float, ...]) -> tuple[float, ...]:
        """omega_grad of one theta_hat, recovered on its own."""
        return recover_frequencies(
            theta_hat, self.model.h, self.model.band, imag_tol=math.inf).omega_hat

    def reset(self) -> None:
        """Restart the session mid-stream after an external signal change.

        Flushes all delay history and the rows computed ahead from it, with
        any extraction they fire (the pipeline re-warms on post-reset data
        only), closes the epoch's record at the samples stepped and starts a
        new epoch, with a new record, carrying the gradient estimate over.
        Without a reset the finite-time output keeps its stale extracted
        value.
        """
        epoch = self.epoch
        if epoch.stop is None:  # run() sets its epochs' stops
            epoch.stop = epoch.first + self._count
        self.epoch = Epoch(epoch.stop)
        self._clear_history()
        reset_estimator(self.state)

    def _clear_history(self) -> None:
        """Drop the history and the queue: the session re-warms from scratch."""
        self._history = []  # the samples since the last batch
        self._window = np.empty(0)  # the converted ones a batch reads
        self._queue = iter(())  # the rows computed ahead, in order
        self._bad = None  # mix_fault's arguments for the row the queue stops at
        self._ft = None  # (sample count at its row, theta_ft, estimate) of a queued fired row
        self._count = 0  # samples since the last clear

    @property
    def extracted(self) -> bool:
        """Whether the current epoch has extracted."""
        return self.epoch.fired is not None
