"""Sample-by-sample assembly of the full estimation chain.

measurement history -> stacked regression (psi, phi at each delayed row) ->
adjugate mixing into (delta, psi) -> per-parameter gradient -> omega_grad
recovery, with the finite-time extraction (theta_ft and its omega_ft) done
once per epoch by the estimator. One Pipeline instance owns one estimation
session.

Mixing, the gradient and omega_grad recovery look ahead. The stack reads
the regression d, 2d, ..., nd seconds back, so the mixed pair of a sample
depends only on measurements at least d old, and the pairs of the next d
seconds are already fixed by the history; so are theta_hat after each of
them, since the gradient law reads only the pair, dt and the previous
theta_hat, and so is the omega_grad recovered from each theta_hat. A warm
step that finds nothing queued mixes its own row and those of up to
min(d / Ts, _AHEAD) - 1 later samples in one mix_rows call, moves the
gradient over them in one gradient_rows call and recovers their omega_grad
in one recover_rows call, the engine's own stages; every later step pops
its row (delta, theta_hat, excitation, max_decay_step, omega_grad) and
sets the estimator state from it. A row whose stack or output is
non-finite is queued as a marker and replayed through mix at its own
step, and a row recover_rows flags as suspect is queued without its
omega_grad and recovered by recover_frequencies at its own step, so each
fault, its sample and its message are the per-sample path's. The
trade-off is latency: once every min(d / Ts, _AHEAD) warm samples one step
computes the whole batch. On the n = 3 stream benchmark's 128-row batches
(2-vCPU Xeon, Python 3.11, numpy 2.4) that step takes about 1.9-2.1 ms,
0.3 ms of it the mixing, 0.3 ms the gradient and 1.1-1.2 ms the recovery,
against about 4 us for the 99th-percentile step. recover_rows has a fixed
cost of about 0.2 ms a call, so below about 6 rows (d / Ts < 6) a batch
costs more per sample than recovering each sample on its own; the built-in
scenarios (d / Ts = 130) and the stream benchmark (370) batch 128 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFault
from .estimator import (EstimatorSettings, EstimatorState,
                        finite_time_estimate, gradient_rows, reset_estimator)
from .mixing import DremConfig, mix, mix_rows
from .recovery import recover_frequencies, recover_rows
from .regression import ModelConfig, delay_table

# Most rows one batch mixes, moves and recovers ahead: a fixed size, like
# the engine's _CHUNK. At n = 3 (same machine, best of 30) a mix_rows call
# costs about 20 us a row at 8 rows, 1.5 at 128 and 0.4 at 370, against
# 61 us for one sample's n regression_at calls and mix call, and a
# recover_rows call (best of 9) 58-72 us a row at 4 rows, 17-26 at 16 and
# 5-8 at 128, against 57-64 us for one recover_frequencies call: the fixed
# part of each (the regression columns, the stack, the cofactor arrays and
# the stacked eigvals call) is spread thin by 128 rows, while larger
# batches only lengthen the step that computes them. Batching steps are
# then under 1 % of warm steps and stay out of the 99th latency percentile.
_AHEAD = 128


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


def warmup_time(model: ModelConfig, drem: DremConfig) -> float:
    """Seconds of history before mixed samples become warm: 2nh + nd."""
    return 2 * model.n * model.h + model.n * drem.d


def check_measurement(t: float, y: float) -> None:
    """Reject a measurement sample with a non-finite time or value."""
    if not math.isfinite(t):
        raise NumericFault(f"non-finite time {t}")
    if not math.isfinite(y):
        raise NumericFault(f"non-finite measurement {y} at t = {t}")


class Pipeline:
    """Drives one estimation session over a uniform sample stream.

    Callers that already hold a whole trace use the engine module instead;
    this class is the streaming path, one step() per arriving sample.
    The session's history is the list of measurements since the last clear,
    cut back to the last taps.warm_from + 1 whenever a batch is mixed; a
    sample is warm once more than taps.warm_from samples arrived since the
    last clear, and only warm samples are stacked, mixed and moved into
    theta_hat. A cold one reports delta 0.0, the excitation it adds. Warm
    samples are mixed and moved ahead in batches (see the module
    docstring): the queue holds the rows of the next samples, the first
    last, and a clear drops it.
    Pipeline keeps the epoch clock: an epoch starts at the first sample
    after a clear, and extraction is tried from t_ft after that on.
    The raw gradient estimates are recovered with the rest of each warm
    sample's row, ahead in its batch (cold samples, extraction and reset
    leave theta_hat as it was, so only the session's first sample and a
    suspect row recover on their own), with no imaginary-part limit (transients can wander
    through complex root territory), projected into the model band; the
    finite-time estimate is recovered once, inside finite_time_estimate,
    under the estimator's imag_tol, and the state holds it.
    """

    def __init__(self, model: ModelConfig, drem: DremConfig,
                 estimator: EstimatorSettings, sample_period: float):
        self.model = model
        self.drem = drem
        self.estimator = estimator
        self.sample_period = sample_period
        self.taps = delay_table(model, drem.d, sample_period)
        self.state = EstimatorState(estimator, model)
        self._omega_grad = None  # of the current theta_hat, once recovered
        self._clear_history()

    def step(self, t: float, y: float) -> StepResult:
        """Process one measurement sample and report the session outputs."""
        check_measurement(t, y)
        if self._count == 0:
            # epochs are measured from the first sample actually processed
            self._epoch_start = t
        self._history.append(y)
        self._count += 1
        state = self.state
        delta = 0.0  # a cold sample adds no excitation
        if self._count > self.taps.warm_from:
            if not self._queue:
                self._mix_ahead()
            row = self._queue.pop()
            if row[0] is None:  # the first non-finite row: mix raises its fault
                mix(t, *row[1], self.drem.epsilon)
                raise RuntimeError(f"sample at t = {t}: mix_rows and mix disagree")
            # a suspect row's omega_grad is None: recover_frequencies below settles it
            delta, state.theta_hat, state.excitation, state.max_decay_step, self._omega_grad = row

        theta_ft = state.theta_ft
        if theta_ft is None and t - self._epoch_start >= self.estimator.t_ft:
            theta_ft = finite_time_estimate(state, t)

        theta_hat = tuple(state.theta_hat)
        if self._omega_grad is None:
            self._omega_grad = recover_frequencies(
                theta_hat, self.model.h, self.model.band, imag_tol=math.inf).omega_hat
        return StepResult(
            time=t, y=y, delta=delta, theta_hat=theta_hat,
            theta_ft=theta_ft, omega_grad=self._omega_grad, omega_ft=state.omega_ft)

    def reset(self) -> None:
        """Restart the session mid-stream after an external signal change.

        Flushes all delay history and the mixed pairs queued from it (the
        pipeline re-warms on post-reset data only, with estimator updates
        gated off meanwhile) and starts a new estimation epoch with the
        current gradient estimate carried over. Without a reset the
        finite-time output deliberately keeps its stale extracted value.
        """
        self._clear_history()
        reset_estimator(self.state)

    def _clear_history(self) -> None:
        """Drop the history and the queue: the session re-warms from scratch."""
        self._history = []
        self._queue = []
        self._count = 0  # samples since the last clear

    def _mix_ahead(self) -> None:
        """Queue the rows of this sample and of the next ones up to
        min(d / Ts, _AHEAD) samples in all, all read from the history and
        the state: one (delta, theta_hat, excitation, max_decay_step,
        omega_grad) per row, omega_grad None where recover_rows flags the
        row suspect, and for a row whose stack or output is non-finite a
        (None, (psi_rows, phi_rows)) marker, after which the batch stops."""
        taps = self.taps
        count = min(taps.rows[0], _AHEAD)
        history = self._history
        del history[:-(taps.warm_from + 1)]  # this sample is the last
        y = np.array(history[:taps.warm_from + count - taps.rows[0]])
        delta, mixed, bad = mix_rows(y, taps, taps.warm_from, taps.warm_from + count,
                                     self.drem.epsilon)
        theta, excitation, max_steps = gradient_rows(self.state, delta, mixed, self.sample_period)
        omega, suspect = recover_rows(theta, self.model.h, self.model.band)
        omega = [None if flagged else tuple(row)
                 for row, flagged in zip(omega.tolist(), suspect.tolist())]
        queue = list(zip(delta.tolist(), theta.tolist(), excitation.tolist(), max_steps.tolist(),
                         omega))
        if bad is not None:
            queue.append((None, bad))
        queue.reverse()
        self._queue = queue

    @property
    def extracted(self) -> bool:
        return self.state.theta_ft is not None
