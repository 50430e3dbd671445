"""Sample-by-sample assembly of the full estimation chain.

measurement window -> stacked regression (psi, phi at each delayed row) ->
adjugate mixing into (delta, psi) -> per-parameter gradient -> omega_grad
recovery, with the finite-time extraction (theta_ft and its omega_ft) done
once per epoch by the estimator. mix rejects a non-finite stack or mixed
output, so the gradient step takes its (delta, psi) as they come. One
Pipeline instance owns one estimation session.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import NumericFault
from .estimator import (EstimatorSettings, EstimatorState,
                        finite_time_estimate, reset_estimator, step_gradient)
from .mixing import DremConfig, mix
from .recovery import recover_frequencies
from .regression import ModelConfig, delay_table, regression_at


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
    The session's whole history is one zero-filled window of the last
    taps.warm_from + 1 measurements, newest first: stacked row i is
    regression_at(window, taps, taps.rows[i]). A sample is warm once more
    than taps.warm_from samples arrived since the last clear; only warm
    samples are stacked, mixed and moved into theta_hat, and a cold one
    reports delta 0.0, the excitation it adds.
    Pipeline keeps the epoch clock: an epoch starts at the first sample
    after a clear, and extraction is tried from t_ft after that on.
    The raw gradient estimates are recovered whenever a warm sample has moved
    theta_hat (cold samples, extraction and reset leave it as it was), with
    no imaginary-part limit (transients can wander through complex root
    territory), projected into the model band; the finite-time estimate is
    recovered once, inside finite_time_estimate, under the estimator's
    imag_tol, and the state holds it.
    """

    def __init__(self, model: ModelConfig, drem: DremConfig,
                 estimator: EstimatorSettings, sample_period: float):
        self.model = model
        self.drem = drem
        self.estimator = estimator
        self.sample_period = sample_period
        self.taps = delay_table(model, drem.d, sample_period)
        self._window = deque(maxlen=self.taps.warm_from + 1)
        self.state = EstimatorState(estimator, model)
        self._omega_grad = None  # of the current theta_hat, once recovered
        self._clear_window()

    def step(self, t: float, y: float) -> StepResult:
        """Process one measurement sample and report the session outputs."""
        check_measurement(t, y)
        if self._count == 0:
            # epochs are measured from the first sample actually processed
            self._epoch_start = t
        taps = self.taps
        self._window.appendleft(y)
        self._count += 1
        state = self.state
        delta = 0.0  # a cold sample adds no excitation
        if self._count > taps.warm_from:
            psi_rows, phi_rows = zip(*[regression_at(self._window, taps, lag) for lag in taps.rows])
            delta, psi = mix(t, psi_rows, phi_rows, self.drem.epsilon)
            step_gradient(state, delta, psi, self.sample_period)
            self._omega_grad = None  # theta_hat has moved

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

        Flushes all delay history (the pipeline re-warms on post-reset data
        only, with estimator updates gated off meanwhile) and starts a new
        estimation epoch with the current gradient estimate carried over.
        Without a reset the finite-time output deliberately keeps its stale
        extracted value.
        """
        self._clear_window()
        reset_estimator(self.state)

    def _clear_window(self) -> None:
        """Zero the whole window: every tap reads 0.0 until refilled."""
        self._window.extend([0.0] * self._window.maxlen)
        self._count = 0  # samples since the last clear

    @property
    def extracted(self) -> bool:
        return self.state.theta_ft is not None
