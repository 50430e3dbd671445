"""Sample-by-sample assembly of the full estimation chain.

measurement window -> stacked regression (psi, phi at each delayed row) ->
adjugate mixing -> per-parameter gradient + finite-time extraction ->
frequency recovery. One Pipeline instance owns one estimation session.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import NumericFault
from .estimator import (EstimatorSettings, EstimatorState,
                        finite_time_estimate, reset_estimator, step_gradient)
from .mixing import DremConfig, mix
from .recovery import DEFAULT_IMAG_TOL, recover_frequencies
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
    """Reject a non-finite measurement sample."""
    if not math.isfinite(y):
        raise NumericFault(f"non-finite measurement {y} at t = {t}")


class Pipeline:
    """Drives one estimation session over a uniform sample stream.

    Callers that already hold a whole trace use the engine module instead;
    this class is the streaming path, one step() per arriving sample.
    The session's whole history is one zero-filled window of the last
    taps.warm_from + 1 measurements, newest first: stacked row i is
    regression_at(window, taps, taps.rows[i]), and a mixed sample is warm
    once more than taps.warm_from samples arrived since the last clear.
    The frequency band of the model config doubles as the projection range
    for recovered estimates. The raw gradient estimates are recovered at
    every step with no imaginary-part limit (transients can wander through
    complex root territory); the finite-time estimate is recovered once, at
    extraction, under the configured tolerance.
    """

    def __init__(self, model: ModelConfig, drem: DremConfig,
                 estimator: EstimatorSettings, sample_period: float,
                 imag_tol: float = DEFAULT_IMAG_TOL):
        self.model = model
        self.drem = drem
        self.estimator = estimator
        self.sample_period = sample_period
        self.imag_tol = imag_tol
        self.taps = delay_table(model, drem.d, sample_period)
        self._window = deque(maxlen=self.taps.warm_from + 1)
        self.state = EstimatorState(estimator, model)
        self._bounds = (model.omega_min, model.omega_max)
        self._omega_ft: tuple[float, ...] | None = None
        self._clear_window()

    def step(self, t: float, y: float) -> StepResult:
        """Process one measurement sample and report the session outputs."""
        check_measurement(t, y)
        if self._count == 0:
            # epochs are measured from the first sample actually processed
            self.state.time = t
            self.state.epoch_start = t
        taps = self.taps
        self._window.appendleft(y)
        self._count += 1
        psi_rows, phi_rows = zip(*[regression_at(self._window, taps, lag) for lag in taps.rows])
        mixed = mix(t, psi_rows, phi_rows, self._count > taps.warm_from, self.drem.epsilon)
        step_gradient(self.state, mixed, self.sample_period)

        theta_ft = self.state.theta_ft
        if theta_ft is None and self.state.epoch_elapsed() >= self.estimator.t_ft:
            theta_ft = finite_time_estimate(self.state, self.estimator)
            if theta_ft is not None:
                self._omega_ft = recover_frequencies(
                    theta_ft, self.model.h, self._bounds, self.imag_tol).omega_hat

        omega_grad = recover_frequencies(
            tuple(self.state.theta_hat), self.model.h, self._bounds,
            imag_tol=math.inf).omega_hat
        return StepResult(
            time=t, y=y, delta=mixed.delta,
            theta_hat=tuple(self.state.theta_hat),
            theta_ft=theta_ft, omega_grad=omega_grad, omega_ft=self._omega_ft)

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
        self._omega_ft = None

    def _clear_window(self) -> None:
        """Zero the whole window: every tap reads 0.0 until refilled."""
        self._window.extend([0.0] * self._window.maxlen)
        self._count = 0  # samples since the last clear

    @property
    def extracted(self) -> bool:
        return self.state.theta_ft is not None
