"""The streaming Pipeline as it ran before computing ahead: a test oracle.

Each warm step reads its n stacked rows with regression_at from a
zero-filled window of the last taps.warm_from + 1 samples, mixes them as a
stack of one with _mixed_stacks, raising mix_fault's fault for a non-finite
stack or output, and moves theta_hat with step_gradient below, the gradient
law one sample at a time in scalar float arithmetic, written independently
of the column form the package applies. Everything else is Pipeline's. The
look-ahead Pipeline must return the same StepResults, leave the same
estimator state and raise the same faults at the same samples.
"""

import math
from collections import deque

import numpy as np

from ftfreq.estimator import (EstimatorState, finite_time_estimate,
                              reset_estimator)
from ftfreq.mixing import _mixed_stacks, mix_fault
from ftfreq.pipeline import StepResult, check_measurement
from ftfreq.recovery import recover_frequencies
from ftfreq.regression import delay_table, regression_at


def step_gradient(state, delta, psi, dt):
    """One warm sample interval of the gradient law, scalar by scalar."""
    d2 = delta * delta
    d2dt = d2 * dt
    theta = state.theta_hat
    for i, g in enumerate(state.settings.gamma):
        lam = g * d2dt
        if lam > state.max_decay_step:
            state.max_decay_step = lam
        if lam < 1e-12:
            theta[i] += g * dt * delta * (psi[i] - delta * theta[i])
        else:
            growth = -math.expm1(-lam) / lam
            theta[i] = theta[i] * math.exp(-lam) + g * dt * delta * psi[i] * growth
    state.excitation += d2dt


class PerSamplePipeline:
    def __init__(self, model, drem, estimator, sample_period):
        self.model = model
        self.drem = drem
        self.estimator = estimator
        self.sample_period = sample_period
        self.taps = delay_table(model, drem.d, sample_period)
        self._window = deque(maxlen=self.taps.warm_from + 1)
        self.state = EstimatorState(estimator, model)
        self.theta_ft = self.omega_ft = None  # the epoch's extraction, once fired
        self._omega_grad = None
        self._clear_window()

    def step(self, t, y):
        check_measurement(t, y)
        if self._count == 0:
            self._epoch_start = t
        taps = self.taps
        self._window.appendleft(y)
        self._count += 1
        state = self.state
        delta = 0.0
        if self._count > taps.warm_from:
            psi_rows, phi_rows = zip(*[regression_at(self._window, taps, lag) for lag in taps.rows])
            delta, psi, bad = _mixed_stacks(np.array([psi_rows], dtype=float),
                                            np.array([phi_rows], dtype=float), self.drem.epsilon)
            if bad is not None:
                raise mix_fault(t, *bad)
            delta, psi = float(delta[0]), psi[0].tolist()
            step_gradient(state, delta, psi, self.sample_period)
            self._omega_grad = None

        if self.theta_ft is None and t - self._epoch_start >= self.estimator.t_ft:
            extracted = finite_time_estimate(state)
            if extracted is not None:
                self.theta_ft, estimate = extracted
                self.omega_ft = estimate.omega_hat

        theta_hat = tuple(state.theta_hat)
        if self._omega_grad is None:
            self._omega_grad = recover_frequencies(
                theta_hat, self.model.h, self.model.band, imag_tol=math.inf).omega_hat
        return StepResult(
            time=t, y=y, delta=delta, theta_hat=theta_hat,
            theta_ft=self.theta_ft, omega_grad=self._omega_grad, omega_ft=self.omega_ft)

    def reset(self):
        self._clear_window()
        reset_estimator(self.state)
        self.theta_ft = self.omega_ft = None

    def _clear_window(self):
        self._window.extend([0.0] * self._window.maxlen)
        self._count = 0
