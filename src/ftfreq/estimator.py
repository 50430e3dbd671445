"""Per-parameter gradient estimation with finite-time re-estimation.

Each mixed scalar regression psi_i = delta * theta_i drives the gradient law

    d/dt theta_hat_i = gamma_i * delta * (psi_i - delta * theta_hat_i),

whose estimation error obeys err_i(t) = err_i(0) * W_i(t) with
W_i(t) = exp(-gamma_i * integral of delta^2). Inverting that known error
dynamics gives the finite-time re-estimate

    theta_ft_i = (theta_hat_i(t) - theta_hat_i(0) * W_i(t)) / (1 - W_i(t)),

exact as soon as any excitation has accumulated, long before the gradient
estimate itself has converged.

Discretization: the mixed data exists only at grid points, so each sample
interval is integrated with the input held constant, which has the exact
solution theta_hat <- theta_hat * exp(-lam) + gamma*dt*delta*psi * g(lam)
with lam = gamma * delta^2 * dt and g(lam) = (1 - exp(-lam))/lam. This is
the plain explicit Euler step for small lam but stays contractive for any
lam (high-gain tunings put lam well above the Euler stability limit of 2).
The excitation integral uses the matching per-interval rectangle rule so W
is algebraically identical to the decay actually applied to the error,
which keeps the finite-time inversion exact on clean data at any
extraction time.

EstimatorSettings is the stage's one tuning type: the gains, the initial
frequency guesses, the extraction time and the extraction floor, validated
once when made. The estimator.* config keys are its fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NumericFault
from .mixing import MixedSample
from .regression import true_theta


@dataclass(frozen=True)
class EstimatorSettings:
    """Gradient gains, initial frequency guesses and extraction time.

    Args:
        gamma: per-parameter positive tuning gains.
        omega0: initial frequency guesses, positive and distinct; the
            estimator starts from theta_hat(0) = true_theta(omega0, h).
        t_ft: extraction time, measured from the start of the current
            estimation epoch (a reset starts a new epoch).
        w_floor: minimum 1 - W_i required before extraction; below it the
            division would amplify integration noise, so extraction defers.
    """

    gamma: tuple[float, ...]
    omega0: tuple[float, ...]
    t_ft: float
    w_floor: float = 1e-6

    def __post_init__(self):
        bad = []
        if not self.gamma or any(not (math.isfinite(g) and g > 0) for g in self.gamma):
            bad.append(f"estimator.gamma entries must be positive, got {self.gamma}")
        if not self.omega0 or any(not (math.isfinite(w) and w > 0) for w in self.omega0):
            bad.append(f"estimator.omega0 entries must be positive, got {self.omega0}")
        if len(set(self.omega0)) != len(self.omega0):
            bad.append(f"estimator.omega0 entries must be distinct, got {self.omega0}")
        if len(self.omega0) != len(self.gamma):
            bad.append(f"estimator.omega0 has {len(self.omega0)} entries "
                       f"for {len(self.gamma)} gains")
        if not (math.isfinite(self.t_ft) and self.t_ft > 0):
            bad.append(f"estimator.t_ft must be positive, got {self.t_ft}")
        if not 0.0 < self.w_floor < 1.0:
            bad.append(f"estimator.w_floor must lie in (0, 1), got {self.w_floor}")
        if bad:
            raise ConfigError(bad)


class EstimatorState:
    """Mutable per-session estimator state.

    Starts from theta0 = true_theta(omega0, h), the parameters of the
    initial frequency guesses under the model delay h. Tracks the gradient
    estimates, the shared excitation integral
    S = integral of delta^2 over the current epoch (W_i = exp(-gamma_i S)),
    and the finite-time output once extracted. max_decay_step records the
    largest per-sample gamma_i * delta^2 * dt seen, as a stiffness
    diagnostic.
    """

    __slots__ = ("gamma", "theta_hat", "theta0", "time", "epoch_start",
                 "excitation", "theta_ft", "extraction_time", "max_decay_step")

    def __init__(self, settings: EstimatorSettings, h: float):
        self.gamma = settings.gamma
        self.theta0 = true_theta(settings.omega0, h)
        self.theta_hat = list(self.theta0)
        self.time = 0.0
        self.epoch_start = 0.0
        self.excitation = 0.0
        self.theta_ft: tuple[float, ...] | None = None
        self.extraction_time: float | None = None
        self.max_decay_step = 0.0

    @property
    def n(self) -> int:
        return len(self.gamma)

    @property
    def W(self) -> tuple[float, ...]:
        return tuple(math.exp(-g * self.excitation) for g in self.gamma)

    def epoch_elapsed(self) -> float:
        return self.time - self.epoch_start


def step_gradient(state: EstimatorState, mixed: MixedSample,
                  dt: float) -> EstimatorState:
    """Advance the estimates by one sample interval.

    Updates are skipped (time still advances) while the mixed sample is not
    warm, so zero-history transients never enter the excitation integral.
    """
    if not mixed.warm:
        state.time = mixed.time
        return state
    delta = mixed.delta
    if not math.isfinite(delta) or any(not math.isfinite(p) for p in mixed.psi):
        raise NumericFault(
            f"non-finite mixed regression at t = {mixed.time}: "
            f"delta = {delta}, psi = {mixed.psi}")
    advance_gradient(state, delta, mixed.psi, dt)
    state.time = mixed.time
    return state


def advance_gradient(state: EstimatorState, delta: float, psi, dt: float) -> None:
    """Apply one warm sample interval of the gradient law to state in place.

    The held-input update of every theta_hat_i, the excitation integral and
    max_decay_step; the caller has checked delta and psi for finiteness and
    owns state.time. Shared by step_gradient and the whole-trace engine.
    """
    d2 = delta * delta
    d2dt = d2 * dt
    theta = state.theta_hat
    for i, g in enumerate(state.gamma):
        lam = g * d2dt
        if lam > state.max_decay_step:
            state.max_decay_step = lam
        if lam < 1e-12:
            theta[i] += g * dt * delta * (psi[i] - delta * theta[i])
        else:
            growth = -math.expm1(-lam) / lam
            theta[i] = theta[i] * math.exp(-lam) + g * dt * delta * psi[i] * growth
    state.excitation += d2dt


def finite_time_estimate(state: EstimatorState,
                         cfg: EstimatorSettings) -> tuple[float, ...] | None:
    """Algebraic re-estimate of theta once the extraction time has passed.

    Returns None while any 1 - W_i is still below w_floor (not yet excited
    enough to divide safely); the caller retries on later samples. The
    first successful extraction is cached and returned unchanged afterward.
    """
    if state.theta_ft is not None:
        return state.theta_ft
    if state.epoch_elapsed() < cfg.t_ft:
        raise ValueError(
            f"finite-time extraction requested at epoch time "
            f"{state.epoch_elapsed():.6g} before t_ft = {cfg.t_ft}")
    w = state.W
    if any(1.0 - wi < cfg.w_floor for wi in w):
        return None
    state.theta_ft = tuple(
        (state.theta_hat[i] - state.theta0[i] * w[i]) / (1.0 - w[i])
        for i in range(state.n))
    state.extraction_time = state.time
    return state.theta_ft


def reset_estimator(state: EstimatorState) -> EstimatorState:
    """Start a new estimation epoch at the current time.

    The gradient estimate carries over as the new epoch's initial condition;
    the excitation integral and the cached finite-time output are cleared so
    re-estimation reflects only post-reset data.
    """
    state.theta0 = tuple(state.theta_hat)
    state.excitation = 0.0
    state.theta_ft = None
    state.extraction_time = None
    state.epoch_start = state.time
    return state
