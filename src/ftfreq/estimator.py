"""Per-parameter gradient estimation with finite-time re-estimation.

Each mixed scalar regression psi_i = delta * theta_i, from the finite pair
(delta, psi) that mix returns, drives the gradient law

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
extraction time. step_gradient applies this law one warm sample at a time,
as Pipeline calls it; the whole-trace engine holds a second written form of
it (engine._gradient, by columns, the same operations in the same order),
and only the engine-Pipeline parity tests pin the two together.

Extraction is one step: finite_time_estimate computes theta_ft and, under
the imaginary-part tolerance, the frequencies omega_ft of its polynomial
roots, and records both only when both succeed.

EstimatorSettings is the stage's one tuning type: the gains, the initial
frequency guesses, the extraction time, the extraction floor and the root
tolerance, validated once when made. The estimator.* config keys are its
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .recovery import DEFAULT_IMAG_TOL, recover_frequencies
from .regression import ModelConfig, true_theta


@dataclass(frozen=True)
class EstimatorSettings:
    """Gradient gains, initial frequency guesses, extraction time and tolerance.

    Args:
        gamma: per-parameter positive tuning gains.
        omega0: initial frequency guesses, positive and distinct; the
            estimator starts from theta_hat(0) = true_theta(omega0, h).
        t_ft: extraction time, measured from the start of the current
            estimation epoch (a reset starts a new epoch).
        w_floor: minimum 1 - W_i required before extraction; below it the
            division would amplify integration noise, so extraction defers.
        imag_tol: largest root imaginary part, relative to 1 + |real part|,
            that recovering omega_ft from theta_ft treats as rounding.
    """

    gamma: tuple[float, ...]
    omega0: tuple[float, ...]
    t_ft: float
    w_floor: float = 1e-6
    imag_tol: float = DEFAULT_IMAG_TOL

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
        if not (math.isfinite(self.imag_tol) and self.imag_tol > 0):
            bad.append(f"estimator.imag_tol must be positive, got {self.imag_tol}")
        if bad:
            raise ConfigError(bad)


def length_violations(settings: EstimatorSettings, model: ModelConfig) -> list[str]:
    """The complaint, if any, that settings do not have model.n entries."""
    if len(settings.gamma) != model.n:
        return [f"estimator.gamma has {len(settings.gamma)} entries, model.n = {model.n}"]
    return []


class EstimatorState:
    """Mutable per-session estimator state.

    Keeps the settings and the model it was built from; settings of another
    length than model.n raise ConfigError. Starts from
    theta0 = true_theta(omega0, model.h), the parameters of the initial
    frequency guesses under the model delay. Tracks the gradient estimates,
    the shared excitation integral S = integral of delta^2 over the current
    epoch (W_i = exp(-gamma_i S)), and the finite-time output theta_ft,
    omega_ft once extracted. max_decay_step records the largest per-sample
    gamma_i * delta^2 * dt seen, as a stiffness diagnostic. The state keeps
    no clock: the driver (Pipeline or the whole-trace engine) times the
    epoch and says when extraction is due.
    """

    __slots__ = ("settings", "model", "theta_hat", "theta0", "excitation", "theta_ft",
                 "omega_ft", "extraction_time", "max_decay_step")

    def __init__(self, settings: EstimatorSettings, model: ModelConfig):
        bad = length_violations(settings, model)
        if bad:
            raise ConfigError(bad)
        self.settings = settings
        self.model = model
        self.theta0 = true_theta(settings.omega0, model.h)
        self.theta_hat = list(self.theta0)
        self.excitation = 0.0
        self.theta_ft: tuple[float, ...] | None = None
        self.omega_ft: tuple[float, ...] | None = None
        self.extraction_time: float | None = None
        self.max_decay_step = 0.0

    @property
    def n(self) -> int:
        return len(self.theta0)

    @property
    def W(self) -> tuple[float, ...]:
        return tuple(math.exp(-g * self.excitation) for g in self.settings.gamma)


def step_gradient(state: EstimatorState, delta: float, psi, dt: float) -> None:
    """Apply one warm sample interval of the gradient law to state in place.

    The held-input update of every theta_hat_i, the excitation integral and
    max_decay_step. delta and psi must be finite, as mix returns them: a
    non-finite one is not checked here and turns theta_hat non-finite, which
    the frequency recovery then rejects. The drivers call it on warm samples
    only.
    """
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


def finite_time_estimate(state: EstimatorState, t: float) -> tuple[float, ...] | None:
    """Algebraic re-estimate of theta at time t, and its frequencies.

    The caller decides when extraction is due (t_ft after its epoch start).
    Returns None while any 1 - W_i is still below settings.w_floor (not yet
    excited enough to divide safely); the caller retries on later samples.
    Otherwise computes theta_ft, recovers omega_ft from its roots under
    settings.imag_tol and the model band, and only then records theta_ft,
    omega_ft and extraction_time = t: a recovery fault leaves the state as
    it was, so calling again raises the same fault. The first successful
    extraction is cached and returned unchanged afterward.
    """
    if state.theta_ft is not None:
        return state.theta_ft
    settings, model = state.settings, state.model
    w = state.W
    if any(1.0 - wi < settings.w_floor for wi in w):
        return None
    theta_ft = tuple(
        (state.theta_hat[i] - state.theta0[i] * w[i]) / (1.0 - w[i])
        for i in range(state.n))
    omega_ft = recover_frequencies(theta_ft, model.h, model.band, settings.imag_tol).omega_hat
    state.theta_ft, state.omega_ft, state.extraction_time = theta_ft, omega_ft, t
    return theta_ft


def reset_estimator(state: EstimatorState) -> EstimatorState:
    """Start a new estimation epoch.

    The gradient estimate carries over as the new epoch's initial condition;
    the excitation integral and the cached finite-time outputs are cleared so
    re-estimation reflects only post-reset data. The driver restarts its
    epoch clock.
    """
    state.theta0 = tuple(state.theta_hat)
    state.excitation = 0.0
    state.theta_ft = None
    state.omega_ft = None
    state.extraction_time = None
    return state
