"""Per-parameter gradient estimation with finite-time re-estimation.

Each mixed scalar regression psi_i = delta * theta_i, from the finite pairs
(delta, psi) that mix_rows returns, drives the gradient law

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
extraction time. The law has one written form, gradient_rows, by columns
over a run of warm rows: Pipeline's block routine calls it on the rows it
mixed, and step_gradient is its one-row call. Past lam = 746, exp(-lam)
underflows to 0.0, so a run of such rows moves theta_hat to each row's
drive gamma*dt*delta*psi / lam (theta * 0.0 + b is b for a finite theta
and a finite non-zero b): gradient_rows takes those values without the
libm maps or the per-row loop where that holds, the law's bits either way.

Extraction is one step: finite_time_estimate computes theta_ft and, under
the imaginary-part tolerance, the frequencies omega_ft of its polynomial
roots, and returns both. It records nothing: the state is the gradient's
alone, and the driver writes each extraction to its epoch's record
(pipeline.Epoch). The inversion has one written form, finite_time_theta:
Pipeline's block routine calls it for both entries and recovers theta_ft
with the block's rows; finite_time_estimate, its one-row call with the
recovery, extracts on its own only a fired row whose theta_ft is not
finite or whose roots miss their residual target.

EstimatorSettings is the stage's one tuning type: the gains, the initial
frequency guesses, the extraction time, the extraction floor and the root
tolerance, validated once when made. The estimator.* config keys are its
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .recovery import DEFAULT_IMAG_TOL, FrequencyEstimate, recover_frequencies
from .regression import ModelConfig, true_theta


@dataclass(frozen=True)
class EstimatorSettings:
    """Gradient gains, initial frequency guesses, extraction time and tolerance.

    Args:
        gamma: per-parameter positive tuning gains.
        omega0: initial frequency guesses, positive and distinct; the
            estimator starts from theta_hat(0) = true_theta(omega0, h).
        t_ft: extraction time, measured from the first sample of the
            current estimation epoch (a reset starts a new epoch) and
            rounded up to whole sample periods Ts, within
            ftfreq.signals.GRID_TOL: extraction comes due
            ceil(t_ft / Ts - GRID_TOL) samples after that first one.
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
    frequency guesses under the model delay. Tracks the gradient estimates
    and the shared excitation integral S = integral of delta^2 over the
    current epoch (W_i = exp(-gamma_i S)); max_decay_step records the
    largest per-sample gamma_i * delta^2 * dt seen, as a stiffness
    diagnostic. The state keeps no clock and no extraction: the driver,
    Pipeline, counts the epoch's samples, says when extraction is due and
    records its result in the epoch's Epoch.
    """

    __slots__ = ("settings", "model", "theta_hat", "theta0", "excitation", "max_decay_step")

    def __init__(self, settings: EstimatorSettings, model: ModelConfig):
        bad = length_violations(settings, model)
        if bad:
            raise ConfigError(bad)
        self.settings = settings
        self.model = model
        self.theta0 = true_theta(settings.omega0, model.h)
        self.theta_hat = list(self.theta0)
        self.excitation = 0.0
        self.max_decay_step = 0.0

    @property
    def W(self) -> tuple[float, ...]:
        return tuple(math.exp(-g * self.excitation) for g in self.settings.gamma)


def gradient_rows(state: EstimatorState, delta: np.ndarray, psi: np.ndarray,
                  dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta_hat (K, n), the excitation integral (K,) and max_decay_step
    (K,) after each of K warm rows of mixed pairs delta (K,), psi (K, n),
    starting from state, which is left as it was.

    Each theta_hat_i moves by theta*exp(-lam) + ((gamma*dt*delta)*psi)*g(lam),
    or below lam 1e-12 by the Euler form, with math.exp and math.expm1,
    never numpy's, so every K rounds alike. lam, its decay, its growth g and
    its Euler rows depend on the gain alone, so they are computed once per
    distinct gain value and shared by every parameter with that gain (DREM's
    gains are usually equal); distinct gains are groups of one. A row past
    the underflow point (lam > _UNDERFLOW, where exp(-lam) is 0.0 and
    expm1(-lam) is -1.0) decays by 0.0 and grows by 1.0 / lam, with no libm
    call unless it lies between two rows that are not past it (_decay), and
    a run of such rows takes its drives as they are where theta * 0.0 + b
    is b (_advance): the same bits as the loop. High-gain tunings put most
    rows there. A non-finite delta or psi turns theta_hat non-finite, which
    the frequency recovery rejects.
    """
    gains = state.settings.gamma
    with np.errstate(all="ignore"):  # lam = 0 rows divide 0 by 0 for a growth they never use
        d2dt = delta * delta * dt
        excitation = np.add.accumulate(np.concatenate(([state.excitation], d2dt)))[1:]
        lams = {g: g * d2dt for g in dict.fromkeys(gains)}  # one column per distinct gain
        # d2dt is >= 0 or NaN and g * d2dt is monotone in g: the largest gain's lam is the max
        largest = lams[max(gains)]
        max_steps = np.fmax.accumulate(np.concatenate(([state.max_decay_step], largest)))[1:]
        decays = {g: _decay(lam) for g, lam in lams.items()}
        columns = [_advance(theta, g * dt, *decays[g], delta, psi[:, i])
                   for i, (theta, g) in enumerate(zip(state.theta_hat, gains))]
    return np.array(columns).T, excitation, max_steps


# Past this lam, math.exp(-lam) is 0.0 and math.expm1(-lam) is -1.0 exactly:
# exp(-746) is about a fifth of the least subnormal, which libm rounds to zero
# (as every smaller value), and expm1 reaches -1.0 from lam 37.5 on. So such a
# row's decay is 0.0 and its growth -expm1(-lam) / lam is 1.0 / lam.
_UNDERFLOW = 746.0


def _decay(lam: np.ndarray) -> tuple[list[float], np.ndarray, list[tuple[int, int, bool]]]:
    """One gain's shared columns: exp(-lam) as floats, the growth
    g(lam) = -expm1(-lam) / lam, and the rows the general law skips, in
    order: each row below lam 1e-12 as (row, row + 1, True), each run of
    rows past _UNDERFLOW as (start, stop, False), and (K, K, False) last.
    libm maps the rows from the first to the last that is not past the
    underflow (the runs among them come out 0.0 and -1.0 from it too); the
    runs before and after them take decay 0.0 and growth 1.0 / lam."""
    count = len(lam)
    under = (lam > _UNDERFLOW).nonzero()[0].tolist()  # a NaN lam is not
    if len(under) == count:
        return [0.0] * count, 1.0 / lam, [(0, count, False), (count, count, False)]
    skipped = [(s, s + 1, True) for s in (lam < 1e-12).nonzero()[0].tolist()]
    lo, hi = 0, count
    if under:
        runs = []
        start = stop = under[0]
        for k in under:
            if k != stop:
                runs.append((start, stop, False))
                start = k
            stop = k + 1
        runs.append((start, stop, False))
        skipped = sorted(skipped + runs)
        lo = runs[0][1] if runs[0][0] == 0 else 0
        hi = runs[-1][0] if runs[-1][1] == count else count
    exponents = (-lam[lo:hi]).tolist()
    growth = -np.fromiter(map(math.expm1, exponents), float, hi - lo) / lam[lo:hi]
    if hi - lo < count:
        growth = np.concatenate((1.0 / lam[:lo], growth, 1.0 / lam[hi:]))
    decay = [0.0] * lo + list(map(math.exp, exponents)) + [0.0] * (count - hi)
    return decay, growth, [*skipped, (count, count, False)]


def _advance(theta: float, gdt: float, decay: list[float], growth: np.ndarray,
             skipped: list[tuple[int, int, bool]], delta: np.ndarray,
             psi: np.ndarray) -> list[float] | np.ndarray:
    """One theta_hat_i after each row, as gradient_rows moves it, given its
    gain's decay, growth and skipped rows. An underflowed row moves theta
    to theta * 0.0 + b, which is its drive b itself for a finite theta and
    a finite non-zero b: so a run of them entered with a finite theta whose
    drives are all finite and non-zero takes those drives, with no loop,
    and a column that is one such run from row 0 is the drive array itself;
    another run takes the general law."""
    drives = gdt * delta * psi * growth
    drive = drives.tolist()
    out = []
    append = out.append
    lo = 0
    for start, stop, euler in skipped:
        for a, b in zip(decay[lo:start], drive[lo:start]):
            theta = theta * a + b
            append(theta)
        lo = start
        if euler:
            d = float(delta[start])
            theta += gdt * d * (float(psi[start]) - d * theta)
            append(theta)
            lo = stop
        elif start < stop and math.isfinite(theta):
            run = drive[start:stop]
            # a sum that is finite has no infinite or NaN term
            if 0.0 not in run and math.isfinite(sum(run)):
                if stop - start == len(drive):
                    return drives
                out += run
                theta, lo = run[-1], stop
    return out


def step_gradient(state: EstimatorState, delta: float, psi, dt: float) -> None:
    """Apply one warm sample interval of the gradient law to state in place:
    gradient_rows' one-row call, moving theta_hat, the excitation integral
    and max_decay_step."""
    theta, excitation, max_steps = gradient_rows(
        state, np.array([delta], dtype=float), np.array([psi], dtype=float), dt)
    state.theta_hat[:] = theta[0].tolist()
    state.excitation, state.max_decay_step = float(excitation[0]), float(max_steps[0])


def finite_time_estimate(
        state: EstimatorState) -> tuple[tuple[float, ...], FrequencyEstimate] | None:
    """Algebraic re-estimate of theta from state, and its frequencies.

    The caller decides when extraction is due (t_ft after its epoch start).
    Returns None while any 1 - W_i is still below settings.w_floor (not yet
    excited enough to divide safely); the caller retries on later samples.
    Otherwise returns (theta_ft, the FrequencyEstimate of omega_ft), its
    roots recovered under settings.imag_tol and the model band, whose fault
    propagates. Either way state is left as it was.
    """
    if (theta_ft := finite_time_theta(state, state.theta_hat, state.excitation)) is None:
        return None
    model = state.model
    return theta_ft, recover_frequencies(theta_ft, model.h, model.band, state.settings.imag_tol)


def finite_time_theta(state: EstimatorState, theta_hat, excitation: float):
    """theta_ft of the gradient estimate theta_hat after the excitation
    integral excitation of state's epoch: (theta_hat_i - theta0_i W_i) /
    (1 - W_i) with W_i = exp(-gamma_i excitation), by math.exp and Python
    floats, or None while any 1 - W_i is below settings.w_floor. The one
    form of the inversion: finite_time_estimate and the block routine
    (pipeline.Pipeline._rows) both call it, so their bits agree."""
    w = [math.exp(-g * excitation) for g in state.settings.gamma]
    if any(1.0 - wi < state.settings.w_floor for wi in w):
        return None
    return tuple((t - t0 * wi) / (1.0 - wi) for t, t0, wi in zip(theta_hat, state.theta0, w))


def reset_estimator(state: EstimatorState) -> EstimatorState:
    """Start a new estimation epoch.

    The gradient estimate carries over as the new epoch's initial condition
    and the excitation integral is cleared, so re-estimation reflects only
    post-reset data. The driver restarts its epoch's sample count and its
    record.
    """
    state.theta0 = tuple(state.theta_hat)
    state.excitation = 0.0
    return state
