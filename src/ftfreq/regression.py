"""Linear regression parameterization of an n-harmonic signal via delays.

Writing Z for the h-second delay operator, every sinusoid with frequency w
satisfies [Z^2 + 1 - 2*cos(w*h)*Z] y = 0; cascading this annihilator over
all n harmonics and expanding the operator product gives a regression

    psi(t) = phi(t) . theta

with measurable regressand and regressor built purely from delayed samples:

    psi(t)   = [Z^2 + 1]^n y(t)            (binomial-weighted taps),
    phi_k(t) = 2^k Z^k [Z^2 + 1]^(n-k) y(t),  k = 1..n,
    theta_k  = (-1)^(k+1) e_k(c_1..c_n),     c_i = cos(w_i * h),

where e_k is the k-th elementary symmetric polynomial. theta therefore
packs the n unknown cosines as the coefficients of the monic polynomial
whose roots they are, which is what the recovery stage later inverts.

Sign convention: with psi taken as the plain (un-negated) binomial sum,
the alternating (-1)^(k+1) signs on e_k are what make psi = phi . theta
hold identically; the regression-consistency tests pin this down.

Every term is a pure delay of y, so regression_at evaluates the pair as
fixed weighted sums over one window of past samples, at any lag: the
stacked rows of the mixing stage are the same sums taken i*d further back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigError
from .signals import GRID_TOL

MAX_HARMONICS = 8  # largest model order: also adjugate's matrix size and recover_frequencies' degree limit

H_RULE_QUARTER = "quarter-period"
H_RULE_HALF = "half-period"

# Beyond this product the recovered cosines sit near the arccos branch ends
# and the frequency map is ill-conditioned.
CONDITIONING_LIMIT = 1.4


@lru_cache(maxsize=None)
def psi_taps(n: int) -> tuple[tuple[float, int], ...]:
    """(weight, lag-in-units-of-h) pairs for the regressand sum."""
    return tuple((float(math.comb(n, i)), 2 * (n - i)) for i in range(n + 1))


@lru_cache(maxsize=None)
def phi_taps(n: int) -> tuple[tuple[tuple[float, int], ...], ...]:
    """Per-component (weight, lag-in-units-of-h) pairs for the regressor.

    Component k (1-based) expands 2^k Z^k [Z^2+1]^(n-k): lags run over
    h * (2*(n-k-i) + k) for i = 0..n-k, so all taps of phi_k live in
    [k*h, (2n-k)*h]; the last component is the single tap 2^n y(t - n*h).
    """
    rows = []
    for k in range(1, n + 1):
        scale = float(2 ** k)
        rows.append(tuple(
            (scale * math.comb(n - k, i), 2 * (n - k - i) + k)
            for i in range(n - k + 1)
        ))
    return tuple(rows)


@dataclass(frozen=True)
class ModelConfig:
    """Structure of the regression model and the known frequency band.

    Args:
        n: number of harmonics the model accounts for.
        h: parameterization delay in seconds.
        omega_min, omega_max: known band containing every signal frequency.
        h_rule: "quarter-period" enforces h < pi / (2 * omega_max) so all
            cosines stay positive; "half-period" relaxes to the arccos
            invertibility limit h < pi / omega_max (validation records a
            warning since recovery conditioning degrades).
    """

    n: int
    h: float
    omega_min: float
    omega_max: float
    h_rule: str = H_RULE_QUARTER

    def __post_init__(self):
        bad = []
        if not (isinstance(self.n, int) and 1 <= self.n <= MAX_HARMONICS):
            bad.append(f"model.n must be an integer in 1..{MAX_HARMONICS}, got {self.n}")
        if not (math.isfinite(self.h) and self.h > 0):
            bad.append(f"model.h must be positive, got {self.h}")
        if not (math.isfinite(self.omega_min) and math.isfinite(self.omega_max)
                and 0 < self.omega_min < self.omega_max):
            bad.append(
                "model band must satisfy 0 < omega_min < omega_max, got "
                f"({self.omega_min}, {self.omega_max})")
        if self.h_rule not in (H_RULE_QUARTER, H_RULE_HALF):
            bad.append(f"model.h_rule must be {H_RULE_QUARTER!r} or {H_RULE_HALF!r}, got {self.h_rule!r}")
        if bad:
            raise ConfigError(bad)

    @property
    def band(self) -> tuple[float, float]:
        """(omega_min, omega_max): also the projection range of recovered estimates."""
        return (self.omega_min, self.omega_max)

    def h_bound(self) -> float:
        """Upper bound on h implied by the band and the active rule."""
        if self.h_rule == H_RULE_QUARTER:
            return math.pi / (2.0 * self.omega_max)
        return math.pi / self.omega_max

    def check_h_bound(self) -> list[str]:
        """Violation messages for the delay bound (empty when satisfied)."""
        bound = self.h_bound()
        if self.h >= bound:
            rule = "pi/(2*omega_max)" if self.h_rule == H_RULE_QUARTER else "pi/omega_max"
            return [f"model.h = {self.h} violates h < {rule} = {bound:.6g} "
                    f"(omega_max = {self.omega_max}, rule = {self.h_rule})"]
        return []

    def warnings(self) -> list[str]:
        notes = []
        if self.omega_max * self.h > CONDITIONING_LIMIT:
            notes.append(
                f"omega_max * h = {self.omega_max * self.h:.4g} > {CONDITIONING_LIMIT}: "
                "recovered cosines approach the arccos branch ends; "
                "frequency recovery is ill-conditioned")
        if self.h_rule == H_RULE_HALF:
            notes.append("model.h_rule = half-period: quarter-period delay margin waived")
        return notes


def steps_per_delay(delay: float, sample_period: float, label: str) -> int:
    """Delay expressed in whole samples; rejects off-grid delays."""
    steps = round(delay / sample_period) if sample_period > 0 else 0
    if steps < 1 or abs(steps * sample_period - delay) > GRID_TOL * sample_period:
        raise ConfigError(
            f"{label} = {delay} is not a positive integer multiple of "
            f"sample_period = {sample_period}")
    return steps


@dataclass(frozen=True)
class DelayTable:
    """One session's delays in whole samples, derived once from its config.

    psi and phi hold the (weight, lag) taps of the regressand and of each
    regressor component (psi_taps and phi_taps with lags scaled by steps_h);
    rows holds the lags i * steps_d, i = 1..n, of the stacked system;
    valid_from = 2 n steps_h is the number of samples after a clear before
    every tap reads real history. Pipeline reads these through
    mixing.mix_rows, which calls regression_at on lagged sample columns.
    """

    psi: tuple[tuple[float, int], ...]
    phi: tuple[tuple[tuple[float, int], ...], ...]
    rows: tuple[int, ...]
    valid_from: int

    @property
    def warm_from(self) -> int:
        """Samples after a clear before the deepest stacked row is valid."""
        return self.valid_from + self.rows[-1]


def delay_table(model: ModelConfig, d: float, sample_period: float) -> DelayTable:
    """The session's taps and stacked-row lags; rejects off-grid h or d."""
    steps_h = steps_per_delay(model.h, sample_period, "model.h")
    steps_d = steps_per_delay(d, sample_period, "drem.d")
    n = model.n
    return DelayTable(
        psi=tuple((w, lag * steps_h) for w, lag in psi_taps(n)),
        phi=tuple(tuple((w, lag * steps_h) for w, lag in row) for row in phi_taps(n)),
        rows=tuple(i * steps_d for i in range(1, n + 1)),
        valid_from=2 * n * steps_h)


def regression_at(window, taps: DelayTable, lag: int = 0) -> tuple[float, tuple[float, ...]]:
    """(psi, phi) of the sample lag samples back in window.

    window[k] is the measurement k samples ago, zero before the first (after
    a clear) and at least lag + valid_from + 1 long. Each sum adds its taps
    in table order. mixing.mix_rows passes a window whose entries are arrays
    (its samples k back), and gets arrays back. A
    negative lag raises ValueError; a window too short for the lag raises
    IndexError.
    """
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    psi = 0.0
    for weight, tap in taps.psi:
        psi += weight * window[tap + lag]
    phi = []
    for row in taps.phi:
        acc = 0.0
        for weight, tap in row:
            acc += weight * window[tap + lag]
        phi.append(acc)
    return psi, tuple(phi)


def elementary_symmetric(values) -> list[float]:
    """e_0..e_n of the given values via the stable partial-product recurrence."""
    values = list(values)
    e = [0.0] * (len(values) + 1)
    e[0] = 1.0
    for x in values:
        for j in range(len(values), 0, -1):
            e[j] += x * e[j - 1]
    return e


def true_theta(frequencies, h: float) -> tuple[float, ...]:
    """Parameter vector produced by known frequencies; the downstream oracle.

    theta_k = (-1)^(k+1) e_k(cos(w_1 h) .. cos(w_n h)). Repeated frequencies
    are rejected: the regression is only identifiable for distinct ones.
    """
    freqs = list(frequencies)
    if not freqs:
        raise ValueError("at least one frequency required")
    if len(set(freqs)) != len(freqs):
        raise ValueError(f"frequencies must be distinct, got {freqs}")
    for w in freqs:
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"frequencies must be positive and finite, got {w}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h}")
    e = elementary_symmetric(math.cos(w * h) for w in freqs)
    return tuple(((-1) ** (k + 1)) * e[k] for k in range(1, len(freqs) + 1))
