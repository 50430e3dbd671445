"""Regressor extension and mixing: n scalar regressions from one vector one.

The n-th order regression psi = phi . theta is stacked with its own i-fold
d-second delays (i = 1..n) into a square system, then multiplied by the
adjugate of the stacked regressor matrix. Because adj(M) M = det(M) I, the
result decouples into n independent scalar regressions

    mixed_psi_i(t) = delta(t) * theta_i,      delta = det(eps * Phi),

one per unknown, which is what lets each parameter be estimated on its own.
The gain eps rescales the whole stacked system before mixing; with an n x n
stack this multiplies delta and every mixed_psi_i by eps^n.

One routine, `adjugate`, returns adj(M) and det(M) together for every n:
exact closed forms for n <= 2 and, above that, G. W. Stewart's singular
value form ("On the adjugate matrix", Lin. Alg. Appl. 1998), which costs
O(n^3) and stays valid for singular M, including the all-zero stack seen
during warm-up.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import mul

import numpy as np

from .errors import ConfigError, NumericFault
from .regression import MAX_HARMONICS, DelayTable, RegressionSample


@dataclass(frozen=True)
class DremConfig:
    """Mixing stage tuning: extension delay d and normalization gain."""

    d: float
    epsilon: float

    def __post_init__(self):
        bad = []
        if not (math.isfinite(self.d) and self.d > 0):
            bad.append(f"drem.d must be positive, got {self.d}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            bad.append(f"drem.epsilon must be positive, got {self.epsilon}")
        if bad:
            raise ConfigError(bad)


@dataclass(frozen=True)
class ExtendedRegression:
    """Stacked system at one instant: row i holds the regression delayed i*d.

    complete is True once the deepest delayed sample (i = n) is itself valid,
    i.e. t >= 2*n*h + n*d.
    """

    time: float
    psi_delayed: tuple[float, ...]
    phi_rows: tuple[tuple[float, ...], ...]
    complete: bool


@dataclass(frozen=True)
class MixedSample:
    """Decoupled scalar regressions: psi[i] = delta * theta_i on clean data."""

    time: float
    delta: float
    psi: tuple[float, ...]
    warm: bool


class RegressorExtender:
    """Streams RegressionSamples in, ExtendedRegressions out.

    Keeps one zero-filled history of the last n * steps_d + 1 (psi, phi)
    pairs; row i of the stacked system is the pair pushed taps.rows[i - 1]
    pushes ago. One instance per estimation session; not safe to share
    across threads.
    """

    def __init__(self, taps: DelayTable):
        self.n = len(taps.rows)
        self._lags = taps.rows
        self._depth = taps.rows[-1]
        self.clear()

    def push(self, sample: RegressionSample) -> ExtendedRegression:
        if len(sample.phi) != self.n:
            raise ConfigError(
                f"regression sample has {len(sample.phi)} components, extender expects {self.n}")
        history = self._history
        history.appendleft((sample.psi, sample.phi))
        if sample.valid and self._first_valid is None:
            self._first_valid = self._pushed
        current = self._pushed
        self._pushed += 1

        psi_delayed, phi_rows = zip(*(history[lag] for lag in self._lags))
        complete = (self._first_valid is not None
                    and current - self._depth >= self._first_valid)
        return ExtendedRegression(
            time=sample.time, psi_delayed=psi_delayed, phi_rows=phi_rows,
            complete=complete)

    def clear(self) -> None:
        zero = (0.0, (0.0,) * self.n)
        self._history = deque([zero] * (self._depth + 1), maxlen=self._depth + 1)
        self._pushed = 0
        self._first_valid = None


def adjugate(matrix) -> tuple[list[list[float]], float]:
    """(adj(M), det(M)), with adj(M) M = det(M) I for singular M too.

    Closed forms for n <= 2. For n >= 3, with M = U diag(s) V^T,

        adj(M) = det(U V^T) V diag(prod_{j != i} s_j) U^T,
        det(M) = det(U V^T) prod_j s_j,

    so no singular value is ever divided by. Input that is not a finite
    square matrix of size 1..MAX_HARMONICS raises ConfigError before any
    factorisation.
    """
    try:
        rows = tuple(map(tuple, matrix))
    except TypeError:  # a flat vector or a scalar: no rows at all
        rows = ()
    n = len(rows)
    if not 1 <= n <= MAX_HARMONICS or any(len(row) != n for row in rows):
        raise ConfigError(f"matrix must be square with size 1..{MAX_HARMONICS}")
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ConfigError("matrix entries must be finite")
    if n == 1:
        return [[1.0]], rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return [[d, -b], [-c, a]], a * d - b * c
    u, s, vt = np.linalg.svd(rows)
    s = s.tolist()
    sign = math.copysign(1.0, np.linalg.det(u @ vt))  # U V^T is orthogonal: +-1
    others = [sign * math.prod(s[:i]) * math.prod(s[i + 1:]) for i in range(n)]
    return ((vt.T * others) @ u.T).tolist(), sign * math.prod(s)


def mix(ext: ExtendedRegression, epsilon: float) -> MixedSample:
    """Mix the stacked system into scalar regressions via the adjugate.

    With the whole stack scaled by epsilon first, delta = eps^n det(Phi) and
    mixed psi = eps^n adj(Phi) psi_delayed (adj(eps M) = eps^(n-1) adj(M)).
    A stack that overflowed to a non-finite entry is a fault of the data
    (NumericFault), where adjugate itself rejects it as bad input.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    try:
        adj, det = adjugate(ext.phi_rows)
    except ConfigError:
        if all(map(math.isfinite, chain.from_iterable(ext.phi_rows))):
            raise
        raise NumericFault(f"non-finite stacked regressor at t = {ext.time}") from None
    scale = epsilon ** len(adj)
    psi = tuple(scale * sum(map(mul, row, ext.psi_delayed)) for row in adj)
    return MixedSample(time=ext.time, delta=scale * det, psi=psi, warm=ext.complete)
