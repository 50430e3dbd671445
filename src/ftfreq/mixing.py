"""Regressor extension and mixing: n scalar regressions from one vector one.

The n-th order regression psi = phi . theta is stacked with its own i-fold
d-second delays (i = 1..n: regression_at at the lags of DelayTable.rows)
into a square system, then multiplied by the adjugate of the stacked
regressor matrix. Because adj(M) M = det(M) I, the result decouples into n
independent scalar regressions

    mixed_psi_i(t) = delta(t) * theta_i,      delta = det(eps * Phi),

one per unknown, which is what lets each parameter be estimated on its own.
The gain eps rescales the whole stacked system before mixing; with an n x n
stack this multiplies delta and every mixed_psi_i by eps^n.

One routine, `adjugate`, returns adj(M) and det(M) together for every n:
exact closed forms for n <= 2 and, above that, G. W. Stewart's singular
value form ("On the adjugate matrix", Lin. Alg. Appl. 1998), which costs
O(n^3) and stays valid for singular M, including the all-zero stack of a
zero signal. _closed_form and _scaled_product also take equal-length
arrays (one system per element): the whole-trace engine mixes with them too.

`mix` returns the plain pair (delta, mixed psi), all the gradient stage
needs, and is the one stage that rejects a non-finite stack or mixed output
(NumericFault), in both drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import mul

import numpy as np

from .errors import ConfigError, NumericFault
from .regression import MAX_HARMONICS


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
    if n <= 2:
        return _closed_form(rows)
    u, s, vt = np.linalg.svd(rows)
    s = s.tolist()
    sign = math.copysign(1.0, np.linalg.det(u @ vt))  # U V^T is orthogonal: +-1
    others = [sign * math.prod(s[:i]) * math.prod(s[i + 1:]) for i in range(n)]
    if math.isfinite(sum(others)):  # bounds every entry and partial sum of adj
        adj = (vt.T * others) @ u.T
    else:  # an overflowed cofactor: inf * 0 is NaN, which mix rejects
        with np.errstate(invalid="ignore", over="ignore"):
            adj = (vt.T * others) @ u.T
    return adj.tolist(), sign * math.prod(s)


def mix(time: float, psi_rows, phi_rows,
        epsilon: float) -> tuple[float, tuple[float, ...]]:
    """Mix the stacked system at one instant into (delta, mixed psi).

    Row i of psi_rows and phi_rows is the regression delayed by the i-th
    stacked lag. With the whole stack scaled by epsilon first,
    delta = eps^n det(Phi) and mixed psi = eps^n adj(Phi) psi_rows
    (adj(eps M) = eps^(n-1) adj(M)); on clean data psi[i] = delta * theta_i.
    Non-finite values are a fault of the data (NumericFault): a stack that
    overflowed to a non-finite entry, where adjugate itself rejects it as
    bad input, and a non-finite delta or mixed psi, so both are finite when
    returned. The eps^n scale is applied after adj(Phi) psi_rows is summed,
    so a small epsilon cannot keep an overflowing product finite.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    try:
        adj, det = adjugate(phi_rows)
    except ConfigError:
        if all(map(math.isfinite, chain.from_iterable(phi_rows))):
            raise
        raise NumericFault(f"non-finite stacked regressor at t = {time}") from None
    delta, psi = _scaled_product(adj, det, psi_rows, epsilon)
    if not (math.isfinite(delta) and all(map(math.isfinite, psi))):
        raise NumericFault(
            f"non-finite mixed regression at t = {time}: delta = {delta}, psi = {psi}")
    return delta, psi


def _closed_form(rows):
    """(adj(M), det(M)) of a 1 x 1 or 2 x 2 matrix given as rows."""
    if len(rows) == 1:
        return [[1.0]], rows[0][0]
    (a, b), (c, d) = rows
    return [[d, -b], [-c, a]], a * d - b * c


def _scaled_product(adj, det, psi_rows, epsilon):
    """(eps^n det, eps^n adj psi_rows): delta and the mixed psi, each row's
    sum taken left to right."""
    scale = epsilon ** len(adj)
    return scale * det, tuple(scale * sum(map(mul, row, psi_rows)) for row in adj)
