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

Mixing has one written form, over K stacked systems at once: _adjugates
(adj(M) and det(M) together: elementwise cofactors for n <= 3, above that
G. W. Stewart's singular value form, "On the adjugate matrix", Lin. Alg.
Appl. 1998; both stay valid for singular M, including the all-zero stack
of a zero signal), _scaled_product (the eps^n scale and adj(M) psi_rows)
and _mixed_stacks (both, up to the first non-finite stack or output).
mix_rows stacks whole lagged columns for the driver; adjugate and mix are
the one-row calls, behind one shape check (_one_row_stack). mix_fault
builds the fault of a non-finite stack or output, which mix raises and the
driver raises at the row where mix_rows stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, NumericFault
from .regression import MAX_HARMONICS, DelayTable, regression_at


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

    Closed forms for n <= 3: the transposed cofactors, and det(M) expanded
    along the first row, polynomial identities that hold for singular M.
    For n >= 4, with M = U diag(s) V^T,

        adj(M) = det(U V^T) V diag(prod_{j != i} s_j) U^T,
        det(M) = det(U V^T) prod_j s_j,

    so no singular value is ever divided by. Either way an overflowed
    cofactor makes inf or NaN entries. Input that is not a finite square
    matrix of size 1..MAX_HARMONICS raises ConfigError before any
    factorisation.
    """
    stack = _one_row_stack(matrix)
    if not np.isfinite(stack).all():
        raise ConfigError("matrix entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        adj, det = _adjugates(stack)
    return adj[0].tolist(), float(det[0])


def mix(time: float, psi_rows, phi_rows,
        epsilon: float) -> tuple[float, tuple[float, ...]]:
    """Mix the stacked system at one instant into (delta, mixed psi).

    Row i of psi_rows and phi_rows is the regression delayed by the i-th
    stacked lag. With the whole stack scaled by epsilon first,
    delta = eps^n det(Phi) and mixed psi = eps^n adj(Phi) psi_rows
    (adj(eps M) = eps^(n-1) adj(M)); on clean data psi[i] = delta * theta_i.
    A phi_rows that is not a square matrix of size 1..MAX_HARMONICS, or a
    psi_rows without one entry per row of it, is bad input (ConfigError).
    A non-finite stack or delta or mixed psi is a fault of the data
    (mix_fault's NumericFault), so both are finite when returned. The eps^n
    scale is applied after adj(Phi) psi_rows is summed, so a small epsilon
    cannot keep an overflowing product finite.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    stack = _one_row_stack(phi_rows)
    psi = np.array(psi_rows, dtype=float)
    if psi.shape != stack.shape[1:2]:
        raise ConfigError(f"psi_rows must have {stack.shape[1]} entries, one per stacked row, "
                          f"got shape {psi.shape}")
    delta, psi, bad = _mixed_stacks(psi[None], stack, epsilon)
    if bad is not None:
        raise mix_fault(time, *bad)
    return float(delta[0]), tuple(psi[0].tolist())


def mix_fault(time: float, delta: float | None = None, psi=None) -> NumericFault:
    """The fault of a row mixed at time: a non-finite stacked regressor, or,
    given its delta and psi, a non-finite mixed regression."""
    if psi is None:
        return NumericFault(f"non-finite stacked regressor at t = {time}")
    return NumericFault(
        f"non-finite mixed regression at t = {time}: delta = {delta}, psi = {psi}")


def _one_row_stack(matrix) -> np.ndarray:
    """matrix as a stack of one (1, n, n) float array; ConfigError unless it
    is square with size 1..MAX_HARMONICS (a flat vector or a scalar has no
    rows at all)."""
    try:
        rows = tuple(map(tuple, matrix))
    except TypeError:
        rows = ()
    n = len(rows)
    if not 1 <= n <= MAX_HARMONICS or any(len(row) != n for row in rows):
        raise ConfigError(f"matrix must be square with size 1..{MAX_HARMONICS}")
    return np.array([rows], dtype=float)


def mix_rows(y: np.ndarray, taps: DelayTable, first: int, stop: int,
             epsilon: float) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Regression, stack and mix of rows first..stop-1 of the samples y, up to
    the first row whose stack or mixed output is non-finite.

    Row j is sample j; its stacked row i is the regression taps.rows[i]
    samples back, so the rows read y[first - taps.warm_from] up to
    y[stop - 1 - taps.rows[0]] and need first >= taps.warm_from and
    stop - taps.rows[0] <= len(y). Returns (delta, mixed, bad): delta (K,)
    and mixed psi (K, n) of the first K rows, as mix returns them, and bad,
    None or the fault of row first + K as _mixed_stacks gives it.
    """
    lo, hi = first - taps.rows[-1], stop - taps.rows[0]
    count = stop - first
    with np.errstate(all="ignore"):  # non-finite values are scanned for, not warned about
        # regression_at reads window[tap]: here samples lo..hi-1, tap samples back
        window = {tap: y[lo - tap:hi - tap] for _, tap in chain(taps.psi, *taps.phi)}
        psi, phi = regression_at(window, taps)
        phi = np.stack(phi, axis=1)
        # stacked row i of row j is the regression at j - taps.rows[i]
        shifts = [taps.rows[-1] - lag for lag in taps.rows]
        psi_rows = np.stack([psi[s:s + count] for s in shifts], axis=1)
        phi_rows = np.stack([phi[s:s + count] for s in shifts], axis=1)
    return _mixed_stacks(psi_rows, phi_rows, epsilon)


def _mixed_stacks(psi_rows: np.ndarray, phi_rows: np.ndarray,
                  epsilon: float) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """delta (K,) and mixed psi (K, n) of the K stacks before the first whose
    stack or output is non-finite, and bad: None if there is none, else the
    arguments after the time that mix_fault takes for it, () for a
    non-finite stack or (delta, psi) for a non-finite output."""
    with np.errstate(all="ignore"):  # non-finite values are scanned for, not warned about
        # the SVD (n >= 4) rejects a non-finite stack: mix the rows before the first
        finite = _first(~np.isfinite(phi_rows).all(axis=(1, 2)))
        delta, mixed = _scaled_product(*_adjugates(phi_rows[:finite]),
                                       psi_rows[:finite], epsilon)
        bad = _first(~(np.isfinite(delta) & np.isfinite(mixed).all(axis=1)))
    if bad < finite:
        return delta[:bad], mixed[:bad], (float(delta[bad]), tuple(mixed[bad].tolist()))
    return delta, mixed, None if finite == len(phi_rows) else ()


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask) if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _adjugates(phi_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """adj (K, n, n) and det (K,) of K stacked n x n matrices, as adjugate
    states them: elementwise cofactors over the K matrices for n <= 3, the
    stacked SVD for n >= 4."""
    count, n = phi_rows.shape[:2]
    if n == 1:
        return np.ones_like(phi_rows), phi_rows[:, 0, 0]
    if n == 2:
        (a, b), (c, d) = np.moveaxis(phi_rows, 0, -1)
        return np.moveaxis(np.array([[d, -b], [-c, a]]), -1, 0), a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(phi_rows, 0, -1)
        adj = np.array([[e * i - f * h, c * h - b * i, b * f - c * e],
                        [f * g - d * i, a * i - c * g, c * d - a * f],
                        [d * h - e * g, b * g - a * h, a * e - b * d]])
        return np.moveaxis(adj, -1, 0), a * adj[0, 0] + b * adj[1, 0] + c * adj[2, 0]
    u, s, vt = np.linalg.svd(phi_rows)
    sign = np.copysign(1.0, np.linalg.det(u @ vt))  # U V^T is orthogonal: +-1
    s, ones = s.T, np.ones(count)  # each product left to right from 1
    others = np.stack([sign * math.prod(s[:i], start=ones) * math.prod(s[i + 1:], start=ones)
                       for i in range(n)], axis=1)
    adj = (np.swapaxes(vt, 1, 2) * others[:, None, :]) @ np.swapaxes(u, 1, 2)
    return adj, sign * math.prod(s, start=ones)


def _scaled_product(adj: np.ndarray, det: np.ndarray, psi_rows: np.ndarray,
                    epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """delta = eps^n det (K,) and mixed psi = eps^n adj psi_rows (K, n),
    each mixed psi_i summed left to right over the stacked rows."""
    n = psi_rows.shape[1]
    mixed = sum(adj[:, :, j] * psi_rows[:, j, None] for j in range(n))
    scale = epsilon ** n
    return scale * det, scale * mixed
