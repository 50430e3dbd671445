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

Mixing has one written form, over K stacked systems at once, entry by
entry for n <= 3 and by stacks above: _cofactors (adj(M) and det(M)
together as the elementwise cofactors of entry arrays, which
_mixed_entries scales by eps^n and multiplies into psi_rows, up to the
first non-finite stack or output) and, for n >= 4, _adjugates (det(M)
inv(M) through one LU factorisation with partial pivoting, and, for the
rows LU cannot take, G. W. Stewart's singular value form, "On the
adjugate matrix", Lin. Alg. Appl. 1998, with its products of singular
values from _products, which stays valid for singular M, including the
all-zero stack of a zero signal) with _scaled_product (the eps^n scale
and adj(M) psi_rows). _mixed_stacks mixes whole stacks, taking their
entries at n <= 3.
mix_rows, the stage the driver calls, takes whole lagged regression
columns: at n <= 3 it mixes their slices as entries, with no stack, and
above it stacks them for _mixed_stacks; a K-row call equals its rows
mixed one by one. adjugate is the one-row call of _cofactors or
_adjugates, behind its own input check. mix_fault builds the fault of a
non-finite stack or output, which the driver raises at the row where
mix_rows stopped.
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
    For n >= 4, LU with partial pivoting, P M = L U: det(M) is the signed
    product of U's pivots and adj(M) = det(M) inv(M), with the backward
    error of LU with partial pivoting, which Higham bounds through its
    growth factor (Accuracy and Stability of Numerical Algorithms, ch. 9;
    ch. 14 for inv). Where that det is 0 (a zero pivot: inv(M) does not
    exist) or not finite, or det(M) inv(M) is not finite, the singular
    value form, with M = U diag(s) V^T,

        adj(M) = det(U V^T) V diag(prod_{j != i} s_j) U^T,
        det(M) = det(U V^T) prod_j s_j,

    takes the matrix, so no singular value is ever divided by. Either way
    an overflowed cofactor makes inf or NaN entries. Input that is not a
    finite square matrix of size 1..MAX_HARMONICS raises ConfigError before
    any factorisation.
    """
    square = f"matrix must be square with size 1..{MAX_HARMONICS}"
    try:
        stack = np.array([matrix], dtype=float)
    except (TypeError, ValueError) as exc:  # a text entry or ragged rows
        raise ConfigError(f"{square}: {exc}") from None
    if stack.ndim != 3 or not 1 <= stack.shape[1] == stack.shape[2] <= MAX_HARMONICS:
        raise ConfigError(square)  # a flat vector or a scalar has no rows at all
    if not np.isfinite(stack).all():
        raise ConfigError("matrix entries must be finite")
    with np.errstate(all="ignore"):
        if len(stack[0]) <= 3:
            adj, det = _cofactors(_entries(stack))
            return [[float(a[0]) for a in row] for row in adj], float(det[0])
        adj, det = _adjugates(stack)
    return adj[0].tolist(), float(det[0])


def mix_fault(time: float, delta: float | None = None, psi=None) -> NumericFault:
    """The fault of a row mixed at time: a non-finite stacked regressor, or,
    given its delta and psi, a non-finite mixed regression."""
    if psi is None:
        return NumericFault(f"non-finite stacked regressor at t = {time}")
    return NumericFault(
        f"non-finite mixed regression at t = {time}: delta = {delta}, psi = {psi}")


def mix_rows(y: np.ndarray, taps: DelayTable, first: int, stop: int,
             epsilon: float) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Regression and mixing of rows first..stop-1 of the samples y, up to
    the first row whose stack or mixed output is non-finite.

    Row j is sample j; its stacked row i is the regression taps.rows[i]
    samples back, so the rows read y[first - taps.warm_from] up to
    y[stop - 1 - taps.rows[0]] and need first >= taps.warm_from and
    stop - taps.rows[0] <= len(y). Returns (delta, mixed, bad): the finite
    delta = eps^n det(Phi) (K,) and mixed psi = eps^n adj(Phi) psi_rows
    (K, n) of the first K rows, and bad, None or mix_fault's arguments for
    row first + K as _mixed_stacks gives them. The eps^n scale is applied
    after the product is summed, so a small epsilon cannot keep an
    overflowing product finite. At n <= 3 row j's stacked entry (i, c) is
    entry j of a slice of regressor column c, so the rows are mixed from
    those slices and their stacks are never built.
    """
    lo, hi = first - taps.rows[-1], stop - taps.rows[0]
    count = stop - first
    # stacked row i of row j is the regression at j - taps.rows[i], shifts[i]
    # rows into the regression columns
    shifts = [taps.rows[-1] - lag for lag in taps.rows]
    with np.errstate(all="ignore"):  # non-finite values are scanned for, not warned about
        # regression_at reads window[tap]: here samples lo..hi-1, tap samples back
        window = {tap: y[lo - tap:hi - tap] for _, tap in chain(taps.psi, *taps.phi)}
        psi, phi = regression_at(window, taps)
        if len(phi) > 3:  # LU takes stacks
            phi = np.stack(phi, axis=1)
            return _mixed_stacks(np.stack([psi[s:s + count] for s in shifts], axis=1),
                                 np.stack([phi[s:s + count] for s in shifts], axis=1), epsilon)
        # a stack is finite where the regressor rows at all of its lags are
        finite = np.isfinite(phi[0])
        for column in phi[1:]:
            finite &= np.isfinite(column)
        stacked = finite[shifts[0]:shifts[0] + count]
        for s in shifts[1:]:
            stacked = stacked & finite[s:s + count]
        return _mixed_entries([psi[s:s + count] for s in shifts],
                              [[column[s:s + count] for column in phi] for s in shifts],
                              _first(~stacked), epsilon)


def _mixed_stacks(psi_rows: np.ndarray, phi_rows: np.ndarray,
                  epsilon: float) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """delta (K,) and mixed psi (K, n) of the K stacks before the first whose
    stack or output is non-finite, and bad: None if there is none, else the
    arguments after the time that mix_fault takes for it, () for a
    non-finite stack or (delta, psi) for a non-finite output."""
    with np.errstate(all="ignore"):  # non-finite values are scanned for, not warned about
        finite = _first(~np.isfinite(phi_rows).all(axis=(1, 2)))
        if phi_rows.shape[1] <= 3:
            return _mixed_entries(list(psi_rows.T), _entries(phi_rows), finite, epsilon)
        # LU and the SVD take no non-finite stack: mix the rows before the first
        delta, mixed = _scaled_product(*_adjugates(phi_rows[:finite]), psi_rows[:finite],
                                       epsilon)
        return _checked(delta, mixed, finite, len(phi_rows))


def _mixed_entries(psi: list, phi: list, finite: int,
                   epsilon: float) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """_mixed_stacks of K stacks at n <= 3 given by their entries, each a
    (K,) array: psi[i] and phi[i][c] are entry i of psi_rows and (i, c) of
    phi_rows, and the stacks from row finite on are not finite. Each mixed
    psi_i is summed left to right from 0 over the stacked rows, so a -0.0
    sum reads +0.0, and scaled by eps^n after."""
    adj, det = _cofactors(phi)
    scale = epsilon ** len(psi)
    delta = scale * det
    mixed = np.empty((len(psi), len(delta))).T  # (K, n), each column contiguous
    for i, row in enumerate(adj):
        np.multiply(scale, sum(a * p for a, p in zip(row, psi)), out=mixed[:, i])
    return _checked(delta, mixed, finite, len(delta))


def _checked(delta: np.ndarray, mixed: np.ndarray, finite: int,
             count: int) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """_mixed_stacks' result from delta and mixed of at least the first
    finite of count stacks, the stacks from row finite on not finite."""
    bad = _first(~(np.isfinite(delta[:finite]) & np.isfinite(mixed[:finite]).all(axis=1)))
    if bad < finite:
        return delta[:bad], mixed[:bad], (float(delta[bad]), tuple(mixed[bad].tolist()))
    return delta[:finite], mixed[:finite], None if finite == count else ()


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask) if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _entries(stacks: np.ndarray) -> list[list[np.ndarray]]:
    """Entry (r, c) of K stacked matrices (K, n, n) as a (K,) view, at [r][c]."""
    return [list(row) for row in np.moveaxis(stacks, 0, -1)]


def _cofactors(m: list) -> tuple[list, np.ndarray]:
    """adj and det of K matrices of size n <= 3 whose entry (r, c) is the
    (K,) array m[r][c]: adj[r][c] is the (K,) array of the transposed
    cofactors, and det is expanded along the first row. Each is the same
    polynomial of the entries for every K, and holds for singular M."""
    if len(m) == 1:
        ((a,),) = m
        return [[np.ones_like(a)]], a
    if len(m) == 2:
        (a, b), (c, d) = m
        return [[d, -b], [-c, a]], a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    return adj, a * adj[0][0] + b * adj[1][0] + c * adj[2][0]


def _adjugates(phi_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """adj (K, n, n) and det (K,) of K stacked finite n x n matrices, n >= 4,
    as adjugate states them: det and det times inv over the K matrices,
    and the stacked SVD form over the rows whose det is 0 or not finite or
    whose product is not finite. A batched inv raises LinAlgError for the
    whole stack if one matrix is exactly singular, and the SVD form is
    what holds at and beyond singular and overflowing stacks. Each row is
    formed on its own, as its one-row call forms it. Callers hold
    np.errstate(all="ignore"): a zero pivot's log in det and an overflowed
    product are scanned for, not warned about."""
    det = np.linalg.det(phi_rows)
    adj = np.full_like(phi_rows, np.nan)
    # det and inv factor each matrix by the same LU: a finite non-zero det
    # means no zero pivot, so inv never meets a singular matrix
    lu = np.isfinite(det) & (det != 0.0)
    adj[lu] = det[lu, None, None] * np.linalg.inv(phi_rows[lu])
    svd = ~np.isfinite(adj).all(axis=(1, 2))
    if svd.any():
        u, s, vt = np.linalg.svd(phi_rows[svd])
        sign = np.copysign(1.0, np.linalg.det(u @ vt))  # U V^T is orthogonal: +-1
        others, det[svd] = _products(sign, s)
        adj[svd] = (np.swapaxes(vt, 1, 2) * others[:, None, :]) @ np.swapaxes(u, 1, 2)
    return adj, det


def _products(sign: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """others (K, n), sign times the product of every s_j but s_i, and
    det (K,), sign times the product of all, for K rows of singular values
    s (K, n): each product formed left to right from 1, the prefixes by one
    accumulate and the suffixes by one reduce."""
    count, n = s.shape
    # 1, s_0, ..., s_(n-1), then n - 1 ones: row i's suffix window is
    # s_(i+1), ..., s_(n-1) padded with ones to n - 1 entries
    padded = np.concatenate((np.ones((count, 1)), s, np.ones((count, n - 1))), axis=1)
    before = np.multiply.accumulate(padded[:, :n + 1], axis=1)
    after = np.multiply.reduce(padded[:, np.add.outer(np.arange(2, n + 2), np.arange(n - 1))],
                               axis=2)
    return sign[:, None] * before[:, :n] * after, sign * before[:, n]


def _scaled_product(adj: np.ndarray, det: np.ndarray, psi_rows: np.ndarray,
                    epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """delta = eps^n det (K,) and mixed psi = eps^n adj psi_rows (K, n),
    each mixed psi_i summed left to right over the stacked rows."""
    n = psi_rows.shape[1]
    mixed = sum(adj[:, :, j] * psi_rows[:, j, None] for j in range(n))
    scale = epsilon ** n
    return scale * det, scale * mixed
