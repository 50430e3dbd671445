"""Exact reference values of the mixing stage, in rational arithmetic.

Every float is a dyadic rational, so fractions.Fraction holds a stacked
system exactly, and the determinants below are the true values of the very
floats a driver mixed, with no rounding of their own. By Cramer's rule,
adj(Phi) b = (det Phi_i(b))_i, where Phi_i(b) is Phi with column i replaced
by b; that holds for singular Phi too, so the mixed psi needs nothing but
the determinant.
"""

import math
from fractions import Fraction


def determinant(matrix) -> Fraction:
    """det of a square matrix of floats, exactly: the entries are put over
    one common denominator D, and Bareiss' fraction-free elimination (each
    entry stays a minor, so every division is exact) runs on the integer
    numerators, swapping in a lower row past a zero pivot; det = det(D M) / D^n."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in matrix]
    scale = math.lcm(*(q for row in ratios for _, q in row))
    rows = [[p * (scale // q) for p, q in row] for row in ratios]
    n, sign, previous = len(rows), 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // previous
        previous = rows[k][k]
    return Fraction(sign * rows[-1][-1], scale ** n)


def replaced(matrix, column: int, values) -> list[list[float]]:
    """matrix with the given column replaced by values."""
    return [[v if j == column else x for j, x in enumerate(row)]
            for row, v in zip(matrix, values)]


def mixed(psi_rows, phi_rows, epsilon: float) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact (delta, mixed psi) of one stacked system, as mixing.mix_rows
    defines them: delta = eps^n det(Phi), psi_i = eps^n det(Phi_i(psi_rows))."""
    n = len(phi_rows)
    scale = Fraction(epsilon) ** n
    return (scale * determinant(phi_rows),
            tuple(scale * determinant(replaced(phi_rows, i, psi_rows)) for i in range(n)))
