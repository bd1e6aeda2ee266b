"""Exact rational linear algebra.

Two jobs: certify positive semidefiniteness of symmetric rational matrices
(with an exact counterexample vector on rejection), and solve rational
linear systems for the rounding stage of the numeric solver.

The rounding stage's minimum-norm correction works on sparse rows scaled
to integers, so its cost follows the rows' nonzeros, not their width.

The PSD check is one fraction-free (Bareiss) symmetric elimination of the
integer matrix den * A, den the lcm of A's denominators.  After k steps a
trailing entry is the rational Schur complement entry times den * p_{k-1}
> 0, the last pivot, so signs, pivot order and zero tests are the rational
elimination's, updates are exact integer divisions with no gcd, and the
pivots and witnesses are the rational pivoted LDL^T's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _as_fraction_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def quadratic_form(a: Matrix, v: Vector) -> Fraction:
    return sum((vi * wi for vi, wi in zip(v, mat_vec(a, v))), Fraction(0))


@dataclass
class PsdOutcome:
    """Result of an exact PSD check.

    On acceptance, pivots holds the diagonal of D in the pivoted LDL^T
    factorization (all >= 0).  On rejection, witness is an exact rational
    vector with witness^T A witness < 0.
    """

    is_psd: bool
    pivots: Optional[Vector] = None
    witness: Optional[Vector] = None
    witness_value: Optional[Fraction] = None


def _eliminate(matrix: Sequence[Sequence]) -> tuple[
        Matrix, list[list[int]], list[int], Vector, Optional[Vector]]:
    """Fraction-free LDL^T with symmetric diagonal pivoting: the largest
    trailing diagonal entry (the first on ties) is the pivot while positive.

    Returns (a, b, perm, pivots, tail).  ``a`` is A as Fractions; position i
    of the elimination is row perm[i] of A.  ``pivots`` are D's positive
    entries; for k < len(pivots), L[i][k] = b[i][k] / b[k][k] with ``b``
    stored lower triangular.  ``tail`` is None when A is PSD, else a
    negative direction of the trailing Schur complement, on positions
    len(pivots)..n-1.  Raises ValueError when A is not square or not
    symmetric.
    """
    a = _as_fraction_matrix(matrix)
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    den = math.lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (den // x.denominator) for x in row[:i + 1]]
         for i, row in enumerate(a)]
    perm = list(range(n))
    pivots: Vector = []
    prev = 1
    for k in range(n):
        q = max(range(k, n), key=lambda j: b[j][j])
        if b[q][q] <= 0:
            # No positive pivot remains in the trailing block.
            tail = [Fraction(0)] * (n - k)
            for j in range(k, n):
                if b[j][j] < 0:
                    tail[j - k] = Fraction(1)
                    return a, b, perm, pivots, tail
            # All trailing diagonal entries are zero; PSD forces the block
            # to vanish.
            for i in range(k, n):
                for j in range(i + 1, n):
                    if b[j][i] != 0:
                        tail[i - k] = Fraction(1)
                        tail[j - k] = Fraction(-1 if b[j][i] > 0 else 1)
                        return a, b, perm, pivots, tail
            break
        if q != k:
            # Swap positions k < q of the symmetric matrix in lower storage.
            rk, rq = b[k], b[q]
            rk[:k], rq[:k] = rq[:k], rk[:k]
            rk[k], rq[q] = rq[q], rk[k]
            for j in range(k + 1, q):
                b[j][k], rq[j] = rq[j], b[j][k]
            for row in b[q + 1:]:
                row[k], row[q] = row[q], row[k]
            perm[k], perm[q] = perm[q], perm[k]
        p = b[k][k]
        pivots.append(Fraction(p, prev * den))
        col = [b[i][k] for i in range(k + 1, n)]
        # Bareiss step: b_ij <- (p b_ij - b_ik b_jk) / prev divides exactly.
        for i in range(k + 1, n):
            row = b[i]
            c = row[k]
            row[k + 1:] = [(p * x - c * y) // prev
                           for x, y in zip(row[k + 1:], col)]
        prev = p
    return a, b, perm, pivots, None


def psd_certificate(matrix: Sequence[Sequence]) -> PsdOutcome:
    """Decide A >= 0 exactly via LDL^T with symmetric diagonal pivoting.

    Accepts iff every pivot is nonnegative and every zero-pivot row of the
    running Schur complement is identically zero.  Rejection returns a
    vector v with v^T A v < 0, exactly.
    """
    a, b, perm, pivots, tail = _eliminate(matrix)
    n, k = len(a), len(pivots)
    if tail is None:
        return PsdOutcome(is_psd=True, pivots=pivots + [Fraction(0)] * (n - k))
    # Extend the trailing witness to the full matrix: solve the unit
    # upper-triangular system u_i + sum_{j>i} L[j][i] u_j = 0 for i < k.
    u = [Fraction(0)] * k + tail
    for i in range(k - 1, -1, -1):
        u[i] = -sum((b[j][i] * u[j] for j in range(i + 1, n)), Fraction(0)) / b[i][i]
    v = [Fraction(0)] * n
    for pos, orig in enumerate(perm):
        v[orig] = u[pos]
    return PsdOutcome(is_psd=False, witness=v, witness_value=quadratic_form(a, v))


def rref_solve(a: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One exact solution of A x = rhs (free variables set to zero), or None
    when the system is inconsistent."""
    m = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(a)]
    ncols = len(aug[0]) - 1 if m else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, m):
            if aug[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivot_cols):
        x[c] = aug[row_idx][ncols]
    return x


def min_norm_correction(rows: Sequence[Mapping[int, Fraction]],
                        residual: Sequence) -> Optional[dict[int, Fraction]]:
    """Minimum-norm delta with A delta = residual, or None when residual is
    outside the row space of A.

    Row t of A is the sparse form rows[t] = {column: coefficient}; delta is
    returned the same way, without zeros, and vanishes on every column no
    row touches.  Each row and its residual entry are first scaled to
    integers, which leaves the solution set, and so its unique
    minimum-norm point, unchanged.  delta = A^T w with (A A^T) w = residual,
    A A^T built from sparse integer dot products.
    """
    scaled: list[dict[int, int]] = []
    rhs: list[int] = []
    for row, value in zip(rows, residual):
        value = Fraction(value)
        den = math.lcm(value.denominator, *(Fraction(c).denominator
                                            for c in row.values()))
        scaled.append({j: int(c * den) for j, c in row.items() if c})
        rhs.append(int(value * den))
    gram = [[sum(c * other.get(j, 0) for j, c in row.items()) for other in scaled]
            for row in scaled]
    w = rref_solve(gram, rhs)
    if w is None:
        return None
    delta: dict[int, Fraction] = {}
    for row, wt in zip(scaled, w):
        if wt:
            for j, c in row.items():
                delta[j] = delta.get(j, 0) + c * wt
    delta = {j: v for j, v in delta.items() if v}
    # With w solving the normal equations, A^T w solves A delta = residual
    # iff residual lies in range(A) = range(A A^T).
    if any(sum(c * delta.get(j, 0) for j, c in row.items()) != value
           for row, value in zip(scaled, rhs)):
        return None
    return delta
