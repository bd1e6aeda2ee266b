"""Exact rational linear algebra.

Two jobs: certify positive semidefiniteness of symmetric rational matrices
(with an exact counterexample vector on rejection), and solve rational
linear systems for the rounding stage of the numeric solver.

The rounding stage's minimum-norm correction works on sparse rows scaled
to integers, so its cost follows the rows' nonzeros, not their width.

The PSD check is one fraction-free (Bareiss) symmetric elimination of
den * A, den the lcm of A's denominators (ints are taken as they are).
After k steps a trailing entry is the rational Schur complement entry
times den * p_{k-1} > 0, the last pivot, so signs, pivot order and zero
tests are the rational elimination's, updates are exact integer divisions
with no gcd, and the pivots and witnesses are the rational pivoted LDL^T's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

Vector = list[Fraction]


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


def psd_certificate(matrix: Sequence[Sequence]) -> PsdOutcome:
    """Decide A >= 0 exactly by LDL^T with symmetric diagonal pivoting: the
    largest trailing diagonal entry (the first on ties) is the pivot while
    positive.  A's entries are ints or Fractions, taken as they are.

    Accepts iff every pivot is nonnegative and every zero-pivot row of the
    running Schur complement is identically zero.  Rejection returns a
    vector v with v^T A v < 0, exactly.  Raises ValueError when A is not
    square or not symmetric.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    # den * A in lower storage (an int is its own numerator over 1); position
    # i is row perm[i] of A, and L[i][k] = b[i][k] / b[k][k] for k < len(pivots).
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    b = [[x.numerator * (den // x.denominator) for x in row[:i + 1]]
         for i, row in enumerate(matrix)]
    perm = list(range(n))
    pivots: Vector = []
    prev = 1
    for k in range(n):
        q = max(range(k, n), key=lambda j: b[j][j])
        if b[q][q] <= 0:
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
    # No positive pivot remains in the trailing Schur complement S = b / (den
    # * prev).  A negative diagonal entry gives a negative direction t; if all
    # are zero, PSD forces S = 0 and a nonzero entry gives one.  value is
    # t^T S t times den * prev.
    k = len(pivots)
    tail = [Fraction(0)] * (n - k)
    j = next((j for j in range(k, n) if b[j][j] < 0), None)
    if j is not None:
        tail[j - k], value = Fraction(1), b[j][j]
    else:
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if b[j][i]), None)
        if pair is None:
            return PsdOutcome(is_psd=True, pivots=pivots + [Fraction(0)] * (n - k))
        i, j = pair
        tail[i - k], tail[j - k] = Fraction(1), Fraction(-1 if b[j][i] > 0 else 1)
        value = -2 * abs(b[j][i])
    # Extend t to v with v^T A v = t^T S t: solve the unit upper-triangular
    # system u_i + sum_{j>i} L[j][i] u_j = 0 for i < k.
    u = [Fraction(0)] * k + tail
    for i in range(k - 1, -1, -1):
        u[i] = -sum((b[j][i] * u[j] for j in range(i + 1, n)), Fraction(0)) / b[i][i]
    v = [Fraction(0)] * n
    for pos, orig in enumerate(perm):
        v[orig] = u[pos]
    return PsdOutcome(is_psd=False, witness=v, witness_value=Fraction(value, den * prev))


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
