"""Exact rational linear algebra.

Two jobs: certify positive semidefiniteness of symmetric rational matrices
(with an exact counterexample vector on rejection), and solve rational
linear systems for the rounding stage of the numeric solver.

The rounding stage's minimum-norm correction works on sparse rows scaled
to integers, so its cost follows the rows' nonzeros, not their width.

The PSD check works on S = den * A, den the lcm of A's denominators (ints
are taken as they are).  It first tries a proof from a float hint (Peyrl
and Parrilo, TCS 2008; Harrison, TPHOLs 2007): L' is the Cholesky factor
of S / 2^e - lam/2 I, lam its smallest eigenvalue, on the grid 2^-k and
scaled to ints, and R = 2^(2k) S - 2^e L' L'^T is computed exactly.  When
every R_ii >= sum_{j != i} |R_ij|, R is PSD, and so is 2^(2k) S, a sum of
two PSD matrices: an exact proof in which the floats only chose L'.
Otherwise one fraction-free (Bareiss) symmetric elimination of S decides
and gives the rejection witness.  After t steps a trailing entry is the
rational Schur complement entry times den * p_{t-1} > 0, the last pivot,
so signs, pivot order and zero tests are the rational elimination's,
updates are exact integer divisions with no gcd, and the witnesses are the
rational pivoted LDL^T's.  Both paths accept exactly the PSD matrices, so
the floats and their BLAS threads cannot change an answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

Vector = list[Fraction]


@dataclass
class PsdOutcome:
    """Result of an exact PSD check: on rejection, witness is an exact
    rational vector with witness^T A witness = witness_value < 0."""

    is_psd: bool
    witness: Optional[Vector] = None
    witness_value: Optional[Fraction] = None


def psd_certificate(matrix: Sequence[Sequence]) -> PsdOutcome:
    """Decide A >= 0 exactly, by the hint or else by Bareiss (see above).
    A's entries are ints or Fractions, taken as they are.  Rejection returns
    a vector v with v^T A v < 0, exactly.  Raises ValueError when A is not
    square or not symmetric.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    # den * A in lower storage (an int is its own numerator over 1).
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    s = [[x.numerator * (den // x.denominator) for x in row[:i + 1]]
         for i, row in enumerate(matrix)]
    hint = _cholesky_hint(s)
    if hint is not None and _dominant(_remainder(s, *hint)):
        return PsdOutcome(is_psd=True)
    return _bareiss(s, den)


def _cholesky_hint(s: list[list[int]]) -> Optional[tuple[int, int, list[list[int]]]]:
    """(k, e, L') for S, a symmetric int matrix in lower storage: 2^e >
    max S_ii, lam is the smallest eigenvalue of F = S / 2^e in floats, and
    L' is 2^k chol(F - lam/2 I) rounded to ints, in lower storage.  None
    when lam <= 0 or the factorisation fails.  Rounding moves an entry of
    L' L'^T / 2^(2k) by about sqrt(W) 2^-k at most, W = len(S), so k is the
    least with W^1.5 2^-k <= lam/4 (and at most 60, so L' fits int64): a
    row sum of R moves by lam/4 at most, half the slack lam/2 left on the
    diagonal.
    """
    n = len(s)
    top = max((row[i] for i, row in enumerate(s)), default=0)
    if top <= 0:
        return None
    e = top.bit_length()
    shift = max(e - 60, 0)  # S >> shift has about 60 bits, so reads as floats
    try:
        f = np.array([[x >> shift for x in row] + [0] * (n - 1 - i)
                      for i, row in enumerate(s)], dtype=np.int64)
    except OverflowError:  # |S_ij| > 2^(shift + 63) > max S_ii: not PSD
        return None
    f = (f + np.tril(f, -1).T) * 2.0 ** (shift - e)
    try:
        lam = np.linalg.eigvalsh(f)[0]
        if not lam > 0:
            return None
        f.flat[::n + 1] -= lam / 2
        low = np.linalg.cholesky(f)
    except np.linalg.LinAlgError:
        return None
    k = min(60, math.ceil(math.log2(4 * n ** 1.5) - math.log2(lam)))
    rows = np.rint(low * 2.0 ** k).astype(np.int64).tolist()
    return k, e, [row[:i + 1] for i, row in enumerate(rows)]


def _remainder(s: list[list[int]], k: int, e: int,
               low: list[list[int]]) -> list[list[int]]:
    """R = 2^(2k) S - 2^e L' L'^T exactly, in lower storage."""
    return [[(x << 2 * k) - (sum([a * b for a, b in zip(li, lj)]) << e)
             for x, lj in zip(row, low)] for row, li in zip(s, low)]


def _dominant(r: list[list[int]]) -> bool:
    """Whether the symmetric R in lower storage has R_ii >= sum_{j != i}
    |R_ij| for every i, which makes R PSD."""
    off = [0] * len(r)
    for i, row in enumerate(r):
        for j, x in enumerate(row[:i]):
            off[i] += abs(x)
            off[j] += abs(x)
    return all(row[i] >= o for i, (row, o) in enumerate(zip(r, off)))


def _bareiss(b: list[list[int]], den: int) -> PsdOutcome:
    """The fraction-free LDL^T of b = den * A in lower storage, which it
    overwrites, with symmetric diagonal pivoting: the largest trailing
    diagonal entry (the first on ties) is the pivot while positive, and A
    is PSD iff every zero-pivot row of the running Schur complement is
    identically zero."""
    n = len(b)
    # Position i is row perm[i] of A, and L[i][k] = b[i][k] / b[k][k] for
    # k < the number of pivots taken.
    perm = list(range(n))
    prev = 1
    k = 0
    while k < n:
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
        col = [b[i][k] for i in range(k + 1, n)]
        # Bareiss step: b_ij <- (p b_ij - b_ik b_jk) / prev divides exactly.
        for i in range(k + 1, n):
            row = b[i]
            c = row[k]
            row[k + 1:] = [(p * x - c * y) // prev
                           for x, y in zip(row[k + 1:], col)]
        prev = p
        k += 1
    # No positive pivot remains in the trailing Schur complement C = b / (den
    # * prev).  A negative diagonal entry gives a negative direction t; if all
    # are zero, PSD forces C = 0 and a nonzero entry gives one.  value is
    # t^T C t times den * prev.
    tail = [Fraction(0)] * (n - k)
    j = next((j for j in range(k, n) if b[j][j] < 0), None)
    if j is not None:
        tail[j - k], value = Fraction(1), b[j][j]
    else:
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if b[j][i]), None)
        if pair is None:
            return PsdOutcome(is_psd=True)
        i, j = pair
        tail[i - k], tail[j - k] = Fraction(1), Fraction(-1 if b[j][i] > 0 else 1)
        value = -2 * abs(b[j][i])
    # Extend t to v with v^T A v = t^T C t: solve the unit upper-triangular
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
