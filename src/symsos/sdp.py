"""Desk-scale semidefinite feasibility, and the numeric-to-exact bridge.

The systems solved here are tiny after symmetry reduction; each holds
S(y) as one W x W grid of sparse forms over its unknowns.  The solver
starts from y0, the least-norm solution of the linear rows, and keeps it
when S(y0) already passes the tolerance test.  Otherwise it runs one
primal-dual interior-point method (the HKM direction of Helmberg, Rendl,
Vanderbei and Wolkowicz, with Mehrotra's predictor-corrector) on the
phase-1 problem max t s.t. S(y0 + N z) - t I PSD, with N the directions of
the rows' null space that move S.  It runs on V^T S V, M x M and
block-diagonal, with a weight per row: _symmetry_blocks finds V and the
weights from the grid's own matrices, and every trace is weighted, so
the iterates are the dense ones at O(M^3) a step, with M set by the
orbits, not by n.  It stops at the first point whose
smallest eigenvalue clears MARGIN, so that rationalize's coarse windows
still land inside the cone; or when its primal iterate is a dual witness
that max t < 0; or at the step cap or a failed factorisation, when it keeps
the best point seen if that passes the tolerance test.  It is one
deterministic attempt with no settings: its constants are below.
WITNESS_RADIUS, a distance from y0 in units of y0's scale max(1, max |y0|),
is 1e5, not 1e6, because the primal residual can stall
near 1e-6: on the feasible sum x_i = n/2 over {0,1}^n at d = 2 (n = 6, 8,
10) the Schur complement's condition number reaches 1e15 to 1e17 and a
witness takes 16, 18 and 14 steps, against 8 to 11 at d = 1, even over
standard monomials, where no PSD direction reduces to zero.  Floats live
only in this file and in linalg's PSD hint, whose answer they cannot
change, and float_view is the one place a system becomes floats.  The
linear rows stay sparse: rationalize() rounds a numeric
solution back to exact rationals and re-closes the linear system exactly
(the rounding and projection of Peyrl and Parrilo, TCS 2008) over the
rows as given: the residual, linalg's sparse integer minimum-norm
correction and the exact re-check; the one exact PSD check of the result
is certificates.verify, run by the caller on the finished certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, ResourceLimit
from .poly import Monomial, MonomialBasis
from .symmetry import GramMatrix

MAX_VARIABLES = 512
TOLERANCE = 1e-9  # scale-relative feasibility tolerance of a numeric point
MARGIN = 1e-3  # smallest eigenvalue of S(y) at which the search stops
MAX_STEPS = 60  # interior-point step cap
STEP_FRACTION = 0.95  # share of the step to the cone's boundary taken
WITNESS_RADIUS = 1e5  # a witness rules out solutions this close to y0, per unit of scale
SPLIT = 1e-8  # eigenvalues closer than this, relative to the largest, are equal
DENOMINATOR_BOUND = 2 ** 32  # largest denominator rationalize keeps


@dataclass
class FeasibilitySystem:
    """Find (a, b) with S(a) PSD and A (a, b) = rhs.

    gram is S, a symmetric W x W grid over basis, the W monomials that
    index its rows, whose entry (i, j) is a sparse form {r: c}, so
    S(a)[i][j] = sum c * a[r]; k2, the number of PSD unknowns a, is read
    off it.  b holds the k3 free scalars, columns k2 to k2 + k3 - 1; k3 is
    given, not read off the rows, because a free scalar's column can be
    all zero.  linear_map is A as its k1 sparse rows {column: c}, nonzero
    coefficients only, one per distinct coefficient equation (one per
    monomial orbit for invariant data).
    """

    basis: Sequence[Monomial]
    gram: list[list[dict[int, Fraction]]]
    linear_map: list[dict[int, Fraction]]
    rhs: list[Fraction]
    k3: int
    k2: int = field(init=False)

    def __post_init__(self):
        dim = len(self.basis)
        if len(self.gram) != dim or any(len(row) != dim for row in self.gram):
            raise DimensionMismatch("gram grid does not match basis size")
        if any(self.gram[i][j] != self.gram[j][i] for i in range(dim) for j in range(i)):
            raise ValueError("gram grid is not symmetric")
        self.k2 = 1 + max((r for row in self.gram for form in row for r in form),
                          default=-1)
        if not self.k2:
            raise ValueError("need at least one PSD unknown")
        if self.k3 < 0:
            raise DimensionMismatch("negative number of free scalars")
        if any(not 0 <= j < self.variables for row in self.linear_map for j in row):
            raise DimensionMismatch("linear map column outside 0 .. k2 + k3 - 1")
        if len(self.rhs) != self.k1:
            raise DimensionMismatch("rhs length != number of linear rows")

    @property
    def k1(self) -> int:
        return len(self.linear_map)

    @property
    def gram_dim(self) -> int:
        return len(self.basis)

    @property
    def variables(self) -> int:
        return self.k2 + self.k3


@dataclass
class NumericSolution:
    values: list[float]
    psd_min_eigenvalue_estimate: float
    linear_residual_norm: float
    iterations: int


@dataclass
class SolveOutcome:
    feasible: bool
    solution: Optional[NumericSolution]
    best_linear_residual: float
    best_psd_deficit: float
    iterations: int
    dual_witness: bool = False  # not feasible, with numeric evidence why


def float_view(system: FeasibilitySystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The system in floating point: S as one (k2, W * W) array whose row r
    holds a[r]'s coefficient in each entry, row-major; A as a dense
    (k1, k2 + k3) array; and rhs.  Grids share one form object among the
    entries of an orbit, so each distinct form object becomes one column,
    one pass over its nonzeros, and one gather of those columns fills S;
    numerator / denominator is float(c)."""
    entries = [form for row in system.gram for form in row]
    distinct = {id(form): form for form in entries}
    column = {key: j for j, key in enumerate(distinct)}
    table = np.zeros((system.k2, len(distinct)))
    for j, form in enumerate(distinct.values()):
        for r, c in form.items():
            table[r, j] = c.numerator / c.denominator
    stack = np.take(table, [column[id(form)] for form in entries], axis=1)
    amat = np.zeros((system.k1, system.variables))
    for i, row in enumerate(system.linear_map):
        for j, c in row.items():
            amat[i, j] = c.numerator / c.denominator
    return stack, amat, np.array(system.rhs, dtype=float)


def check_variable_count(variables: int) -> None:
    """Raise ResourceLimit when a system of this many unknowns exceeds
    MAX_VARIABLES; a search checks its count before building a column."""
    if variables > MAX_VARIABLES:
        raise ResourceLimit(
            f"{variables} variables exceed solver cap {MAX_VARIABLES}")


def solve_feasibility(system: FeasibilitySystem) -> SolveOutcome:
    """Search for a numeric solution; never raises on infeasibility.

    y0, the least-norm solution of the linear rows, is the answer when S(y0)
    passes the tolerance test.  Otherwise the interior-point method moves y
    along the directions of the rows' null space that change S, and stops
    at the first point whose S(y) has smallest eigenvalue >= MARGIN, or
    with a dual witness, or at the step cap or a failed factorisation.
    It runs on V^T S V, with V and the weights from _symmetry_blocks.
    """
    check_variable_count(system.variables)
    k2, dim = system.k2, system.gram_dim
    gmat, amat, rhs = float_view(system)
    try:
        y0, null = _least_norm(amat, rhs)
        s0 = (y0[:k2] @ gmat).reshape(dim, dim)
        eig = float(np.linalg.eigvalsh(s0)[0])
        # Every later iterate moves along the null space, keeping this residual.
        lin = float(np.max(np.abs(amat @ y0 - rhs), initial=0.0))
        scale = max(1.0, float(np.max(np.abs(y0), initial=0.0)))
        if lin > TOLERANCE * scale:  # the rows contradict each other
            return SolveOutcome(False, None, lin, max(0.0, -eig), 0, dual_witness=True)
        if eig >= -TOLERANCE * scale:
            sol = NumericSolution([float(v) for v in y0], eig, lin, 0)
            return SolveOutcome(True, sol, lin, max(0.0, -eig), 0)
        basis, weights = _symmetry_blocks(gmat, dim)
        if len(weights) < dim:
            gmat = (basis.T @ (gmat.reshape(k2, dim, dim) @ basis)).reshape(k2, -1)
            s0 = (y0[:k2] @ gmat).reshape(len(weights), -1)
        ops, back = _directions(null[:k2].T @ gmat, weights)
    except np.linalg.LinAlgError:
        return SolveOutcome(False, None, math.inf, math.inf, 0)
    del gmat  # only ops is needed from here on
    exit_, z, steps, best = _phase_one(s0, eig, ops, weights, WITNESS_RADIUS * scale)
    if exit_ == "witness" or best < -TOLERANCE * scale:
        return SolveOutcome(False, None, lin, max(0.0, -best), steps,
                            dual_witness=exit_ == "witness")
    y = y0 + null @ (back @ z)
    sol = NumericSolution([float(v) for v in y], best, lin, steps)
    return SolveOutcome(True, sol, lin, max(0.0, -best), steps)


def _symmetry_blocks(stack: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """V, a W x M array with orthonormal columns, and a weight per column,
    that block-diagonalise the matrix algebra the grid's matrices E_r
    (stack's rows) generate: for each E in it, V^T E V is block-diagonal,
    and E is orthogonally similar to the sum of those blocks, each
    repeated its rows' weight times.  So E's eigenvalues are V^T E V's,
    each counted its weight times, and trace(E F) is the weighted trace of
    V^T E V V^T F V.

    This is numerical block diagonalisation (Murota, Kanno, Kojima and
    Kojima, Japan J. Indust. Appl. Math. 2010).  The eigenspaces of a
    generic a = sum_r sin(r + 1) E_r are the groups of equal eigenvalues;
    a block is the groups that b v reaches, for b = sum_r cos(3 r + 1) E_r
    and v the first eigenvector of its first group, and each of its groups
    gives one column, v or the unit projection of b v onto the group,
    weighted by the groups' common size.  The result is checked: the
    weighted eigenvalues of V^T b V must be b's.  A grid with no symmetry,
    a failed check or a failed eigh gives V = I and weights 1.
    """
    unit = np.eye(dim), np.ones(dim)
    r = np.arange(stack.shape[0])
    a = (np.sin(r + 1.0) @ stack).reshape(dim, dim)
    b = (np.cos(3.0 * r + 1.0) @ stack).reshape(dim, dim)
    try:
        values, vectors = np.linalg.eigh(a)
        spectrum = np.linalg.eigvalsh(b)
    except np.linalg.LinAlgError:
        return unit
    starts = np.flatnonzero(np.diff(values, prepend=-math.inf)
                            > SPLIT * np.abs(values).max())
    if len(starts) == dim:  # every eigenvalue simple: no symmetry to use
        return unit
    ends = np.append(starts[1:], dim)
    tol = SPLIT * np.abs(spectrum).max()
    columns, weights, blocks = [], [], []
    free = np.ones(len(starts), dtype=bool)  # groups in no block yet
    for g in range(len(starts)):
        if not free[g]:
            continue
        first = vectors[:, starts[g]]
        reach = vectors.T @ (b @ first)  # b v in the eigenvector basis
        members = free & (np.add.reduceat(reach ** 2, starts) > tol ** 2)
        members[g] = True
        size = ends[g] - starts[g]
        if np.any(ends[members] - starts[members] != size):
            return unit
        free &= ~members
        blocks.append(slice(len(columns), len(columns) + int(members.sum())))
        for h in np.flatnonzero(members):
            part = first if h == g else \
                vectors[:, starts[h]:ends[h]] @ reach[starts[h]:ends[h]]
            columns.append(part / np.linalg.norm(part))
            weights.append(size)
    basis = np.array(columns).T
    compressed = basis.T @ b @ basis
    weighted = np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(compressed[s, s]),
                                                 weights[s.start]) for s in blocks]))
    if np.abs(weighted - spectrum).max() > tol:
        return unit
    return basis, np.array(weights, dtype=float)


def _directions(fmat: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phase-1 operators and the map back to fmat's row coordinates.

    fmat holds, as rows, the flattened change of the M x M block matrix
    along each null-space direction, row i of each block counted weights[i]
    times.  The operators are the changes along a basis of the directions
    that move S, orthonormal in that weighted trace, then -I for t; back
    maps coordinates in that basis to coordinates of fmat's rows.
    """
    dim = len(weights)
    root = np.repeat(np.sqrt(weights), dim)
    left, sv, right = np.linalg.svd(fmat * root, full_matrices=False)
    rank = int(np.sum(sv > sv.max(initial=0.0) * 1e-12))
    ops = np.empty((rank + 1, dim, dim))
    np.multiply(sv[:rank, None], right[:rank] / root,
                out=ops[:rank].reshape(rank, dim * dim))
    ops[rank] = -np.eye(dim)
    return ops, left[:, :rank]


def _least_norm(amat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least-norm least-squares solution of amat y = rhs, and an
    orthonormal basis of amat's null space as columns."""
    left, sv, right = np.linalg.svd(amat)
    rank = int(np.sum(sv > sv.max(initial=0.0) * 1e-12))
    y0 = right[:rank].T @ ((left[:, :rank].T @ rhs) / sv[:rank])
    return y0, right[rank:].T


def _phase_one(s0: np.ndarray, eig0: float, ops: np.ndarray, weights: np.ndarray,
               radius: float) -> tuple[str, np.ndarray, int, float]:
    """Primal-dual interior-point steps on max t s.t.
    Z = s0 + sum_j z_j ops[j] - t I PSD, with u = (z, t) and ops[-1] = -I,
    so Z = s0 + sum_i u_i ops[i]; eig0 is s0's smallest eigenvalue.  Every
    matrix is M x M block-diagonal, row i counted weights[i] times, so each
    trace inner product <A, B> is sum_i weights[i] (A * B)[i].sum().

    HKM direction with Mehrotra's predictor-corrector.  The dual iterate
    u starts at z = 0, t = eig0 - 1 and stays feasible.  The primal
    iterate X (PSD, trace 1, <ops[j], X> = 0 once feasible) bounds t:
    every feasible (z, t) has t <= <s0, X> + |z| |r| with r the vector of
    <ops[j], X> over the directions.  So <s0, X> < 0 with radius |r| <=
    -<s0, X> is a dual witness: no solution lies within radius of y0.
    Returns the exit ("feasible", "witness" or "stopped"), the z with the
    largest lambda_min(S) seen, the steps taken, and that eigenvalue.
    """
    m, dim = ops.shape[0] - 1, s0.shape[0]
    size = weights.sum()  # W, the trace of I
    row = weights[:, None]
    root = np.sqrt(row)
    eye = np.eye(dim)
    flat = ops.reshape(m + 1, dim * dim)
    wflat = (ops * row).reshape(m + 1, dim * dim)  # <ops[i], Y> = wflat[i] @ Y
    goal = np.zeros(m + 1)
    goal[m] = 1.0
    u = np.zeros(m + 1)
    u[m] = eig0 - 1.0
    x = eye / size
    best, best_z, step = -math.inf, u[:m].copy(), 0
    try:
        for step in range(MAX_STEPS + 1):
            s = s0 + (u[:m] @ flat[:m]).reshape(dim, dim)
            eig = float(np.linalg.eigvalsh(s)[0])
            if eig > best:
                best, best_z = eig, u[:m].copy()
            if best >= MARGIN:
                return "feasible", best_z, step, best
            bound = float(np.sum(s0 * x * row))
            residual = float(np.linalg.norm(wflat[:m] @ x.ravel()))
            if bound < 0 and radius * residual <= -bound:
                return "witness", best_z, step, best
            if step == MAX_STEPS:
                break
            z = s - u[m] * eye
            factors = np.linalg.cholesky(np.stack((z, x)))
            inverses = np.linalg.inv(factors)
            lz_inv, lx = inverses[0], factors[1]
            z_inv = lz_inv.T @ lz_inv
            scaled = (np.matmul(lz_inv @ ops, lx) * root).reshape(m + 1, -1)
            schur = scaled @ scaled.T
            primal_residual = goal + wflat @ x.ravel()  # b - A(X), A(Y) = -<ops, Y>
            mu = float(np.sum(x * z * row)) / size

            def direction(r_zinv: np.ndarray):
                """The step solving A(dX) = b - A(X), dZ = -A^T(du) and
                X dZ + dX Z = R, given R Z^-1; with the longest steps
                that keep Z + dZ and X + dX PSD."""
                du = np.linalg.solve(schur, primal_residual + wflat @ r_zinv.ravel())
                dz = np.tensordot(du, ops, axes=1)
                dx = r_zinv - x @ dz @ z_inv
                dx = (dx + dx.T) / 2.0
                return du, dx, dz, *_max_steps(inverses, np.stack((dz, dx)))

            du, dx, dz, ad, ap = direction(-x)
            gap = float(np.sum((x + min(1.0, ap) * dx) * (z + min(1.0, ad) * dz)
                               * row)) / size
            sigma = min(1.0, (gap / mu) ** 3)
            du, dx, dz, ad, ap = direction(sigma * mu * z_inv - x - dx @ dz @ z_inv)
            x = x + min(1.0, STEP_FRACTION * ap) * dx
            u = u + min(1.0, STEP_FRACTION * ad) * du
    except np.linalg.LinAlgError:
        pass
    return "stopped", best_z, step, best


def _max_steps(chol_inv: np.ndarray, d: np.ndarray) -> list[float]:
    """For each k, the largest alpha with L_k L_k^T + alpha d[k] PSD (inf if
    there is none), given the stacked L_k^-1."""
    low = np.linalg.eigvalsh(chol_inv @ d @ chol_inv.transpose(0, 2, 1))[:, 0]
    return [math.inf if v >= 0 else -1.0 / v for v in low.tolist()]


# -- exact rounding ----------------------------------------------------------


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator (then numerator) in [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_in_interval(-hi, -lo)
    floor_lo = lo.numerator // lo.denominator
    if lo == floor_lo:
        return Fraction(floor_lo)
    if floor_lo + 1 <= hi:
        return Fraction(floor_lo + 1)
    return floor_lo + 1 / simplest_in_interval(1 / (hi - floor_lo), 1 / (lo - floor_lo))


@dataclass
class RationalizeOutcome:
    ok: bool
    values: Optional[list[Fraction]] = None
    failure: Optional[str] = None


def rationalize(solution: NumericSolution, system: FeasibilitySystem, *,
                window: Fraction) -> RationalizeOutcome:
    """Round a numeric solution to exact rationals that solve the linear
    system exactly.

    Each entry is replaced by the simplest rational within +-window (capped
    at the denominator bound); the linear system is then re-closed exactly,
    correcting the b-variables first and falling back to a minimum-norm
    correction over all variables, and re-checked.  Failures report which
    step broke.  The PSD check of the combination is left to the caller's
    exact check of the finished certificate (certificates.verify).
    """
    if len(solution.values) != system.variables:
        raise DimensionMismatch("solution length != system variables")
    if window <= 0:
        raise ValueError("window must be positive")
    y: list[Fraction] = []
    for v in solution.values:
        exact = Fraction(v)
        cand = simplest_in_interval(exact - window, exact + window)
        if cand.denominator > DENOMINATOR_BOUND:
            cand = exact.limit_denominator(DENOMINATOR_BOUND)
        y.append(cand)

    rows = system.linear_map
    residual = [value - sum(c * y[i] for i, c in row.items())
                for row, value in zip(rows, system.rhs)]
    if any(residual):
        k2 = system.k2
        delta = linalg.min_norm_correction(
            [{i: c for i, c in row.items() if i >= k2} for row in rows],
            residual) if system.k3 else None
        if delta is None:
            delta = linalg.min_norm_correction(rows, residual)
            if delta is None:
                return RationalizeOutcome(
                    ok=False, failure="linear system has no exact solution "
                                      "near the rounded point")
        for i, dv in delta.items():
            y[i] += dv
    if any(sum(c * y[i] for i, c in row.items()) != value
           for row, value in zip(rows, system.rhs)):
        return RationalizeOutcome(ok=False, failure="exact linear re-check failed")
    return RationalizeOutcome(ok=True, values=y)


def combination(system: FeasibilitySystem, a_values: Sequence[Fraction],
                basis: MonomialBasis) -> GramMatrix:
    """S(a) as an exact GramMatrix over basis, which holds system.basis:
    zero on every row and column of a monomial that system.basis leaves out.
    The grid is symmetric, so the upper triangle is computed and mirrored."""
    entries = [[Fraction(0)] * len(basis) for _ in basis]
    at = [basis.index(m) for m in system.basis]
    for s, (i, row) in enumerate(zip(at, system.gram)):
        for j, form in zip(at[s:], row[s:]):
            if len(form) == 1:
                (r, c), = form.items()
                value = a_values[r] if c == 1 else c * a_values[r]
            else:
                value = sum(c * a_values[r] for r, c in form.items())
            entries[i][j] = entries[j][i] = value
    return GramMatrix(basis, entries)
