"""Desk-scale semidefinite feasibility, and the numeric-to-exact bridge.

The systems solved here are tiny after symmetry reduction, so the solver
favors simplicity and determinism over raw speed: projected alternating
minimization (exact affine projection onto the linear constraints, spectral
clipping of the PSD combination pulled back to coefficient space by least
squares), then one log-det barrier damped Newton polish when the
alternation does not land inside.  It is one deterministic attempt from
zero, with no restarts, and it takes no settings: the tolerance, the step
budget and rationalize's denominator bound are the module constants
below.  Each alternation step decomposes S(y) once, for both its
feasibility test and its spectral clipping.  Floats live only in this
file; rationalize() rounds a numeric solution back to exact rationals and
re-closes the linear system exactly; the one exact PSD check of the result
is certificates.verify, run by the caller on the finished certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, ResourceLimit
from .symmetry import GramMatrix

MAX_VARIABLES = 512
TOLERANCE = 1e-9  # scale-relative feasibility tolerance of a numeric point
MAX_ITERS = 400  # total alternation steps
DENOMINATOR_BOUND = 2 ** 32  # largest denominator rationalize keeps


@dataclass
class FeasibilitySystem:
    """Find (a, b) with sum a_i * psd_matrices[i] PSD and A (a, b) = rhs.

    a has one entry per PSD matrix (k2 of them); b holds the k3 free
    scalars, the columns of linear_map past the first k2.  linear_map is a
    dense rational k1 x (k2 + k3) matrix, one row per distinct coefficient
    equation (one per monomial orbit for invariant data).
    """

    psd_matrices: list[GramMatrix]
    linear_map: list[list[Fraction]]
    rhs: list[Fraction]

    def __post_init__(self):
        if not self.psd_matrices:
            raise ValueError("need at least one PSD coefficient matrix")
        basis = self.psd_matrices[0].basis
        for q in self.psd_matrices:
            if q.basis != basis:
                raise DimensionMismatch("PSD coefficient matrices over different bases")
        if self.k3 < 0:
            raise DimensionMismatch("linear map has fewer columns than PSD matrices")
        width = self.k2 + self.k3
        for row in self.linear_map:
            if len(row) != width:
                raise DimensionMismatch("linear map row width != k2 + k3")
        if len(self.rhs) != self.k1:
            raise DimensionMismatch("rhs length != number of linear rows")

    @property
    def k1(self) -> int:
        return len(self.linear_map)

    @property
    def k2(self) -> int:
        return len(self.psd_matrices)

    @property
    def k3(self) -> int:
        return len(self.linear_map[0]) - self.k2 if self.linear_map else 0

    @property
    def gram_dim(self) -> int:
        return self.psd_matrices[0].dim

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


def _float_matrix(q: GramMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in q.entries], dtype=float)


def solve_feasibility(system: FeasibilitySystem) -> SolveOutcome:
    """Search for a numeric solution; never raises on infeasibility, just
    reports the best residuals seen."""
    if system.variables > MAX_VARIABLES:
        raise ResourceLimit(
            f"{system.variables} variables exceed solver cap {MAX_VARIABLES}")
    k1, k2, k3 = system.k1, system.k2, system.k3
    nvar = k2 + k3
    dim = system.gram_dim
    stack = np.stack([_float_matrix(q) for q in system.psd_matrices])
    gmat = stack.reshape(k2, dim * dim).T  # (dim^2, k2)
    gpinv = np.linalg.pinv(gmat)
    if k1:
        amat = np.array([[float(x) for x in row] for row in system.linear_map])
        rhs = np.array([float(x) for x in system.rhs])
        apinv = np.linalg.pinv(amat)
    else:
        amat = np.zeros((0, nvar))
        rhs = np.zeros(0)
        apinv = np.zeros((nvar, 0))

    def project_affine(y: np.ndarray) -> np.ndarray:
        if not k1:
            return y
        return y - apinv @ (amat @ y - rhs)

    def matrix_of(y: np.ndarray) -> np.ndarray:
        s = (gmat @ y[:k2]).reshape(dim, dim)
        return (s + s.T) / 2.0

    iters = 0
    best_lin = math.inf
    best_deficit = math.inf

    def measure(y: np.ndarray, min_eig: float) -> tuple[float, Optional[SolveOutcome]]:
        """Linear residual plus PSD deficit of y, whose S(y) has smallest
        eigenvalue min_eig (each folded into the best seen), and the
        feasible outcome at y when both are within tolerance."""
        nonlocal best_lin, best_deficit
        lin = float(np.max(np.abs(amat @ y - rhs))) if k1 else 0.0
        deficit = max(0.0, -min_eig)
        best_lin = min(best_lin, lin)
        best_deficit = min(best_deficit, deficit)
        # Scale-relative: float projection error grows with the iterate.
        scale = max(1.0, float(np.max(np.abs(y))))
        if not (lin <= TOLERANCE * scale and min_eig >= -TOLERANCE * scale):
            return lin + deficit, None
        sol = NumericSolution(values=[float(v) for v in y],
                              psd_min_eigenvalue_estimate=min_eig,
                              linear_residual_norm=lin, iterations=iters)
        return lin + deficit, SolveOutcome(True, sol, lin, deficit, iters)

    y = project_affine(np.zeros(nvar))
    push = 1e-2
    stall = 0
    prev_err = math.inf
    for _ in range(MAX_ITERS):
        iters += 1
        w, v = np.linalg.eigh(matrix_of(y))
        err, found = measure(y, float(w[0]))
        if found:
            return found
        if err >= prev_err - 1e-15:
            stall += 1
        else:
            stall = 0
        prev_err = err
        if stall >= 40:
            if push > TOLERANCE:
                push *= 0.25
                stall = 0
            else:
                break
        clipped = np.maximum(w, push)
        target = (v * clipped) @ v.T
        a_new = gpinv @ target.reshape(-1)
        y = np.concatenate([a_new, y[k2:]])
        y = project_affine(y)
    # Alternation did not land inside: barrier polish from its last
    # iterate, over the null space of the linear rows.
    if k1:
        _, sv, vt = np.linalg.svd(amat)
        rank = int(np.sum(sv > sv[0] * 1e-12))
        null = vt[rank:].T  # (nvar, m)
    else:
        null = np.eye(nvar)
    y = project_affine(_logdet_newton(matrix_of, project_affine(y), null))
    found = measure(y, float(np.linalg.eigvalsh(matrix_of(y))[0]))[1]
    return found or SolveOutcome(False, None, best_lin, best_deficit, iters)


def _logdet_newton(matrix_of: Callable[[np.ndarray], np.ndarray],
                   y0: np.ndarray, null: np.ndarray) -> np.ndarray:
    """Damped Newton ascent of log det(S(y) + shift I) - mu |y|^2 over the
    affine set y0 + span(null), with the shift driven toward zero.  S is
    matrix_of, linear in y.  The mu term bounds the objective when the
    cone is unbounded, keeping iterates at a moderate scale (small
    coordinates rationalize to small fractions later).  Returns the best
    iterate found."""
    mu = 1e-6
    m = null.shape[1]
    if m == 0:
        return y0
    directions = np.stack([matrix_of(null[:, j]) for j in range(m)])
    eye = np.eye(directions.shape[1])

    def min_eig(y: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(matrix_of(y))[0])

    best = y0.copy()
    best_eig = min_eig(best)
    y = y0.copy()
    shift = max(0.0, -best_eig) + 1.0
    for _ in range(40):
        for _ in range(25):
            s = matrix_of(y) + shift * eye
            if _logdet(s) is None:
                shift *= 4.0
                continue
            try:
                sinv = np.linalg.inv(s)
            except np.linalg.LinAlgError:
                # Cholesky can pass on a huge iterate that LU still finds
                # singular; the polish cannot go on from there.
                return best
            grad, hess = _barrier_derivatives(sinv, directions)
            grad -= 2.0 * mu * (null.T @ y)
            hess += 2.0 * mu * np.eye(m)
            try:
                step = np.linalg.solve(hess + 1e-12 * np.eye(m), grad)
            except np.linalg.LinAlgError:
                break
            # Damped line search on the true objective.
            scale = 1.0
            cur = _logdet(s) - mu * float(y @ y)
            improved = False
            for _ in range(30):
                cand = y + scale * (null @ step)
                val = _logdet(matrix_of(cand) + shift * eye)
                if val is not None and val - mu * float(cand @ cand) > cur + 1e-14:
                    y = cand
                    improved = True
                    break
                scale /= 2.0
            if not improved:
                break
            eig = min_eig(y)
            if eig > best_eig:
                best_eig = eig
                best = y.copy()
        if best_eig > TOLERANCE:
            break
        shift /= 4.0
        if shift < TOLERANCE / 4:
            break
    return best


def _barrier_derivatives(sinv: np.ndarray,
                         directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient tr(S^-1 D_i) and negated Hessian tr(S^-1 D_i S^-1 D_j) of
    log det S along the stacked directions D, given sinv = S^-1."""
    sd = sinv @ directions
    return np.trace(sd, axis1=1, axis2=2), np.einsum("iab,jba->ij", sd, sd)


def _logdet(s: np.ndarray) -> Optional[float]:
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    return float(2.0 * np.sum(np.log(np.diag(chol))))


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


def rationalize(solution: NumericSolution | Sequence[float],
                system: FeasibilitySystem,
                window: Fraction = Fraction(1, 10 ** 6)) -> RationalizeOutcome:
    """Round a numeric solution to exact rationals that solve the linear
    system exactly.

    Each entry is replaced by the simplest rational within +-window (capped
    at the denominator bound); the linear system is then re-closed exactly,
    correcting the b-variables first and falling back to a minimum-norm
    correction over all variables, and re-checked.  Failures report which
    step broke.  The PSD check of the combination is left to the caller's
    exact check of the finished certificate (certificates.verify).
    """
    values = solution.values if isinstance(solution, NumericSolution) else list(solution)
    if len(values) != system.variables:
        raise DimensionMismatch("solution length != system variables")
    window = Fraction(window)
    if window <= 0:
        raise ValueError("window must be positive")
    y: list[Fraction] = []
    for v in values:
        exact = Fraction(v)
        cand = simplest_in_interval(exact - window, exact + window)
        if cand.denominator > DENOMINATOR_BOUND:
            cand = exact.limit_denominator(DENOMINATOR_BOUND)
        y.append(cand)

    k1, k2 = system.k1, system.k2
    if k1:
        residual = [system.rhs[t] - sum(
            (system.linear_map[t][i] * y[i] for i in range(system.variables)),
            Fraction(0)) for t in range(k1)]
        if any(residual):
            b_cols = [[row[i] for i in range(k2, system.variables)]
                      for row in system.linear_map]
            delta_b = linalg.min_norm_correction(b_cols, residual) \
                if system.k3 else None
            if delta_b is not None:
                for i, dv in enumerate(delta_b):
                    y[k2 + i] += dv
            else:
                delta = linalg.min_norm_correction(system.linear_map, residual)
                if delta is None:
                    return RationalizeOutcome(
                        ok=False, failure="linear system has no exact solution "
                                          "near the rounded point")
                for i, dv in enumerate(delta):
                    y[i] += dv
        check = [sum((system.linear_map[t][i] * y[i]
                      for i in range(system.variables)), Fraction(0))
                 for t in range(k1)]
        if check != list(system.rhs):
            return RationalizeOutcome(ok=False, failure="exact linear re-check failed")
    return RationalizeOutcome(ok=True, values=y)


def combination(system: FeasibilitySystem, a_values: Sequence[Fraction]) -> GramMatrix:
    """sum a_i * psd_matrices[i] as an exact GramMatrix."""
    basis = system.psd_matrices[0].basis
    out = GramMatrix(basis)
    for i, coeff in enumerate(a_values):
        if coeff == 0:
            continue
        coeff = Fraction(coeff)
        q = system.psd_matrices[i]
        for r in range(out.dim):
            rowq = q.entries[r]
            rowo = out.entries[r]
            for c in range(out.dim):
                if rowq[c]:
                    rowo[c] += coeff * rowq[c]
    return out
