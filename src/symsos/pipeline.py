"""End-to-end searches: invariant proofs, refutations, pseudoexpectations.

The flow for both certificate pipelines is the same: reduce modulo the
coordinate ring, write the unknown invariant objects in the orbit bases
(pair-orbit indicator matrices for the Gram matrix, orbit-sum polynomials
or per-orbit scalars for the multipliers), match coefficients into a
linear system with one row per distinct coefficient equation (one per
monomial orbit for invariant data), hand the tiny symmetry-reduced SDP to
the numeric solver, round back to rationals, reconstruct the Groebner
cofactors exactly, and verify.  A returned certificate is always exact and
has been verified; everything numeric is quarantined in the solver.

find_pseudoexpectation searches the dual side at matching degree; its
output is numeric-only evidence (never a theorem) and is flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .certificates import (GENERAL, NORMAL_FORM, BitSizeReport, SosCertificate,
                           bit_size, verify)
from .errors import InvalidInstance, InvalidSystem
from .groebner import (GroebnerBasis, divide, finite_domain_basis,
                       reconstruct_proof, reduce_polynomial)
from .poly import Monomial, MonomialBasis, Polynomial, monomials_up_to
from .sdp import (FeasibilitySystem, RationalizeOutcome, SolveOutcome,
                  SolverConfig, combination, rationalize, solve_feasibility)
from .symmetry import (GramMatrix, GroupSpec, OrbitTable, canonical_monomial,
                       enumerate_monomial_orbits, enumerate_pair_orbits,
                       is_invariant, is_invariant_system,
                       monomial_orbit_elements, orbit_indicator_matrices)

DEFAULT_EPSILON = Fraction(1, 2 ** 20)

# Rounding windows tried in order during rationalization.
RATIONALIZE_WINDOWS = (Fraction(1, 10 ** 3), Fraction(1, 10 ** 5),
                       Fraction(1, 10 ** 7), Fraction(1, 10 ** 10))


@dataclass
class ProblemInstance:
    group: GroupSpec
    equalities: list[Polynomial]
    domain_roots: Optional[tuple[Fraction, ...]] = None
    groebner: Optional[GroebnerBasis] = None
    target: Optional[Polynomial] = None  # None means: refute (target -1)
    degree: int = 1
    epsilon: Fraction = DEFAULT_EPSILON

    def __post_init__(self):
        n = self.group.n
        for p in self.equalities:
            if p.n != n:
                raise InvalidInstance("equality constraint arity differs from group")
            if p.is_zero():
                raise InvalidInstance("zero polynomial among equality constraints")
        if self.target is not None and self.target.n != n:
            raise InvalidInstance("target arity differs from group")
        if self.degree < 1:
            raise InvalidInstance("degree must be at least 1")
        if self.epsilon < 0:
            raise InvalidInstance("epsilon must be nonnegative")
        if self.domain_roots is not None and self.groebner is None:
            self.groebner = finite_domain_basis(n, self.domain_roots)

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def domain_half_degree(self) -> int:
        """k for a 2k-point product domain."""
        if self.domain_roots is None:
            raise InvalidInstance("instance has no finite product domain")
        return len(self.domain_roots) // 2


@dataclass
class VariableCountReport:
    n: int
    gram_degree: int
    w_size: int
    y_size: int
    pair_orbit_count: int
    indicator_count: int
    constraint_orbit_count: int
    multiplier_dims: list[int]
    before_variables: int
    after_variables: int


@dataclass
class PipelineResult:
    status: str  # "certificate" | "no-certificate-at-degree"
    reason: Optional[str] = None  # "solver-infeasible" | "rationalization-failed"
    certificate: Optional[SosCertificate] = None
    bit_report: Optional[BitSizeReport] = None
    accounting: Optional[VariableCountReport] = None
    solver: Optional[SolveOutcome] = None
    epsilon: Optional[Fraction] = None

    @property
    def certified(self) -> bool:
        return self.status == "certificate"


@dataclass
class Pseudoexpectation:
    """Moment values on monomial orbit representatives.

    numeric=True marks solver output (floating point evidence only);
    exact point-evaluation pseudoexpectations carry Fractions.
    """

    group: GroupSpec
    degree: int
    moments: dict
    numeric: bool

    def value(self, mono: Monomial):
        return self.moments[canonical_monomial(self.group, mono)]


def _reduced(p: Polynomial, basis: Optional[GroebnerBasis]) -> Polynomial:
    return p if basis is None else reduce_polynomial(p, basis)


def _orbit_sum(group: GroupSpec, rep: Monomial, n: int) -> Polynomial:
    return Polynomial(n, {m: Fraction(1) for m in monomial_orbit_elements(group, rep)})


def _distinct_rows(rows: Sequence[list[Fraction]], rhs: Sequence[Fraction]):
    """The equations rows[t] . y = rhs[t] without repeats and without 0 = 0.

    First occurrences keep their order.  The affine solution set is
    unchanged.  Equal coefficients with a different right hand side is a
    contradiction, so both rows stay for the solver to report.
    """
    seen = set()
    out_rows: list[list[Fraction]] = []
    out_rhs: list[Fraction] = []
    for row, value in zip(rows, rhs):
        key = (tuple(row), value)
        if key in seen or not (value or any(row)):
            continue
        seen.add(key)
        out_rows.append(row)
        out_rhs.append(value)
    return out_rows, out_rhs


def _match_columns(columns: Sequence[Polynomial], target: Polynomial):
    """Coefficient-matching rows, one per distinct equation over the sorted
    monomials of all supports (one per monomial orbit for invariant data)."""
    monos = set(target.terms)
    for col in columns:
        monos.update(col.terms)
    rows = sorted(monos)
    amat = [[col.coefficient(m) for col in columns] for m in rows]
    rhs = [target.coefficient(m) for m in rows]
    return _distinct_rows(amat, rhs)


def _invariant_multiplier_columns(group: GroupSpec, constraint: Polynomial,
                                  max_degree: int,
                                  basis: Optional[GroebnerBasis]):
    """Reduced (orbit-sum * constraint) polynomials, one per monomial orbit."""
    table = enumerate_monomial_orbits(group, max_degree)
    cols = []
    gens = []
    for rep in table.representatives:
        q = _orbit_sum(group, rep, group.n)
        cols.append(_reduced(q * constraint, basis))
        gens.append(q)
    return cols, gens


def _rationalize_ladder(outcome: SolveOutcome, system: FeasibilitySystem,
                        cfg: SolverConfig) -> Optional[RationalizeOutcome]:
    if not outcome.feasible:
        return None
    for window in RATIONALIZE_WINDOWS:
        rat = rationalize(outcome.solution, system,
                          denominator_bound=cfg.denominator_bound, window=window)
        if rat.ok:
            return rat
    return rat


def variable_count_report(inst: ProblemInstance) -> VariableCountReport:
    n = inst.n
    if inst.target is None:
        k = inst.domain_half_degree
        gram_degree = inst.degree + k - 1
    else:
        gram_degree = inst.degree
    w = math.comb(n + gram_degree, gram_degree)
    table = enumerate_pair_orbits(inst.group, gram_degree)
    basis = MonomialBasis(n, gram_degree)
    indicators = orbit_indicator_matrices(table, basis)
    closed, orbits = is_invariant_system(inst.group, inst.equalities) \
        if inst.equalities else (True, [])
    z = len(orbits) if closed and orbits is not None else len(inst.equalities)
    bound = 2 * gram_degree
    mult_dims = [math.comb(n + max(bound - p.degree(), 0), max(bound - p.degree(), 0))
                 for p in inst.equalities]
    # Free scalars in the reduced SDP: one per merged (transpose-closed)
    # indicator, plus one per constraint orbit (refute) or one per monomial
    # orbit of each multiplier (prove).
    if inst.target is None:
        after = len(indicators) + z
    else:
        after = len(indicators)
        for p in inst.equalities:
            mono_table = enumerate_monomial_orbits(inst.group,
                                                   max(bound - p.degree(), 0))
            after += len(mono_table)
    return VariableCountReport(
        n=n, gram_degree=gram_degree, w_size=w, y_size=w * w,
        pair_orbit_count=len(table), indicator_count=len(indicators),
        constraint_orbit_count=z, multiplier_dims=mult_dims,
        before_variables=w * (w + 1) // 2 + sum(mult_dims),
        after_variables=after)


def prove_invariant(inst: ProblemInstance,
                    config: Optional[SolverConfig] = None) -> PipelineResult:
    """Search for target + epsilon == sigma + sum lambda_j p_j (mod the ring),
    with sigma and every lambda_j invariant, at Gram degree inst.degree."""
    cfg = config or SolverConfig()
    if inst.target is None:
        raise InvalidInstance("prove mode needs a polynomial target")
    if not is_invariant(inst.group, inst.target):
        raise InvalidInstance("target polynomial is not invariant under the group")
    for p in inst.equalities:
        if not is_invariant(inst.group, p):
            raise InvalidInstance(
                "prove mode requires each equality constraint to be invariant")
    accounting = variable_count_report(inst)
    n, d = inst.n, inst.degree
    gb = inst.groebner
    goal = inst.target + Polynomial.constant(n, inst.epsilon)
    goal_red = _reduced(goal, gb)

    basis = MonomialBasis(n, d)
    pair_table = enumerate_pair_orbits(inst.group, d)
    indicators = orbit_indicator_matrices(pair_table, basis)
    a_cols = [_reduced(q.to_polynomial(), gb) for q in indicators]

    b_cols: list[Polynomial] = []
    mult_gens: list[tuple[int, Polynomial]] = []  # (constraint index, orbit-sum poly)
    for j, p in enumerate(inst.equalities):
        cols, gens = _invariant_multiplier_columns(
            inst.group, p, max(2 * d - p.degree(), 0), gb)
        b_cols.extend(cols)
        mult_gens.extend((j, g) for g in gens)

    amat, rhs = _match_columns(a_cols + b_cols, goal_red)
    system = FeasibilitySystem(psd_matrices=indicators, linear_map=amat, rhs=rhs,
                               b_names=[f"b{i}" for i in range(len(b_cols))])
    outcome = solve_feasibility(system, cfg)
    if not outcome.feasible:
        return PipelineResult("no-certificate-at-degree", reason="solver-infeasible",
                              accounting=accounting, solver=outcome,
                              epsilon=inst.epsilon)
    rat = _rationalize_ladder(outcome, system, cfg)
    if rat is None or not rat.ok:
        return PipelineResult("no-certificate-at-degree",
                              reason="rationalization-failed",
                              accounting=accounting, solver=outcome,
                              epsilon=inst.epsilon)
    k2 = len(indicators)
    sigma = combination(system, rat.values[:k2])
    lambdas = [Polynomial.zero(n) for _ in inst.equalities]
    for (j, gen), value in zip(mult_gens, rat.values[k2:]):
        if value:
            lambdas[j] = lambdas[j] + gen * value
    eq_pairs = list(zip(inst.equalities, lambdas))
    sigma_poly = sigma.to_polynomial()
    if gb is not None:
        cofactors = reconstruct_proof(goal, sigma_poly,
                                      [(lam, p) for p, lam in eq_pairs], gb)
        gb_pairs = [(g, c) for g, c in zip(gb.generators, cofactors)
                    if not c.is_zero()]
    else:
        gb_pairs = []
    cert = SosCertificate(target=goal, sigma=sigma,
                          equality_multipliers=eq_pairs,
                          groebner_multipliers=gb_pairs,
                          degree_bound=2 * d, mode=GENERAL)
    check = verify(cert)
    if not check.accepted:
        return PipelineResult("no-certificate-at-degree",
                              reason=f"internal verification failed: {check.failure}",
                              accounting=accounting, solver=outcome,
                              epsilon=inst.epsilon)
    return PipelineResult("certificate", certificate=cert, bit_report=bit_size(cert),
                          accounting=accounting, solver=outcome, epsilon=inst.epsilon)


def refute_invariant_system(inst: ProblemInstance,
                            config: Optional[SolverConfig] = None) -> PipelineResult:
    """Search for -1 == sigma + sum_i c_i (sum of squared constraints in
    orbit i) + ideal, the normal form over a finite product domain."""
    cfg = config or SolverConfig()
    if inst.target is not None:
        raise InvalidInstance("refute mode takes no polynomial target")
    if inst.domain_roots is None:
        raise InvalidInstance("refutation needs a finite product domain")
    if not inst.equalities:
        raise InvalidInstance("nothing to refute: no equality constraints")
    closed, orbits = is_invariant_system(inst.group, inst.equalities)
    if not closed:
        raise InvalidSystem("equality constraints are not closed under the group")
    accounting = variable_count_report(inst)
    n = inst.n
    k = inst.domain_half_degree
    d = inst.degree
    gram_degree = d + k - 1
    gb = inst.groebner
    target = Polynomial.constant(n, -1)

    basis = MonomialBasis(n, gram_degree)
    pair_table = enumerate_pair_orbits(inst.group, gram_degree)
    indicators = orbit_indicator_matrices(pair_table, basis)
    a_cols = [_reduced(q.to_polynomial(), gb) for q in indicators]
    b_cols = []
    for orbit in orbits:
        square_sum = Polynomial.zero(n)
        for idx in orbit:
            p = inst.equalities[idx]
            square_sum = square_sum + p * p
        b_cols.append(_reduced(square_sum, gb))

    amat, rhs = _match_columns(a_cols + b_cols, target)
    system = FeasibilitySystem(psd_matrices=indicators, linear_map=amat, rhs=rhs,
                               b_names=[f"c{i}" for i in range(len(b_cols))])
    outcome = solve_feasibility(system, cfg)
    if not outcome.feasible:
        return PipelineResult("no-certificate-at-degree", reason="solver-infeasible",
                              accounting=accounting, solver=outcome)
    rat = _rationalize_ladder(outcome, system, cfg)
    if rat is None or not rat.ok:
        return PipelineResult("no-certificate-at-degree",
                              reason="rationalization-failed",
                              accounting=accounting, solver=outcome)
    k2 = len(indicators)
    sigma = combination(system, rat.values[:k2])
    scalars = rat.values[k2:]
    eq_pairs: list[tuple[Polynomial, Fraction]] = []
    recon_products: list[tuple[Polynomial, Polynomial]] = []
    for orbit, c in zip(orbits, scalars):
        for idx in orbit:
            p = inst.equalities[idx]
            eq_pairs.append((p, c))
            recon_products.append((p * c, p))
    cofactors = reconstruct_proof(target, sigma.to_polynomial(), recon_products, gb)
    gb_pairs = [(g, cf) for g, cf in zip(gb.generators, cofactors) if not cf.is_zero()]
    bound = max(2 * (d + k - 1), max((2 * p.degree() for p in inst.equalities),
                                     default=0))
    cert = SosCertificate(target=target, sigma=sigma,
                          equality_multipliers=eq_pairs,
                          groebner_multipliers=gb_pairs,
                          degree_bound=bound, mode=NORMAL_FORM)
    check = verify(cert)
    if not check.accepted:
        return PipelineResult("no-certificate-at-degree",
                              reason=f"internal verification failed: {check.failure}",
                              accounting=accounting, solver=outcome)
    return PipelineResult("certificate", certificate=cert, bit_report=bit_size(cert),
                          accounting=accounting, solver=outcome)


def first_certificate(inst: ProblemInstance, max_degree: int,
                      config: Optional[SolverConfig] = None):
    """Try degrees 1..max_degree, stopping at the first certificate.

    Returns (result, trail) where trail lists (degree, status) for every
    degree attempted.
    """
    trail: list[tuple[int, str]] = []
    result: Optional[PipelineResult] = None
    for d in range(1, max_degree + 1):
        trial = replace(inst, degree=d)
        if inst.target is None:
            result = refute_invariant_system(trial, config)
        else:
            result = prove_invariant(trial, config)
        trail.append((d, result.status))
        if result.certified:
            break
    return result, trail


# -- pseudoexpectations ------------------------------------------------------


def _irreducible(mono: Monomial, gb: Optional[GroebnerBasis]) -> bool:
    if gb is None:
        return True
    from .poly import mono_divides
    return not any(mono_divides(g.leading_monomial(), mono) for g in gb.generators)


def find_pseudoexpectation(inst: ProblemInstance, degree: Optional[int] = None,
                           config: Optional[SolverConfig] = None) -> Optional[Pseudoexpectation]:
    """Numeric search for a symmetric degree-2d pseudoexpectation.

    Returns floating point moment values (evidence, not a theorem), or None
    when the solver cannot reach feasibility within tolerance.
    """
    cfg = config or SolverConfig()
    deg = 2 * inst.degree if degree is None else degree
    if deg < 2 or deg % 2 != 0:
        raise InvalidInstance("pseudoexpectation degree must be even and >= 2")
    closed, orbits = is_invariant_system(inst.group, inst.equalities) \
        if inst.equalities else (True, [])
    if not closed:
        raise InvalidSystem("equality constraints are not closed under the group")
    n = inst.n
    gb = inst.groebner
    mono_table = enumerate_monomial_orbits(inst.group, deg)
    reps = [r for r in mono_table.representatives if _irreducible(r, gb)]
    slot = {r: i for i, r in enumerate(reps)}

    def moment_row(p: Polynomial) -> list[Fraction]:
        row = [Fraction(0)] * len(reps)
        for mono, coeff in p.terms.items():
            row[slot[canonical_monomial(inst.group, mono)]] += coeff
        return row

    half = MonomialBasis(n, deg // 2)
    cache: dict[Monomial, Polynomial] = {}

    def reduced_mono(mono: Monomial) -> Polynomial:
        if mono not in cache:
            cache[mono] = _reduced(Polynomial.monomial(n, mono), gb)
        return cache[mono]

    e_mats = [GramMatrix(half) for _ in reps]
    for i, a in enumerate(half.entries):
        for j, b in enumerate(half.entries):
            prod = tuple(x + y for x, y in zip(a, b))
            for mono, coeff in reduced_mono(prod).terms.items():
                e_mats[slot[canonical_monomial(inst.group, mono)]].entries[i][j] += coeff

    one_row = [Fraction(0)] * len(reps)
    one_row[slot[(0,) * n]] = Fraction(1)
    rows = [one_row]
    for orbit in orbits:
        p = inst.equalities[orbit[0]]
        for mono in monomials_up_to(n, max(deg - p.degree(), 0)):
            rows.append(moment_row(_reduced(Polynomial.monomial(n, mono) * p, gb)))
    rows, rhs = _distinct_rows(rows, [Fraction(1)] + [Fraction(0)] * (len(rows) - 1))

    system = FeasibilitySystem(psd_matrices=e_mats, linear_map=rows, rhs=rhs,
                               b_names=[])
    outcome = solve_feasibility(system, cfg)
    if not outcome.feasible:
        return None
    values = outcome.solution.values
    return Pseudoexpectation(group=inst.group, degree=deg,
                             moments={r: values[i] for i, r in enumerate(reps)},
                             numeric=True)


def point_pseudoexpectation(inst: ProblemInstance, points: Sequence[Sequence],
                            degree: Optional[int] = None) -> Pseudoexpectation:
    """Exact pseudoexpectation averaging evaluation over points and orbits.

    Every point must satisfy the constraints and the domain equations; the
    result is symmetric by construction.
    """
    deg = 2 * inst.degree if degree is None else degree
    n = inst.n
    pts = [[Fraction(x) for x in pt] for pt in points]
    if not pts:
        raise InvalidInstance("need at least one point")
    for pt in pts:
        for p in inst.equalities:
            if p.evaluate(pt) != 0:
                raise InvalidInstance(f"point {pt} violates a constraint")
        if inst.groebner is not None:
            for g in inst.groebner.generators:
                if g.evaluate(pt) != 0:
                    raise InvalidInstance(f"point {pt} is outside the domain")
    gb = inst.groebner
    mono_table = enumerate_monomial_orbits(inst.group, deg)
    reps = [r for r in mono_table.representatives if _irreducible(r, gb)]
    moments = {}
    for rep in reps:
        members = list(monomial_orbit_elements(inst.group, rep))
        total = Fraction(0)
        for pt in pts:
            for m in members:
                total += Polynomial.monomial(n, m).evaluate(pt)
        moments[rep] = total / (len(pts) * len(members))
    return Pseudoexpectation(group=inst.group, degree=deg, moments=moments,
                             numeric=False)


def pseudoexpectation_value(pe: Pseudoexpectation, p: Polynomial,
                            gb: Optional[GroebnerBasis]):
    """Apply the functional to a polynomial (after ring reduction)."""
    reduced = _reduced(p, gb)
    total = Fraction(0) if not pe.numeric else 0.0
    for mono, coeff in reduced.terms.items():
        val = pe.moments[canonical_monomial(pe.group, mono)]
        total = total + (coeff * val if not pe.numeric else float(coeff) * val)
    return total


def check_pseudoexpectation(inst: ProblemInstance, pe: Pseudoexpectation,
                            tolerance: float = 1e-6) -> bool:
    """Numeric validity: L(1) = 1, L vanishes on constraint multiples up to
    pe.degree, and the moment matrix is PSD within tolerance."""
    n = inst.n
    gb = inst.groebner
    one = pseudoexpectation_value(pe, Polynomial.constant(n, 1), gb)
    if abs(float(one) - 1.0) > tolerance:
        return False
    for p in inst.equalities:
        for mono in monomials_up_to(n, max(pe.degree - p.degree(), 0)):
            val = pseudoexpectation_value(pe, Polynomial.monomial(n, mono) * p, gb)
            if abs(float(val)) > tolerance:
                return False
    half = MonomialBasis(n, pe.degree // 2)
    mat = np.empty((len(half), len(half)))
    for i, a in enumerate(half.entries):
        for j, b in enumerate(half.entries):
            prod = Polynomial.monomial(n, tuple(x + y for x, y in zip(a, b)))
            mat[i, j] = float(pseudoexpectation_value(pe, prod, gb))
    mat = (mat + mat.T) / 2.0
    return float(np.linalg.eigvalsh(mat)[0]) >= -tolerance
