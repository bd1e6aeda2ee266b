"""End-to-end searches: invariant proofs, refutations, pseudoexpectations.

prove_invariant and refute_invariant_system look for the same object,
goal == sigma + sum(multiplier * constraint) + ideal with sigma and the
multipliers invariant; they differ in the goal, the free columns and the
certificate mode.  Each describes its search in a _SearchSpec, built by
its mode's one setup check (_proof_spec, _refutation_spec), which
validates the instance and fixes the Gram degree and the constraint
orbits, and hands it to the one search core, _search.  The core counts
the unknowns first and refuses a system over the solver's cap before it
builds a column.  Its setup works on orbits and
sparse terms: key each pair of standard monomials by
its support, so that the pair orbits and their grid of merged-orbit ids
(one unknown of sigma per id) are enumerated once over the Gram basis
alone; reduce each unknown's column and the goal modulo the coordinate
ring as whole polynomials, through groebner.reduce_polynomial, the one
normal form the pipeline takes; fill
each coefficient-matching row from the columns' own terms and drop
repeats, keeping each row sparse from matching to rationalization, one per
distinct coefficient equation (one per monomial orbit for invariant data).
Invariance is checked one monomial orbit at a time.  It hands the tiny
symmetry-reduced SDP to the numeric solver, then per rounding window rounds
back to rationals, reconstructs the Groebner cofactors exactly, and
verifies, the one exact check (a sigma that is not PSD moves on to the next, finer
window).  The search keeps each unknown's unreduced column (the pair
monomials of a sigma id, or a free scalar's equality term), so sigma plus
the equality terms is one linear combination of them: the cofactors are
the quotients of the goal minus that combination on the ring's
generators, with no expansion of sigma and no multiplier times its
constraint, and verify is the one place sigma is expanded.  When the
solver finds no point, the result's reason is the solver's exit:
"dual-witness" when its primal iterate is numeric evidence that no
certificate exists at this degree, "solver-stopped" when it stopped at
its step cap or a failed factorisation without a point.  The
variable-count report builds the same _SearchSpec, so it rejects what the
search rejects, and counts the unknowns as the search does, without
building a column.  A returned certificate is always exact and has been
verified; everything numeric is quarantined in the solver.

The Gram basis, and the moment matrix's basis on the dual side, are the
ring's standard monomials, those that no generator's leading monomial
divides (on {0,1}^n the multilinear ones), filtered by _standard.  Any q
is congruent to its normal form, of no higher degree, so q^2 and NF(q)^2
agree modulo the ring and the other monomials add unknowns but no
proving power.  The solver sees only the standard block; the
certificate's sigma is still a GramMatrix over the whole MonomialBasis,
zero on every other row and column.  That needs the standard monomials
closed under the group, and the dual side needs reduction to commute with
it, so ProblemInstance rejects a caller's Groebner basis when the group
does not map its ideal, or the ideal of its leading monomials, onto
itself.  The ring of a domain: is invariant by construction, so it is
built once and never checked; a groebner basis given beside domain_roots
must equal it.

find_pseudoexpectation searches the dual side at degree 2 * inst.degree;
its output is numeric-only evidence (never a theorem) and is flagged as
such.  It solves the moment system that check_pseudoexpectation evaluates
within CHECK_TOLERANCE.  _moment_system builds that system one orbit at a
time, once per instance and degree, and keeps it on the instance, so a
find and a check on one instance share one build.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .certificates import (GENERAL, NORMAL_FORM, BitSizeReport, MultiplierLike,
                           SosCertificate, bit_size, verify)
from .errors import InvalidInstance, InvalidSystem
from .groebner import (GroebnerBasis, finite_domain_basis, reconstruct_proof,
                       reduce_polynomial)
from .poly import (Monomial, MonomialBasis, Polynomial, grlex_key,
                   linear_combination, monomials_up_to)
from .sdp import (FeasibilitySystem, SolveOutcome, check_variable_count, combination,
                  float_view, rationalize, solve_feasibility)
from .symmetry import (GroupSpec, canonical_monomial, enumerate_monomial_orbits,
                       enumerate_pair_orbits, is_invariant, is_invariant_system,
                       monomial_orbit_elements, moving_swaps, orbit_indicator_matrices,
                       reynolds_polynomial, swapped, swapped_monomial)

DEFAULT_EPSILON = Fraction(1, 2 ** 20)

# check_pseudoexpectation's bound on each moment row's residual and on the
# moment matrix's most negative eigenvalue.
CHECK_TOLERANCE = 1e-6

# Rounding windows tried in order during rationalization.
RATIONALIZE_WINDOWS = (Fraction(1, 10 ** 3), Fraction(1, 10 ** 5),
                       Fraction(1, 10 ** 7), Fraction(1, 10 ** 10))


@dataclass(frozen=True)
class ProblemInstance:
    group: GroupSpec
    equalities: list[Polynomial]
    domain_roots: Optional[tuple[Fraction, ...]] = None
    groebner: Optional[GroebnerBasis] = None
    target: Optional[Polynomial] = None  # None means: refute (target -1)
    degree: int = 1
    epsilon: Fraction = DEFAULT_EPSILON
    # _moment_system's (representatives, system) per degree, built on first
    # use, so that find and check share one; dataclasses.replace starts empty.
    _moment_systems: dict = field(default_factory=dict, init=False, compare=False,
                                  repr=False)

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
        if self.groebner is not None and self.groebner.n != n:
            raise InvalidInstance("groebner basis arity differs from group")
        if self.domain_roots is not None:  # invariant by construction
            ring = finite_domain_basis(n, self.domain_roots)
            if self.groebner is None:
                object.__setattr__(self, "groebner", ring)
            elif self.groebner != ring:
                raise InvalidInstance("give either domain_roots or groebner, not both")
        elif self.groebner is not None:
            _check_ring(self.group, self.groebner)

    @property
    def n(self) -> int:
        return self.group.n


def _check_ring(group: GroupSpec, gb: GroebnerBasis) -> None:
    """Raise InvalidInstance unless the group maps the ideal of gb's leading
    monomials, and the ideal itself, onto itself: under each transposition
    that can move it, each leading monomial's image has a leading monomial
    dividing it, and each generator's image reduces to zero.  Then standard
    monomials map to standard ones and reduction commutes with the group."""
    if any(g.degree() == 0 for g in gb.generators):
        raise InvalidInstance("a constant groebner generator leaves no "
                              "standard monomial: the ring is zero")
    members = {g.key() for g in gb.generators}
    for g in gb.generators:
        for i in moving_swaps(group, g.terms):
            if gb.is_standard(swapped_monomial(g.leading_monomial(), i)):
                raise InvalidInstance(
                    "the group does not permute the ideal of the groebner "
                    "generators' leading monomials, so the standard monomials "
                    "are not closed under it")
            moved = swapped(g, i)
            if moved.key() not in members and not reduce_polynomial(moved, gb).is_zero():
                raise InvalidInstance("the group does not map the ideal of the "
                                      "groebner generators onto itself")


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
    # "dual-witness" | "solver-stopped" | "rationalization-failed", or
    # "internal verification failed: ..."
    reason: Optional[str] = None
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


def _distinct_rows(rows: Iterable[tuple[Sequence[tuple[int, Fraction]], Fraction]]):
    """The equations row . y = value without repeats and without 0 = 0, as
    sparse rows {column: coefficient} and their right hand sides.

    Each row comes as its nonzero (column, coefficient) pairs in column
    order.  First occurrences keep their order.  The affine solution set
    is unchanged.  Equal coefficients with a different right hand side is
    a contradiction, so both rows stay for the solver to report.
    """
    seen = set()
    out_rows: list[dict[int, Fraction]] = []
    out_rhs: list[Fraction] = []
    for entries, value in rows:
        key = (tuple(entries), value)
        if key in seen or not (value or entries):
            continue
        seen.add(key)
        out_rows.append(dict(entries))
        out_rhs.append(value)
    return out_rows, out_rhs


def _match_columns(columns: Sequence[Mapping[Monomial, Fraction]],
                   target: Mapping[Monomial, Fraction]):
    """Coefficient-matching rows, one per distinct equation over the sorted
    monomials of all supports (one per monomial orbit for invariant data).

    columns and target are nonzero terms; each row is filled from the
    columns' own terms."""
    rows: dict[Monomial, list[tuple[int, Fraction]]] = {m: [] for m in target}
    for j, col in enumerate(columns):
        for m, c in col.items():
            rows.setdefault(m, []).append((j, c))
    return _distinct_rows((rows[m], target.get(m, Fraction(0))) for m in sorted(rows))


def _multiplier_degree(constraint: Polynomial, gram_degree: int) -> int:
    return max(2 * gram_degree - constraint.degree(), 0)


def _constraint_orbits(inst: ProblemInstance) -> list[list[int]]:
    """The orbits of the equality constraints under the group; raises
    InvalidSystem when the constraint list is not closed under it."""
    if not inst.equalities:
        return []
    closed, orbits = is_invariant_system(inst.group, inst.equalities)
    if not closed:
        raise InvalidSystem("equality constraints are not closed under the group")
    return orbits


def _standard(monomials: Iterable[Monomial],
              gb: Optional[GroebnerBasis]) -> list[Monomial]:
    """The standard monomials among these: those that no generator's
    leading monomial divides, which reduction modulo the ring leaves as
    they are (on {0,1}^n, the multilinear ones).  Every polynomial is
    congruent to one over them of no higher degree."""
    if gb is None:
        return list(monomials)
    return [m for m in monomials if gb.is_standard(m)]


def _gram_orbits(inst: ProblemInstance, gram_degree: int):
    """The Gram side of a search: the pair orbits of the standard monomials
    of degree <= gram_degree, those monomials, and the grid of merged-orbit
    ids over them (one unknown of sigma per id)."""
    standard = _standard(MonomialBasis(inst.n, gram_degree), inst.groebner)
    table = enumerate_pair_orbits(inst.group, gram_degree, standard)
    return table, standard, orbit_indicator_matrices(table)


@dataclass
class _SearchSpec:
    """One certificate search: goal == sigma + sum of equality terms + ideal.

    sigma is a Gram matrix over the standard monomials of degree <=
    gram_degree, with one unknown per merged pair orbit.  There are
    free_count free scalars; free_terms builds the unreduced equality term
    of each (the term the scalar 1 stands for), which the search does only
    once the count of unknowns is within the solver's cap.  multipliers
    turns the scalars' exact values into the certificate's (constraint,
    multiplier) pairs.
    """

    goal: Polynomial
    gram_degree: int
    free_count: int
    free_terms: Callable[[], list[Polynomial]]
    multipliers: Callable[[Sequence[Fraction]], list[tuple[Polynomial, MultiplierLike]]]
    constraint_orbits: list[list[int]]
    degree_bound: int
    mode: str
    epsilon: Optional[Fraction] = None


def _accounting(inst: ProblemInstance, spec: _SearchSpec
                ) -> tuple[list[Monomial], list[list[int]], VariableCountReport]:
    """spec's Gram basis, its grid of merged-orbit ids, and the search's
    unknown counts, without building a column."""
    table, standard, ids = _gram_orbits(inst, spec.gram_degree)
    n, gram_degree, w = inst.n, spec.gram_degree, len(standard)
    indicators = 1 + max(map(max, ids))
    mult_dims = [math.comb(n + e, e) for e in
                 (_multiplier_degree(p, gram_degree) for p in inst.equalities)]
    return standard, ids, VariableCountReport(
        n=n, gram_degree=gram_degree, w_size=w, y_size=w * w,
        pair_orbit_count=len(table),
        indicator_count=indicators,
        constraint_orbit_count=len(spec.constraint_orbits),
        multiplier_dims=mult_dims,
        before_variables=w * (w + 1) // 2 + sum(mult_dims),
        after_variables=indicators + spec.free_count)


def _proof_spec(inst: ProblemInstance) -> _SearchSpec:
    """prove_invariant's search at Gram degree inst.degree, raising as it
    does on an instance it rejects: one free scalar per monomial orbit of
    each constraint's multiplier, whose term is the orbit sum times the
    constraint."""
    if inst.target is None:
        raise InvalidInstance("prove mode needs a polynomial target")
    if not is_invariant(inst.group, inst.target):
        raise InvalidInstance("target polynomial is not invariant under the group")
    for p in inst.equalities:
        if not is_invariant(inst.group, p):
            raise InvalidInstance(
                "prove mode requires each equality constraint to be invariant")
    n, group, eqs, d = inst.n, inst.group, inst.equalities, inst.degree
    orbits = _constraint_orbits(inst)
    owners = [(j, rep) for j, p in enumerate(eqs)  # (constraint index, orbit)
              for rep in enumerate_monomial_orbits(
                  group, _multiplier_degree(p, d)).representatives]

    def orbit_sum(rep: Monomial) -> Polynomial:
        return Polynomial(n, {m: Fraction(1) for m in monomial_orbit_elements(group, rep)})

    def multipliers(values: Sequence[Fraction]):
        return [(p, linear_combination(n, [(value, orbit_sum(rep)) for (i, rep), value
                                           in zip(owners, values) if i == j]))
                for j, p in enumerate(eqs)]

    return _SearchSpec(
        goal=inst.target + Polynomial.constant(n, inst.epsilon), gram_degree=d,
        free_count=len(owners),
        free_terms=lambda: [orbit_sum(rep) * eqs[j] for j, rep in owners],
        multipliers=multipliers, constraint_orbits=orbits,
        degree_bound=2 * d, mode=GENERAL, epsilon=inst.epsilon)


def _refutation_spec(inst: ProblemInstance) -> _SearchSpec:
    """refute_invariant_system's search, raising as it does on an instance
    it rejects: Gram degree inst.degree + k - 1 over a 2k-point domain, and
    one free scalar per constraint orbit, whose term is the sum of the
    orbit's squared constraints."""
    if inst.target is not None:
        raise InvalidInstance("refute mode takes no polynomial target")
    if inst.domain_roots is None:
        raise InvalidInstance("refutation needs a finite product domain")
    if not inst.equalities:
        raise InvalidInstance("nothing to refute: no equality constraints")
    n, eqs, orbits = inst.n, inst.equalities, _constraint_orbits(inst)
    gram_degree = inst.degree + len(inst.domain_roots) // 2 - 1

    def multipliers(values: Sequence[Fraction]):
        return [(eqs[i], c) for orbit, c in zip(orbits, values) for i in orbit]

    return _SearchSpec(
        goal=Polynomial.constant(n, -1), gram_degree=gram_degree,
        free_count=len(orbits),
        free_terms=lambda: [sum((eqs[i] * eqs[i] for i in orbit), Polynomial.zero(n))
                            for orbit in orbits],
        multipliers=multipliers, constraint_orbits=orbits,
        degree_bound=max(2 * gram_degree, max(2 * p.degree() for p in eqs)),
        mode=NORMAL_FORM)


def variable_count_report(inst: ProblemInstance) -> VariableCountReport:
    """Unknown counts before and after symmetry reduction, as the search for
    inst sets them up, counted without building its columns; it rejects
    what the search rejects, and prove and refute attach the same report."""
    spec = _refutation_spec(inst) if inst.target is None else _proof_spec(inst)
    return _accounting(inst, spec)[2]


def _search(inst: ProblemInstance, spec: _SearchSpec) -> PipelineResult:
    gb = inst.groebner
    standard, ids, accounting = _accounting(inst, spec)
    check_variable_count(accounting.after_variables)
    k2 = accounting.indicator_count

    def no_certificate(reason: str, outcome: SolveOutcome) -> PipelineResult:
        return PipelineResult("no-certificate-at-degree", reason=reason,
                              accounting=accounting, solver=outcome,
                              epsilon=spec.epsilon)

    # Id r's column sums x^(a + b) over the entries (a, b) that hold r; the
    # grid is symmetric, so each entry off the diagonal counts twice.
    a_terms: list[Counter] = [Counter() for _ in range(k2)]
    for i, (a, row) in enumerate(zip(standard, ids)):
        a_terms[row[i]][tuple(map(add, a, a))] += 1
        for b, r in zip(standard[i + 1:], row[i + 1:]):
            a_terms[r][tuple(map(add, a, b))] += 2
    # Each unknown's unreduced column: what its value 1 adds to the identity.
    columns = [Polynomial._of_clean(inst.n, {m: Fraction(c) for m, c in t.items()})
               for t in a_terms] + spec.free_terms()

    def normal(p: Polynomial) -> Mapping[Monomial, Fraction]:
        return p.terms if gb is None else reduce_polynomial(p, gb).terms
    rows, rhs = _match_columns([normal(c) for c in columns], normal(spec.goal))
    system = FeasibilitySystem(
        basis=standard, forms=[{r: Fraction(1)} for r in range(k2)], grid=ids,
        linear_map=rows, rhs=rhs, k3=spec.free_count)
    outcome = solve_feasibility(system)
    if not outcome.feasible:
        return no_certificate(outcome.exit, outcome)
    # verify is the one exact check; a sigma that is not PSD tries a finer window.
    # The certificate's sigma is over the whole basis, zero off the standard rows.
    basis = MonomialBasis(inst.n, spec.gram_degree)
    for window in RATIONALIZE_WINDOWS:
        rat = rationalize(outcome.values, system, window=window)
        if not rat.ok:
            continue
        sigma = combination(system, rat.values[:k2], basis)
        eq_pairs = spec.multipliers(rat.values[k2:])
        gb_pairs = []
        if gb is not None:
            # sigma plus every equality term is this one combination of the
            # unreduced columns; the goal minus it must lie in the ideal, and
            # its quotients on the basis are the cofactors.
            residual = linear_combination(
                inst.n, [(1, spec.goal)] + [(-v, c) for v, c in zip(rat.values, columns)])
            cofactors = reconstruct_proof(residual, Polynomial.zero(inst.n), gb)
            gb_pairs = [(g, c) for g, c in zip(gb.generators, cofactors)
                        if not c.is_zero()]
        cert = SosCertificate(target=spec.goal, sigma=sigma,
                              equality_multipliers=eq_pairs,
                              groebner_multipliers=gb_pairs,
                              degree_bound=spec.degree_bound, mode=spec.mode)
        check = verify(cert)
        if check.accepted:
            return PipelineResult("certificate", certificate=cert,
                                  bit_report=bit_size(cert), accounting=accounting,
                                  solver=outcome, epsilon=spec.epsilon)
        if check.psd_witness is None:
            return no_certificate(f"internal verification failed: {check.failure}",
                                  outcome)
    return no_certificate("rationalization-failed", outcome)


def prove_invariant(inst: ProblemInstance) -> PipelineResult:
    """Search for target + epsilon == sigma + sum lambda_j p_j (mod the ring),
    with sigma and every lambda_j invariant, at Gram degree inst.degree."""
    return _search(inst, _proof_spec(inst))


def refute_invariant_system(inst: ProblemInstance) -> PipelineResult:
    """Search for -1 == sigma + sum_i c_i (sum of squared constraints in
    orbit i) + ideal, the normal form over a finite product domain."""
    return _search(inst, _refutation_spec(inst))


# -- pseudoexpectations ------------------------------------------------------


def _moment_representatives(inst: ProblemInstance, deg: int) -> list[Monomial]:
    """The standard orbit representatives of degree <= deg: one moment
    unknown each."""
    return _standard(enumerate_monomial_orbits(inst.group, deg).representatives,
                     inst.groebner)


def _first_members(group: GroupSpec, degree: int) -> list[Monomial]:
    """The first monomial in grlex order of each orbit of degree <= degree
    (each block's exponents ascending), in grlex order."""
    return sorted((tuple(e for sl in group.block_slices for e in reversed(rep[sl]))
                   for rep in enumerate_monomial_orbits(group, degree).representatives),
                  key=grlex_key)


def _moment_system(inst: ProblemInstance, deg: int
                   ) -> tuple[list[Monomial], FeasibilitySystem]:
    """The moment system of a symmetric degree-deg functional L.

    L's unknowns are its values L_r on the representatives.  The grid is
    the moment matrix over the standard monomials of degree <= deg/2,
    entry (a, b) the index in forms of the sparse form L(x^(a + b)) over
    the unknowns, one form per canonical monomial.  That loses nothing: L
    is defined through reduction, so L(q^2) = L(NF(q)^2) for every q, and
    NF(q) lies in their span.  The rows are the distinct
    equations L(1) = 1 and L(m p) = 0 for every monomial m of degree <=
    deg - deg p and each constraint p, each filled sparse.  The group maps
    the ring onto itself, so L(x^m) depends only on the orbit of m: each
    orbit is reduced once, the rows of g p at m are those of p at g^-1 m
    (one constraint per orbit gives them all), and an invariant p takes
    one shift per monomial orbit, the first of the walk over every shift.
    The result is built once per instance and degree and kept on inst.
    """
    if deg in inst._moment_systems:
        return inst._moment_systems[deg]
    n, group, gb = inst.n, inst.group, inst.groebner
    reps = _moment_representatives(inst, deg)
    slot = {r: i for i, r in enumerate(reps)}
    forms: list[dict[int, Fraction]] = []
    index: dict[Monomial, int] = {}  # canonical monomial -> its form in forms

    def moment_of(mono: Monomial) -> int:
        """The index in forms of L(mono) as coefficients on the unknowns."""
        canon = canonical_monomial(group, mono)
        if canon not in index:
            index[canon] = len(forms)
            form: dict[int, Fraction] = {}
            normal = ({canon: Fraction(1)} if gb is None else
                      reduce_polynomial(Polynomial.monomial(n, canon), gb).terms)
            for m, coeff in normal.items():
                r = slot[canonical_monomial(group, m)]
                form[r] = form.get(r, 0) + coeff
            forms.append(form)
        return index[canon]

    half = _standard(MonomialBasis(n, deg // 2), inst.groebner)
    grid = [[0] * len(half) for _ in half]
    for i, a in enumerate(half):
        for j in range(i, len(half)):
            grid[i][j] = grid[j][i] = moment_of(tuple(map(add, a, half[j])))
    entries = forms[:]  # the grid's forms; the rows below add more

    def moment_row(shift: Monomial, p: Polynomial) -> list[tuple[int, Fraction]]:
        """L(x^shift * p) as its nonzero (unknown, coefficient) pairs."""
        row: dict[int, Fraction] = {}
        for mono, coeff in p.terms.items():
            for r, c in forms[moment_of(tuple(map(add, shift, mono)))].items():
                row[r] = row.get(r, 0) + coeff * c
        return sorted((r, c) for r, c in row.items() if c)

    rows = [(moment_row((0,) * n, Polynomial.constant(n, 1)), Fraction(1))]
    for orbit in _constraint_orbits(inst):
        p = inst.equalities[orbit[0]]
        shift_degree = max(deg - p.degree(), 0)
        shifts = (_first_members(group, shift_degree) if is_invariant(group, p)
                  else monomials_up_to(n, shift_degree))
        rows += [(moment_row(m, p), Fraction(0)) for m in shifts]
    rows, rhs = _distinct_rows(rows)
    inst._moment_systems[deg] = reps, FeasibilitySystem(
        basis=half, forms=entries, grid=grid, linear_map=rows, rhs=rhs, k3=0)
    return inst._moment_systems[deg]


def find_pseudoexpectation(inst: ProblemInstance) -> Optional[Pseudoexpectation]:
    """Numeric search for a symmetric pseudoexpectation of degree
    2 * inst.degree.

    Returns floating point moment values (evidence, not a theorem), or None
    when the solver finds no point within tolerance.
    """
    deg = 2 * inst.degree
    reps, system = _moment_system(inst, deg)
    outcome = solve_feasibility(system)
    if not outcome.feasible:
        return None
    values = outcome.values
    return Pseudoexpectation(group=inst.group, degree=deg,
                             moments={r: values[i] for i, r in enumerate(reps)},
                             numeric=True)


def point_pseudoexpectation(inst: ProblemInstance,
                            points: Sequence[Sequence]) -> Pseudoexpectation:
    """Exact pseudoexpectation of degree 2 * inst.degree: the moment of
    x^rep is the mean over points of reynolds_polynomial(group, x^rep).

    Every point must satisfy the constraints and the domain equations; the
    result is symmetric by construction.
    """
    deg, n = 2 * inst.degree, inst.n
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
    moments = {}
    for rep in _moment_representatives(inst, deg):
        average = reynolds_polynomial(inst.group, Polynomial.monomial(n, rep))
        moments[rep] = sum(average.evaluate(pt) for pt in pts) / len(pts)
    return Pseudoexpectation(group=inst.group, degree=deg, moments=moments,
                             numeric=False)


def check_pseudoexpectation(inst: ProblemInstance, pe: Pseudoexpectation) -> bool:
    """Numeric validity of pe's moments on inst's representatives: every
    moment row (L(1) = 1 and L vanishing on each constraint's multiples up
    to pe.degree) holds, and the moment matrix is PSD, within
    CHECK_TOLERANCE.  pe must be over inst's group and carry a moment on
    each of inst's representatives."""
    if pe.group != inst.group:
        raise InvalidInstance(f"pseudoexpectation is over the group {pe.group}, "
                              f"the instance over {inst.group}")
    reps, system = _moment_system(inst, pe.degree)
    missing = next((r for r in reps if r not in pe.moments), None)
    if missing is not None:
        raise InvalidInstance(f"pseudoexpectation has no moment on the "
                              f"representative {missing}")
    stack, amat, rhs = float_view(system)
    values = np.array([float(pe.moments[r]) for r in reps])
    if float(np.abs(amat @ values - rhs).max()) > CHECK_TOLERANCE:
        return False
    mat = (values @ stack).reshape(system.gram_dim, -1)
    return float(np.linalg.eigvalsh(mat)[0]) >= -CHECK_TOLERANCE
