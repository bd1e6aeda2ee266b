import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsos import linalg, pipeline, symmetry
from symsos.certificates import (NORMAL_FORM, bit_size, serialize_certificate,
                                 verify)
from symsos.errors import InvalidInstance, InvalidSystem, ResourceLimit
from symsos.groebner import GroebnerBasis, divide, reduce_polynomial
from symsos.pipeline import (RATIONALIZE_WINDOWS, ProblemInstance,
                             Pseudoexpectation, _distinct_rows, _match_columns,
                             check_pseudoexpectation, find_pseudoexpectation,
                             point_pseudoexpectation, prove_invariant,
                             refute_invariant_system, variable_count_report)
from symsos.poly import (MonomialBasis, Polynomial, accumulate_term, grlex_key,
                         monomials_up_to)
from symsos.sdp import MAX_VARIABLES, FeasibilitySystem, SolveOutcome, solve_feasibility
from symsos.symmetry import (GramMatrix, GroupSpec, canonical_monomial,
                             enumerate_monomial_orbits, is_invariant)

BOOL = (Fraction(0), Fraction(1))


def frac(a, b=1):
    return Fraction(a, b)


def sum_of_vars(n):
    s = Polynomial.zero(n)
    for i in range(n):
        s = s + Polynomial.variable(n, i)
    return s


def half_integral_knapsack(n):
    """sum x_i = n + 1/2 over {0,1}^n: unsatisfiable for every n."""
    return ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n)
                                       - Polynomial.constant(n, frac(2 * n + 1, 2))],
                           domain_roots=BOOL, degree=1)


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        ProblemInstance(group=GroupSpec.symmetric(2),
                        equalities=[Polynomial.variable(1, 0)],
                        domain_roots=BOOL)
    with pytest.raises(InvalidInstance):
        ProblemInstance(group=GroupSpec.symmetric(2),
                        equalities=[Polynomial.zero(2)], domain_roots=BOOL)
    with pytest.raises(InvalidInstance):
        ProblemInstance(group=GroupSpec.symmetric(2), equalities=[],
                        domain_roots=BOOL, degree=0)


def test_refute_half_integral_knapsack():
    for n in (1, 2):
        result = refute_invariant_system(half_integral_knapsack(n))
        assert result.certified
        cert = result.certificate
        assert verify(cert).accepted
        assert cert.mode == NORMAL_FORM
        assert cert.degree_bound == 2
        scalars = [m for _, m in cert.equality_multipliers]
        assert all(isinstance(m, Fraction) for m in scalars)
        assert is_invariant(GroupSpec.symmetric(n), cert.sigma.to_polynomial())


def entries(system):
    """The system's grid with each index replaced by the form it names."""
    return [[system.forms[k] for k in row] for row in system.grid]


def captured_system(monkeypatch, inst, search=refute_invariant_system):
    """The search's result and the FeasibilitySystem it hands to the solver
    (which is stubbed to give up at once)."""
    seen = []

    def capture(system):
        seen.append(system)
        return SolveOutcome("solver-stopped", None, -1.0, 1.0, 0)

    monkeypatch.setattr(pipeline, "solve_feasibility", capture)
    result = search(inst)
    return result, seen[0]


@pytest.mark.parametrize("n,d,rows", [(4, 1, 3), (8, 1, 3), (16, 1, 3),
                                      (4, 2, 5), (8, 2, 5)])
def test_one_row_per_distinct_equation(monkeypatch, n, d, rows):
    inst = replace(half_integral_knapsack(n), degree=d)
    assert captured_system(monkeypatch, inst)[1].k1 == rows


def pinned_proof():
    # on {0,1}^2 with x1 + x2 = 2 the only point is (1,1), so x1 x2 >= 0
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return ProblemInstance(group=GroupSpec.symmetric(2),
                           equalities=[x1 + x2 - Polynomial.constant(2, 2)],
                           domain_roots=BOOL, target=x1 * x2, degree=1)


@pytest.mark.parametrize("search,inst", [
    (refute_invariant_system, half_integral_knapsack(2)),
    (prove_invariant, pinned_proof()),
], ids=["refute", "prove"])
def test_search_enumerates_orbits_once(monkeypatch, search, inst):
    calls = {}
    for name in ("enumerate_pair_orbits", "orbit_indicator_matrices"):
        def counted(*args, _name=name, _original=getattr(pipeline, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(pipeline, name, counted)
    assert search(inst).certified
    assert calls == {"enumerate_pair_orbits": 1, "orbit_indicator_matrices": 1}


def counted_gram_matrices(monkeypatch):
    """One flag per GramMatrix built from now on: whether it was built
    inside combination; and the list of rationalize calls."""
    built, inside, windows = [], [], []
    original_init = GramMatrix.__init__
    original_combination = pipeline.combination
    original_rationalize = pipeline.rationalize

    def counted_init(self, *args, **kwargs):
        built.append(bool(inside))
        original_init(self, *args, **kwargs)

    def counted_combination(*args):
        inside.append(True)
        try:
            return original_combination(*args)
        finally:
            inside.pop()

    def counted_rationalize(*args, **kwargs):
        windows.append(kwargs["window"])
        return original_rationalize(*args, **kwargs)

    monkeypatch.setattr(GramMatrix, "__init__", counted_init)
    monkeypatch.setattr(pipeline, "combination", counted_combination)
    monkeypatch.setattr(pipeline, "rationalize", counted_rationalize)
    return built, windows


@pytest.mark.parametrize("search,inst", [
    (refute_invariant_system, half_integral_knapsack(2)),
    (prove_invariant, pinned_proof()),
], ids=["refute", "prove"])
def test_search_builds_gram_matrices_only_in_combination(monkeypatch, search, inst):
    built, windows = counted_gram_matrices(monkeypatch)
    assert search(inst).certified
    assert windows and built == [True] * len(windows)


def test_pseudoexpectation_search_builds_no_gram_matrix(monkeypatch):
    built, _ = counted_gram_matrices(monkeypatch)
    n = 4
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 2)],
                           domain_roots=BOOL, degree=1)
    assert find_pseudoexpectation(inst) is not None
    assert built == []


def counted_psd_calls(monkeypatch):
    """Every matrix handed to linalg.psd_certificate from now on."""
    calls = []
    original = linalg.psd_certificate

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(linalg, "psd_certificate", counted)
    return calls


@pytest.mark.parametrize("search,inst", [
    (refute_invariant_system, half_integral_knapsack(2)),
    (prove_invariant, pinned_proof()),
], ids=["refute", "prove"])
def test_certified_search_checks_psd_once(monkeypatch, search, inst):
    calls = counted_psd_calls(monkeypatch)
    result = search(inst)
    assert result.certified
    assert calls == [integer_block(result.certificate.sigma)]


def integer_block(sigma):
    """sigma's nonzero rows and columns, times the lcm of its denominators."""
    den = math.lcm(*(x.denominator for row in sigma.entries for x in row))
    keep = [i for i, row in enumerate(sigma.entries) if any(row)]
    return [[int(sigma.entries[i][j] * den) for j in keep] for i in keep]


def test_psd_check_sees_only_the_standard_rows(monkeypatch):
    # refute d=3 on {0,1}^4: sigma has 35 rows, 15 of them multilinear
    calls = counted_psd_calls(monkeypatch)
    result = refute_invariant_system(replace(half_integral_knapsack(4), degree=3))
    assert result.certified and result.certificate.sigma.dim == 35
    assert [len(block) for block in calls] == [15]
    assert all(type(x) is int for row in calls[0] for x in row)


def ladder_instance():
    """1 == sigma + lambda * x given x = 0, sigma over the basis (1, x).

    Matching forces sigma's constant entry to 1 and the free multiplier
    lambda absorbs the rest, so rounding keeps sigma = [[1, a1], [a1, a2]]
    as rounded, and sigma is PSD iff a2 >= a1^2.
    """
    x = Polynomial.variable(1, 0)
    return ProblemInstance(group=GroupSpec.trivial(1), equalities=[x],
                           target=Polynomial.constant(1, 1), degree=1,
                           epsilon=frac(0))


def planted_solution(monkeypatch, a1, a2):
    """Make the solver answer sigma = [[1, a1], [a1, a2]] for
    ladder_instance(); returns the windows rationalize is then called with."""
    def planted(system):
        grid = entries(system)
        (one,), (lin,), (sq,) = grid[0][0], grid[0][1], grid[1][1]
        values = [0.0] * system.variables
        values[one], values[lin], values[sq] = 1.0, a1, a2
        return SolveOutcome("margin", values, 0.0, 0.0, 1)

    windows = []
    original = pipeline.rationalize

    def recorded(*args, **kwargs):
        windows.append(kwargs["window"])
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_feasibility", planted)
    monkeypatch.setattr(pipeline, "rationalize", recorded)
    return windows


def test_ladder_moves_past_a_window_whose_sigma_is_not_psd(monkeypatch):
    # 1.0665 - 1.0325^2 > 4e-4, but within 1e-3 the simplest rationals are
    # a1 = 31/30 and a2 = 16/15, and 16/15 - (31/30)^2 = -1/900.
    windows = planted_solution(monkeypatch, 1.0325, 1.0665)
    calls = counted_psd_calls(monkeypatch)
    result = prove_invariant(ladder_instance())
    assert result.certified
    assert windows == list(RATIONALIZE_WINDOWS[:2])
    assert len(calls) == 2
    a1 = result.certificate.sigma.entries[0][1]
    assert abs(a1 - frac(10325, 10000)) <= RATIONALIZE_WINDOWS[1]


def test_ladder_gives_up_when_no_window_is_psd(monkeypatch):
    windows = planted_solution(monkeypatch, 1.0325, 1.06)  # 1.06 < 1.0325^2
    result = prove_invariant(ladder_instance())
    assert not result.certified
    assert result.reason == "rationalization-failed"
    assert windows == list(RATIONALIZE_WINDOWS)


def block_sums(blocks, values):
    """One constraint sum x_i = value per block of variables."""
    n = sum(blocks)
    out, start = [], 0
    for size, value in zip(blocks, values):
        s = Polynomial.zero(n)
        for i in range(start, start + size):
            s = s + Polynomial.variable(n, i)
        out.append(s - Polynomial.constant(n, value))
        start += size
    return out


REPORT_CASES = {
    "refute-S3": (refute_invariant_system, ProblemInstance(
        group=GroupSpec.symmetric(3),
        equalities=[Polynomial.variable(3, i) - Polynomial.constant(3, frac(1, 2))
                    for i in range(3)], domain_roots=BOOL, degree=1)),
    "refute-S2xS2": (refute_invariant_system, ProblemInstance(
        group=GroupSpec((2, 2)), equalities=block_sums((2, 2), (frac(5, 2), 1)),
        domain_roots=BOOL, degree=1)),
    "refute-trivial": (refute_invariant_system,
                       replace(half_integral_knapsack(3), group=GroupSpec.trivial(3))),
    "prove-S4": (prove_invariant, ProblemInstance(
        group=GroupSpec.symmetric(4), equalities=block_sums((4,), (2,)),
        domain_roots=BOOL, target=Polynomial.constant(4, 1), degree=2)),
    "prove-S2xS2": (prove_invariant, ProblemInstance(
        group=GroupSpec((2, 2)), equalities=block_sums((4,), (2,)),
        domain_roots=BOOL, target=Polynomial.constant(4, 1), degree=1)),
    "prove-trivial": (prove_invariant, replace(pinned_proof(),
                                               group=GroupSpec.trivial(2))),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_accounting_matches_the_solved_system(monkeypatch, case):
    search, inst = REPORT_CASES[case]
    result, system = captured_system(monkeypatch, inst, search)
    assert result.accounting == variable_count_report(inst)
    assert result.accounting.after_variables == system.variables


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_variable_count_report_builds_no_column(monkeypatch, case):
    # The report counts the free unknowns; building them (orbit sums, each
    # times its constraint, or a constraint squared) is the search's work.
    search, inst = REPORT_CASES[case]
    calls = []

    def spy(name, real):
        def recorded(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return recorded

    monkeypatch.setattr(Polynomial, "__mul__", spy("__mul__", Polynomial.__mul__))
    for module in (pipeline, symmetry):
        monkeypatch.setattr(module, "monomial_orbit_elements",
                            spy("monomial_orbit_elements",
                                symmetry.monomial_orbit_elements))
    report = variable_count_report(inst)
    assert calls == []
    assert search(inst).accounting == report
    assert calls  # the search builds them, seen through the same spies


def test_search_over_the_solver_cap_builds_no_column(monkeypatch):
    # no group: refute on 40 variables has 861 Gram unknowns and one free
    # scalar, prove on 16 variables at degree 2 has 9,453 Gram unknowns
    # and 969 free scalars; both are refused before any term is built.
    refutation = ProblemInstance(
        group=GroupSpec.trivial(40), domain_roots=BOOL, degree=1,
        equalities=[sum_of_vars(40) - Polynomial.constant(40, frac(1, 2))])
    proof = ProblemInstance(group=GroupSpec.trivial(16),
                            equalities=[sum_of_vars(16) - Polynomial.constant(16, 8)],
                            domain_roots=BOOL, target=Polynomial.constant(16, 1), degree=2)
    calls = []

    def spy(name, real):
        def recorded(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return recorded

    monkeypatch.setattr(Polynomial, "__mul__", spy("__mul__", Polynomial.__mul__))
    monkeypatch.setattr(pipeline, "reduce_polynomial",
                        spy("reduce_polynomial", pipeline.reduce_polynomial))
    for search, inst in ((refute_invariant_system, refutation), (prove_invariant, proof)):
        with pytest.raises(ResourceLimit, match="exceed solver cap"):
            search(inst)
        assert variable_count_report(inst).after_variables > MAX_VARIABLES
    assert calls == []


def test_conflicting_rows_survive_matching():
    one = [(0, frac(1))]
    assert _distinct_rows([(one, frac(1)), (one, frac(1)), ([], frac(0)),
                           (one, frac(-1))]) == \
        ([{0: frac(1)}, {0: frac(1)}], [frac(1), frac(-1)])
    # x1 + x2 against x1 - x2: a = 1 and a = -1 must both reach the solver.
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    rows, rhs = _match_columns([(x1 + x2).terms], (x1 - x2).terms)
    assert rows == [{0: frac(1)}, {0: frac(1)}] and sorted(rhs) == [-1, 1]
    system = FeasibilitySystem(basis=MonomialBasis(2, 0), forms=[{0: frac(1)}], grid=[[0]],
                               linear_map=rows, rhs=rhs, k3=0)
    assert not solve_feasibility(system).feasible


def test_a_free_scalar_whose_column_reduces_to_zero_keeps_its_place(monkeypatch):
    # x1^2 - x1 + x2^2 - x2 vanishes on {0,1}^2, so its squared term reduces
    # to zero: the rows never touch its scalar, which only k3 keeps.
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    inst = ProblemInstance(group=GroupSpec.symmetric(2),
                           equalities=[x1 * x1 - x1 + x2 * x2 - x2,
                                       x1 + x2 - Polynomial.constant(2, frac(5, 2))],
                           domain_roots=BOOL, degree=1)
    systems = []

    def recorded(system):
        systems.append(system)
        return solve_feasibility(system)

    monkeypatch.setattr(pipeline, "solve_feasibility", recorded)
    result = refute_invariant_system(inst)
    assert result.certified
    assert [system.k3 for system in systems] == [2]
    assert [p for p, _ in result.certificate.equality_multipliers] == inst.equalities
    doc = json.loads(serialize_certificate(result.certificate))
    assert doc["equality_multipliers"][0]["scalar"] == "0/1"


def test_refute_trivial_group():
    inst = replace(half_integral_knapsack(3), group=GroupSpec.trivial(3))
    result = refute_invariant_system(inst)
    assert result.certified
    assert verify(result.certificate).accepted


def test_refute_satisfiable_returns_none():
    n = 2
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 1)],
                           domain_roots=BOOL, degree=1)
    result = refute_invariant_system(inst)
    assert not result.certified
    assert result.status == "no-certificate-at-degree"
    assert result.reason == "dual-witness"


@pytest.mark.parametrize("n", [8, 16])
def test_refute_half_integral_knapsack_beyond_small_n(n):
    result = refute_invariant_system(half_integral_knapsack(n))
    assert result.certified
    assert verify(result.certificate).accepted


def test_refute_contradictory_pair():
    n = 8
    total = sum_of_vars(n)
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[total - Polynomial.constant(n, frac(n, 2)),
                                       total - Polynomial.constant(n, frac(n + 1, 2))],
                           domain_roots=BOOL, degree=1)
    result = refute_invariant_system(inst)
    assert result.certified
    assert verify(result.certificate).accepted


def test_stopped_solver_gives_its_own_reason(monkeypatch):
    def failing(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    result = refute_invariant_system(half_integral_knapsack(8))
    assert not result.certified
    assert result.reason == "solver-stopped"


def test_refute_requires_closed_system():
    inst = ProblemInstance(group=GroupSpec.symmetric(2),
                           equalities=[Polynomial.variable(2, 0)],
                           domain_roots=BOOL, degree=1)
    with pytest.raises(InvalidSystem):
        refute_invariant_system(inst)


def test_refute_rejects_prove_style_instance():
    inst = replace(half_integral_knapsack(2), target=Polynomial.constant(2, 1))
    with pytest.raises(InvalidInstance):
        refute_invariant_system(inst)


def test_prove_pinned_example():
    inst = pinned_proof()
    result = prove_invariant(inst)
    assert result.certified
    cert = result.certificate
    assert verify(cert).accepted
    assert cert.target == inst.target + Polynomial.constant(2, inst.epsilon)
    assert is_invariant(inst.group, cert.sigma.to_polynomial())
    for _, mult in cert.equality_multipliers:
        assert is_invariant(inst.group, mult)
    assert result.bit_report is not None


def test_prove_constant_one():
    inst = ProblemInstance(group=GroupSpec.symmetric(2), equalities=[],
                           domain_roots=BOOL, target=Polynomial.constant(2, 1),
                           degree=1, epsilon=frac(0))
    result = prove_invariant(inst)
    assert result.certified
    assert result.certificate.sigma.to_polynomial() == Polynomial.constant(2, 1)
    assert result.certificate.equality_multipliers == []


@pytest.mark.parametrize("n", [3, 6])
def test_prove_literal_square_at_default_epsilon(n):
    result = prove_invariant(literal_square(n))
    assert result.certified
    assert result.epsilon == pipeline.DEFAULT_EPSILON
    assert verify(result.certificate).accepted


@pytest.mark.parametrize("c", [10 ** 5, 10 ** 7, 10 ** 9, 10 ** 12])
def test_prove_a_target_of_large_coefficients(c):
    # c*x1^2 + 1 certifies c*x1 + 1 modulo x1^2 - x1; that solution lies
    # about c/2 from the least-norm point, so a witness radius that ignores
    # y0's scale refuted it from c = 10^7 on
    target = Polynomial(1, {(1,): frac(c), (0,): frac(1)})
    inst = ProblemInstance(group=GroupSpec.symmetric(1), equalities=[],
                           domain_roots=BOOL, target=target, degree=1)
    result = prove_invariant(inst)
    assert result.certified, result.reason
    assert verify(result.certificate).accepted


def test_prove_minus_one_fails_on_satisfiable():
    inst = ProblemInstance(group=GroupSpec.symmetric(2), equalities=[],
                           domain_roots=BOOL, target=Polynomial.constant(2, -1),
                           degree=1, epsilon=frac(0))
    result = prove_invariant(inst)
    assert not result.certified
    assert result.reason == "dual-witness"


def test_prove_requires_invariant_target():
    inst = ProblemInstance(group=GroupSpec.symmetric(2), equalities=[],
                           domain_roots=BOOL, target=Polynomial.variable(2, 0),
                           degree=1)
    with pytest.raises(InvalidInstance):
        prove_invariant(inst)


def test_variable_count_report_pinned():
    # refute mode, n = 4, d = 1, one constraint orbit
    report = variable_count_report(half_integral_knapsack(4))
    assert report.n == 4
    assert report.gram_degree == 1
    assert report.w_size == 5
    assert report.pair_orbit_count == 5  # ordered: (1,1),(1,x),(x,1),(x,x),(x,y)
    assert report.indicator_count == 4   # (1,x) and (x,1) merge
    assert report.constraint_orbit_count == 1
    assert report.after_variables == 4 + 1
    assert report.before_variables == 15 + 5  # gram triangle + multiplier dim
    assert report.multiplier_dims == [5]


def test_variable_counts_stable_in_n():
    counts = {variable_count_report(half_integral_knapsack(n)).after_variables
              for n in range(2, 7)}
    assert len(counts) == 1
    befores = [variable_count_report(half_integral_knapsack(n)).before_variables
               for n in range(2, 7)]
    assert befores == sorted(befores) and befores[0] < befores[-1]


def test_variable_count_trivial_group_prove_mode():
    n = 2
    inst = ProblemInstance(group=GroupSpec.trivial(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 1)],
                           domain_roots=BOOL,
                           target=Polynomial.constant(n, 1), degree=1)
    report = variable_count_report(inst)
    assert report.before_variables == report.after_variables


def test_find_pseudoexpectation_knapsack3():
    n = 3
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n)
                                       - Polynomial.constant(n, frac(3, 2))],
                           domain_roots=BOOL, degree=1)
    pe = find_pseudoexpectation(inst)
    assert pe is not None
    assert pe.numeric
    # forced by the linear moment equations alone
    assert math.isclose(pe.moments[(1, 0, 0)], 0.5, abs_tol=1e-6)
    assert math.isclose(pe.moments[(1, 1, 0)], 0.125, abs_tol=1e-6)
    assert check_pseudoexpectation(inst, pe)


def test_find_pseudoexpectation_contradiction():
    x = Polynomial.variable(1, 0)
    inst = ProblemInstance(group=GroupSpec.trivial(1),
                           equalities=[x, x - Polynomial.constant(1, 1)],
                           domain_roots=BOOL, degree=1)
    assert find_pseudoexpectation(inst) is None


def test_point_pseudoexpectation_exact():
    n = 2
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 1)],
                           domain_roots=BOOL, degree=1)
    pe = point_pseudoexpectation(inst, [[1, 0]])
    assert not pe.numeric
    assert pe.moments[(1, 0)] == frac(1, 2)  # averaged over the orbit of (1,0)
    assert pe.moments[(1, 1)] == 0
    assert pe.moments[(0, 0)] == 1
    assert check_pseudoexpectation(inst, pe)


def test_check_pseudoexpectation_rejects_each_violation():
    n = 2
    group = GroupSpec.symmetric(n)
    inst = ProblemInstance(group=group,
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 1)],
                           domain_roots=BOOL, degree=1)
    point = point_pseudoexpectation(inst, [[1, 0]])
    assert check_pseudoexpectation(inst, point)
    # L(1) = 2: twice a valid functional; the constraint rows and PSD hold
    doubled = replace(point, moments={m: 2 * v for m, v in point.moments.items()})
    assert not check_pseudoexpectation(inst, doubled)
    # L(x1 + x2 - 1) = -1/5; with L[x1] <= 1/2 the moment matrix stays PSD
    bumped = replace(point, moments={**point.moments, (1, 0): frac(2, 5)})
    assert not check_pseudoexpectation(inst, bumped)
    # no constraints; v = (0, 1, 1) over (1, x1, x2) has v^T M v = -1
    free = ProblemInstance(group=group, equalities=[], domain_roots=BOOL, degree=1)
    indefinite = Pseudoexpectation(group=group, degree=2, numeric=False, moments={
        (0, 0): frac(1), (1, 0): frac(1, 2), (1, 1): frac(-1)})
    assert not check_pseudoexpectation(free, indefinite)


def two_plus_one():
    """x1 + x2 = 3 on {0,1,2,3}^2 under S(2), moments of degree 6.  x^4
    reduces to a cubic, so 30 of the 100 moment-matrix entries are forms
    over several representatives."""
    return ProblemInstance(group=GroupSpec.symmetric(2),
                           equalities=[sum_of_vars(2) - Polynomial.constant(2, 3)],
                           domain_roots=tuple(frac(v) for v in range(4)), degree=3)


def test_moment_matrix_entries_with_several_representatives():
    inst = two_plus_one()
    reps, system = pipeline._moment_system(inst, 6)
    assert system.gram_dim == 10 and system.k2 == len(reps)
    assert sum(len(form) > 1 for row in entries(system) for form in row) == 30
    point = point_pseudoexpectation(inst, [[2, 1]])
    assert check_pseudoexpectation(inst, point)
    raised = replace(point, moments={m: v + frac(1, 3) if sum(m) == 6 else v
                                     for m, v in point.moments.items()})
    assert raised.moments != point.moments
    assert not check_pseudoexpectation(inst, raised)
    found = find_pseudoexpectation(inst)
    assert found is not None and found.numeric
    assert check_pseudoexpectation(inst, found)


def test_point_pseudoexpectation_rejects_bad_point():
    n = 2
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 1)],
                           domain_roots=BOOL, degree=1)
    with pytest.raises(InvalidInstance):
        point_pseudoexpectation(inst, [[1, 1]])  # violates the constraint
    with pytest.raises(InvalidInstance):
        point_pseudoexpectation(inst, [[frac(1, 2), frac(1, 2)]])  # off domain


@pytest.mark.parametrize("degree", [1, 2])
def test_pseudoexpectations_run_at_twice_the_instance_degree(degree):
    n = 3
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 1)],
                           domain_roots=BOOL, degree=degree)
    found = find_pseudoexpectation(inst)
    point = point_pseudoexpectation(inst, [[1, 0, 0]])
    assert found.degree == point.degree == 2 * inst.degree
    assert set(found.moments) == set(point.moments)


def test_check_names_another_group_or_a_missing_moment():
    n = 3
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 1)],
                           domain_roots=BOOL, degree=1)
    pe = find_pseudoexpectation(inst)
    with pytest.raises(InvalidInstance, match="over the group"):
        check_pseudoexpectation(replace(inst, group=GroupSpec.trivial(n)), pe)
    # over the same group, a functional without the ring misses x1^2
    free = replace(inst, domain_roots=None, groebner=None)
    with pytest.raises(InvalidInstance, match=r"no moment on the representative "
                                              r"\(2, 0, 0\)"):
        check_pseudoexpectation(free, pe)


def test_duality_on_small_battery():
    # never both a verified refutation and a valid pseudoexpectation
    cases = []
    for n in (1, 2):
        cases.append(half_integral_knapsack(n))
        cases.append(ProblemInstance(
            group=GroupSpec.symmetric(n),
            equalities=[sum_of_vars(n) - Polynomial.constant(n, 1)],
            domain_roots=BOOL, degree=1))
    for inst in cases:
        refuted = refute_invariant_system(inst).certified
        pe = find_pseudoexpectation(inst)
        valid = pe is not None and check_pseudoexpectation(inst, pe)
        assert not (refuted and valid)


def test_accounting_attached_to_results():
    result = refute_invariant_system(half_integral_knapsack(2))
    assert result.accounting is not None
    assert result.accounting.after_variables == \
        result.accounting.indicator_count + 1
    assert result.solver is not None and result.solver.feasible


def multilinear(mono):
    return all(e <= 1 for e in mono)


def test_refute_searches_the_multilinear_basis(monkeypatch):
    # sum x_i = 9/2 on S(4) at d=3: the solver sees the 15 multilinear
    # monomials of degree <= 3, not all 35, and sigma is zero elsewhere
    seen = []

    def recorded(system):
        seen.append(system)
        return solve_feasibility(system)

    monkeypatch.setattr(pipeline, "solve_feasibility", recorded)
    result = refute_invariant_system(replace(half_integral_knapsack(4), degree=3))
    assert [system.gram_dim for system in seen] == [15]
    assert result.certified
    sigma = result.certificate.sigma
    assert sigma.basis == MonomialBasis(4, 3)
    for mono, row in zip(sigma.basis, sigma.entries):
        if not multilinear(mono):
            assert not any(row)
            assert not any(r[sigma.basis.index(mono)] for r in sigma.entries)


def test_variable_count_report_counts_the_multilinear_basis():
    afters = set()
    for n in range(4, 9):
        report = variable_count_report(replace(half_integral_knapsack(n), degree=2))
        assert report.w_size == 1 + n + math.comb(n, 2)
        assert report.y_size == report.w_size ** 2
        afters.add(report.after_variables)
    assert len(afters) == 1


def test_dual_boolean_control_certifies():
    n = 3
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, frac(3, 2))],
                           domain_roots=BOOL, degree=2)
    result = refute_invariant_system(inst)
    assert result.certified
    assert verify(result.certificate).accepted


def test_pseudoexpectation_over_the_multilinear_half_basis():
    n = 8
    inst = ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, 4)],
                           domain_roots=BOOL, degree=2)
    reps, system = pipeline._moment_system(inst, 4)
    assert system.gram_dim == 1 + n + math.comb(n, 2)
    assert all(multilinear(m) for m in reps)
    pe = find_pseudoexpectation(inst)
    assert pe is not None
    assert check_pseudoexpectation(inst, pe)


def test_constant_groebner_generator_rejected():
    x1 = Polynomial.variable(1, 0)
    with pytest.raises(InvalidInstance, match="constant groebner generator"):
        ProblemInstance(group=GroupSpec.trivial(1), equalities=[],
                        groebner=GroebnerBasis((x1 * x1 - x1, Polynomial.constant(1, 2))),
                        target=x1)


def test_replacing_a_domain_instance_checks_no_ring(monkeypatch):
    inst = half_integral_knapsack(6)
    calls = []
    monkeypatch.setattr(pipeline, "_check_ring", lambda *args: calls.append(args))
    again = replace(inst, degree=2)
    assert calls == [] and again.groebner is inst.groebner


def test_a_groebner_basis_beside_domain_roots_must_be_that_ring():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    with pytest.raises(InvalidInstance, match="not both"):
        ProblemInstance(group=GroupSpec.symmetric(2), equalities=[], domain_roots=BOOL,
                        groebner=GroebnerBasis((x1 * x1 - x1, x2 * x2)), target=x1 + x2)


@pytest.mark.parametrize("group", [GroupSpec.symmetric(3), GroupSpec.trivial(3)])
def test_a_groebner_basis_of_another_arity_is_rejected(group):
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    with pytest.raises(InvalidInstance, match="groebner basis arity"):
        ProblemInstance(group=group, equalities=[], target=Polynomial.constant(3, 1),
                        groebner=GroebnerBasis((x1 * x1 - x1, x2 * x2 - x2)))


def test_groebner_leads_the_group_moves_are_rejected():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    target = x1 ** 4 + x2 ** 4

    def instance(group, *generators):
        return ProblemInstance(group=group, equalities=[], target=target, degree=2,
                               groebner=GroebnerBasis(generators))

    # S(2) maps x1^2 to x2^2, which no leading monomial divides
    with pytest.raises(InvalidInstance, match="not closed under it"):
        instance(GroupSpec.symmetric(2), x1 * x1 - x1)
    with pytest.raises(InvalidInstance, match="not closed under it"):
        instance(GroupSpec.symmetric(2), x1 * x1, x2)
    # the trivial group moves nothing; x1, x2, x1^2 span an ideal S(2)
    # preserves though x1^2's image x2^2 is no leading monomial itself
    instance(GroupSpec.trivial(2), x1 * x1 - x1)
    instance(GroupSpec.symmetric(2), x1, x2, x1 * x1)
    assert prove_invariant(instance(GroupSpec.symmetric(2), x1 * x1 - x1,
                                    x2 * x2 - x2)).certified


def e2_proof(n):
    """e2(x) >= C(n/2, 2) - 1 given sum x_i = n/2 over {0,1}^n, S(n), d=1."""
    e2 = Polynomial.zero(n)
    for i in range(n):
        for j in range(i + 1, n):
            e2 = e2 + Polynomial.variable(n, i) * Polynomial.variable(n, j)
    return ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, n // 2)],
                           domain_roots=BOOL,
                           target=e2 - Polynomial.constant(n, math.comb(n // 2, 2) - 1),
                           degree=1)


def literal_square(n):
    """(sum x_i - n/2)^2 >= 0 over {0,1}^n, S(n), d=1: sigma is singular."""
    p = sum_of_vars(n) - Polynomial.constant(n, frac(n, 2))
    return ProblemInstance(group=GroupSpec.symmetric(n), equalities=[],
                           domain_roots=BOOL, target=p * p, degree=1)


@pytest.mark.parametrize("search,inst,width,eliminations", [
    (refute_invariant_system, replace(half_integral_knapsack(6), degree=2), 22, 0),
    (prove_invariant, replace(e2_proof(6), group=GroupSpec((3, 3)), degree=2), 22, 0),
    (prove_invariant, literal_square(3), 4, 1),
], ids=["refute-S6-d2", "prove-e2-S3xS3-d2", "square-n3"])
def test_verify_proves_definite_sigma_without_elimination(monkeypatch, search, inst,
                                                         width, eliminations):
    result = search(inst)
    assert result.certified
    assert len(integer_block(result.certificate.sigma)) == width
    calls = []
    original = linalg._bareiss

    def counted(b, den):
        calls.append(len(b))
        return original(b, den)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    assert verify(result.certificate).accepted
    assert calls == [width] * eliminations


@pytest.mark.parametrize("search,inst", [
    (refute_invariant_system, replace(half_integral_knapsack(4), degree=2)),
    (prove_invariant, e2_proof(8)),
], ids=["refute", "prove"])
def test_certified_search_expands_sigma_once_per_window(monkeypatch, search, inst):
    expansions = []
    original = GramMatrix.integer_form

    def counted(self):
        expansions.append(self)
        return original(self)

    windows = []
    rationalize = pipeline.rationalize

    def recorded(*args, **kwargs):
        windows.append(kwargs["window"])
        return rationalize(*args, **kwargs)

    monkeypatch.setattr(GramMatrix, "integer_form", counted)
    monkeypatch.setattr(pipeline, "rationalize", recorded)
    result = search(inst)
    assert result.certified and windows
    assert len(expansions) == len(windows)
    cert = result.certificate
    expansions.clear()
    bit_size(cert)
    assert expansions == []
    # The cofactors are divide's quotients of the target minus sigma
    # expanded and each multiplier times its constraint (in normal form
    # the scalar c stands for (c p) * p).
    monkeypatch.undo()
    products = [(p * m if cert.mode == NORMAL_FORM else m) * p
                for p, m in cert.equality_multipliers]
    division = divide(cert.target - sum(products, cert.sigma.to_polynomial()),
                      inst.groebner)
    assert division.remainder.is_zero()
    assert cert.groebner_multipliers == [
        (g, c) for g, c in zip(inst.groebner.generators, division.quotients)
        if not c.is_zero()]


# -- the orbit-native setup against its earlier dense form --------------------


def dense_match_columns(columns, target):
    """The earlier _match_columns: one dense row per monomial of any
    support, by coefficient lookup, then the distinct ones."""
    monos = set(target.terms)
    for col in columns:
        monos.update(col.terms)
    rows, rhs, seen = [], [], set()
    for m in sorted(monos):
        row = [col.coefficient(m) for col in columns]
        key = (tuple(row), target.coefficient(m))
        if key in seen or not (key[1] or any(row)):
            continue
        seen.add(key)
        rows.append(row)
        rhs.append(key[1])
    return rows, rhs


@st.composite
def column_sets(draw):
    """A few polynomials in two or three variables with small exponents
    and coefficients, some repeated so that rows repeat."""
    n = draw(st.integers(2, 3))
    monos = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.integers(-2, 2).map(Fraction)
    polys = st.dictionaries(monos, coeffs, max_size=5).map(lambda t: Polynomial(n, t))
    columns = draw(st.lists(polys, min_size=1, max_size=4))
    columns += draw(st.lists(st.sampled_from(columns), max_size=2))
    return columns, draw(polys)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(column_sets())
def test_sparse_rows_match_the_dense_rows(case):
    columns, target = case
    rows, rhs = _match_columns([c.terms for c in columns], target.terms)
    assert all(all(row.values()) for row in rows)  # nonzeros only
    dense = [[row.get(j, Fraction(0)) for j in range(len(columns))] for row in rows]
    assert (dense, rhs) == dense_match_columns(columns, target)


FOUR = tuple(frac(v) for v in range(4))


def knapsack_on(roots, n, degree, group=None):
    """sum x_i = n * max(roots) + 1/2: no point of the domain satisfies it."""
    return ProblemInstance(group=group or GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(
                               n, n * max(roots) + frac(1, 2))],
                           domain_roots=roots, degree=degree)


def reduced_monomials(monkeypatch):
    """The polynomial of every reduce_polynomial call the pipeline makes."""
    seen = []
    original = pipeline.reduce_polynomial

    def recorded(p, gb):
        seen.append(p)
        return original(p, gb)

    monkeypatch.setattr(pipeline, "reduce_polynomial", recorded)
    return seen


def star_ring_proof(n):
    """1 - sum x_i >= 0 modulo x_i^2 - x_i and every x_i x_j (the origin and
    the unit vectors), S(n), d=2: a ring with no power tables, so reduction
    goes through division."""
    xs = [Polynomial.variable(n, i) for i in range(n)]
    ring = GroebnerBasis(tuple([x * x - x for x in xs]
                               + [xs[i] * xs[j] for i in range(n) for j in range(i + 1, n)]))
    return ProblemInstance(group=GroupSpec.symmetric(n), equalities=[], groebner=ring,
                           target=Polynomial.constant(n, 1) - sum_of_vars(n), degree=2)


def normal_form_by_monomial(p, gb):
    """p modulo gb: each monomial reduced alone by division, the normal
    forms added up in Fractions."""
    out = {}
    for mono, c in p.terms.items():
        for m, a in divide(Polynomial.monomial(p.n, mono), gb).remainder.terms.items():
            accumulate_term(out, m, c * a)
    return out


@pytest.mark.parametrize("search,inst", [
    (refute_invariant_system, replace(half_integral_knapsack(4), degree=2)),
    (refute_invariant_system, knapsack_on(FOUR, 2, 2)),
    (refute_invariant_system, knapsack_on(BOOL, 4, 2, GroupSpec((2, 2)))),
    (prove_invariant, e2_proof(6)),
    (prove_invariant, star_ring_proof(4)),
], ids=["bool-S4-d2", "four-S2-d2", "bool-S2xS2-d2", "prove-e2-S6", "prove-star-S4"])
def test_search_reduces_each_column_once(monkeypatch, search, inst):
    seen = reduced_monomials(monkeypatch)
    specs, systems = [], []
    core, solve = pipeline._search, pipeline.solve_feasibility
    monkeypatch.setattr(pipeline, "_search",
                        lambda i, spec: specs.append(spec) or core(i, spec))
    monkeypatch.setattr(pipeline, "solve_feasibility",
                        lambda system: systems.append(system) or solve(system))
    assert search(inst).certified
    (spec,), (system,) = specs, systems
    # one whole-polynomial reduction per unknown's column, one for the goal
    assert len(seen) == system.k2 + system.k3 + 1
    # id r's unreduced column sums x^(a + b) over the grid entries holding r
    n, gb = inst.n, inst.groebner
    columns = [Polynomial.zero(n) for _ in range(system.k2)]
    for a, row in zip(system.basis, entries(system)):
        for b, form in zip(system.basis, row):
            (r,) = form
            columns[r] = columns[r] + Polynomial.monomial(n, tuple(map(sum, zip(a, b))))
    rows, rhs = _match_columns(
        [normal_form_by_monomial(c, gb) for c in columns + spec.free_terms()],
        normal_form_by_monomial(spec.goal, gb))
    assert (system.linear_map, system.rhs) == (rows, rhs)


def reference_moment_system(inst, deg, constraints):
    """The earlier _moment_system, as its representatives, its moment
    matrix of forms, its rows and their right hand sides: the
    representatives from a walk over every monomial of degree <= deg, one
    normal form per monomial, and the rows L(m p) for every shift m of
    every constraint p."""
    n, gb = inst.n, inst.groebner
    canon = {canonical_monomial(inst.group, m) for m in monomials_up_to(n, deg)}
    reps = sorted((r for r in canon if gb is None or gb.is_standard(r)), key=grlex_key)
    slot = {r: i for i, r in enumerate(reps)}

    def moment_of(mono):
        if gb is None:
            normal = {mono: Fraction(1)}
        else:
            normal = reduce_polynomial(Polynomial.monomial(n, mono), gb).terms
        form = {}
        for m, coeff in normal.items():
            r = slot[canonical_monomial(inst.group, m)]
            form[r] = form.get(r, 0) + coeff
        return form

    half = [m for m in MonomialBasis(n, deg // 2) if gb is None or gb.is_standard(m)]
    gram = [[moment_of(tuple(x + y for x, y in zip(a, b))) for b in half] for a in half]

    def moment_row(shift, p):
        row = {}
        for mono, coeff in p.terms.items():
            for r, c in moment_of(tuple(x + y for x, y in zip(shift, mono))).items():
                row[r] = row.get(r, 0) + coeff * c
        return sorted((r, c) for r, c in row.items() if c)

    rows = [(moment_row((0,) * n, Polynomial.constant(n, 1)), Fraction(1))]
    for p in constraints:
        rows += [(moment_row(m, p), Fraction(0))
                 for m in monomials_up_to(n, max(deg - p.degree(), 0))]
    rows, rhs = _distinct_rows(rows)
    return reps, gram, rows, rhs


def differences(n):
    """x_i - x_j for every ordered pair i != j: one orbit under S(n)."""
    return [Polynomial.variable(n, i) - Polynomial.variable(n, j)
            for i in range(n) for j in range(n) if i != j]


def balanced(n, d):
    """sum x_i = n/2 over {0,1}^n: feasible for even n."""
    return ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, frac(n, 2))],
                           domain_roots=BOOL, degree=d)


def block_sums(group, roots, point, degree):
    """One constraint per block: its sum equals the block's sum at point."""
    n = group.n
    return ProblemInstance(
        group=group, degree=degree, domain_roots=roots,
        equalities=[sum((Polynomial.variable(n, i) for i in blk), Polynomial.zero(n))
                    - Polynomial.constant(n, sum(point[i] for i in blk))
                    for blk in group.blocks()])


def unit_or_empty_ring(n):
    """x_i^2 = x_i and x_i x_j = 0: the points with at most one coordinate
    1, a ring S(n) maps onto itself that no domain: line gives."""
    xs = [Polynomial.variable(n, i) for i in range(n)]
    return GroebnerBasis(tuple([x * x - x for x in xs]
                               + [xs[i] * xs[j] for i in range(n) for j in range(i + 1, n)]))


@pytest.mark.parametrize("inst", [
    ProblemInstance(group=GroupSpec.symmetric(3), equalities=differences(3),
                    domain_roots=BOOL, degree=2),
    ProblemInstance(group=GroupSpec.symmetric(2),
                    equalities=[Polynomial.variable(2, i) - 2 for i in range(2)],
                    domain_roots=FOUR, degree=2),
    ProblemInstance(group=GroupSpec((2, 1)),
                    equalities=differences(3)[:1] + [sum_of_vars(3) - 2]
                    + differences(3)[2:3], domain_roots=BOOL, degree=1),
    two_plus_one(),
    balanced(8, 1),
    balanced(6, 2),
    block_sums(GroupSpec((2, 2)), FOUR, (3, 0, 1, 1), 2),
    block_sums(GroupSpec((3, 3)), (frac(-1), frac(1)), (1, 1, -1, -1, -1, 1), 2),
    ProblemInstance(group=GroupSpec.symmetric(3), equalities=[sum_of_vars(3) - 1],
                    groebner=unit_or_empty_ring(3), degree=2),
], ids=["differences-S3", "pins-S2-four", "mixed-S2xS1", "two-plus-one",
        "balanced-n8-d1", "balanced-n6-d2", "four-S2xS2", "pm1-S3xS3",
        "non-domain-ring"])
def test_rows_of_every_equality_are_the_rows_per_orbit(inst):
    # one constraint per orbit and one shift per monomial orbit give the
    # earlier builder's system over every equality, in the same order
    deg = 2 * inst.degree
    reps, system = pipeline._moment_system(inst, deg)
    assert (reps, entries(system), system.linear_map, system.rhs) == \
        reference_moment_system(inst, deg, inst.equalities)
    pe = find_pseudoexpectation(inst)
    assert pe is not None and check_pseudoexpectation(inst, pe)


def test_moment_system_reduces_once_per_monomial_orbit(monkeypatch):
    inst = balanced(24, 2)
    seen = reduced_monomials(monkeypatch)
    pipeline._moment_system(inst, 4)
    assert 0 < len(seen) <= len(enumerate_monomial_orbits(inst.group, 4))


def test_an_instance_keeps_its_moment_system_and_replace_drops_it():
    inst = balanced(6, 1)
    reps, system = pipeline._moment_system(inst, 2)
    assert pipeline._moment_system(inst, 2)[1] is system
    assert list(inst._moment_systems) == [2]
    for other in (replace(inst), replace(inst, degree=2)):
        assert other._moment_systems == {}
        assert pipeline._moment_system(other, 2)[1] is not system
    assert replace(inst) == inst  # the memo takes no part in equality


def test_a_check_on_another_instance_is_a_fresh_check():
    # the same group and degree with another constraint: the memo of the
    # instance that found pe must not answer for the other
    inst = balanced(6, 1)
    pe = find_pseudoexpectation(inst)
    assert pe is not None and check_pseudoexpectation(inst, pe)

    def two_ones():
        return replace(inst, equalities=[sum_of_vars(6) - Polynomial.constant(6, 2)])
    other = two_ones()
    assert check_pseudoexpectation(other, pe) == check_pseudoexpectation(two_ones(), pe)
    assert not check_pseudoexpectation(other, pe)


def test_a_ring_the_group_moves_is_rejected():
    # x2's generator has other roots: S(2) maps the ideal elsewhere, though
    # it maps the leading monomials x1^2, x2^2 onto each other
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    ring = GroebnerBasis((x1 * x1 - x1, x2 * x2 - 2 * x2))
    with pytest.raises(InvalidInstance, match="does not map the ideal"):
        ProblemInstance(group=GroupSpec.symmetric(2), equalities=[], groebner=ring,
                        target=x1 + x2, degree=1)
    # without the group, x1 + x2 = x1^2 + x2^2 / 2 modulo the ring
    assert prove_invariant(ProblemInstance(group=GroupSpec.trivial(2), equalities=[],
                                           groebner=ring, target=x1 + x2,
                                           degree=1)).certified


def test_check_needs_a_closed_constraint_list():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    inst = ProblemInstance(group=GroupSpec.symmetric(2), equalities=[x1 - x2],
                           domain_roots=BOOL, degree=1)
    pe = Pseudoexpectation(group=inst.group, degree=2, numeric=False,
                           moments={(0, 0): frac(1), (1, 0): frac(0), (1, 1): frac(0)})
    with pytest.raises(InvalidSystem):
        check_pseudoexpectation(inst, pe)


DUAL_GROUPS = [GroupSpec.symmetric(3), GroupSpec((2, 2)), GroupSpec((3, 1))]


@st.composite
def planted_points(draw):
    """A group, a domain and a point of it; the constraints fix each
    block's sum at the point."""
    group = draw(st.sampled_from(DUAL_GROUPS))
    roots = draw(st.sampled_from([BOOL, FOUR]))
    point = draw(st.tuples(*[st.sampled_from(roots)] * group.n))
    return block_sums(group, roots, point, 1), point


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(planted_points(), st.data())
def test_point_functionals_pass_and_shifted_ones_fail(case, data):
    inst, point = case
    pe = point_pseudoexpectation(inst, [point])
    assert check_pseudoexpectation(inst, pe)
    # L(sum over a block - s) = size * L[x_block] - s: off by size/3
    blk = data.draw(st.sampled_from(inst.group.blocks()))
    first = tuple(int(i == blk.start) for i in range(inst.n))
    shifted = replace(pe, moments={**pe.moments, first: pe.moments[first] + frac(1, 3)})
    assert not check_pseudoexpectation(inst, shifted)
