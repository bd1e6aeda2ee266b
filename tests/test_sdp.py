import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from symsos import pipeline, sdp
from symsos.errors import DimensionMismatch, ResourceLimit
from symsos.pipeline import ProblemInstance, prove_invariant, refute_invariant_system
from symsos.poly import MonomialBasis, Polynomial
from symsos.problem import parse_problem
from symsos.sdp import (MAX_VARIABLES, FeasibilitySystem, SolveOutcome, combination,
                        rationalize, simplest_in_interval, solve_feasibility)
from symsos.symmetry import GramMatrix, GroupSpec

from .test_pipeline import (BOOL, balanced, captured_system, entries, pinned_proof,
                            sum_of_vars, two_plus_one)

ROOT = Path(__file__).resolve().parent.parent


def frac(a, b=1):
    return Fraction(a, b)


def basis1():
    return MonomialBasis(1, 0)


def scalar_system(linear_map, rhs, k2=1, k3=0):
    """S(a) = [[a_0 + ... + a_(k2-1)]]; linear_map holds sparse rows
    {column: coefficient}."""
    return FeasibilitySystem(basis=basis1(), forms=[{r: frac(1) for r in range(k2)}],
                             grid=[[0]], linear_map=linear_map, rhs=rhs, k3=k3)


def small_system():
    """S(a) = [[a]], one unknown a with a = 2."""
    return scalar_system([{0: frac(1)}], [frac(2)])


def test_system_validation():
    with pytest.raises(ValueError, match="at least one"):
        FeasibilitySystem(basis=basis1(), forms=[{}], grid=[[0]], linear_map=[], rhs=[],
                          k3=0)
    with pytest.raises(DimensionMismatch, match="basis size"):
        FeasibilitySystem(basis=MonomialBasis(1, 1), forms=[{0: frac(1)}], grid=[[0]],
                          linear_map=[{0: frac(1)}], rhs=[frac(1)], k3=0)
    for index in (-1, 1):
        with pytest.raises(DimensionMismatch, match="outside forms"):
            FeasibilitySystem(basis=basis1(), forms=[{0: frac(1)}], grid=[[index]],
                              linear_map=[{0: frac(1)}], rhs=[frac(1)], k3=0)
    with pytest.raises(ValueError, match="not symmetric"):
        FeasibilitySystem(basis=MonomialBasis(1, 1), forms=[{0: frac(1)}, {}],
                          grid=[[0, 0], [1, 0]],
                          linear_map=[{0: frac(1)}], rhs=[frac(1)], k3=0)
    with pytest.raises(DimensionMismatch):
        scalar_system([{0: frac(1), 1: frac(2)}], [frac(0), frac(1)], k3=1)
    sys_ = scalar_system([{0: frac(1), 1: frac(1)}], [frac(1)], k3=1)
    assert sys_.k2 == 1 and sys_.k3 == 1 and sys_.k1 == 1


def test_linear_map_narrower_than_psd_matrices_rejected():
    # every column lies in 0 .. k2 + k3 - 1, and k3 is not negative
    with pytest.raises(DimensionMismatch, match="negative"):
        scalar_system([{0: frac(1)}], [frac(1)], k2=2, k3=-1)
    for column in (-1, 1):
        with pytest.raises(DimensionMismatch, match="outside"):
            scalar_system([{column: frac(1)}], [frac(1)])
    # a free scalar with an all-zero column still counts
    assert scalar_system([{0: frac(1)}], [frac(1)], k3=1).variables == 2


def test_variable_cap():
    sys_ = scalar_system([{j: frac(1) for j in range(MAX_VARIABLES + 1)}], [frac(0)],
                         k3=MAX_VARIABLES)
    assert sys_.k3 == MAX_VARIABLES and sys_.variables == MAX_VARIABLES + 1
    with pytest.raises(ResourceLimit):
        solve_feasibility(sys_)


def test_solver_trivial_feasible():
    out = solve_feasibility(small_system())
    assert (out.exit, out.iterations) == ("y0", 0)
    assert abs(out.values[0] - 2.0) < 1e-6


def test_solver_reports_infeasible_linear():
    sys_ = scalar_system([{0: frac(1)}, {0: frac(1)}], [frac(0), frac(1)])
    out = solve_feasibility(sys_)
    assert (out.exit, out.values, out.iterations) == ("dual-witness", None, 0)
    assert out.linear_residual > 1e-3


def test_solver_reports_psd_conflict():
    # a = -1 forced, but block demands a >= 0
    sys_ = scalar_system([{0: frac(1)}], [frac(-1)])
    out = solve_feasibility(sys_)
    assert not out.feasible
    assert out.min_eigenvalue < -1e-3


def psd_conflict_with_free_direction():
    """S(a) = diag(a0, a1) with a1 = -1 forced and a0 free: infeasible, and
    the free direction sends the solver into its interior-point steps."""
    return FeasibilitySystem(basis=MonomialBasis(1, 1),
                             forms=[{0: frac(1)}, {}, {1: frac(1)}], grid=[[0, 1], [1, 2]],
                             linear_map=[{1: frac(1)}], rhs=[frac(-1)], k3=0)


def test_solver_survives_singular_polish_matrix(monkeypatch):
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    out = solve_feasibility(psd_conflict_with_free_direction())
    assert isinstance(out, SolveOutcome)
    assert not out.feasible


def test_free_direction_conflict_ends_in_a_dual_witness():
    out = solve_feasibility(psd_conflict_with_free_direction())
    assert (out.exit, out.values) == ("dual-witness", None)
    assert out.iterations <= sdp.MAX_STEPS // 4


def test_a_point_that_clears_the_margin_ends_the_steps(monkeypatch):
    system = captured_system(monkeypatch, pinned_proof(), prove_invariant)[1]
    out = solve_feasibility(system)
    assert out.exit == "margin" and 0 < out.iterations
    assert out.min_eigenvalue >= sdp.MARGIN and len(out.values) == system.variables


def square_n3(monkeypatch):
    """The workload's x-squared proof on S(3): its steps reach a point that
    passes the tolerance test but never clear MARGIN."""
    inst = workload_instance(monkeypatch, "square-n3")
    return captured_system(monkeypatch, inst, prove_invariant)[1]


def test_a_failed_factorisation_keeps_a_point_that_passes(monkeypatch):
    out = solve_feasibility(square_n3(monkeypatch))
    assert (out.exit, out.iterations) == ("solver-stopped", 16)
    assert out.values is not None and 0 <= out.min_eigenvalue < sdp.MARGIN


def test_the_step_cap_keeps_a_point_that_passes(monkeypatch):
    system = square_n3(monkeypatch)
    monkeypatch.setattr(sdp, "MAX_STEPS", 10)
    out = solve_feasibility(system)
    assert (out.exit, out.iterations) == ("solver-stopped", 10)
    assert out.values is not None and 0 <= out.min_eigenvalue < sdp.MARGIN
    monkeypatch.setattr(sdp, "MAX_STEPS", 4)  # still short of the cone
    out = solve_feasibility(system)
    assert (out.exit, out.values, out.iterations) == ("solver-stopped", None, 4)
    assert out.min_eigenvalue < -sdp.TOLERANCE


def test_a_failed_first_factorisation_stops_without_a_point(monkeypatch):
    def failing(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    system = captured_system(monkeypatch, pinned_proof(), prove_invariant)[1]
    monkeypatch.setattr(np.linalg, "cholesky", failing)
    out = solve_feasibility(system)
    assert (out.exit, out.values, out.iterations) == ("solver-stopped", None, 0)


def test_psd_stack_is_float_of_each_entry():
    rng = random.Random(97)
    k2, dim = 4, 3
    forms, grid = [], [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            grid[i][j] = grid[j][i] = len(forms)
            forms.append({r: frac(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 25))
                          for r in rng.sample(range(k2), rng.randint(0, k2))})
    forms[0][k2 - 1] = frac(1, 3)  # the last unknown appears
    k3 = 2
    rows = [{j: frac(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 25))
             for j in rng.sample(range(k2 + k3), rng.randint(1, k2 + k3))}
            for _ in range(3)]
    rhs = [frac(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 25))
           for _ in rows]
    system = FeasibilitySystem(basis=MonomialBasis(2, 1), forms=forms, grid=grid,
                               linear_map=rows, rhs=rhs, k3=k3)
    assert system.k2 == k2
    assert any(len(form) > 1 for form in forms)
    stack, amat, floats = sdp.float_view(system)
    assert stack.tolist() == [[float(form.get(r, 0)) for row in entries(system)
                               for form in row] for r in range(k2)]
    assert amat.tolist() == [[float(row.get(j, 0)) for j in range(k2 + k3)]
                             for row in rows]
    assert floats.tolist() == [float(v) for v in rhs]


def reference_stack(system):
    """S as float_view lays it out, filled one grid entry at a time."""
    stack = np.zeros((system.k2, system.gram_dim ** 2))
    for ij, form in enumerate(form for row in entries(system) for form in row):
        for r, c in form.items():
            stack[r, ij] = float(c)
    return stack


def assert_stack_is_per_entry(system):
    stack = sdp.float_view(system)[0]
    assert np.array_equal(stack, reference_stack(system))
    assert stack.flags.c_contiguous  # laid out as the per-entry fill was


def test_float_view_of_a_search_system(monkeypatch):
    # the search's forms are {r: 1}, one per id, and its grid is the ids
    seen = []
    monkeypatch.setattr(pipeline, "solve_feasibility",
                        lambda system: seen.append(system) or solve_feasibility(system))
    refute_invariant_system(balanced(4, 2))
    system, = seen
    assert system.k2 > 1
    assert_stack_is_per_entry(system)


def test_float_view_of_a_moment_system():
    # moment entries share one form per canonical monomial, some of several terms
    system = pipeline._moment_system(two_plus_one(), 6)[1]
    assert any(len(form) > 1 for form in system.forms)
    assert_stack_is_per_entry(system)


def test_float_view_of_ids_naming_equal_forms():
    # forms 0, 1 and 2 are equal: each id still names its own column
    forms = [{0: frac(1, 3), 2: frac(-5, 7)}, {0: frac(1, 3), 2: frac(-5, 7)},
             {0: frac(1, 3), 2: frac(-5, 7)}, {1: frac(2)}, {},
             {0: frac(10 ** 20, 3), 1: frac(-1, 9), 2: frac(0)}]
    system = FeasibilitySystem(basis=MonomialBasis(2, 1), forms=forms,
                               grid=[[0, 1, 3], [1, 2, 4], [3, 4, 5]],
                               linear_map=[{1: frac(1)}], rhs=[frac(1)], k3=0)
    assert system.k2 == 3
    assert_stack_is_per_entry(system)


def test_combination_is_float_views_matrix_exactly():
    # on the moment grid, with forms of several terms: integer moments keep
    # every float exact, so S(y) from the stack equals the exact matrix
    system = pipeline._moment_system(two_plus_one(), 6)[1]
    rng = random.Random(101)
    values = [frac(rng.randint(-9, 9)) for _ in range(system.k2)]
    combo = combination(system, values, MonomialBasis(2, 3))
    at = [combo.basis.index(m) for m in system.basis]
    exact = [[float(combo.entries[i][j]) for j in at] for i in at]
    floats = np.array([float(v) for v in values]) @ sdp.float_view(system)[0]
    assert floats.reshape(system.gram_dim, -1).tolist() == exact


def test_solver_deterministic():
    a = solve_feasibility(small_system())
    b = solve_feasibility(small_system())
    assert a.values == b.values


def test_simplest_in_interval():
    assert simplest_in_interval(frac(3, 10), frac(1, 2)) == frac(1, 2)
    assert simplest_in_interval(frac(3, 10), frac(12, 25)) == frac(1, 3)
    assert simplest_in_interval(frac(-1, 2), frac(1, 2)) == 0
    assert simplest_in_interval(frac(2), frac(3)) == 2
    assert simplest_in_interval(frac(7, 3), frac(7, 3)) == frac(7, 3)
    lo, hi = frac(333333, 1000000), frac(333334, 1000000)
    got = simplest_in_interval(lo, hi)
    assert lo <= got <= hi
    assert got == frac(1, 3)


def test_simplest_in_interval_is_simplest():
    rng = random.Random(83)
    for _ in range(60):
        center = frac(rng.randint(-50, 50), rng.randint(1, 50))
        width = frac(1, rng.randint(2, 1000))
        got = simplest_in_interval(center - width, center + width)
        assert center - width <= got <= center + width
        for q in range(1, got.denominator):
            p_lo = math.ceil((center - width) * q)
            assert frac(p_lo, q) > center + width or frac(p_lo, q) < center - width, \
                (center, width, got, p_lo, q)


def test_rationalize_recovers_planted_solution():
    rng = random.Random(89)
    for _ in range(20):
        planted = [frac(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        # a * 1 with a = planted[0] forced nonneg for PSD; keep it positive
        planted[0] = abs(planted[0]) + 1
        rows = [{0: frac(1)},
                {0: frac(1), 1: frac(2), 2: frac(-1)}]
        rhs = [planted[0],
               planted[0] + 2 * planted[1] - planted[2]]
        sys_ = scalar_system(rows, rhs, k3=2)
        noisy = [float(v) + rng.uniform(-1e-9, 1e-9) for v in planted]
        out = rationalize(noisy, sys_, window=frac(1, 10 ** 6))
        assert out.ok, out.failure
        for row, target in zip(rows, rhs):
            assert sum(c * out.values[j] for j, c in row.items()) == target
        assert out.values[0] >= 0


def test_combination_exact():
    sys_ = FeasibilitySystem(basis=MonomialBasis(1, 1),
                             forms=[{0: frac(1)}, {1: frac(1)}, {0: frac(2), 1: frac(-1)}],
                             grid=[[0, 1], [1, 2]],
                             linear_map=[{0: frac(1), 1: frac(1)}], rhs=[frac(1)], k3=0)
    combo = combination(sys_, [frac(1, 3), frac(2, 5)], MonomialBasis(1, 1))
    assert isinstance(combo, GramMatrix) and combo.basis == MonomialBasis(1, 1)
    assert combo.entries == [[frac(1, 3), frac(2, 5)], [frac(2, 5), frac(4, 15)]]
    zero = combination(sys_, [frac(0), frac(0)], MonomialBasis(1, 1))
    assert zero.entries == [[0, 0], [0, 0]]


def test_combination_is_zero_off_the_system_basis():
    # S(a) over (1, x^2) inside the basis (1, x, x^2): the x row and column are 0
    sys_ = FeasibilitySystem(basis=[(0,), (2,)],
                             forms=[{0: frac(1)}, {1: frac(1)}, {0: frac(3)}],
                             grid=[[0, 1], [1, 2]],
                             linear_map=[{0: frac(1), 1: frac(1)}], rhs=[frac(1)], k3=0)
    assert sys_.gram_dim == 2
    combo = combination(sys_, [frac(1, 2), frac(-1)], MonomialBasis(1, 2))
    assert combo.entries == [[frac(1, 2), 0, -1], [0, 0, 0], [-1, 0, frac(3, 2)]]


def test_end_to_end_solve_then_rationalize():
    # strictly feasible: a = 1 + b, b free; PSD needs a >= 0
    sys_ = scalar_system([{0: frac(1), 1: frac(-1)}], [frac(1)], k3=1)
    out = solve_feasibility(sys_)
    assert out.feasible
    rat = rationalize(out.values, sys_, window=frac(1, 10 ** 6))
    assert rat.ok
    assert rat.values[0] - rat.values[1] == 1
    assert rat.values[0] >= 0


def grid_stack(monkeypatch, inst):
    """The float stack and size of the grid the refutation hands the solver."""
    system = captured_system(monkeypatch, inst)[1]
    return sdp.float_view(system)[0], system.gram_dim


def equal_sum(blocks, d):
    """sum x_i = n/2 over {0,1}^n under the block group S(blocks[0]) x ..."""
    n = sum(blocks)
    return ProblemInstance(group=GroupSpec(blocks), degree=d, domain_roots=BOOL,
                           equalities=[sum_of_vars(n) - Polynomial.constant(n, frac(n, 2))])


def spectrum_of_blocks(mat, weights):
    """The eigenvalues of block-diagonal mat, each counted its rows' weight."""
    values, vectors = np.linalg.eigh(mat)
    counts = np.rint(weights @ vectors ** 2).astype(int)
    return np.sort(np.repeat(values, counts))


# S(n) on the subsets of size <= d: one block per k <= min(d, n - k), of
# min(d, n - k) - k + 1 rows, each of weight C(n, k) - C(n, k - 1).
@pytest.mark.parametrize("blocks,d,weights", [
    ((4,), 1, [1, 1, 3]), ((8,), 1, [1, 1, 7]), ((16,), 1, [1, 1, 15]),
    ((4,), 2, [1, 1, 1, 2, 3, 3]), ((6,), 2, [1, 1, 1, 5, 5, 9]),
    ((8,), 2, [1, 1, 1, 7, 7, 20]), ((12,), 2, [1, 1, 1, 11, 11, 54]),
    ((4, 4), 1, [1, 1, 1, 3, 3])])
def test_symmetry_blocks_of_the_cube(monkeypatch, blocks, d, weights):
    stack, dim = grid_stack(monkeypatch, equal_sum(blocks, d))
    basis, found = sdp._symmetry_blocks(stack, dim)
    assert sorted(found) == weights and sum(weights) == dim
    assert np.allclose(basis.T @ basis, np.eye(len(weights)), atol=1e-12)
    rng = random.Random(dim)
    for _ in range(3):  # elements of the grid's span: the same spectrum on the blocks
        mat = (np.array([rng.uniform(-1, 1) for _ in stack]) @ stack).reshape(dim, dim)
        assert np.allclose(spectrum_of_blocks(basis.T @ mat @ basis, found),
                           np.linalg.eigvalsh(mat), atol=1e-9)


def test_no_symmetry_gives_the_identity(monkeypatch):
    inst = ProblemInstance(group=GroupSpec.trivial(3), degree=1, domain_roots=BOOL,
                           equalities=[sum_of_vars(3) - Polynomial.constant(3, 1)])
    stack, dim = grid_stack(monkeypatch, inst)
    basis, weights = sdp._symmetry_blocks(stack, dim)
    assert np.array_equal(basis, np.eye(dim)) and np.array_equal(weights, np.ones(dim))


def test_an_accidental_degeneracy_fails_the_check():
    # a = sin(1) E_0 + sin(2) E_1 is sin(1) I, a double eigenvalue that
    # no symmetry makes: b = cos(1) E_0 + cos(4) E_1 has two, so V = I
    stack = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, math.sin(1) / math.sin(2)]])
    basis, weights = sdp._symmetry_blocks(stack, 2)
    assert np.array_equal(basis, np.eye(2)) and np.array_equal(weights, np.ones(2))


def test_phase_one_on_weighted_rows_takes_the_dense_steps():
    # diag(-3, 2, 2) - t I written as diag(-3, 2) with weights (1, 2): max t = -3
    dense = sdp._phase_one(np.diag([-3.0, 2.0, 2.0]), -3.0, -np.eye(3)[None],
                           np.ones(3), 1e5)
    blocked = sdp._phase_one(np.diag([-3.0, 2.0]), -3.0, -np.eye(2)[None],
                             np.array([1.0, 2.0]), 1e5)
    assert dense[0] == "dual-witness" and dense[2] > 0
    assert blocked[0] == dense[0] and blocked[2] == dense[2]
    assert blocked[3] == pytest.approx(dense[3], rel=1e-12)


def workload_instance(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    inst = next(inst for make in WORKLOADS.values() for inst in make()
                if inst.name == name)
    return parse_problem(inst.problem_text()).instance()


@pytest.mark.parametrize("name,search", [("refute-d2-n6", refute_invariant_system),
                                         ("e2-6x6-d1-slack1", prove_invariant),
                                         ("balanced-d1-n16", refute_invariant_system)])
def test_the_blocks_take_the_dense_steps(monkeypatch, name, search):
    system = captured_system(monkeypatch, workload_instance(monkeypatch, name), search)[1]
    assert len(sdp._symmetry_blocks(sdp.float_view(system)[0], system.gram_dim)[1]) \
        < system.gram_dim
    blocked = solve_feasibility(system)
    monkeypatch.setattr(sdp, "_symmetry_blocks",
                        lambda stack, dim: (np.eye(dim), np.ones(dim)))
    dense = solve_feasibility(system)
    assert dense.iterations > 0
    assert (blocked.exit, blocked.feasible, blocked.iterations) == \
        (dense.exit, dense.feasible, dense.iterations)
    if dense.values is not None:  # a witness has no point
        scale = max(map(abs, dense.values))
        assert np.allclose(blocked.values, dense.values, rtol=0, atol=1e-8 * scale)


def test_certificate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # refute sum x_i = 33/2 on {0,1}^16 under S(16) at d = 2 (W = 137): the
    # solve runs on 6 block rows, too few for OpenBLAS to split
    n = 16
    problem = tmp_path / "refute.sos"
    problem.write_text(f"vars: {n}\ngroup: S({n})\ndomain: {{0,1}}\n"
                       f"eq: {' + '.join(f'x{i}' for i in range(1, n + 1))} - 33/2\n"
                       "target: refute\ndegree: 2\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        cert = tmp_path / f"threads-{threads}.cert.json"
        subprocess.run([sys.executable, "-m", "symsos.cli", "refute", str(problem), "-o", str(cert)],
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                       capture_output=True, timeout=120, check=True)
        digests.append(hashlib.sha256(cert.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
