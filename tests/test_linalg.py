import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsos import linalg
from symsos.linalg import PsdOutcome, min_norm_correction, psd_certificate, rref_solve

from .fraction_verify import quadratic_form


def random_psd(rng, dim, rank=None):
    """B^T B for a random rational B with `rank` rows."""
    rows = rank if rank is not None else dim
    b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
         for _ in range(rows)]
    return [[sum(b[k][i] * b[k][j] for k in range(rows)) for j in range(dim)]
            for i in range(dim)]


def test_accepts_identity_and_zero():
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert psd_certificate(eye).is_psd
    zero = [[Fraction(0)] * 2 for _ in range(2)]
    assert psd_certificate(zero).is_psd


def test_rejects_negative_diagonal():
    out = psd_certificate([[Fraction(-1)]])
    assert not out.is_psd
    assert out.witness == [Fraction(1)]
    assert out.witness_value == -1


def test_rejects_zero_diagonal_with_offdiagonal():
    a = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    out = psd_certificate(a)
    assert not out.is_psd
    assert quadratic_form(a, out.witness) == out.witness_value < 0


def test_validation_errors():
    bad = [[[1, 2]], [[1, 2], [0, 1]], [[1, 2], [3, 1]], [[1, 0], [0]]]
    for matrix in bad:
        with pytest.raises(ValueError, match="not (square|symmetric)"):
            psd_certificate([[Fraction(x) for x in row] for row in matrix])
        with pytest.raises(ValueError, match="not (square|symmetric)"):
            psd_certificate(matrix)


def test_random_psd_accepted():
    rng = random.Random(3)
    for _ in range(50):
        dim = rng.randint(1, 6)
        a = random_psd(rng, dim, rank=rng.randint(1, dim))
        assert psd_certificate(a).is_psd, a


def test_random_rejections_carry_exact_witness():
    rng = random.Random(5)
    rejected = 0
    for _ in range(60):
        dim = rng.randint(2, 6)
        a = random_psd(rng, dim)
        i = rng.randrange(dim)
        a[i][i] -= Fraction(rng.randint(1, 50))  # plant a negative direction
        out = psd_certificate(a)
        if not out.is_psd:
            rejected += 1
            assert quadratic_form(a, out.witness) == out.witness_value
            assert out.witness_value < 0
    assert rejected >= 40  # most perturbations break PSD


def test_acceptance_implies_nonnegative_forms():
    rng = random.Random(9)
    a = random_psd(rng, 4, rank=2)
    out = psd_certificate(a)
    assert out.is_psd
    for _ in range(100):
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        assert quadratic_form(a, v) >= 0


def test_rref_solve():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rref_solve(a, [Fraction(3), Fraction(6)]) is not None
    assert rref_solve(a, [Fraction(3), Fraction(7)]) is None
    sol = rref_solve([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
                     [Fraction(4), Fraction(9)])
    assert sol == [Fraction(2), Fraction(3)]


def sparse(row):
    """A dense row as the {column: coefficient} form min_norm_correction takes."""
    return {j: c for j, c in enumerate(row) if c}


def test_min_norm_correction():
    rng = random.Random(17)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)]
             for _ in range(rows)]
        w = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for _ in range(cols)]
        residual = [sum(a[i][j] * w[j] for j in range(cols))
                    for i in range(rows)]
        delta = min_norm_correction([sparse(row) for row in a], residual)
        assert delta is not None
        back = [sum(a[i][j] * delta.get(j, 0) for j in range(cols))
                for i in range(rows)]
        assert back == residual


def test_min_norm_correction_inconsistent():
    a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert min_norm_correction([sparse(row) for row in a],
                               [Fraction(1), Fraction(2)]) is None


def reference_min_norm(a, residual):
    """The minimum-norm solution of A delta = residual from the dense
    normal equations: Gauss-Jordan on (A A^T) w = residual over Fractions,
    free unknowns zero, then delta = A^T w.  None when the normal equations
    are inconsistent, which is exactly when residual is outside range(A)."""
    m = len(a)
    cols = len(a[0]) if m else 0
    aug = [[sum((x * y for x, y in zip(a[i], a[j])), Fraction(0)) for j in range(m)]
           + [Fraction(residual[i])] for i in range(m)]
    pivots = []
    for c in range(m):
        r = len(pivots)
        sel = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                aug[i] = [x - aug[i][c] * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    if any(row[m] != 0 for row in aug[len(pivots):]):
        return None
    w = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        w[c] = aug[r][m]
    return [sum((a[i][t] * w[i] for i in range(m)), Fraction(0)) for t in range(cols)]


def reference_elimination(matrix):
    """The outcome of the rational pivoted LDL^T that the fraction-free
    elimination must reproduce exactly: Fraction arithmetic, largest-diagonal
    pivoting (first on ties), the same answer and rejection witnesses."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    low = [[Fraction(0)] * n for _ in range(n)]
    perm = list(range(n))

    def lift(k, tail):
        u = [Fraction(0)] * n
        u[k:] = tail
        for i in range(k - 1, -1, -1):
            u[i] = -sum((low[j][i] * u[j] for j in range(i + 1, n)), Fraction(0))
        v = [Fraction(0)] * n
        for pos, orig in enumerate(perm):
            v[orig] = u[pos]
        value = quadratic_form([[Fraction(x) for x in row] for row in matrix], v)
        return PsdOutcome(is_psd=False, witness=v, witness_value=value)

    for k in range(n):
        piv = max(range(k, n), key=lambda j: a[j][j])
        if a[piv][piv] > 0:
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                for row in a:
                    row[k], row[piv] = row[piv], row[k]
                low[k], low[piv] = low[piv], low[k]
                perm[k], perm[piv] = perm[piv], perm[k]
            d = a[k][k]
            for i in range(k + 1, n):
                if a[i][k] == 0:
                    continue
                m = a[i][k] / d
                low[i][k] = m
                for j in range(k, n):
                    a[i][j] -= m * a[k][j]
            for j in range(k + 1, n):
                a[k][j] = Fraction(0)
            continue
        for j in range(k, n):
            if a[j][j] < 0:
                tail = [Fraction(0)] * (n - k)
                tail[j - k] = Fraction(1)
                return lift(k, tail)
        for i in range(k, n):
            for j in range(i + 1, n):
                if a[i][j] != 0:
                    tail = [Fraction(0)] * (n - k)
                    tail[i - k] = Fraction(1)
                    tail[j - k] = Fraction(-1) if a[i][j] > 0 else Fraction(1)
                    return lift(k, tail)
        break
    return PsdOutcome(is_psd=True)


SMALL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
TINY = st.builds(Fraction, st.integers(-1, 1), st.integers(2, 4))
# The 36 largest primes below 2^32 (sdp.DENOMINATOR_BOUND), one
# denominator per upper-triangular entry of an 8 x 8 matrix: the lcm that
# scales the matrix to integers then reaches about 2^1150.
PRIMES = tuple(2**32 - k for k in (
    5, 17, 65, 99, 107, 135, 153, 185, 209, 267, 299, 315, 353, 369, 387, 419,
    467, 483, 527, 629, 635, 639, 645, 657, 677, 705, 713, 743, 819, 849, 855,
    869, 923, 929, 959, 999))


def gram(b, n):
    """B^T B for the rows of b, each of length n."""
    return [[sum((row[i] * row[j] for row in b), Fraction(0)) for j in range(n)]
            for i in range(n)]


def draw_rows(draw, rows, cols):
    return [[draw(SMALL) for _ in range(cols)] for _ in range(rows)]


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(
        ["full-rank", "rank-deficient", "indefinite", "zero-diagonal", "coprime"]))
    if kind == "full-rank":
        return gram(draw_rows(draw, n, n), n)
    if kind == "rank-deficient":
        return gram(draw_rows(draw, draw(st.integers(0, max(n - 1, 0))), n), n)
    if kind == "indefinite":
        plus = gram(draw_rows(draw, n, n), n)
        minus = gram(draw_rows(draw, draw(st.integers(1, 2)), n), n)
        return [[x - y for x, y in zip(r, s)] for r, s in zip(plus, minus)]
    if kind == "zero-diagonal":
        # T^T diag(P, Z) T with T = [[I, X], [0, I]]: once P is eliminated
        # the trailing Schur complement is Z, whose diagonal is zero.  A
        # small X keeps P's rows first in the pivot order.
        k = draw(st.integers(0, n))
        p = gram(draw_rows(draw, k, k), k)
        x = [[draw(TINY) for _ in range(n - k)] for _ in range(k)]
        px = [[sum((p[i][t] * x[t][j] for t in range(k)), Fraction(0))
               for j in range(n - k)] for i in range(k)]
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(k):
            for j in range(k):
                a[i][j] = p[i][j]
            for j in range(n - k):
                a[i][k + j] = a[k + j][i] = px[i][j]
        for i in range(n - k):
            for j in range(i, n - k):
                xpx = sum((x[t][i] * px[t][j] for t in range(k)), Fraction(0))
                a[k + i][k + j] = a[k + j][k + i] = xpx + (draw(SMALL) if i != j else 0)
        order = draw(st.permutations(range(n)))
        return [[a[i][j] for j in order] for i in order]
    # Pairwise coprime denominators up to 2^32.  A dominant diagonal makes
    # the matrix PSD, so the whole elimination runs on the scaled integers.
    dominant = draw(st.booleans())
    big = st.integers(-2**32, 2**32)
    primes = iter(PRIMES)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = Fraction(draw(big), next(primes))
    for i in range(n):
        offset = Fraction(draw(big), next(primes))
        a[i][i] = (sum(abs(x) for x in a[i]) + abs(offset)) if dominant else offset
    return a


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
def test_fraction_free_elimination_matches_rational(a):
    expected = reference_elimination(a)
    assert psd_certificate(a) == expected
    if not expected.is_psd:
        assert expected.witness_value < 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
def test_integer_matrix_agrees_with_it_as_fractions(a):
    den = math.lcm(*(x.denominator for row in a for x in row))
    ints = [[int(x * den) for x in row] for row in a]
    assert psd_certificate(ints) == psd_certificate([[Fraction(x) for x in row]
                                                     for row in ints])


def lower(a):
    return [row[:i + 1] for i, row in enumerate(a)]


def int_gram(rows, n):
    """B^T B for integer rows of length n."""
    return [[sum(row[i] * row[j] for row in rows) for j in range(n)] for i in range(n)]


INTS = st.integers(-6, 6)


@st.composite
def integer_matrices(draw):
    """(kind, S): a symmetric integer matrix of one of the shapes the hint
    must handle or turn down."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["definite", "singular", "indefinite", "huge",
                                 "lone-diagonal", "near-singular"]))
    square = int_gram([[draw(INTS) for _ in range(n)] for _ in range(n)], n)
    definite = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(square)]
    if kind == "definite":
        return kind, definite
    if kind == "singular":
        rank = draw(st.integers(0, max(n - 1, 0)))
        return kind, int_gram([[draw(INTS) for _ in range(n)] for _ in range(rank)], n)
    if kind == "indefinite":
        minus = int_gram([[draw(INTS) for _ in range(n)]
                          for _ in range(draw(st.integers(1, 2)))], n)
        return kind, [[x - y for x, y in zip(r, t)] for r, t in zip(square, minus)]
    if kind == "huge":
        # Entries over 1,023 bits: S only reads as floats once shifted.
        scale = 2 ** draw(st.integers(1024, 1100)) + draw(st.integers(0, 2 ** 64))
        return kind, [[scale * x + draw(INTS) * (i == j) for j, x in enumerate(row)]
                      for i, row in enumerate(definite)]
    if kind == "lone-diagonal":
        # Some rows zero apart from a diagonal entry of any sign.
        a = [row[:] for row in square]
        for i in draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else ():
            for j in range(n):
                a[i][j] = a[j][i] = 0
            a[i][i] = draw(INTS)
        return kind, a
    # M G +- t I with G singular: the smallest eigenvalue over max S_ii is
    # about t / (M max G_ii), 1e-8 here, like an exactly tight proof's sigma.
    g = int_gram([[draw(INTS) for _ in range(n)] for _ in range(max(n - 1, 0))], n)
    top = max((g[i][i] for i in range(n)), default=0) or 1
    t = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
    scale = 10 ** 8 // top
    return kind, [[scale * x + t * (i == j) for j, x in enumerate(row)]
                  for i, row in enumerate(g)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_matrices())
def test_hint_accepts_only_what_the_elimination_accepts(case):
    kind, a = case
    n = len(a)
    hint = linalg._cholesky_hint(lower(a))
    remainder = None if hint is None else linalg._remainder(lower(a), *hint)
    eliminated = linalg._bareiss(lower(a), 1)
    assert psd_certificate(a) == eliminated
    if remainder is None or not linalg._dominant(remainder):
        # The hint proves every well-conditioned positive definite matrix.
        assert kind not in ("definite", "huge") or not n
        return
    assert eliminated.is_psd
    # 2^(2k) S = 2^e L' L'^T + R, exactly.
    k, e, low = hint
    full = [row + [0] * (n - len(row)) for row in low]
    for i in range(n):
        for j in range(i + 1):
            product = sum(x * y for x, y in zip(full[i], full[j]))
            assert a[i][j] << 2 * k == (product << e) + remainder[i][j]


def test_remainder_check_needs_signs_and_absolute_values():
    # [[2, -3], [-3, 2]] has the eigenvalue -1.  Under L' = [[1], [-1, 0]]
    # the remainder 4 [[1, -2], [-2, 1]] has a positive diagonal, and a check
    # that summed signed off-diagonal entries would accept it.
    a = [[2, -3], [-3, 2]]
    assert linalg._remainder(lower(a), 1, 2, [[1], [-1, 0]]) == [[4], [-8, 4]]
    # [[4, 2], [2, -1]] is indefinite.  Under L' = [[2], [1, 0]] the remainder
    # [[0, 0], [0, -2]] has no off-diagonal mass, and a check that compared
    # |R_ii| would accept it.
    b = [[4, 2], [2, -1]]
    assert linalg._remainder(lower(b), 0, 0, [[2], [1, 0]]) == [[0], [0, -2]]
    for matrix, hint in ((a, (1, 2, [[1], [-1, 0]])), (b, (0, 0, [[2], [1, 0]]))):
        assert not linalg._dominant(linalg._remainder(lower(matrix), *hint))
        assert not psd_certificate(matrix).is_psd


# Mostly zeros, so rows are sparse and some columns are touched by no row.
SPARSE = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), SMALL)


@st.composite
def linear_systems(draw):
    """(rows, residual): full-rank, rank-deficient (a row that is a
    combination of two others, or repeats one), inconsistent (the same with
    a perturbed right hand side) or with an arbitrary right hand side."""
    cols = draw(st.integers(1, 7))
    rows = [[draw(SPARSE) for _ in range(cols)] for _ in range(draw(st.integers(0, 5)))]
    kind = draw(st.sampled_from(["solvable", "rank-deficient", "inconsistent", "any"]))
    if kind != "solvable" and rows:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c1, c2 = draw(SMALL), draw(SMALL)
        rows.append([c1 * x + c2 * y for x, y in zip(rows[i], rows[j])])
    if kind == "any":
        return rows, [draw(SMALL) for _ in rows]
    w = [draw(SMALL) for _ in range(cols)]
    residual = [sum((x * y for x, y in zip(row, w)), Fraction(0)) for row in rows]
    if kind == "inconsistent" and rows:
        residual[-1] += draw(SMALL.filter(bool))
    return rows, residual


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(linear_systems())
def test_min_norm_correction_matches_normal_equations(system):
    rows, residual = system
    expected = reference_min_norm(rows, residual)
    delta = min_norm_correction([sparse(row) for row in rows], residual)
    if expected is None:
        assert delta is None
    else:
        assert delta == sparse(expected)
