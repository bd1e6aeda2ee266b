import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsos import groebner
from symsos.errors import DimensionMismatch, InvalidDomain, ReconstructionError
from symsos.groebner import (DivisionResult, GroebnerBasis, boolean_basis, divide,
                             finite_domain_basis, reconstruct_proof,
                             reduce_polynomial)
from symsos.poly import Polynomial, mono_divides

from .test_poly import random_poly


def test_boolean_basis():
    gb = boolean_basis(2)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    assert list(gb) == [x1 * x1 - x1, x2 * x2 - x2]


def test_finite_domain_basis_roots():
    roots = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))
    gb = finite_domain_basis(2, roots)
    assert len(gb) == 2
    for i, g in enumerate(gb):
        assert g.degree() == 4
        for r in roots:
            point = [Fraction(0)] * 2
            point[i] = r
            assert g.evaluate(point) == 0


@pytest.mark.parametrize("roots", [(0, 1), (0, 1, 2, 3), (Fraction(-1, 2), 3)])
def test_finite_domain_basis_is_the_multiplied_out_product(roots):
    n = 3
    product = []
    for i in range(n):
        g = Polynomial.constant(n, 1)
        for r in roots:
            g = g * (Polynomial.variable(n, i) - Polynomial.constant(n, r))
        product.append(g)
    gb = finite_domain_basis(n, roots)
    assert list(gb) == product
    assert [list(g.terms) for g in gb] == [list(g.terms) for g in product]


def test_finite_domain_basis_validation():
    with pytest.raises(InvalidDomain):
        finite_domain_basis(1, (Fraction(0),))  # odd count
    with pytest.raises(InvalidDomain):
        finite_domain_basis(1, (Fraction(0), Fraction(0)))  # repeated root
    with pytest.raises(InvalidDomain):
        finite_domain_basis(1, ())


def test_divide_pinned():
    gb = boolean_basis(2)
    p = Polynomial.monomial(2, (2, 1))  # x1^2 x2
    out = divide(p, gb)
    assert out.remainder == Polynomial.monomial(2, (1, 1))
    assert out.quotients[0] == Polynomial.variable(2, 1)
    assert out.quotients[1] == Polynomial.zero(2)


def test_division_result_checks_its_invariant():
    # 1/3 x1^2 x2 + 1/2 x2 == 1/3 x2 * (x1^2 - x1) + 0 * (x2^2 - x2) + r
    gb = boolean_basis(2)
    x2, zero = Polynomial.variable(2, 1), Polynomial.zero(2)
    p = Polynomial(2, {(2, 1): Fraction(1, 3), (0, 1): Fraction(1, 2)})
    r = Polynomial(2, {(1, 1): Fraction(1, 3), (0, 1): Fraction(1, 2)})
    assert DivisionResult(p, gb, [x2 * Fraction(1, 3), zero], r).remainder == r
    with pytest.raises(ValueError, match="identity does not close"):
        DivisionResult(p, gb, [x2 * Fraction(1, 2), zero], r)
    with pytest.raises(ValueError, match="identity does not close"):
        DivisionResult(p, gb, [x2 * Fraction(1, 3), zero], r + 1)
    # the identity closes with no quotient, but x1^2 x2 is reducible
    with pytest.raises(ValueError, match="remainder contains a reducible monomial"):
        DivisionResult(p, gb, [zero, zero], p)


def test_divide_first_divisor_wins():
    # both generators reduce x1^2; list order decides the remainder
    x = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    a = GroebnerBasis((x * x - x, x * x - one))
    b = GroebnerBasis((x * x - one, x * x - x))
    assert divide(x * x, a).remainder == x
    assert divide(x * x, b).remainder == one


def test_division_identity_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        gb = boolean_basis(n)
        p = random_poly(rng, n, 5, terms=6)
        out = divide(p, gb)
        combo = out.remainder
        for q, g in zip(out.quotients, gb):
            combo = combo + q * g
        assert combo == p
        # remainder is irreducible: multilinear over the boolean ideal
        for mono in out.remainder.terms:
            assert all(e <= 1 for e in mono)
            assert not any(mono_divides(g.leading_monomial(), mono) for g in gb)


def test_reduce_is_idempotent():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 3)
        gb = finite_domain_basis(n, (Fraction(0), Fraction(1)))
        p = random_poly(rng, n, 4, terms=5)
        r = reduce_polynomial(p, gb)
        assert reduce_polynomial(r, gb) == r


def test_reduce_agrees_with_evaluation_on_domain():
    # reduction preserves values at every domain point
    rng = random.Random(31)
    gb = finite_domain_basis(2, (Fraction(0), Fraction(1)))
    for _ in range(20):
        p = random_poly(rng, 2, 4, terms=5)
        r = reduce_polynomial(p, gb)
        for a in (0, 1):
            for b in (0, 1):
                pt = [Fraction(a), Fraction(b)]
                assert p.evaluate(pt) == r.evaluate(pt)


def test_reconstruct_proof_planted():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(1, 3)
        gb = boolean_basis(n)
        sigma = random_poly(rng, n, 2, terms=4)
        pairs = [(random_poly(rng, n, 2, terms=3), random_poly(rng, n, 1, terms=2))
                 for _ in range(rng.randint(0, 2))]
        cofactors = [random_poly(rng, n, 2, terms=3) for _ in gb]
        target = sigma
        for mult, constr in pairs:
            target = target + mult * constr
        for c, g in zip(cofactors, gb):
            target = target + c * g
        combination = sigma
        for mult, constr in pairs:
            combination = combination + mult * constr
        out = reconstruct_proof(target, combination, gb)
        rebuilt = combination
        for c, g in zip(out, gb):
            rebuilt = rebuilt + c * g
        assert rebuilt == target


def test_reconstruct_proof_mismatch_raises_with_residual():
    gb = boolean_basis(1)
    x = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    with pytest.raises(ReconstructionError) as info:
        reconstruct_proof(one, x, gb)
    assert not info.value.residual.is_zero()


def test_basis_rejects_zero_generator():
    with pytest.raises(ValueError):
        GroebnerBasis((Polynomial.zero(1),))


# -- reduce_polynomial against divide -------------------------------------

RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
NONZERO = RATIONALS.filter(bool)


def x(n, i, e=1):
    return Polynomial.monomial(n, tuple(e if j == i else 0 for j in range(n)))


@st.composite
def polynomials(draw, n):
    monos = st.tuples(*[st.integers(0, 8)] * n)
    return Polynomial(n, draw(st.dictionaries(monos, RATIONALS, max_size=6)))


@st.composite
def univariate_bases(draw):
    """One univariate generator per variable: a finite domain of 2, 4 or 6
    rational roots, or arbitrary non-monic generators of degree 1 to 4."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        size = draw(st.sampled_from([2, 4, 6]))
        roots = draw(st.sets(RATIONALS, min_size=size, max_size=size))
        return finite_domain_basis(n, sorted(roots))
    gens = []
    for i in range(n):
        k = draw(st.integers(1, 4))
        g = draw(NONZERO) * x(n, i, k)
        for e in range(k):
            g = g + draw(RATIONALS) * x(n, i, e)
        gens.append(g)
    return GroebnerBasis(tuple(gens))


def fallback_bases():
    """Bases outside the one-univariate-generator-per-variable shape."""
    x1, x2 = x(2, 0), x(2, 1)
    return [
        GroebnerBasis((x1 - x2, x2 * x2 - x2)),               # two variables
        GroebnerBasis((x1 * x1 - x1, x1 ** 3 - x1, x2 * x2 - x2)),  # two on x1
        GroebnerBasis((x1 * x1 - x1, x2 * x2 - x2,
                       Polynomial.constant(2, 3))),           # nonzero constant
        GroebnerBasis((x1 * x1 - x1,)),                       # x2 has none
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_reduce_matches_division_on_univariate_bases(data):
    gb = data.draw(univariate_bases())
    p = data.draw(polynomials(gb.n))
    assert reduce_polynomial(p, gb) == divide(p, gb).remainder


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(fallback_bases()), polynomials(2))
def test_reduce_matches_division_on_fallback_bases(gb, p):
    assert reduce_polynomial(p, gb) == divide(p, gb).remainder


def assert_division_is_linear(gb, a, b):
    """divide(a - b) is divide(a) minus divide(b), quotient by quotient
    and remainder: reconstruct_proof divides a difference once."""
    whole, left, right = divide(a - b, gb), divide(a, gb), divide(b, gb)
    assert whole.remainder == left.remainder - right.remainder
    assert whole.quotients == [p - q for p, q in
                               zip(left.quotients, right.quotients)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_division_is_linear_on_univariate_bases(data):
    gb = data.draw(univariate_bases())
    assert_division_is_linear(gb, data.draw(polynomials(gb.n)),
                              data.draw(polynomials(gb.n)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(fallback_bases()), polynomials(2), polynomials(2))
def test_division_is_linear_on_fallback_bases(gb, a, b):
    assert_division_is_linear(gb, a, b)


def counting_divide(monkeypatch):
    calls = []
    real = groebner.divide

    def counted(p, basis):
        calls.append(p)
        return real(p, basis)

    monkeypatch.setattr(groebner, "divide", counted)
    return calls


def test_product_domain_reduction_makes_no_division(monkeypatch):
    calls = counting_divide(monkeypatch)
    gb = finite_domain_basis(3, (Fraction(0), Fraction(1), Fraction(-1), Fraction(2)))
    p = random_poly(random.Random(41), 3, 8, terms=8)
    reduce_polynomial(p, gb)
    reconstruct_proof(p, reduce_polynomial(p, gb), gb)
    assert calls == []


@pytest.mark.parametrize("index", range(len(fallback_bases())))
def test_other_bases_reduce_by_division(monkeypatch, index):
    gb = fallback_bases()[index]
    calls = counting_divide(monkeypatch)
    p = x(2, 0, 3) * x(2, 1, 2)
    remainder = reduce_polynomial(p, gb)
    assert len(calls) == 1
    reconstruct_proof(p, remainder, gb)
    assert len(calls) == 2


@st.composite
def product_bases(draw):
    """One univariate generator per variable, in a drawn list order: the
    domains {0,1}, {0,1,2,3} and {-1,1/2}, non-monic generators with a
    leading coefficient of either sign, or any drawn univariate basis."""
    x1, x2, x3 = (x(3, i) for i in range(3))
    fixed = [finite_domain_basis(3, (0, 1)), finite_domain_basis(3, (0, 1, 2, 3)),
             finite_domain_basis(3, (-1, Fraction(1, 2))),
             GroebnerBasis((2 * x1 * x1 - 2, 2 * x2 * x2 - 2, 2 * x3 * x3 - 2)),
             GroebnerBasis((2 * x1 * x1 - 2, Fraction(1, 2) * x2 - 3 * x2 ** 3,
                            x3 * Fraction(1, 7) - 5))]
    gb = draw(st.one_of(st.sampled_from(fixed), univariate_bases()))
    return GroebnerBasis(tuple(draw(st.permutations(gb.generators))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_table_walk_finds_the_quotients_and_remainder_of_division(data):
    """On a product basis reconstruct_proof's cofactors are divide's
    quotients, and its residual is divide's remainder."""
    gb = data.draw(product_bases())
    target, other = data.draw(polynomials(gb.n)), data.draw(polynomials(gb.n))
    # other plus the normal form of the difference: target - combination
    # lies in the ideal.
    combination = other + reduce_polynomial(target - other, gb)
    division = divide(target - combination, gb)
    assert division.remainder.is_zero()
    assert reconstruct_proof(target, combination, gb) == division.quotients
    division = divide(target - other, gb)
    if division.remainder.is_zero():
        assert reconstruct_proof(target, other, gb) == division.quotients
    else:
        with pytest.raises(ReconstructionError) as err:
            reconstruct_proof(target, other, gb)
        assert err.value.residual == division.remainder


@pytest.mark.parametrize("gb", [boolean_basis(2), fallback_bases()[0]])
def test_reduce_rejects_arity_mismatch(gb):
    with pytest.raises(DimensionMismatch):
        reduce_polynomial(x(3, 0, 2), gb)
    with pytest.raises(DimensionMismatch):
        reconstruct_proof(x(3, 0, 2), x(3, 1), gb)


@pytest.mark.parametrize("gb", fallback_bases() + [finite_domain_basis(2, (0, 1, 2, 3))])
def test_is_standard_means_no_leading_monomial_divides(gb):
    leads = [g.leading_monomial() for g in gb.generators]
    for mono in itertools.product(range(6), repeat=2):
        standard = not any(mono_divides(lm, mono) for lm in leads)
        assert gb.is_standard(mono) == standard
        if standard:
            assert reduce_polynomial(Polynomial.monomial(2, mono), gb) == \
                Polynomial.monomial(2, mono)
