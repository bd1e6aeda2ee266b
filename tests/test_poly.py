import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symsos.errors import DimensionMismatch
from symsos.poly import (MonomialBasis, Polynomial, coefficient_norm, grlex_key,
                         mono_divides, mono_mul, mono_quotient, monomials_up_to,
                         multinomial)

SRC = Path(__file__).resolve().parent.parent / "src"


def random_poly(rng, n, max_degree, terms=5):
    p = Polynomial.zero(n)
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(mono) > max_degree:
            continue
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = p + Polynomial(n, {mono: coeff}) if coeff else p
    return p


def test_monomial_ops():
    assert mono_mul((1, 2), (0, 3)) == (1, 5)
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((0, 2), (1, 1))
    assert mono_quotient((2, 1), (1, 0)) == (1, 1)
    with pytest.raises(DimensionMismatch):
        mono_mul((1,), (1, 2))


def test_grlex_order_small():
    # degree first, then componentwise tuple comparison
    ordered = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    keys = [grlex_key(m) for m in ordered]
    assert keys == sorted(keys)


def test_multinomial():
    assert multinomial((2, 1)) == 3
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((4,)) == 1


def test_constructor_drops_zeros_and_validates():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(3)})
    assert p.terms == {(0, 1): Fraction(3)}
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1, 0, 0): Fraction(1)})


def test_zero_polynomial_degree():
    assert Polynomial.zero(3).degree() == -1
    assert Polynomial.zero(3).is_zero()
    assert Polynomial.constant(3, 0) == Polynomial.zero(3)


def fraction_product(p, q):
    """p * q with one Fraction product per pair of terms."""
    out = {}
    for ma, ca in p.terms.items():
        for mb, cb in q.terms.items():
            m = mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def test_arithmetic_matches_evaluation():
    rng = random.Random(7)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    fixed = [
        (x1 - x2, x1 + x2),  # the cross terms cancel
        ((x1 - x2) * (x1 + x2), Polynomial.constant(2, 1)),
        (x1 * Fraction(1, 6) + x2 * Fraction(3, 4), x1 * Fraction(2, 9) - Fraction(5, 8)),
        (x1 - Fraction(1, 3), Polynomial.zero(2)),
        (Polynomial.zero(2), x2 + 1),
        (Polynomial.constant(0, Fraction(-2, 3)), Polynomial.constant(0, Fraction(9, 4))),
        (Polynomial.constant(0, 5), Polynomial.zero(0)),
    ]

    def pairs():
        for _ in range(40):
            n = rng.randint(1, 4)
            yield random_poly(rng, n, 4), random_poly(rng, n, 4)
        yield from fixed

    for p, q in pairs():
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p.n)]
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (-p).evaluate(pt) == -p.evaluate(pt)
        assert (p ** 2).evaluate(pt) == p.evaluate(pt) ** 2
        assert (p * q).terms == fraction_product(p, q)
        for r in (p + q, p - q, p * q, -p, p ** 2):
            assert all(type(c) is Fraction and c for c in r.terms.values())
    assert (x1 - x2) * (x1 + x2) - (x1 * x1 - x2 * x2) == Polynomial.zero(2)


def test_degree_of_product_adds():
    rng = random.Random(11)
    for _ in range(30):
        p = random_poly(rng, 3, 3)
        q = random_poly(rng, 3, 3)
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            # leading terms cannot cancel over a domain
            assert (p * q).degree() == p.degree() + q.degree()


def test_leading_monomial_grlex():
    p = Polynomial(2, {(2, 0): Fraction(1), (1, 1): Fraction(5),
                       (0, 1): Fraction(-2)})
    assert p.leading_monomial() == (2, 0)
    assert p.leading_coefficient() == 1
    assert p.degree() == 2
    assert p.constant_term() == 0


def test_string_form():
    n = 3
    p = (Polynomial.monomial(n, (2, 0, 1)) * Fraction(3, 2)
         - Polynomial.variable(n, 1) + Polynomial.constant(n, 1))
    assert str(p) == "3/2*x1^2*x3 - x2 + 1"
    assert str(Polynomial.zero(2)) == "0"
    assert str(-Polynomial.variable(1, 0)) == "-x1"


def test_monomials_up_to_counts_and_order():
    for n in range(1, 5):
        for d in range(0, 4):
            monos = monomials_up_to(n, d)
            assert len(monos) == math.comb(n + d, d)
            assert len(set(monos)) == len(monos)
            assert all(sum(m) <= d for m in monos)
            keys = [grlex_key(m) for m in monos]
            assert keys == sorted(keys)


def test_monomials_in_no_variables_are_the_constant_at_any_degree():
    # Built as one empty combination per degree, d = 10^6 took about a
    # minute; a 200-byte certificate with "variables": 0 could ask for it.
    assert monomials_up_to(0, 0) == [()]
    assert monomials_up_to(0, -1) == []
    code = "from symsos.poly import monomials_up_to; assert monomials_up_to(0, 10**6) == [()]"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                   timeout=10, check=True)


def test_monomial_basis():
    basis = MonomialBasis(2, 2)
    assert len(basis) == 6
    assert basis.entries[0] == (0, 0)
    assert (1, 1) in basis
    assert (2, 1) not in basis
    assert basis.index((0, 2)) == 3
    assert MonomialBasis(2, 2) == MonomialBasis(2, 2)
    assert MonomialBasis(2, 2) != MonomialBasis(2, 1)


def test_coefficient_norm():
    n = 2
    p = (Polynomial.monomial(n, (2, 1)) * 3      # 3 / multinomial(2,1)=3 -> 1
         + Polynomial.constant(n, -2))           # 2 / 1 -> 2
    assert coefficient_norm(p) == 2
    q = Polynomial.monomial(n, (1, 1)) * 6       # 6 / 2 -> 3
    assert coefficient_norm(q) == 3
    assert coefficient_norm(Polynomial.zero(2)) == 0


def test_hash_and_equality():
    p = Polynomial(2, {(1, 0): Fraction(1, 2)})
    q = Polynomial.variable(2, 0) * Fraction(1, 2)
    assert p == q
    assert hash(p) == hash(q)
    assert p != Polynomial.variable(2, 1)
