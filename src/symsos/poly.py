"""Sparse multivariate polynomials over exact rational coefficients.

A monomial is a tuple of nonnegative integer exponents, one per variable.
A polynomial maps monomials to nonzero Fraction coefficients; the zero
polynomial is the empty map and reports degree -1.  Everything in this
module is exact: floats never enter, and no coefficient is ever stored
as zero.

Monomials are ordered by graded lexicographic order (total degree first,
ties broken lexicographically on the exponent tuple), which doubles as
the term order used by the division algorithm downstream.

Products (integer_product) and weighted sums (linear_combination) run on
ints, each input over its least common denominator (clear_denominators).
+ and - copy a dict instead: far cheaper when one operand is small.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DimensionMismatch

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if len(a) != len(b):
        raise DimensionMismatch(f"monomials over {len(a)} and {len(b)} variables")
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b componentwise."""
    if len(a) != len(b):
        raise DimensionMismatch(f"monomials over {len(a)} and {len(b)} variables")
    return all(x <= y for x, y in zip(a, b))


def mono_quotient(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    return tuple(y - x for x, y in zip(a, b))


def accumulate_term(out: dict[Monomial, Fraction], mono: Monomial, coeff: Fraction) -> None:
    """out[mono] += coeff for a nonzero coeff, dropping the entry at zero."""
    prev = out.get(mono)
    if prev is None:
        out[mono] = coeff
    else:
        acc = prev + coeff
        if acc:
            out[mono] = acc
        else:
            del out[mono]


def grlex_key(m: Monomial):
    """Sort key realizing graded lexicographic order."""
    return (sum(m), m)


def multinomial(m: Monomial) -> int:
    """|m|! / (m_1! * ... * m_n!), exactly."""
    out = math.factorial(sum(m))
    for e in m:
        out //= math.factorial(e)
    return out


class Polynomial:
    """Immutable-by-convention sparse polynomial over Fraction coefficients."""

    __slots__ = ("n", "_terms", "_key")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        if n < 0:
            raise ValueError("number of variables must be nonnegative")
        self.n = n
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != n:
                    raise DimensionMismatch(
                        f"monomial {mono} has {len(mono)} exponents, expected {n}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = Fraction(coeff)
                if c != 0:
                    clean[mono] = c
        self._terms = clean
        self._key = None

    @classmethod
    def _of_clean(cls, n: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """A polynomial that takes ownership of terms, whose monomials are
        already n-tuples of nonnegative ints and whose coefficients are
        already nonzero Fractions; nothing is checked or copied."""
        out = cls.__new__(cls)
        out.n = n
        out._terms = terms
        out._key = None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "Polynomial":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, n: int, index: int) -> "Polynomial":
        """The polynomial x_{index}, 0-based."""
        if not 0 <= index < n:
            raise ValueError(f"variable index {index} out of range for n={n}")
        mono = tuple(1 if i == index else 0 for i in range(n))
        return cls(n, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, n: int, mono: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return cls(n, {tuple(mono): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.n, Fraction(0))

    def items_grlex(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending grlex order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self._terms[self.leading_monomial()]

    def key(self):
        """Hashable canonical form (used to compare and index polynomials)."""
        if self._key is None:
            self._key = (self.n, tuple(self.items_grlex()))
        return self._key

    # -- arithmetic --------------------------------------------------------

    def _check_same_n(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"polynomials over {self.n} and {other.n} variables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_n(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            accumulate_term(out, mono, coeff)
        return Polynomial._of_clean(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of_clean(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.n)
            return Polynomial._of_clean(self.n, {m: co * c for m, co in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_n(other)
        terms, den = integer_product([self, other])
        return Polynomial._of_clean(self.n, {m: Fraction(c, den) for m, c in terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = Polynomial.constant(self.n, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash(self.key())

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.n:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.n}")
        coords = [Fraction(x) for x in point]
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            val = coeff
            for x, e in zip(coords, mono):
                if e:
                    val *= x ** e
            total += val
        return total

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.items_grlex():
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self._terms!r})"


def clear_denominators(terms: Mapping) -> tuple[dict, int]:
    """(ints, den) with ints[k] / den == terms[k], den the least common
    denominator of the values (1 for no values)."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def integer_product(factors: Sequence[Polynomial]) -> tuple[dict[Monomial, int], int]:
    """(terms, den) with terms / den the product of the factors (at least
    one) and no zero in terms, den the product of each factor's own
    denominator: each pair of terms is multiplied as ints."""
    terms, den = clear_denominators(factors[0].terms)
    for p in factors[1:]:
        other, d = clear_denominators(p.terms)
        out: dict[Monomial, int] = {}
        for ma, ca in terms.items():
            for mb, cb in other.items():
                m = tuple(map(add, ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        terms, den = {m: c for m, c in out.items() if c}, den * d
    return terms, den


def linear_combination(n: int, terms: Iterable[tuple[Scalar, Polynomial]]) -> Polynomial:
    """sum c * p over the (c, p) pairs, added up as ints over one common
    denominator, with a Fraction made only for each nonzero output term.

    Raises DimensionMismatch when some p is not over n variables.
    """
    scaled = []  # (c's numerator, c's denominator times p's, p's int terms)
    for c, p in terms:
        if p.n != n:
            raise DimensionMismatch(f"polynomials over {n} and {p.n} variables")
        if c:
            ints, den = clear_denominators(p.terms)
            scaled.append((c.numerator, c.denominator * den, ints))
    common = math.lcm(*(d for _, d, _ in scaled))
    out: dict[Monomial, int] = {}
    for num, d, ints in scaled:
        scale = num * (common // d)
        for mono, a in ints.items():
            out[mono] = out.get(mono, 0) + scale * a
    return Polynomial._of_clean(n, {m: Fraction(v, common) for m, v in out.items() if v})


def monomials_up_to(n: int, d: int) -> list[Monomial]:
    """All monomials in n variables of total degree <= d, grlex ascending."""
    if n == 0:  # the constant alone, not an empty combination per degree
        return [()] if d >= 0 else []
    out: list[Monomial] = []
    for deg in range(d + 1):
        for combo in itertools.combinations_with_replacement(range(n), deg):
            mono = [0] * n
            for i in combo:
                mono[i] += 1
            out.append(tuple(mono))
    out.sort(key=grlex_key)
    return out


class MonomialBasis:
    """The monomials of degree <= d in n variables, grlex ascending.

    Used to index vectors and Gram matrices; len(basis) == C(n + d, d).
    """

    __slots__ = ("n", "d", "entries", "_index")

    def __init__(self, n: int, d: int):
        if d < 0:
            raise ValueError("basis degree must be nonnegative")
        self.n = n
        self.d = d
        self.entries: list[Monomial] = monomials_up_to(n, d)
        self._index = {m: i for i, m in enumerate(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Monomial:
        return self.entries[i]

    def index(self, mono: Monomial) -> int:
        try:
            return self._index[tuple(mono)]
        except KeyError:
            raise KeyError(f"monomial {mono} not in basis (n={self.n}, d={self.d})")

    def __contains__(self, mono: Monomial) -> bool:
        return tuple(mono) in self._index

    def __eq__(self, other):
        return (isinstance(other, MonomialBasis)
                and self.n == other.n and self.d == other.d)

    def __repr__(self) -> str:
        return f"MonomialBasis(n={self.n}, d={self.d}, size={len(self)})"


def coefficient_norm(p: Polynomial) -> Fraction:
    """max over terms of |coeff| / multinomial(exponents).

    This normalization makes the norm of (x1 + ... + xn)^d equal to 1 and is
    dominated by 3^(d+1) times the sup of |p| on the unit cube [-1, 1]^n.
    """
    best = Fraction(0)
    for mono, coeff in p.terms.items():
        cand = abs(coeff) / multinomial(mono)
        if cand > best:
            best = cand
    return best
