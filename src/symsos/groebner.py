"""Normal forms modulo a Groebner basis, and proof reconstruction.

Division is multivariate division in grlex order against a list of
generators that the caller asserts is a Groebner basis (no Buchberger
completion here).  Quotients are kept because certificate reconstruction
needs them: reconstruct_proof reduces the target minus the rest of a
proof (sigma plus each multiplier times its constraint) once, and the
quotients are the exact cofactors on the basis elements.

Finite product domains get a ready-made basis: for each variable x_i a
univariate generator (x_i - r_1)...(x_i - r_2k) over the 2k domain roots.
Generators in disjoint single variables form a Groebner basis in any
monomial order (their leading monomials are pairwise coprime), so the
caller assertion is discharged for these.  For any basis of that shape,
one univariate generator per variable, each term is expanded through
per-variable tables x_i^e = (x_i^e mod g_i) + (x_i^e div g_i) * g_i, in
generator-list order, with no division: reduce_polynomial keeps the
remainder, reconstruct_proof also the quotients.  Both equal divide's:
division is linear in the dividend, divide reduces each monomial's first
dividing generator (in list order) to completion before the next, and
univariate division by g_i is unique.  divide remains for every other
basis, and as the test oracle; its result checks its own identity with
poly's integer product and linear_combination.

reduce_polynomial is the one normal form the pipeline takes (each search
column and goal whole, each moment orbit's representative once), so this
module alone decides how a polynomial is reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, ge
from typing import Sequence

from .errors import DimensionMismatch, InvalidDomain, ReconstructionError
from .poly import (Polynomial, accumulate_term, clear_denominators, grlex_key,
                   linear_combination, mono_divides, mono_quotient)


@dataclass(frozen=True)
class GroebnerBasis:
    """A caller-asserted Groebner basis; generators nonzero, same arity."""

    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("empty generator list")
        n = self.generators[0].n
        for g in self.generators:
            if g.is_zero():
                raise ValueError("zero polynomial among generators")
            if g.n != n:
                raise DimensionMismatch("generators over differing variable counts")

    @property
    def n(self) -> int:
        return self.generators[0].n

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def is_standard(self, mono) -> bool:
        """Whether no generator's leading monomial divides mono, so that
        reduction leaves it as it is."""
        bound, others = self._leads
        return not (any(map(ge, mono, bound))
                    or any(all(mono[i] >= e for i, e in lead) for lead in others))

    @cached_property
    def _leads(self) -> tuple[list, list]:
        """The leading monomials as (bound, others): bound[i] is the least
        exponent of a leading pure power of x_i (inf when none), others
        holds each other leading monomial as (index, exponent) pairs."""
        bound: list = [math.inf] * self.n
        others = []
        for g in self.generators:
            lead = [(i, e) for i, e in enumerate(g.leading_monomial()) if e]
            if len(lead) == 1:
                (i, e), = lead
                bound[i] = min(bound[i], e)
            else:
                others.append(lead)
        return bound, others

    @cached_property
    def _power_tables(self) -> list[tuple[int, _PowerTable]] | None:
        """Each generator's variable and table, in list order, or None for
        any other shape.

        The shape is exactly one generator per variable, each univariate
        in its own variable.  Generators with equal coefficients share a
        table, so a finite domain basis builds one.
        """
        tables: list = []
        shared: dict = {}
        for g in self.generators:
            used = {i for mono in g.terms for i, e in enumerate(mono) if e}
            if len(used) != 1:
                return None
            (i,) = used
            coeffs = tuple(sorted((mono[i], c) for mono, c in g.terms.items()))
            if coeffs not in shared:
                shared[coeffs] = _PowerTable(dict(coeffs))
            tables.append((i, shared[coeffs]))
        if sorted(i for i, _ in tables) != list(range(self.n)):
            return None
        return tables


class _PowerTable:
    """x^e == (rem(e) + quot(e) * g(x)) / den(e) for one univariate g of
    degree k and each e >= k, grown on demand: den(e) a nonzero int, rem(e)
    of degree below k, both maps from exponents to nonzero int coefficients.

    With s the least positive int for which s * g has int coefficients,
    and c the leading one, x^k is (c * x^k - s * g + s * g) / c; x^(e+1)
    is x times x^e with the x^k term of x * rem(e) replaced by the row
    for x^k.
    """

    __slots__ = ("k", "_rows")

    def __init__(self, coeffs: dict[int, Fraction]):
        self.k = k = max(coeffs)
        ints, s = clear_denominators(coeffs)
        self._rows = [(ints[k], {e: -c for e, c in ints.items() if e != k}, {0: s})]

    def row(self, e: int) -> tuple[int, dict[int, int], dict[int, int]]:
        """(den(e), rem(e), quot(e)) for e >= k."""
        rows, k = self._rows, self.k
        while len(rows) <= e - k:
            (den_k, rem_k, quot_k), (den, rem, quot) = rows[0], rows[-1]
            top = rem.get(k - 1, 0)
            nxt = {f: top * c for f, c in rem_k.items()}
            for f, c in rem.items():
                if f + 1 < k:
                    nxt[f + 1] = nxt.get(f + 1, 0) + den_k * c
            quot = {f + 1: den_k * c for f, c in quot.items()}
            if top:
                quot[0] = top * quot_k[0]
            rows.append((den * den_k, {f: c for f, c in nxt.items() if c}, quot))
        return rows[e - k]


@dataclass
class DivisionResult:
    """Quotients and remainder of dividing by a generator list.

    Invariant (checked on construction): dividend == sum(q_i * f_i) + remainder,
    and no remainder monomial is divisible by any leading monomial.
    """

    dividend: Polynomial
    basis: GroebnerBasis
    quotients: list[Polynomial]
    remainder: Polynomial

    def __post_init__(self):
        closed = linear_combination(self.dividend.n, [(1, self.remainder)] + [
            (1, q * g) for q, g in zip(self.quotients, self.basis.generators)])
        if closed != self.dividend:
            raise ValueError("division bookkeeping violated: identity does not close")
        if not all(map(self.basis.is_standard, self.remainder.terms)):
            raise ValueError("remainder contains a reducible monomial")


def divide(dividend: Polynomial, basis: GroebnerBasis) -> DivisionResult:
    """Multivariate division in grlex order.

    At each step the leading term of the running polynomial is cancelled
    against the first generator (in list order) whose leading monomial
    divides it; if none divides, the term moves to the remainder.
    """
    if dividend.n != basis.n:
        raise DimensionMismatch(
            f"dividend over {dividend.n} variables, basis over {basis.n}")
    n = dividend.n
    quotients = [dict() for _ in basis.generators]
    remainder: dict = {}
    work = dict(dividend.terms)
    leads = [(g.leading_monomial(), g.leading_coefficient()) for g in basis.generators]
    while work:
        mono = max(work, key=grlex_key)
        coeff = work.pop(mono)
        for gi, (lm, lc) in enumerate(leads):
            if mono_divides(lm, mono):
                qmono = mono_quotient(mono, lm)
                qcoeff = coeff / lc
                accumulate_term(quotients[gi], qmono, qcoeff)
                for gm, gc in basis.generators[gi].terms.items():
                    if gm != lm:
                        accumulate_term(work, tuple(map(add, qmono, gm)), -qcoeff * gc)
                break
        else:
            remainder[mono] = coeff
    return DivisionResult(
        dividend=dividend,
        basis=basis,
        quotients=[Polynomial(n, q) for q in quotients],
        remainder=Polynomial(n, remainder),
    )


def reduce_polynomial(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """The normal form of p modulo basis: divide(p, basis).remainder.

    With one univariate generator per variable this is the table walk
    (_expand); other bases go through divide.
    """
    if basis._power_tables is None:
        return divide(p, basis).remainder
    return _expand(p, basis, quotients=False)[0]


def _expand(p: Polynomial, basis: GroebnerBasis,
            quotients: bool) -> tuple[Polynomial, list[Polynomial]]:
    """p's remainder by the walk through basis's power tables, and its
    quotients on the generators if asked for (else an empty list).

    A term's variables are rewritten in generator-list order, each by its
    row x_i^e = (rem(e) + quot(e) * g_i) / den(e): quot(e) times the rest
    of the term goes to g_i's quotient, rem(e) times it on to the next
    generator.  A term leaves a variable below k_i as it is, and the last
    products are already reduced.  The walk is on ints over one common
    denominator, p's times a multiple of each term's product of den(e), so
    each step divides exactly; a Fraction is made only for each output
    term.
    """
    if p.n != basis.n:
        raise DimensionMismatch(
            f"dividend over {p.n} variables, basis over {basis.n}")
    tables = basis._power_tables
    ints, den = clear_denominators(p.terms)
    walks = [(mono, num, [(j, i) + table.row(mono[i]) for j, (i, table) in enumerate(tables)
                          if mono[i] >= table.k])
             for mono, num in ints.items()]
    scale = math.lcm(*(math.prod(row[2] for row in rows) for _, _, rows in walks))
    out: dict = {}
    found: list[dict] = [{} for _ in tables] if quotients else []
    for mono, num, rows in walks:
        terms = [(mono, num * scale)]
        for j, i, r, rem, quot in rows:
            terms = [(m, c // r) for m, c in terms]
            if found:
                q = found[j]
                for m, c in terms:
                    for f, a in quot.items():
                        qm = m[:i] + (f,) + m[i + 1:]
                        q[qm] = q.get(qm, 0) + c * a
            terms = [(m[:i] + (f,) + m[i + 1:], c * a)
                     for m, c in terms for f, a in rem.items()]
        for m, c in terms:
            out[m] = out.get(m, 0) + c
    den *= scale

    def over(t: dict) -> Polynomial:
        return Polynomial._of_clean(p.n, {m: Fraction(c, den) for m, c in t.items() if c})
    return over(out), [over(q) for q in found]


def finite_domain_basis(n: int, roots: Sequence) -> GroebnerBasis:
    """Generators (x_i - r_1)...(x_i - r_2k) for i = 1..n: the product
    is expanded once in one variable and placed on each.

    The root list must have even length >= 2 and no repeats; the Boolean
    hypercube is roots (0, 1).
    """
    root_fracs = [Fraction(r) for r in roots]
    if len(root_fracs) < 2 or len(root_fracs) % 2 != 0:
        raise InvalidDomain("need an even number of roots, at least two")
    if len(set(root_fracs)) != len(root_fracs):
        raise InvalidDomain("domain roots must be distinct")
    x = Polynomial.variable(1, 0)
    g = math.prod(x - r for r in root_fracs)
    zeros = (0,) * n
    return GroebnerBasis(tuple(
        Polynomial._of_clean(n, {zeros[:i] + (e,) + zeros[i + 1:]: c
                                 for (e,), c in g.terms.items()})
        for i in range(n)))


def boolean_basis(n: int) -> GroebnerBasis:
    """x_i^2 - x_i for every variable: the roots {0, 1} domain."""
    return finite_domain_basis(n, (0, 1))


def reconstruct_proof(target: Polynomial, combination: Polynomial,
                      basis: GroebnerBasis) -> list[Polynomial]:
    """Cofactors g_i with target == combination + sum(g_i * f_i).

    combination is everything the proof has besides the ideal (sigma plus
    each multiplier times its constraint).  The reduced forms of both sides
    must agree exactly; otherwise the exact residual (reduced target minus
    reduced combination) is raised inside a ReconstructionError.  Degrees
    never grow: deg(g_i * f_i) is bounded by the larger of deg(target) and
    deg(combination).  The cofactors are divide(target - combination,
    basis).quotients; on a product-domain basis they come from one table
    walk of the difference, with no division.
    """
    if basis._power_tables is None:
        div = divide(target - combination, basis)
        remainder, quotients = div.remainder, div.quotients
    else:
        remainder, quotients = _expand(target - combination, basis, quotients=True)
    if not remainder.is_zero():
        raise ReconstructionError(
            "reduced sides disagree; no cofactors exist for this identity",
            residual=remainder)
    return quotients
