"""Normal forms modulo a Groebner basis, and proof reconstruction.

Division is multivariate division in grlex order against a list of
generators that the caller asserts is a Groebner basis (no Buchberger
completion here).  Quotients are kept because certificate reconstruction
needs them: reconstruct_proof divides the target minus the rest of a
proof, one polynomial (sigma plus each multiplier times its constraint),
once, and the quotients are the exact cofactors on the basis elements.

Finite product domains get a ready-made basis: for each variable x_i a
univariate generator (x_i - r_1)...(x_i - r_2k) over the 2k domain roots.
Generators in disjoint single variables form a Groebner basis in any
monomial order (their leading monomials are pairwise coprime), so the
caller assertion is discharged for these.  For any basis of that shape,
one univariate generator per variable, reduce_polynomial reduces term by
term from per-variable tables of x_i^e mod g_i(x_i); the normal form is
unique, so it equals divide's remainder.  divide remains for quotients
and for every other basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, ge
from typing import Sequence

from .errors import DimensionMismatch, InvalidDomain, ReconstructionError
from .poly import (Polynomial, accumulate_term, grlex_key, mono_divides,
                   mono_quotient)


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
    def _power_tables(self) -> list[_PowerTable] | None:
        """Variable i's table of x_i^e mod g_i, or None for any other shape.

        The shape is exactly one generator per variable, each univariate
        in its own variable.  Generators with equal coefficients share a
        table, so a finite domain basis builds one.
        """
        tables: list = [None] * self.n
        shared: dict = {}
        for g in self.generators:
            used = {i for mono in g.terms for i, e in enumerate(mono) if e}
            if len(used) != 1:
                return None
            (i,) = used
            if tables[i] is not None:
                return None
            coeffs = tuple(sorted((mono[i], c) for mono, c in g.terms.items()))
            if coeffs not in shared:
                shared[coeffs] = _PowerTable(dict(coeffs))
            tables[i] = shared[coeffs]
        if any(t is None for t in tables):
            return None
        return tables


class _PowerTable:
    """x^e mod g(x) for one univariate g of degree k, grown on demand.

    A row maps exponents below k to nonzero coefficients.  Row e - k is
    x^e mod g for e >= k: row 0 is x^k - g / lc(g), and each further row
    is x times the previous one with its x^k term replaced by row 0.
    """

    __slots__ = ("k", "_rows")

    def __init__(self, coeffs: dict[int, Fraction]):
        self.k = max(coeffs)
        lc = coeffs[self.k]
        self._rows = [{e: -c / lc for e, c in coeffs.items() if e != self.k}]

    def row(self, e: int) -> dict[int, Fraction]:
        rows, k = self._rows, self.k
        while len(rows) <= e - k:
            prev = rows[-1]
            top = prev.get(k - 1, 0)
            nxt = {f: top * c for f, c in rows[0].items()}
            for f, c in prev.items():
                if f + 1 < k:
                    nxt[f + 1] = nxt.get(f + 1, 0) + c
            rows.append({f: c for f, c in nxt.items() if c})
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
        # remainder + sum q_i f_i, each product term added into one dict.
        acc = dict(self.remainder.terms)
        for q, g in zip(self.quotients, self.basis.generators):
            for mq, cq in q.terms.items():
                for mg, cg in g.terms.items():
                    accumulate_term(acc, tuple(map(add, mq, mg)), cq * cg)
        if acc != self.dividend.terms:
            raise ValueError("division bookkeeping violated: identity does not close")
        leads = [g.leading_monomial() for g in self.basis.generators]
        for mono in self.remainder.terms:
            if any(mono_divides(lm, mono) for lm in leads):
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

    With one univariate generator per variable, each exponent e >= k_i of
    a term is replaced by the table row x_i^e mod g_i; the product of the
    rows is already reduced.  Other bases go through divide.
    """
    tables = basis._power_tables
    if tables is None:
        return divide(p, basis).remainder
    if p.n != basis.n:
        raise DimensionMismatch(
            f"dividend over {p.n} variables, basis over {basis.n}")
    out: dict = {}
    for mono, coeff in p.terms.items():
        terms = [(mono, coeff)]
        for i, e in enumerate(mono):
            if e >= tables[i].k:
                row = tables[i].row(e).items()
                terms = [(m[:i] + (f,) + m[i + 1:], c * a)
                         for m, c in terms for f, a in row]
        for m, c in terms:
            out[m] = out.get(m, 0) + c
    return Polynomial(p.n, out)


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
    coeffs = {0: Fraction(1)}  # the product so far, {exponent: coefficient}
    for r in root_fracs:
        times = {}
        for e, c in coeffs.items():
            accumulate_term(times, e + 1, c)
            if r:
                accumulate_term(times, e, -r * c)
        coeffs = times
    zeros = (0,) * n
    return GroebnerBasis(tuple(
        Polynomial._of_clean(n, {zeros[:i] + (e,) + zeros[i + 1:]: c
                                 for e, c in coeffs.items()})
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
    deg(combination).
    """
    # With the generator order fixed, division is linear in the dividend,
    # so one division of the difference yields both residual and cofactors.
    div = divide(target - combination, basis)
    if not div.remainder.is_zero():
        raise ReconstructionError(
            "reduced sides disagree; no cofactors exist for this identity",
            residual=div.remainder)
    return div.quotients
