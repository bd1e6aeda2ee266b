"""Multivariate division with quotient tracking, and proof reconstruction.

Reduction is plain multivariate division in grlex order against a list of
generators that the caller asserts is a Groebner basis (no Buchberger
completion here).  Quotients are kept because downstream certificate
reconstruction needs them: reducing both sides of a polynomial identity
and differencing the recorded quotients recovers exact cofactors on the
basis elements.

Finite product domains get a ready-made basis: for each variable x_i a
univariate generator (x_i - r_1)...(x_i - r_2k) over the 2k domain roots.
Generators in disjoint single variables form a Groebner basis in any
monomial order, so the caller assertion is discharged for these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InvalidDomain, ReconstructionError
from .poly import Polynomial, grlex_key, mono_divides, mono_quotient


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
        acc = self.remainder
        for q, g in zip(self.quotients, self.basis.generators):
            acc = acc + q * g
        if acc != self.dividend:
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
                quotients[gi][qmono] = quotients[gi].get(qmono, Fraction(0)) + qcoeff
                for gm, gc in basis.generators[gi].terms.items():
                    if gm == lm:
                        continue
                    tm = tuple(a + b for a, b in zip(qmono, gm))
                    acc = work.get(tm, Fraction(0)) - qcoeff * gc
                    if acc:
                        work[tm] = acc
                    else:
                        work.pop(tm, None)
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
    return divide(p, basis).remainder


def finite_domain_basis(n: int, roots: Sequence) -> GroebnerBasis:
    """Generators (x_i - r_1)...(x_i - r_2k) for i = 1..n.

    The root list must have even length >= 2 and no repeats; the Boolean
    hypercube is roots (0, 1).
    """
    root_fracs = [Fraction(r) for r in roots]
    if len(root_fracs) < 2 or len(root_fracs) % 2 != 0:
        raise InvalidDomain("need an even number of roots, at least two")
    if len(set(root_fracs)) != len(root_fracs):
        raise InvalidDomain("domain roots must be distinct")
    gens = []
    for i in range(n):
        g = Polynomial.constant(n, 1)
        xi = Polynomial.variable(n, i)
        for r in root_fracs:
            g = g * (xi - Polynomial.constant(n, r))
        gens.append(g)
    return GroebnerBasis(tuple(gens))


def boolean_basis(n: int) -> GroebnerBasis:
    """x_i^2 - x_i for every variable: the roots {0, 1} domain."""
    return finite_domain_basis(n, (0, 1))


def reduce_identity(sigma: Polynomial,
                    products: Sequence[Polynomial],
                    basis: GroebnerBasis) -> tuple[Polynomial, list[Polynomial]]:
    """Remainders of sigma and of each product term, in order."""
    return (reduce_polynomial(sigma, basis),
            [reduce_polynomial(p, basis) for p in products])


def reconstruct_proof(target: Polynomial,
                      sigma: Polynomial,
                      equality_products: Sequence[tuple[Polynomial, Polynomial]],
                      basis: GroebnerBasis) -> list[Polynomial]:
    """Cofactors g_i with target == sigma + sum(mult * constr) + sum(g_i * f_i).

    equality_products is a list of (multiplier, constraint) pairs.  The
    reduced forms of both sides must agree exactly; otherwise the exact
    residual (reduced target minus reduced combination) is raised inside
    a ReconstructionError.  Degrees never grow: deg(g_i * f_i) is bounded
    by the larger of deg(target) and deg(sigma + sum mult * constr).
    """
    combo = sigma
    for mult, constr in equality_products:
        combo = combo + mult * constr
    div_target = divide(target, basis)
    div_combo = divide(combo, basis)
    residual = div_target.remainder - div_combo.remainder
    if not residual.is_zero():
        raise ReconstructionError(
            "reduced sides disagree; no cofactors exist for this identity",
            residual=residual)
    return [rho - q for rho, q in zip(div_target.quotients, div_combo.quotients)]
