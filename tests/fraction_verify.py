"""The certificate check in Fraction arithmetic: an oracle for tests.

symsos verifies a certificate on integers, each term over its own
denominator and the sum over one common denominator, and checks sigma's
nonzero block alone.  These are the same checks done term by term as
Polynomial arithmetic, with the PSD check on the whole of sigma.
"""

from fractions import Fraction

from symsos import linalg
from symsos.certificates import GENERAL, NORMAL_FORM, VerificationOutcome
from symsos.errors import DimensionMismatch
from symsos.poly import Polynomial, accumulate_term, linear_combination, mono_mul


def quadratic_form(a, v):
    """v^T A v."""
    return sum((vi * Fraction(x) * vj for vi, row in zip(v, a) for x, vj in zip(row, v)),
               Fraction(0))


def sigma_polynomial(gram):
    """<Q, x x^T> where x is the basis vector: sum Q_ab x^(a+b)."""
    out = {}
    for a, row in zip(gram.basis.entries, gram.entries):
        for b, c in zip(gram.basis.entries, row):
            if c:
                accumulate_term(out, mono_mul(a, b), Fraction(c))
    return Polynomial._of_clean(gram.basis.n, out)


def equality_term(constraint, mult, mode):
    if isinstance(mult, Polynomial):
        return mult * constraint
    # Scalar multiplier: in normal form it weights the squared constraint.
    if mode == NORMAL_FORM:
        return constraint * constraint * Fraction(mult)
    return constraint * Fraction(mult)


def terms(cert):
    """The summands of the claimed identity: sigma's polynomial, then one
    term per equality multiplier, then one per Groebner multiplier."""
    sigma = sigma_polynomial(cert.sigma)
    if sigma.n != cert.target.n:
        raise DimensionMismatch("sigma basis arity differs from target")
    return ([sigma]
            + [equality_term(c, m, cert.mode) for c, m in cert.equality_multipliers]
            + [mult * generator for generator, mult in cert.groebner_multipliers])


def expand(cert):
    """The polynomial the certificate claims to equal its target."""
    return linear_combination(cert.n, ((1, term) for term in terms(cert)))


def verify(cert):
    """certificates.verify, in Fraction arithmetic."""
    if cert.mode not in (GENERAL, NORMAL_FORM):
        return VerificationOutcome(False, failure=f"unknown mode {cert.mode!r}")
    if cert.mode == NORMAL_FORM:
        for constraint, mult in cert.equality_multipliers:
            if isinstance(mult, Polynomial):
                return VerificationOutcome(
                    False, failure="normal-form certificates need scalar "
                                   "multipliers on equality constraints")
    try:
        summands = terms(cert)
        total = linear_combination(cert.n, ((1, term) for term in summands))
    except DimensionMismatch as exc:
        return VerificationOutcome(False, failure=str(exc))
    if total != cert.target:
        return VerificationOutcome(False, failure="identity",
                                   residual=cert.target - total)

    kinds = (["sigma"] + ["equality term"] * len(cert.equality_multipliers)
             + ["basis term"] * len(cert.groebner_multipliers))
    for kind, term in zip(kinds, summands):
        if term.degree() > cert.degree_bound:
            return VerificationOutcome(False, failure=f"degree: {kind} exceeds bound")

    psd = linalg.psd_certificate(cert.sigma.entries)
    if not psd.is_psd:
        return VerificationOutcome(
            False, failure="sigma not positive semidefinite",
            psd_witness=psd.witness, psd_witness_value=psd.witness_value)
    return VerificationOutcome(True)
