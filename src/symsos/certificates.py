"""Sum-of-squares certificates: expansion, exact verification, constructions.

A certificate states that `target` equals

    <sigma, x x^T>  +  sum over equality constraints  +  sum g_i * f_i

where sigma is a rational Gram matrix, the equality part is h * p per
constraint (general mode) or a * p^2 with a scalar a (normal-form mode),
and the f_i are Groebner generators of the coordinate ring.  A refutation
is the special case target = -1.

verify() forms each term of the identity once, checks that the terms sum
to the target and that each respects the degree bound, and certifies
sigma >= 0 by exact LDL^T.  It is the one exact acceptance check of a
search: acceptance is a theorem about the inputs, and every rejection
carries an exact witness (a residual polynomial or a vector v with
v^T sigma v < 0).

A certificate file (format symsos.certificate/1) is one line of compact
JSON with sorted keys, byte-identical across runs; every rational is a
"num/den" string.  parse_certificate reads any JSON layout, parses each
distinct rational string once and checks each exponent vector once; it
rejects a rational that is not a string and a polynomial that repeats a
monomial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import linalg
from .errors import DimensionMismatch, InvalidWitness, ParseError
from .poly import (Monomial, MonomialBasis, Polynomial, linear_combination,
                   mono_mul)
from .symmetry import GramMatrix

MultiplierLike = Union[Polynomial, Fraction]

GENERAL = "general"
NORMAL_FORM = "normal-form"


@dataclass
class SosCertificate:
    target: Polynomial
    sigma: GramMatrix
    equality_multipliers: list[tuple[Polynomial, MultiplierLike]]
    groebner_multipliers: list[tuple[Polynomial, Polynomial]]
    degree_bound: int
    mode: str = GENERAL

    @property
    def n(self) -> int:
        return self.target.n


@dataclass
class VerificationOutcome:
    accepted: bool
    failure: Optional[str] = None
    residual: Optional[Polynomial] = None
    psd_witness: Optional[list[Fraction]] = None
    psd_witness_value: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.accepted


@dataclass
class BitSizeReport:
    max_numerator_bits: int
    max_denominator_bits: int
    total_bits: int
    coefficient_count: int


def _equality_term(constraint: Polynomial, mult: MultiplierLike, mode: str) -> Polynomial:
    if isinstance(mult, Polynomial):
        return mult * constraint
    # Scalar multiplier: in normal form it weights the squared constraint.
    if mode == NORMAL_FORM:
        return constraint * constraint * Fraction(mult)
    return constraint * Fraction(mult)


def _terms(cert: SosCertificate) -> list[Polynomial]:
    """The summands of the claimed identity: sigma's polynomial, then one
    term per equality multiplier, then one per Groebner multiplier."""
    sigma = cert.sigma.to_polynomial()
    if sigma.n != cert.target.n:
        raise DimensionMismatch("sigma basis arity differs from target")
    return ([sigma]
            + [_equality_term(c, m, cert.mode) for c, m in cert.equality_multipliers]
            + [mult * generator for generator, mult in cert.groebner_multipliers])


def expand(cert: SosCertificate) -> Polynomial:
    """The polynomial the certificate claims to equal its target."""
    return linear_combination(cert.n, ((1, term) for term in _terms(cert)))


def verify(cert: SosCertificate) -> VerificationOutcome:
    """Exact acceptance check: structure, identity, degree bounds, PSD."""
    if cert.mode not in (GENERAL, NORMAL_FORM):
        return VerificationOutcome(False, failure=f"unknown mode {cert.mode!r}")
    if cert.mode == NORMAL_FORM:
        for constraint, mult in cert.equality_multipliers:
            if isinstance(mult, Polynomial):
                return VerificationOutcome(
                    False, failure="normal-form certificates need scalar "
                                   "multipliers on equality constraints")
    try:
        terms = _terms(cert)
        total = linear_combination(cert.n, ((1, term) for term in terms))
    except DimensionMismatch as exc:
        return VerificationOutcome(False, failure=str(exc))
    if total != cert.target:
        return VerificationOutcome(False, failure="identity",
                                   residual=cert.target - total)

    kinds = (["sigma"] + ["equality term"] * len(cert.equality_multipliers)
             + ["basis term"] * len(cert.groebner_multipliers))
    for kind, term in zip(kinds, terms):
        if term.degree() > cert.degree_bound:
            return VerificationOutcome(False, failure=f"degree: {kind} exceeds bound")

    psd = linalg.psd_certificate(cert.sigma.entries)
    if not psd.is_psd:
        return VerificationOutcome(
            False, failure="sigma not positive semidefinite",
            psd_witness=psd.witness, psd_witness_value=psd.witness_value)
    return VerificationOutcome(True)


def bit_size(cert: SosCertificate) -> BitSizeReport:
    """Exact bit counts over every stored rational coefficient; sigma is
    read entry by entry, never expanded."""
    max_num = 0
    max_den = 0
    total = 0
    count = 0

    def visit(value: Fraction) -> None:
        nonlocal max_num, max_den, total, count
        nb = abs(value.numerator).bit_length()
        db = value.denominator.bit_length()
        max_num = max(max_num, nb)
        max_den = max(max_den, db)
        total += nb + db
        count += 1

    def visit_poly(p: Polynomial) -> None:
        for _, c in p.terms.items():
            visit(c)

    visit_poly(cert.target)
    for row in cert.sigma.entries:
        for x in row:
            visit(x)
    for constraint, mult in cert.equality_multipliers:
        visit_poly(constraint)
        if isinstance(mult, Polynomial):
            visit_poly(mult)
        else:
            visit(Fraction(mult))
    for generator, mult in cert.groebner_multipliers:
        visit_poly(generator)
        visit_poly(mult)
    return BitSizeReport(
        max_numerator_bits=max_num,
        max_denominator_bits=max_den,
        total_bits=total,
        coefficient_count=count)


# -- order unit construction ------------------------------------------------


class _Parts:
    """A sum-of-squares-plus-ideal expression under construction.

    gram maps monomial pairs to coefficients (a PSD matrix by construction:
    it only ever accumulates nonnegative rank-one terms, embeddings and
    rescalings of other _Parts grams).  eq and gb collect multipliers keyed
    by the constraint polynomial.
    """

    def __init__(self, n: int):
        self.n = n
        self.gram: dict[tuple[Monomial, Monomial], Fraction] = {}
        self.eq: dict = {}
        self.gb: dict = {}

    def _bump(self, key, delta: Fraction) -> None:
        acc = self.gram.get(key, Fraction(0)) + delta
        if acc:
            self.gram[key] = acc
        else:
            self.gram.pop(key, None)

    def add_rank_one(self, weight: Fraction, p: Polynomial) -> None:
        if weight < 0:
            raise ValueError("rank-one weight must be nonnegative")
        if weight == 0:
            return
        items = list(p.terms.items())
        for ma, ca in items:
            for mb, cb in items:
                self._bump((ma, mb), weight * ca * cb)

    def add_constant(self, value: Fraction) -> None:
        self.add_rank_one(Fraction(value), Polynomial.constant(self.n, 1))

    def _merge_mult(self, table: dict, constraint: Polynomial, mult: Polynomial) -> None:
        key = constraint.key()
        if key in table:
            table[key] = (constraint, table[key][1] + mult)
        else:
            table[key] = (constraint, mult)

    def add_scaled(self, other: "_Parts", scale: Fraction, shift: Monomial | None = None) -> None:
        """Accumulate scale * x^(2*shift) * other (scale >= 0)."""
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        if scale == 0:
            return
        shift_poly = None
        if shift is not None:
            shift_poly = Polynomial.monomial(self.n, mono_mul(shift, shift))
        for (ma, mb), c in other.gram.items():
            key = (mono_mul(ma, shift), mono_mul(mb, shift)) if shift else (ma, mb)
            self._bump(key, c * scale)
        for constraint, mult in other.eq.values():
            m = mult * scale
            if shift_poly is not None:
                m = m * shift_poly
            self._merge_mult(self.eq, constraint, m)
        for generator, mult in other.gb.values():
            m = mult * scale
            if shift_poly is not None:
                m = m * shift_poly
            self._merge_mult(self.gb, generator, m)

    @classmethod
    def from_certificate(cls, cert: SosCertificate) -> "_Parts":
        parts = cls(cert.n)
        basis = cert.sigma.basis
        for i, a in enumerate(basis.entries):
            for j, b in enumerate(basis.entries):
                c = cert.sigma.entries[i][j]
                if c:
                    parts._bump((a, b), c)
        for constraint, mult in cert.equality_multipliers:
            if not isinstance(mult, Polynomial):
                raise InvalidWitness("witness must carry polynomial multipliers")
            parts._merge_mult(parts.eq, constraint, mult)
        for generator, mult in cert.groebner_multipliers:
            parts._merge_mult(parts.gb, generator, mult)
        return parts

    def to_certificate(self, target: Polynomial, degree_bound: int) -> SosCertificate:
        half = max((max(sum(a), sum(b)) for a, b in self.gram), default=0)
        basis = MonomialBasis(self.n, half)
        gram = GramMatrix(basis)
        for (a, b), c in self.gram.items():
            gram.entries[basis.index(a)][basis.index(b)] += c
        eq = [self.eq[k] for k in sorted(self.eq)]
        gb = [self.gb[k] for k in sorted(self.gb)]
        return SosCertificate(
            target=target, sigma=gram,
            equality_multipliers=[(c, m) for c, m in eq],
            groebner_multipliers=list(gb),
            degree_bound=degree_bound, mode=GENERAL)


def _witness_bound_constant(witness: SosCertificate) -> Fraction:
    """Recover N from a witness proving N - sum x_i^2."""
    n = witness.n
    square_sum = Polynomial.zero(n)
    for i in range(n):
        xi = Polynomial.variable(n, i)
        square_sum = square_sum + xi * xi
    diff = witness.target + square_sum
    if diff.degree() > 0:
        raise InvalidWitness("witness target must be a constant minus sum of x_i^2")
    value = diff.constant_term()
    if value < 0:
        raise InvalidWitness("witness bound constant is negative")
    return value


def order_unit_certificate(witness: SosCertificate, mono: Monomial,
                           d: int, sign: int = 1) -> SosCertificate:
    """Certify N' + m or N' - m for a monomial m of degree <= 2d.

    witness must be a verifying certificate for N - sum x_i^2 of degree 2k;
    the output has degree at most 2(d + k - 1).  N' comes out of the
    construction (2N + 3/2 for nonconstant m) and is not minimized.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if d < 1:
        raise ValueError("d must be at least 1")
    if witness.mode != GENERAL:
        raise InvalidWitness("witness must be a general-mode certificate")
    if not verify(witness).accepted:
        raise InvalidWitness("witness certificate does not verify")
    if witness.degree_bound < 2 or witness.degree_bound % 2 != 0:
        raise InvalidWitness("witness degree bound must be even and at least 2")
    n = witness.n
    mono = tuple(mono)
    if len(mono) != n:
        raise DimensionMismatch("monomial arity differs from witness")
    if sum(mono) > 2 * d:
        raise ValueError(f"monomial degree {sum(mono)} exceeds 2d = {2 * d}")

    n_k = _witness_bound_constant(witness)
    k = witness.degree_bound // 2
    bound = 2 * (d + k - 1)
    witness_parts = _Parts.from_certificate(witness)

    if sum(mono) == 0:
        # N' = 1: the certificate for 1 +- 1 is the constant 1 -+ 1 itself.
        target = Polynomial.constant(n, 1 + sign)
        parts = _Parts(n)
        parts.add_constant(Fraction(1 + sign))
        return parts.to_certificate(target, bound)

    def unit_vector(i: int) -> Monomial:
        return tuple(1 if t == i else 0 for t in range(n))

    def claim(m: Monomial) -> tuple[Fraction, _Parts]:
        """(N, proof of N - m^2) for deg(m) <= d."""
        deg = sum(m)
        if deg == 0:
            return Fraction(1), _Parts(n)
        if deg == 1:
            i = m.index(1)
            minus = _Parts(n)
            minus.add_scaled(witness_parts, Fraction(1))
            for j in range(n):
                if j != i:
                    minus.add_rank_one(Fraction(1), Polynomial.variable(n, j))
            return n_k, minus
        i = next(t for t, e in enumerate(m) if e > 0)
        rest = tuple(e - 1 if t == i else e for t, e in enumerate(m))
        n_rest, minus_rest = claim(rest)
        big = max(n_k, n_rest)
        # N - m2^2, padded up from the recursive bound.
        pad_rest = _Parts(n)
        pad_rest.add_scaled(minus_rest, Fraction(1))
        pad_rest.add_constant(big - n_rest)
        # N - x_i^2, padded up from the witness bound.
        _, minus_xi = claim(unit_vector(i))
        pad_xi = _Parts(n)
        pad_xi.add_scaled(minus_xi, Fraction(1))
        pad_xi.add_constant(big - n_k)
        # N^2 - m^2 = (N - m2^2) * x_i^2 + N * (N - x_i^2).
        minus = _Parts(n)
        minus.add_scaled(pad_rest, Fraction(1), shift=unit_vector(i))
        minus.add_scaled(pad_xi, big)
        return big * big, minus

    # Split m = m1 * m2 with both factor degrees <= d.
    half = (sum(mono) + 1) // 2
    m1 = [0] * n
    taken = 0
    for i, e in enumerate(mono):
        grab = min(e, half - taken)
        m1[i] = grab
        taken += grab
        if taken == half:
            break
    m1 = tuple(m1)
    m2 = tuple(e - f for e, f in zip(mono, m1))

    n1, minus1 = claim(m1)
    n2, minus2 = claim(m2)
    big = max(n1, n2)
    parts = _Parts(n)
    parts.add_scaled(minus1, Fraction(1))
    parts.add_constant(big - n1)
    parts.add_scaled(minus2, Fraction(1))
    parts.add_constant(big - n2)
    p1 = Polynomial.monomial(n, m1)
    p2 = Polynomial.monomial(n, m2)
    one = Polynomial.constant(n, 1)
    half_w = Fraction(1, 2)
    if sign == 1:
        parts.add_rank_one(half_w, one - p1)
        parts.add_rank_one(half_w, one - p2)
        parts.add_rank_one(half_w, one + p1 + p2)
    else:
        parts.add_rank_one(half_w, one - p1)
        parts.add_rank_one(half_w, one + p2)
        parts.add_rank_one(half_w, one + p1 - p2)
    target = Polynomial.constant(n, 2 * big + Fraction(3, 2)) \
        + Polynomial.monomial(n, mono, sign)
    return parts.to_certificate(target, bound)


# -- serialization ----------------------------------------------------------

FORMAT_TAG = "symsos.certificate/1"


def _frac_str(x: Fraction) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _frac_parse(s) -> Fraction:
    """The rational a string denotes, exactly as Fraction(s) reads it.  A
    JSON number, bool or null is malformed: a float would be read as its
    binary value and true as 1."""
    if type(s) is not str:
        raise ParseError(f"rational {s!r} is not a 'num/den' string")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}")


def _int_load(value) -> int:
    """A JSON integer; a float or a bool is malformed, never truncated."""
    if type(value) is not int:
        raise ParseError(f"expected an integer, got {value!r}")
    return value


def _poly_dump(p: Polynomial) -> list:
    return [[list(m), _frac_str(c)] for m, c in p.items_grlex()]


def serialize_certificate(cert: SosCertificate) -> str:
    """The certificate as one line of compact JSON with sorted keys;
    `python -m json.tool` lays it out for reading."""
    eq = []
    for constraint, mult in cert.equality_multipliers:
        item = {"constraint": _poly_dump(constraint)}
        if isinstance(mult, Polynomial):
            item["multiplier"] = _poly_dump(mult)
        else:
            item["scalar"] = _frac_str(Fraction(mult))
        eq.append(item)
    doc = {
        "format": FORMAT_TAG,
        "variables": cert.n,
        "mode": cert.mode,
        "degree_bound": cert.degree_bound,
        "target": _poly_dump(cert.target),
        "sigma_basis_degree": cert.sigma.basis.d,
        "sigma": [[_frac_str(x) for x in row] for row in cert.sigma.entries],
        "equality_multipliers": eq,
        "groebner_multipliers": [
            {"generator": _poly_dump(g), "multiplier": _poly_dump(m)}
            for g, m in cert.groebner_multipliers],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _frac_load(s, seen: dict) -> Fraction:
    """_frac_parse(s), parsed once per distinct string of a document: equal
    entries of sigma share one Fraction."""
    out = seen.get(s) if type(s) is str else None
    if out is None:
        out = seen[s] = _frac_parse(s)
    return out


def _poly_load(data, n: int, seen: dict) -> Polynomial:
    """A polynomial from its [exponents, coefficient] terms.  Each exponent
    vector must be n nonnegative JSON integers and occur once: a repeated
    monomial has no agreed meaning (summed, or the last one wins)."""
    terms = {}
    for entry in data:
        if len(entry) != 2:
            raise ParseError("polynomial term must be [exponents, coefficient]")
        mono = tuple(entry[0])
        if len(mono) != n:
            raise ParseError(f"exponent vector {list(mono)} has {len(mono)} "
                             f"entries, expected {n}")
        # Exact ints, as _int_load requires: no float, bool or string.
        if not all(type(e) is int for e in mono) or min(mono, default=0) < 0:
            raise ParseError(f"exponent vector {list(mono)} is not nonnegative integers")
        if mono in terms:
            raise ParseError(f"monomial {list(mono)} repeated in a polynomial")
        terms[mono] = _frac_load(entry[1], seen)
    return Polynomial._of_clean(n, {m: c for m, c in terms.items() if c})


def parse_certificate(text: str) -> SosCertificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ParseError(f"missing or unsupported format tag (want {FORMAT_TAG})")
    try:
        n = _int_load(doc["variables"])
        if n < 0:
            raise ParseError(f"variables must be nonnegative, got {n}")
        seen: dict[str, Fraction] = {}
        mode = doc["mode"]
        bound = _int_load(doc["degree_bound"])
        target = _poly_load(doc["target"], n, seen)
        d = _int_load(doc["sigma_basis_degree"])
        # Compare the grid with C(n + d, d) before building that many monomials.
        if d >= 0 and len(doc["sigma"]) != math.comb(n + d, d):
            raise DimensionMismatch("entry grid does not match basis size")
        rows = [[_frac_load(x, seen) for x in row] for row in doc["sigma"]]
        sigma = GramMatrix(MonomialBasis(n, d), rows)
        eq = []
        for item in doc["equality_multipliers"]:
            constraint = _poly_load(item["constraint"], n, seen)
            if "scalar" in item:
                eq.append((constraint, _frac_load(item["scalar"], seen)))
            else:
                eq.append((constraint, _poly_load(item["multiplier"], n, seen)))
        gb = [(_poly_load(item["generator"], n, seen),
               _poly_load(item["multiplier"], n, seen))
              for item in doc["groebner_multipliers"]]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"malformed certificate document: {exc}")
    return SosCertificate(target=target, sigma=sigma, equality_multipliers=eq,
                          groebner_multipliers=gb, degree_bound=bound, mode=mode)
