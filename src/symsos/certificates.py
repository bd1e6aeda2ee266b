"""Sum-of-squares certificates: exact verification, constructions.

A certificate states that `target` equals

    <sigma, x x^T>  +  sum over equality constraints  +  sum g_i * f_i

where sigma is a rational Gram matrix, the equality part is h * p per
constraint (general mode) or a * p^2 with a scalar a (normal-form mode),
and the f_i are Groebner generators of the coordinate ring.  A refutation
is the special case target = -1.

verify() works on integers: it expands sigma (GramMatrix.integer_form), and
each multiplier times its constraint or generator (poly.integer_product),
over their own denominators, sums them over one common one, checks each
term's degree, and certifies sigma >= 0 by exact LDL^T of its nonzero
integer block.  It is the one exact acceptance check:
acceptance is a theorem about the inputs, and every rejection carries an
exact witness (a residual polynomial or v with v^T sigma v < 0).

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
from .poly import (Monomial, MonomialBasis, Polynomial, clear_denominators,
                   integer_product, linear_combination, mono_mul)
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


def verify(cert: SosCertificate) -> VerificationOutcome:
    """Exact acceptance check: structure, identity, degree bounds, PSD."""
    if cert.mode not in (GENERAL, NORMAL_FORM):
        return VerificationOutcome(False, failure=f"unknown mode {cert.mode!r}")
    if cert.mode == NORMAL_FORM and any(isinstance(mult, Polynomial)
                                        for _, mult in cert.equality_multipliers):
        return VerificationOutcome(False, failure="normal-form certificates need "
                                   "scalar multipliers on equality constraints")
    if cert.sigma.basis.n != cert.n:
        return VerificationOutcome(False, failure="sigma basis arity differs from target")
    # Each equality and basis term as its factors, the multiplier first; a
    # scalar multiplier in normal form weights the squared constraint.
    factors = ([[m, p] if isinstance(m, Polynomial) else
                [Polynomial.constant(p.n, m)] + [p] * (1 + (cert.mode == NORMAL_FORM))
                for p, m in cert.equality_multipliers]
               + [[m, g] for g, m in cert.groebner_multipliers])
    for a, b in [f[:2] for f in factors] + [(cert.target, f[0]) for f in factors]:
        if a.n != b.n:
            return VerificationOutcome(
                False, failure=f"polynomials over {a.n} and {b.n} variables")
    # Every term, and the target, over one common denominator.
    den, keep, block, sigma = cert.sigma.integer_form()
    terms = [(sigma, den)] + [integer_product(f) for f in factors]
    target, tden = clear_denominators(cert.target.terms)
    common = math.lcm(tden, *(d for _, d in terms))
    rest = {m: c * (common // tden) for m, c in target.items()}
    for t, d in terms:
        for m, c in t.items():
            rest[m] = rest.get(m, 0) - c * (common // d)
    residual = {m: Fraction(c, common) for m, c in rest.items() if c}
    if residual:
        return VerificationOutcome(False, failure="identity",
                                   residual=Polynomial._of_clean(cert.n, residual))

    kinds = (["sigma"] + ["equality term"] * len(cert.equality_multipliers)
             + ["basis term"] * len(cert.groebner_multipliers))
    for kind, (t, _) in zip(kinds, terms):
        if max(map(sum, t), default=-1) > cert.degree_bound:
            return VerificationOutcome(False, failure=f"degree: {kind} exceeds bound")

    # sigma is PSD iff its nonzero block is; the witness is zero off it.
    psd = linalg.psd_certificate(block)
    if not psd.is_psd:
        witness = [Fraction(0)] * cert.sigma.dim
        for i, x in zip(keep, psd.witness):
            witness[i] = x
        return VerificationOutcome(
            False, failure="sigma not positive semidefinite",
            psd_witness=witness, psd_witness_value=psd.witness_value / den)
    return VerificationOutcome(True)


def _rationals(cert: SosCertificate):
    """Every stored rational: the target's coefficients, every sigma entry
    (zeros included), then each constraint's and multiplier's coefficients
    or scalar."""
    yield from cert.target.terms.values()
    for row in cert.sigma.entries:
        yield from row
    for constraint, mult in cert.equality_multipliers + cert.groebner_multipliers:
        yield from constraint.terms.values()
        if isinstance(mult, Polynomial):
            yield from mult.terms.values()
        else:
            yield Fraction(mult)


def bit_size(cert: SosCertificate) -> BitSizeReport:
    """Exact bit counts over every stored rational coefficient; sigma is
    read entry by entry, never expanded."""
    max_num = max_den = total = count = 0
    for value in _rationals(cert):
        nb = abs(value.numerator).bit_length()
        db = value.denominator.bit_length()
        if nb > max_num:
            max_num = nb
        if db > max_den:
            max_den = db
        total += nb + db
        count += 1
    return BitSizeReport(
        max_numerator_bits=max_num,
        max_denominator_bits=max_den,
        total_bits=total,
        coefficient_count=count)


# -- order unit construction ------------------------------------------------


def _witness_bound_constant(witness: SosCertificate) -> Fraction:
    """Recover N from a witness proving N - sum x_i^2."""
    n = witness.n
    diff = linear_combination(n, [(1, witness.target)]
                              + [(1, Polynomial.variable(n, i) ** 2) for i in range(n)])
    if diff.degree() > 0:
        raise InvalidWitness("witness target must be a constant minus sum of x_i^2")
    value = diff.constant_term()
    if value < 0:
        raise InvalidWitness("witness bound constant is negative")
    return value


def _sum_of_pieces(witness: SosCertificate, pieces: list, target: Polynomial,
                   degree_bound: int) -> SosCertificate:
    """The certificate whose right-hand side is the sum of the pieces.

    A piece (w, s, p) with w >= 0 stands for w * x^(2s) * p^2, or, when p
    is None, for w * x^(2s) times the witness's sigma and multiplier terms.
    Sigma's basis degree is the largest degree of a monomial whose row is
    nonzero; multipliers on one constraint are summed, in constraint.key()
    order.
    """
    n = witness.n
    wit = witness.sigma.basis
    # A zero weight adds nothing, not even a zero multiplier to the tables.
    pieces = [piece for piece in pieces if piece[0]]
    top = max((sum(s) + (wit.d if p is None else p.degree()) for _, s, p in pieces),
              default=0)
    basis = MonomialBasis(n, top)
    grid = [[Fraction(0)] * len(basis) for _ in basis]
    tables = ({}, {})  # constraint.key() -> [constraint, summed multiplier]
    for w, s, p in pieces:
        # rows: each shifted monomial's grid index with its row of the
        # piece's own Gram matrix (the witness's sigma, or p p^T)
        if p is None:
            rows = [(basis.index(mono_mul(a, s)), row)
                    for a, row in zip(wit.entries, witness.sigma.entries)]
            shift = Polynomial.monomial(n, mono_mul(s, s), w)
            for table, mults in zip(tables, (witness.equality_multipliers,
                                             witness.groebner_multipliers)):
                for constraint, mult in mults:
                    entry = table.setdefault(constraint.key(),
                                             [constraint, Polynomial.zero(n)])
                    entry[1] = entry[1] + mult * shift
        else:
            rows = [(basis.index(mono_mul(a, s)), [ca * cb for cb in p.terms.values()])
                    for a, ca in p.terms.items()]
        for i, row in rows:
            for (j, _), c in zip(rows, row):
                if c:
                    grid[i][j] += w * c
    half = max((sum(a) for a, row in zip(basis.entries, grid) if any(row)), default=0)
    size = math.comb(n + half, half)
    eq, gb = ([tuple(table[key]) for key in sorted(table)] for table in tables)
    return SosCertificate(
        target=target, sigma=GramMatrix(MonomialBasis(n, half),
                                        [row[:size] for row in grid[:size]]),
        equality_multipliers=eq, groebner_multipliers=gb,
        degree_bound=degree_bound, mode=GENERAL)


def order_unit_certificate(witness: SosCertificate, mono: Monomial,
                           d: int, sign: int = 1) -> SosCertificate:
    """Certify N' + m or N' - m for a monomial m of degree <= 2d.

    witness must be a verifying certificate for N - sum x_i^2 of degree 2k;
    the output has degree at most 2(d + k - 1).  N' comes out of the
    construction (2N + 3/2 for nonconstant m) and is not minimized.  The
    proof is built as a list of weighted squares (see _sum_of_pieces).
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
    if not all(isinstance(mult, Polynomial) for _, mult in witness.equality_multipliers):
        raise InvalidWitness("witness must carry polynomial multipliers")
    k = witness.degree_bound // 2
    bound = 2 * (d + k - 1)
    zero = (0,) * n
    one = Polynomial.constant(n, 1)

    if sum(mono) == 0:
        # N' = 1: the certificate for 1 +- 1 is the constant 1 -+ 1 itself.
        return _sum_of_pieces(witness, [(Fraction(1 + sign), zero, one)],
                              Polynomial.constant(n, 1 + sign), bound)

    def claim(m: Monomial) -> tuple[Fraction, list]:
        """(N, pieces summing to N - m^2) for deg(m) <= d."""
        deg = sum(m)
        if deg == 0:
            return Fraction(1), []
        if deg == 1:
            # N_k - x_i^2 = witness + sum over j != i of x_j^2.
            i = m.index(1)
            return n_k, [(Fraction(1), zero, None)] + [
                (Fraction(1), zero, Polynomial.variable(n, j))
                for j in range(n) if j != i]
        i = next(t for t, e in enumerate(m) if e > 0)
        unit = tuple(int(t == i) for t in range(n))
        n_rest, minus_rest = claim(tuple(a - b for a, b in zip(m, unit)))
        _, minus_xi = claim(unit)
        big = max(n_k, n_rest)
        # m = x_i * rest, N^2 - m^2 = (N - rest^2) * x_i^2 + N * (N - x_i^2),
        # and the proofs of N - rest^2 and N - x_i^2 are padded up to this N.
        pad_rest = minus_rest + [(big - n_rest, zero, one)]
        pad_xi = minus_xi + [(big - n_k, zero, one)]
        return big * big, ([(w, mono_mul(s, unit), p) for w, s, p in pad_rest]
                           + [(big * w, s, p) for w, s, p in pad_xi])

    # Split m = m1 * m2 with both factor degrees <= d: m1 takes the first
    # ceil(|m| / 2) variables of m, counted with multiplicity.
    factors = [i for i, e in enumerate(mono) for _ in range(e)]
    m1 = tuple(factors[:(len(factors) + 1) // 2].count(i) for i in range(n))
    m2 = tuple(e - f for e, f in zip(mono, m1))

    n1, minus1 = claim(m1)
    n2, minus2 = claim(m2)
    big = max(n1, n2)
    p1 = Polynomial.monomial(n, m1)
    p2 = Polynomial.monomial(n, m2)
    if sign == 1:
        squares = (one - p1, one - p2, one + p1 + p2)
    else:
        squares = (one - p1, one + p2, one + p1 - p2)
    pieces = (minus1 + [(big - n1, zero, one)] + minus2 + [(big - n2, zero, one)]
              + [(Fraction(1, 2), zero, q) for q in squares])
    target = Polynomial.constant(n, 2 * big + Fraction(3, 2)) \
        + Polynomial.monomial(n, mono, sign)
    return _sum_of_pieces(witness, pieces, target, bound)


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
