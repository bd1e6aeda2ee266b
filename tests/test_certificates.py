import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symsos import certificates
from symsos.certificates import (GENERAL, NORMAL_FORM, SosCertificate,
                                 VerificationOutcome, bit_size,
                                 order_unit_certificate, parse_certificate,
                                 serialize_certificate, verify)
from symsos.errors import DimensionMismatch, InvalidWitness, ParseError, SymsosError
from symsos.groebner import boolean_basis
from symsos.poly import MonomialBasis, Polynomial, monomials_up_to
from symsos.symmetry import GramMatrix

from . import fraction_verify


def frac(a, b=1):
    return Fraction(a, b)


def linear_refutation():
    """-1 = (x1 - 1) * 1 + x1 * (-1), a degree-1 proof with empty sigma."""
    n = 1
    x = Polynomial.variable(n, 0)
    one = Polynomial.constant(n, 1)
    return SosCertificate(
        target=Polynomial.constant(n, -1),
        sigma=GramMatrix(MonomialBasis(n, 0)),
        equality_multipliers=[(x - one, one), (x, Polynomial.constant(n, -1))],
        groebner_multipliers=[],
        degree_bound=2,
        mode=GENERAL)


def quadratic_refutation():
    """-1 = -4 (x1 - 1/2)^2 + 4 (x1^2 - x1), normal form over {0,1}."""
    n = 1
    x = Polynomial.variable(n, 0)
    gb = boolean_basis(n)
    return SosCertificate(
        target=Polynomial.constant(n, -1),
        sigma=GramMatrix(MonomialBasis(n, 0)),
        equality_multipliers=[(x - Polynomial.constant(n, frac(1, 2)), frac(-4))],
        groebner_multipliers=[(gb.generators[0], Polynomial.constant(n, 4))],
        degree_bound=2,
        mode=NORMAL_FORM)


def boolean_witness(n):
    """n - sum x_i^2 == sum (1 - x_i)^2 + sum (-2)(x_i^2 - x_i)."""
    gb = boolean_basis(n)
    basis = MonomialBasis(n, 1)
    gram = GramMatrix(basis)
    home = basis.index((0,) * n)
    for i in range(n):
        ei = basis.index(tuple(1 if t == i else 0 for t in range(n)))
        gram.entries[home][home] += 1
        gram.entries[home][ei] -= 1
        gram.entries[ei][home] -= 1
        gram.entries[ei][ei] += 1
    target = Polynomial.constant(n, n)
    for i in range(n):
        target = target - Polynomial.variable(n, i) ** 2
    return SosCertificate(
        target=target, sigma=gram, equality_multipliers=[],
        groebner_multipliers=[(g, Polynomial.constant(n, -2)) for g in gb],
        degree_bound=2, mode=GENERAL)


def test_hand_refutations_verify():
    for cert in (linear_refutation(), quadratic_refutation()):
        out = verify(cert)
        assert out.accepted, out.failure
        assert out  # truth is acceptance: `if verify(cert):` reads it


def test_expand_matches_target():
    cert = quadratic_refutation()
    assert fraction_verify.expand(cert) == cert.target


def test_mutated_coefficient_rejected():
    cert = linear_refutation()
    p, mult = cert.equality_multipliers[0]
    cert.equality_multipliers[0] = (p, mult + Polynomial.constant(1, frac(1, 7)))
    out = verify(cert)
    assert not out.accepted and not out
    assert out.residual is not None and not out.residual.is_zero()


def test_wrong_mode_scalar_rejected():
    cert = linear_refutation()
    cert.equality_multipliers[0] = (cert.equality_multipliers[0][0], frac(2))
    # scalar multiplier in general mode means c * p, changing the identity
    out = verify(cert)
    assert not out.accepted


def test_normal_form_requires_scalars():
    cert = quadratic_refutation()
    p, _ = cert.equality_multipliers[0]
    cert.equality_multipliers[0] = (p, Polynomial.constant(1, -4))
    out = verify(cert)
    assert not out.accepted
    assert "scalar" in out.failure


def test_non_psd_sigma_rejected_with_witness():
    n = 1
    basis = MonomialBasis(n, 0)
    gram = GramMatrix(basis, [[frac(-1)]])
    cert = SosCertificate(
        target=Polynomial.constant(n, -1),
        sigma=gram, equality_multipliers=[], groebner_multipliers=[],
        degree_bound=0, mode=GENERAL)
    out = verify(cert)
    assert not out.accepted
    assert out.psd_witness == [frac(1)]
    assert out.psd_witness_value == -1


def test_degree_bound_enforced():
    n = 1
    x = Polynomial.variable(n, 0)
    basis = MonomialBasis(n, 1)
    gram = GramMatrix(basis)
    gram.entries[1][1] = frac(1)
    cert = SosCertificate(
        target=x * x, sigma=gram, equality_multipliers=[],
        groebner_multipliers=[], degree_bound=0, mode=GENERAL)
    out = verify(cert)
    assert not out.accepted
    assert "degree" in out.failure


def test_identity_failure_is_reported_before_degree():
    cert = quadratic_refutation()
    assert verify(replace(cert, degree_bound=0)).failure == \
        "degree: equality term exceeds bound"
    bad = replace(cert, target=Polynomial.constant(1, -2), degree_bound=0)
    assert verify(bad).failure == "identity"


def test_degree_failure_is_reported_before_psd():
    # -x1^2 == <[[0, 0], [0, -1]], (1, x1)(1, x1)^T>: sigma is not PSD.
    x = Polynomial.variable(1, 0)
    gram = GramMatrix(MonomialBasis(1, 1), [[frac(0), frac(0)], [frac(0), frac(-1)]])
    cert = SosCertificate(target=-(x * x), sigma=gram, equality_multipliers=[],
                          groebner_multipliers=[], degree_bound=2, mode=GENERAL)
    assert verify(cert).failure == "sigma not positive semidefinite"
    assert verify(replace(cert, degree_bound=1)).failure == \
        "degree: sigma exceeds bound"


# -- the integer check against the Fraction oracle ----------------------------

COEFF = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def polynomials(draw, n, degree):
    monos = draw(st.lists(st.sampled_from(monomials_up_to(n, degree)),
                          max_size=3, unique=True))
    return Polynomial(n, {m: draw(COEFF) for m in monos})


@st.composite
def small_certificates(draw):
    """Certificates whose identity holds, in either mode, with sigma zero
    on some rows: PSD (B^T B) or arbitrary on the others."""
    n = draw(st.integers(1, 2))
    mode = draw(st.sampled_from([GENERAL, NORMAL_FORM]))
    basis = MonomialBasis(n, draw(st.integers(0, 3 - n)))
    dim = len(basis)
    live = [i for i in range(dim) if draw(st.booleans())]
    entries = [[Fraction(0)] * dim for _ in range(dim)]
    rows = [[draw(COEFF) for _ in live] for _ in range(draw(st.integers(0, 2)))]
    arbitrary = draw(st.booleans())
    for s, i in enumerate(live):
        for t, j in enumerate(live[s:], s):
            entries[i][j] = entries[j][i] = (
                draw(COEFF) if arbitrary else sum((r[s] * r[t] for r in rows), Fraction(0)))
    eq = []
    for _ in range(draw(st.integers(0, 2))):
        constraint = draw(polynomials(n, 1))
        scalar = mode == NORMAL_FORM or draw(st.booleans())
        eq.append((constraint, draw(COEFF) if scalar else draw(polynomials(n, 1))))
    gb = [(draw(polynomials(n, 2)), draw(polynomials(n, 1)))
          for _ in range(draw(st.integers(0, 2)))]
    cert = SosCertificate(target=Polynomial.zero(n), sigma=GramMatrix(basis, entries),
                          equality_multipliers=eq, groebner_multipliers=gb,
                          degree_bound=draw(st.integers(0, 4)), mode=mode)
    return replace(cert, target=fraction_verify.expand(cert))


def bumped(p):
    """p with one coefficient changed, for each of p's coefficients."""
    for m in p.terms:
        yield Polynomial(p.n, {**p.terms, m: p.terms[m] + Fraction(1, 7)})


def single_mutations(cert):
    """cert with one stored coefficient changed, for each one (sigma's
    entries in symmetric pairs)."""
    for target in bumped(cert.target):
        yield replace(cert, target=target)
    entries = cert.sigma.entries
    for i in range(len(entries)):
        for j in range(i, len(entries)):
            grid = [list(row) for row in entries]
            grid[i][j] = grid[j][i] = entries[i][j] + 1
            yield replace(cert, sigma=GramMatrix(cert.sigma.basis, grid))
    for table in ("equality_multipliers", "groebner_multipliers"):
        pairs = getattr(cert, table)
        for k, (constraint, mult) in enumerate(pairs):
            changed = [(c, mult) for c in bumped(constraint)]
            changed += ([(constraint, m) for m in bumped(mult)]
                        if isinstance(mult, Polynomial) else [(constraint, mult - 1)])
            for pair in changed:
                yield replace(cert, **{table: pairs[:k] + [pair] + pairs[k + 1:]})


def check_psd_witness(cert, out):
    """The witness spans the basis, is zero on sigma's zero rows, and
    v^T sigma v equals the reported value, which is negative."""
    entries = cert.sigma.entries
    assert len(out.psd_witness) == cert.sigma.dim
    assert all(not v for v, row in zip(out.psd_witness, entries) if not any(row))
    assert fraction_verify.quadratic_form(entries, out.psd_witness) == \
        out.psd_witness_value < 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_certificates())
def test_integer_check_matches_the_fraction_oracle(cert):
    for variant in [cert, *single_mutations(cert)]:
        got, want = verify(variant), fraction_verify.verify(variant)
        assert (got.accepted, got.failure, got.residual) == \
            (want.accepted, want.failure, want.residual)
        if got.failure == "sigma not positive semidefinite":
            check_psd_witness(variant, got)


def test_psd_witness_is_zero_on_the_zero_rows():
    # sigma over the six monomials of degree <= 2 in two variables is zero
    # on rows 0, 2, 4 and [[1, 2, 0], [2, 1, 0], [0, 0, 3]] / 5 on rows 1, 3,
    # 5: not PSD.
    basis = MonomialBasis(2, 2)
    entries = [[Fraction(0)] * 6 for _ in range(6)]
    for (i, j), c in {(1, 1): 1, (1, 3): 2, (3, 3): 1, (5, 5): 3}.items():
        entries[i][j] = entries[j][i] = frac(c, 5)
    cert = SosCertificate(target=Polynomial.zero(2), sigma=GramMatrix(basis, entries),
                          equality_multipliers=[], groebner_multipliers=[],
                          degree_bound=4, mode=GENERAL)
    cert = replace(cert, target=fraction_verify.expand(cert))
    out = verify(cert)
    assert out.failure == "sigma not positive semidefinite"
    check_psd_witness(cert, out)
    assert [i for i, v in enumerate(out.psd_witness) if v] == [1, 3]


def _over(n, p):
    """p's coefficients on the first variable, over n variables."""
    return Polynomial(n, {(m[0],) + (0,) * (n - 1): c for m, c in p.terms.items()})


@pytest.mark.parametrize("change", [
    lambda c: replace(c, sigma=GramMatrix(MonomialBasis(2, 0), [[frac(1)]])),
    lambda c: replace(c, equality_multipliers=[
        (p, _over(2, m)) for p, m in c.equality_multipliers]),
    lambda c: replace(c, equality_multipliers=[
        (_over(2, p), _over(2, m)) for p, m in c.equality_multipliers]),
    lambda c: replace(c, groebner_multipliers=[
        (boolean_basis(1).generators[0], Polynomial.constant(2, 1))]),
    lambda c: replace(c, groebner_multipliers=[
        (boolean_basis(2).generators[0], Polynomial.constant(2, 1))]),
], ids=["sigma", "multiplier", "equality-term", "generator", "basis-term"])
def test_arity_failures_match_the_fraction_oracle(change):
    cert = change(linear_refutation())
    got, want = verify(cert), fraction_verify.verify(cert)
    assert got.failure == want.failure and not got.accepted
    assert "variables" in got.failure or "arity" in got.failure


def test_bit_size_report():
    cert = quadratic_refutation()
    report = bit_size(cert)
    # coefficients present: -1, 1/2 (in x1 - 1/2), -4, generator 1 and -1, 4,
    # plus the zero sigma entry
    assert report.max_numerator_bits == 3  # |-4| and |4| need three bits
    assert report.max_denominator_bits == 2  # the 1/2
    assert report.coefficient_count > 0
    assert report.total_bits >= report.coefficient_count


def test_order_unit_smallest_case():
    w = boolean_witness(1)
    cert = order_unit_certificate(w, (1,), 1, sign=1)
    assert verify(cert).accepted
    # N' = 2 N_k + 3/2 with N_k = 1
    assert cert.target == Polynomial.variable(1, 0) + Polynomial.constant(1, frac(7, 2))
    assert cert.degree_bound <= 2
    minus = order_unit_certificate(w, (1,), 1, sign=-1)
    assert verify(minus).accepted
    assert minus.target == Polynomial.constant(1, frac(7, 2)) - Polynomial.variable(1, 0)


def test_order_unit_constant_monomial():
    w = boolean_witness(2)
    plus = order_unit_certificate(w, (0, 0), 1, sign=1)
    assert verify(plus).accepted
    assert plus.target == Polynomial.constant(2, 2)
    minus = order_unit_certificate(w, (0, 0), 1, sign=-1)
    assert verify(minus).accepted
    assert minus.target == Polynomial.zero(2)


def test_order_unit_degree_grows_with_monomial():
    w = boolean_witness(3)
    mono = (2, 1, 1)
    d = 2
    cert = order_unit_certificate(w, mono, d, sign=-1)
    assert verify(cert).accepted
    assert cert.degree_bound <= 2 * (d + 1 - 1)
    mono_poly = Polynomial.monomial(3, mono)
    assert cert.target + mono_poly == Polynomial.constant(3, cert.target.coefficient((0, 0, 0)))


def test_order_unit_rejects_bad_witness():
    w = boolean_witness(1)
    w.equality_multipliers.append((Polynomial.variable(1, 0), Polynomial.constant(1, 1)))
    with pytest.raises(InvalidWitness):
        order_unit_certificate(w, (1,), 1)


def test_order_unit_rejects_oversized_monomial():
    w = boolean_witness(2)
    with pytest.raises(ValueError):
        order_unit_certificate(w, (2, 1), 1)  # |m| = 3 > 2d = 2


def _negative_bound_witness():
    """-1 - x1^2 == (x1^2 + 1) * (-1): it verifies, but N = -1."""
    x = Polynomial.variable(1, 0)
    return SosCertificate(
        target=-(x * x) - 1, sigma=GramMatrix(MonomialBasis(1, 0)),
        equality_multipliers=[(x * x + 1, Polynomial.constant(1, -1))],
        groebner_multipliers=[], degree_bound=2, mode=GENERAL)


def _scalar_multiplier_witness():
    """boolean_witness(1) plus the verifying general-mode term 0 * x1."""
    w = boolean_witness(1)
    w.equality_multipliers.append((Polynomial.variable(1, 0), frac(0)))
    return w


@pytest.mark.parametrize("make_witness, mono, d, sign, error, message", [
    (lambda: boolean_witness(1), (1,), 1, 0, ValueError, "sign must be"),
    (lambda: boolean_witness(1), (1,), 0, 1, ValueError, "d must be at least 1"),
    (quadratic_refutation, (1,), 1, 1, InvalidWitness, "general-mode"),
    (lambda: replace(boolean_witness(1), degree_bound=3), (1,), 1, 1,
     InvalidWitness, "degree bound must be even"),
    (linear_refutation, (1,), 1, 1, InvalidWitness, "constant minus sum"),
    (_negative_bound_witness, (1,), 1, 1, InvalidWitness, "constant is negative"),
    (lambda: boolean_witness(1), (1, 0), 1, 1, DimensionMismatch, "monomial arity"),
    (_scalar_multiplier_witness, (1,), 1, 1, InvalidWitness, "polynomial multipliers"),
    (_scalar_multiplier_witness, (0,), 1, 1, InvalidWitness, "polynomial multipliers"),
], ids=["sign-zero", "d-zero", "normal-form", "odd-bound", "not-a-ball",
        "negative-bound", "arity", "scalar-multiplier", "scalar-multiplier-constant"])
def test_order_unit_rejections(make_witness, mono, d, sign, error, message):
    witness = make_witness()
    assert verify(witness).accepted  # each rejection is the precondition's own
    with pytest.raises(error, match=message):
        order_unit_certificate(witness, mono, d, sign=sign)


def test_serialize_round_trip():
    for cert in (linear_refutation(), quadratic_refutation(), boolean_witness(2)):
        text = serialize_certificate(cert)
        back = parse_certificate(text)
        assert back.target == cert.target
        assert back.mode == cert.mode
        assert back.degree_bound == cert.degree_bound
        assert back.sigma.entries == cert.sigma.entries
        assert back.equality_multipliers == cert.equality_multipliers
        assert back.groebner_multipliers == cert.groebner_multipliers
        assert serialize_certificate(back) == text
        assert verify(back).accepted == verify(cert).accepted


def test_serialized_certificate_is_one_compact_line():
    for cert in (linear_refutation(), quadratic_refutation(), boolean_witness(2)):
        text = serialize_certificate(cert)
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert text.count("\n") == 1 and " " not in text


def _fraction_or_none(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


# An exponent of four or more digits would make Fraction(s) build 10^k.
_HUGE_EXPONENT = re.compile(r"e[-+]?[\d_]{4,}")


# The reader accepts exactly the strings Fraction accepts, with its value,
# and turns every rejection into a ParseError.
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="0123456789-+/._e \u0663", max_size=10))
@example("1/0")
@example("+1/2")
@example(" 1/2")
@example("1_0/3")
@example("1/-2")
@example("-0/07")
def test_frac_parse_reads_what_fraction_reads(s):
    assume(not _HUGE_EXPONENT.search(s))
    want = _fraction_or_none(s)
    try:
        got = certificates._frac_parse(s)
    except ParseError:
        got = None
    assert got == want
    assert got is None or type(got) is Fraction


def test_parse_certificate_errors():
    with pytest.raises(ParseError):
        parse_certificate("{not json")
    with pytest.raises(ParseError):
        parse_certificate("{}")
    good = serialize_certificate(linear_refutation())
    with pytest.raises(ParseError):
        parse_certificate(good.replace("symsos.certificate/1", "something/9"))
    with pytest.raises(ParseError, match="variables must be nonnegative"):
        parse_certificate(good.replace('"variables":1', '"variables":-1'))


def test_parse_checks_the_grid_before_building_a_basis(monkeypatch):
    def no_basis(*args):
        raise AssertionError("basis built before the grid size check")

    monkeypatch.setattr(certificates, "MonomialBasis", no_basis)
    # C(3 + 2, 2) = 10 rows are needed; the grid has 1
    doc = {"format": "symsos.certificate/1", "variables": 3, "mode": "general",
           "degree_bound": 4, "target": [], "sigma_basis_degree": 2,
           "sigma": [["1"]], "equality_multipliers": [],
           "groebner_multipliers": []}
    with pytest.raises(ParseError, match="malformed certificate document: "
                                         "entry grid does not match basis size"):
        parse_certificate(json.dumps(doc))


# -- documents mutated into other JSON types -----------------------------------

JSON_VALUES = {
    type(None): st.none(), bool: st.booleans(), int: st.integers(-2, 3),
    float: st.floats(-2, 2), str: st.text(alphabet="01/-x[]", max_size=3),
    list: st.lists(st.integers(0, 2) | st.text(alphabet="01/", max_size=3), max_size=3),
    dict: st.dictionaries(st.sampled_from(["scalar", "multiplier", "0"]),
                          st.integers(0, 2), max_size=2)}
# For each JSON type, a value of any other type.
MISTYPED = {kind: st.one_of([values for other, values in JSON_VALUES.items() if other is not kind])
            for kind in JSON_VALUES}
FUZZ_DOCUMENTS = [serialize_certificate(make()) for make in (
    linear_refutation, quadratic_refutation, lambda: boolean_witness(2))]


def json_positions(doc, path=()):
    """The path to every value inside a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_positions(value, path + (key,))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_documents_with_mistyped_values_are_rejected_or_checked(data):
    doc = json.loads(data.draw(st.sampled_from(FUZZ_DOCUMENTS)))
    for _ in range(data.draw(st.integers(1, 3))):
        positions = list(json_positions(doc))
        *path, last = positions[data.draw(st.integers(0, len(positions) - 1))]
        node = doc
        for key in path:
            node = node[key]
        node[last] = data.draw(MISTYPED[type(node[last])])
    try:
        outcome = verify(parse_certificate(json.dumps(doc)))
    except SymsosError:
        return
    assert isinstance(outcome, VerificationOutcome)
