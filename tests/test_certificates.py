import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symsos import certificates
from symsos.certificates import (GENERAL, NORMAL_FORM, SosCertificate,
                                 bit_size, expand, order_unit_certificate,
                                 parse_certificate, serialize_certificate,
                                 verify)
from symsos.errors import DimensionMismatch, InvalidWitness, ParseError
from symsos.groebner import boolean_basis
from symsos.poly import MonomialBasis, Polynomial
from symsos.symmetry import GramMatrix


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


def test_expand_matches_target():
    cert = quadratic_refutation()
    assert expand(cert) == cert.target


def test_mutated_coefficient_rejected():
    cert = linear_refutation()
    p, mult = cert.equality_multipliers[0]
    cert.equality_multipliers[0] = (p, mult + Polynomial.constant(1, frac(1, 7)))
    out = verify(cert)
    assert not out.accepted
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
