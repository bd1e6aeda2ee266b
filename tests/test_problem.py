import random
from fractions import Fraction

import pytest

from symsos.errors import ParseError
from symsos.poly import Polynomial
from symsos.problem import (ProblemFile, parse_polynomial, parse_problem,
                            parse_rational, serialize_problem)

from .test_poly import random_poly


def frac(a, b=1):
    return Fraction(a, b)


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-2") == -2
    assert parse_rational("3/4") == frac(3, 4)
    assert parse_rational("0.25") == frac(1, 4)
    assert parse_rational(" 7 / 2 ") == frac(7, 2)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("seven")


@pytest.mark.parametrize("line", ["epsilon: 1/2/3", "domain: {0,1/2/3}",
                                  "epsilon: 1e-3", "domain: {0,1_000}",
                                  "epsilon: 1/-2", "domain: {-1/-2,1}"])
def test_rationals_outside_the_grammar_are_parse_errors(line):
    # rational = ["-"], number, ["/", number]: before, the text after the
    # first "/" went to Fraction, so 1/2/3 read as 3/2
    with pytest.raises(ParseError, match="bad rational literal") as info:
        parse_problem(f"vars: 1\ntarget: x1\n{line}\n")
    assert info.value.line == 3


@pytest.mark.parametrize("text,message", [
    ("vars: 2\ndegree: \u0662\n", "degree expects an integer"),
    ("vars: +2\n", "vars expects an integer"),
    ("vars: 2\ndegree: 1_0\n", "degree expects an integer"),
    ("vars: \u0662\n", "vars expects an integer"),
    ("vars: 2\ngroup: S(\u0662)\n", "bad group"),
    ("vars: 2\neq: \u0663*x1 + x2\n", "unexpected character"),
    ("vars: 2\neq: x\u0661 + x2\n", "unexpected character"),
    ("vars: 2\neq: x1^\u0662 - 1\n", "unexpected character"),
])
def test_digits_are_ascii(text, message):
    # integer = digits, digit = 0..9: int() and \d had also read other
    # scripts' digits, a sign and underscores (degree: 1_0 was 10)
    with pytest.raises(ParseError, match=message):
        parse_problem(text)


def test_parse_polynomial_pinned():
    p = parse_polynomial("3/2*x1^2*x3 - x2 + 1", 3)
    expected = (Polynomial.monomial(3, (2, 0, 1)) * frac(3, 2)
                - Polynomial.variable(3, 1) + Polynomial.constant(3, 1))
    assert p == expected


def test_parse_polynomial_variants():
    assert parse_polynomial("x1*x1", 1) == Polynomial.monomial(1, (2,))
    assert parse_polynomial("-x1", 1) == -Polynomial.variable(1, 0)
    assert parse_polynomial("0.5*x2", 2) == Polynomial.variable(2, 1) * frac(1, 2)
    assert parse_polynomial("2/4", 1) == Polynomial.constant(1, frac(1, 2))
    assert parse_polynomial("x1^0", 1) == Polynomial.constant(1, 1)
    assert parse_polynomial("1 - 1", 1) == Polynomial.zero(1)
    assert parse_polynomial("+ x1", 1) == Polynomial.variable(1, 0)
    assert parse_polynomial("3/2.5*x1", 1) == Polynomial.variable(1, 0) * frac(6, 5)


def test_parse_polynomial_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x1 + x9", 2, line=4)
    assert "x9" in str(info.value)
    assert "line 4" in str(info.value)
    with pytest.raises(ParseError):
        parse_polynomial("x1 +", 2)
    with pytest.raises(ParseError):
        parse_polynomial("3 & x1", 2)
    with pytest.raises(ParseError):
        parse_polynomial("x1 ^ x2", 2)
    with pytest.raises(ParseError):
        parse_polynomial("", 2)
    with pytest.raises(ParseError):
        parse_polynomial("1/0", 1)


def test_str_poly_reparses():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randint(1, 4)
        p = random_poly(rng, n, 4, terms=6)
        assert parse_polynomial(str(p), n) == p


def test_parse_problem_refute_example():
    text = "vars: 2\ngroup: S(2)\ndomain: {0,1}\neq: x1 + x2 - 1\n" \
           "target: refute\ndegree: 2"
    pf = parse_problem(text)
    assert pf.n == 2
    assert pf.block_sizes == (2,)
    assert pf.domain_roots == (frac(0), frac(1))
    assert pf.target is None
    assert pf.degree == 2
    assert len(pf.equalities) == 1
    inst = pf.instance()
    assert inst.groebner is not None
    assert inst.degree == 2


def test_parse_problem_multi_block_group():
    pf = parse_problem("vars: 3\ngroup: S(2)xS(1)\ntarget: refute\ndomain: {0,1}\n"
                       "eq: x1 - x2")
    assert pf.block_sizes == (2, 1)


def test_parse_problem_comments_and_blank_lines():
    pf = parse_problem("# header\nvars: 1\n\ndomain: {0,1}  # roots\n"
                       "eq: x1 - 1/2\ntarget: refute\n")
    assert pf.domain_roots == (frac(0), frac(1))
    assert pf.equalities[0] == (Polynomial.variable(1, 0)
                                - Polynomial.constant(1, frac(1, 2)))


def test_parse_problem_errors():
    with pytest.raises(ParseError) as e:
        parse_problem("vars: 2\neq: x1 + x3")
    assert "x3" in str(e.value) and "line 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_problem("vars: 2\nbogus: 1")
    with pytest.raises(ParseError):
        parse_problem("vars: 2\nvars: 3")
    with pytest.raises(ParseError):
        parse_problem("eq: x1")  # missing vars
    with pytest.raises(ParseError):
        parse_problem("vars: 3\ngroup: S(2)")  # blocks sum mismatch
    with pytest.raises(ParseError):
        parse_problem("vars: 2\ngroup: S2")
    with pytest.raises(ParseError):
        parse_problem("vars: 1\ndomain: {0,1}\ngroebner: x1^2 - x1")
    with pytest.raises(ParseError):
        parse_problem("vars: 1\ndomain: 0,1")
    with pytest.raises(ParseError):
        parse_problem("vars: 1\nepsilon: -1")
    with pytest.raises(ParseError):
        parse_problem("vars: 1\ndegree: 0")
    with pytest.raises(ParseError):
        parse_problem("vars: 1\njust some words")


def test_group_defaults_to_trivial():
    pf = parse_problem("vars: 3\ntarget: 1")
    assert pf.block_sizes == (1, 1, 1)


def test_round_trip_random_instances():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 4)
        blocks = []
        left = n
        while left:
            b = rng.randint(1, left)
            blocks.append(b)
            left -= b
        eqs = []
        for _ in range(rng.randint(0, 3)):
            p = random_poly(rng, n, 2, terms=3)
            if not p.is_zero():
                eqs.append(p)
        target = random_poly(rng, n, 2, terms=3) if rng.random() < 0.5 else None
        if target is not None and target.is_zero():
            target = None
        pf = ProblemFile(
            n=n, block_sizes=tuple(blocks), equalities=eqs,
            domain_roots=(frac(0), frac(1)) if rng.random() < 0.7 else None,
            target=target, degree=rng.randint(1, 3),
            epsilon=frac(rng.randint(0, 3), 4) if rng.random() < 0.5 else None)
        text = serialize_problem(pf)
        back = parse_problem(text)
        assert back == pf, text
        assert serialize_problem(back) == text


def test_groebner_section():
    pf = parse_problem("vars: 1\ngroebner: x1^2 - x1\neq: x1 - 1/2\n"
                       "target: refute")
    inst = pf.instance()
    assert inst.groebner is not None
    assert len(inst.groebner) == 1
    assert inst.domain_roots is None


# Each message and position as the parser built one Polynomial per atom
# gave them, at line 7 with the body starting after column 5.
PARSE_ERRORS = [
    ("x1 + x9", 11, "variable x9 out of range for vars: 2"),
    ("x1 +", 10, "expected a coefficient or variable"),
    ("3 & x1", 8, "unexpected character '&'"),
    ("x1 ^ x2", 11, "expected integer exponent after '^'"),
    ("", 6, "empty polynomial"),
    ("  ", 6, "empty polynomial"),
    ("1/0", 8, "zero denominator"),
    ("2*", 8, "expected a coefficient or variable"),
    ("x1*x2^", 12, "expected integer exponent after '^'"),
    ("x1^1.5", 9, "expected integer exponent after '^'"),
    ("3/x1", 8, "expected denominator after '/'"),
    ("x1 x2", 9, "expected '+' or '-' between terms"),
    ("+ - x1", 8, "expected a coefficient or variable, got '-'"),
    ("x1 + 2/0*x2", 13, "zero denominator"),
    ("*x1", 6, "expected a coefficient or variable, got '*'"),
    ("x0", 6, "variable x0 out of range for vars: 2"),
    ("x1**2", 9, "expected a coefficient or variable, got '*'"),
    ("x1 +   ", 10, "expected a coefficient or variable"),
    ("1.5/", 10, "expected denominator after '/'"),
    ("x2 - 3 4", 13, "expected '+' or '-' between terms"),
    ("1/0.0", 8, "zero denominator"),
    ("x1 x2 &", 12, "unexpected character '&'"),  # the bad character wins
    ("x1 + 2/0 & x2", 15, "unexpected character '&'"),  # over an earlier error
]


@pytest.mark.parametrize("text,column,message", PARSE_ERRORS)
def test_parse_errors_keep_line_and_column(text, column, message):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, 2, line=7, offset=5)
    assert (info.value.line, info.value.column) == (7, column)
    assert str(info.value) == f"{message} (line 7, column {column})"


def test_terms_add_up_like_polynomial_arithmetic():
    # repeated variables, zero and one exponents, coefficients anywhere in a
    # term and cancelling terms: the oracle multiplies one Polynomial per atom
    rng = random.Random(131)
    n = 3
    for _ in range(200):
        text, expected = [], Polynomial.zero(n)
        for t in range(rng.randint(1, 5)):
            atoms, value = [], Polynomial.constant(n, 1)
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.3:
                    c = frac(rng.randint(0, 5), rng.randint(1, 3))
                    atoms.append(f"{c.numerator}/{c.denominator}")
                    value = value * c
                else:
                    i, e = rng.randint(1, n), rng.randint(0, 3)
                    atoms.append(f"x{i}^{e}")
                    value = value * Polynomial.variable(n, i - 1) ** e
            sign = rng.choice(["+", "-"])
            text.append(("" if t == 0 and sign == "+" else sign + " ") + "*".join(atoms))
            expected = expected + value if sign == "+" else expected - value
        assert parse_polynomial(" ".join(text), n) == expected
