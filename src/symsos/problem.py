"""Problem file format: a small line-oriented grammar for instances.

Each non-blank line is `key: value`; `#` starts a comment.  `eq:` and
`groebner:` may repeat, every other key may appear once.  Polynomials use
1-indexed variables and exact coefficients, e.g. `3/2*x1^2*x3 - x2 + 1`;
a polynomial body is tokenized by one regex scan and read in one pass.
The full grammar is spelled out as EBNF in the README.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ParseError
from .groebner import GroebnerBasis
from .pipeline import ProblemInstance
from .poly import Polynomial, accumulate_term
from .symmetry import GroupSpec

_SCALAR_KEYS = {"vars", "group", "domain", "target", "degree", "epsilon"}
_REPEAT_KEYS = {"eq", "groebner"}

_NUMBER = r"[0-9]+(?:\.[0-9]+)?"
_TOKEN = re.compile(
    rf"\s*(?:(?P<num>{_NUMBER})|(?P<var>x[0-9]+)|(?P<op>[*^/+-])|(?P<bad>\S))")
_RATIONAL = re.compile(rf"(?P<num>-?{_NUMBER})(?:\s*/\s*(?P<den>{_NUMBER}))?")


@dataclass
class ProblemFile:
    n: int
    block_sizes: tuple[int, ...]
    equalities: list[Polynomial] = field(default_factory=list)
    domain_roots: Optional[tuple[Fraction, ...]] = None
    groebner_polys: list[Polynomial] = field(default_factory=list)
    target: Optional[Polynomial] = None  # None means refute mode
    degree: int = 1
    epsilon: Optional[Fraction] = None

    def instance(self) -> ProblemInstance:
        kwargs = dict(group=GroupSpec(self.block_sizes),
                      equalities=list(self.equalities),
                      domain_roots=self.domain_roots,
                      target=self.target, degree=self.degree)
        if self.groebner_polys:
            kwargs["groebner"] = GroebnerBasis(tuple(self.groebner_polys))
        if self.epsilon is not None:
            kwargs["epsilon"] = self.epsilon
        return ProblemInstance(**kwargs)


def parse_rational(text: str, line: Optional[int] = None,
                   column: Optional[int] = None) -> Fraction:
    """Exact value of a rational literal, an optional "-" and a number or
    number/number, each number digits with an optional decimal part; any
    other text, or a zero denominator, is a ParseError carrying line and
    column when given."""
    body = text.strip()
    m = _RATIONAL.fullmatch(body)
    if m is None or m["den"] is not None and not Fraction(m["den"]):
        raise ParseError(f"bad rational literal {body!r}", line, column)
    value = Fraction(m["num"])
    return value if m["den"] is None else value / Fraction(m["den"])


def parse_polynomial(text: str, n: int, line: int = 0, offset: int = 0) -> Polynomial:
    """Parse `3/2*x1^2*x3 - x2 + 1` into an n-variable polynomial.

    A polynomial is signed terms; a term is atoms joined by `*`; an atom is
    a coefficient (integer, decimal, or a/b) or a variable power `xi^e`.
    One _TOKEN scan finds the tokens; a character that starts none is an
    error before any grammar check.  One pass over the tokens, closed by an
    end token just past the last one, reads an atom and then its separator;
    each term's coefficient and exponents are added into one dict when a
    `+`, `-` or the end closes it.  An error is raised at the token that
    breaks the grammar.
    """
    toks = [(m.lastgroup, m[m.lastgroup], offset + m.start(m.lastgroup) + 1)
            for m in _TOKEN.finditer(text)]
    bad = next((t for t in toks if t[0] == "bad"), None)
    if bad is not None:
        raise ParseError(f"unexpected character {bad[1]!r}", line, bad[2])
    if not toks:
        raise ParseError("empty polynomial", line, offset + 1)
    _, lex, col = toks[-1]
    toks.append(("end", "", col + len(lex)))
    total: dict = {}
    first = toks[0][1]
    pos = 1 if first in ("+", "-") else 0
    coeff, mono = Fraction(-1 if first == "-" else 1), [0] * n
    while True:
        kind, lex, col = toks[pos]
        if kind == "num":
            coeff *= Fraction(lex)
            if toks[pos + 1][1] == "/":
                pos += 2
                kind, lex, col = toks[pos]
                if kind != "num":
                    raise ParseError("expected denominator after '/'", line, col)
                if not Fraction(lex):
                    raise ParseError("zero denominator", line, col)
                coeff /= Fraction(lex)
        elif kind == "var":
            index = int(lex[1:])
            if not 1 <= index <= n:
                raise ParseError(f"variable {lex} out of range for vars: {n}",
                                 line, col)
            exponent = 1
            if toks[pos + 1][1] == "^":
                pos += 2
                kind, lex, col = toks[pos]
                if kind != "num" or "." in lex:
                    raise ParseError("expected integer exponent after '^'", line, col)
                exponent = int(lex)
            mono[index - 1] += exponent
        else:
            got = f", got {lex!r}" if lex else ""
            raise ParseError(f"expected a coefficient or variable{got}", line, col)
        kind, lex, col = toks[pos + 1]
        pos += 2
        if lex == "*":
            continue
        if coeff:
            accumulate_term(total, tuple(mono), coeff)
        if kind == "end":
            return Polynomial._of_clean(n, total)
        if lex not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", line, col)
        coeff, mono = Fraction(-1 if lex == "-" else 1), [0] * n


def _parse_group(value: str, line: int, column: int) -> tuple[int, ...]:
    blocks = []
    for part in value.split("x"):
        m = re.fullmatch(r"\s*S\(([0-9]+)\)\s*", part)
        if m is None or int(m.group(1)) < 1:
            raise ParseError(f"bad group {value.strip()!r}; expected e.g. S(2)xS(1)",
                             line, column)
        blocks.append(int(m.group(1)))
    return tuple(blocks)


def _parse_domain(value: str, line: int, column: int) -> tuple[Fraction, ...]:
    body = value.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError("domain must be a braced list like {0,1}", line, column)
    inner = body[1:-1].strip()
    if not inner:
        raise ParseError("empty domain", line, column)
    return tuple(parse_rational(r, line, column) for r in inner.split(","))


def _parse_int(value: str, key: str, line: int, column: int) -> int:
    body = value.strip()  # int() would also take a sign, "_" and other digits
    if not (body.isascii() and body.isdigit()):
        raise ParseError(f"{key} expects an integer", line, column)
    return int(body)


def parse_problem(text: str) -> ProblemFile:
    """Parse problem text; raises ParseError with line and column on bad input."""
    raw: dict[str, tuple[str, int, int]] = {}
    repeats: dict[str, list[tuple[str, int, int]]] = {k: [] for k in _REPEAT_KEYS}
    for number, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", number,
                             len(line) - len(line.lstrip()) + 1)
        key, value = line.split(":", 1)
        column = line.index(":") + 2
        key = key.strip()
        if key in _REPEAT_KEYS:
            repeats[key].append((value, number, column))
        elif key in _SCALAR_KEYS:
            if key in raw:
                raise ParseError(f"duplicate key {key!r}", number, 1)
            raw[key] = (value, number, column)
        else:
            raise ParseError(f"unknown key {key!r}", number,
                             len(line) - len(line.lstrip()) + 1)
    if "vars" not in raw:
        raise ParseError("missing required key 'vars'", 1, 1)
    value, line, column = raw["vars"]
    n = _parse_int(value, "vars", line, column)
    if n < 1:
        raise ParseError("vars must be positive", line, column)

    if "group" in raw:
        value, line, column = raw["group"]
        blocks = _parse_group(value, line, column)
        if sum(blocks) != n:
            raise ParseError(f"group blocks sum to {sum(blocks)}, vars is {n}",
                             line, column)
    else:
        blocks = (1,) * n

    pf = ProblemFile(n=n, block_sizes=blocks)
    if "domain" in raw and repeats["groebner"]:
        _, line, _ = raw["domain"]
        raise ParseError("give either domain or groebner, not both", line, 1)
    if "domain" in raw:
        value, line, column = raw["domain"]
        pf.domain_roots = _parse_domain(value, line, column)
    for value, line, column in repeats["groebner"]:
        g = parse_polynomial(value, n, line, column - 1)
        if g.is_zero():
            raise ParseError("groebner generator is zero", line,
                             column + len(value) - len(value.lstrip()))
        pf.groebner_polys.append(g)
    for value, line, column in repeats["eq"]:
        pf.equalities.append(parse_polynomial(value, n, line, column - 1))
    if "target" in raw:
        value, line, column = raw["target"]
        if value.strip() != "refute":
            pf.target = parse_polynomial(value, n, line, column - 1)
    if "degree" in raw:
        value, line, column = raw["degree"]
        pf.degree = _parse_int(value, "degree", line, column)
        if pf.degree < 1:
            raise ParseError("degree must be at least 1", line, column)
    if "epsilon" in raw:
        value, line, column = raw["epsilon"]
        pf.epsilon = parse_rational(value, line, column)
        if pf.epsilon < 0:
            raise ParseError("epsilon must be nonnegative", line, column)
    return pf


def serialize_problem(pf: ProblemFile) -> str:
    """Canonical text form; parse_problem inverts it exactly."""
    lines = [f"vars: {pf.n}",
             "group: " + "x".join(f"S({b})" for b in pf.block_sizes)]
    if pf.domain_roots is not None:
        lines.append("domain: {" + ",".join(str(r) for r in pf.domain_roots) + "}")
    for g in pf.groebner_polys:
        lines.append(f"groebner: {g}")
    for p in pf.equalities:
        lines.append(f"eq: {p}")
    lines.append("target: refute" if pf.target is None else f"target: {pf.target}")
    lines.append(f"degree: {pf.degree}")
    if pf.epsilon is not None:
        lines.append(f"epsilon: {pf.epsilon}")
    return "\n".join(lines) + "\n"
