"""Boolean-cube instances of the three benchmark workloads.

Polynomials are dicts {exponent tuple: Fraction}.  Every instance carries
the facts the independent checks need (group blocks, degree, the exact
target and constraints, and a closed form of the target in terms of the
per-block Hamming weights), so nothing about an answer is taken from
symsos itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

Poly = dict

EPSILON = Fraction(1, 2 ** 20)  # the program's default proof slack


def var(n: int, i: int) -> Poly:
    mono = [0] * n
    mono[i] = 1
    return {tuple(mono): Fraction(1)}


def const(n: int, c) -> Poly:
    return {(0,) * n: Fraction(c)} if c else {}


def add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def linear_sum(n: int) -> Poly:
    return add(*(var(n, i) for i in range(n)))


def e2(n: int) -> Poly:
    return add(*(mul(var(n, i), var(n, j))
                 for i in range(n) for j in range(i + 1, n)))


def render(p: Poly) -> str:
    """Problem-file text of a polynomial, highest degree first."""
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, key=lambda m: (sum(m), m), reverse=True):
        c = p[mono]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(mono) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


@dataclass(frozen=True)
class Instance:
    """One problem file and what its answer must satisfy.

    closed_form maps per-block Hamming weights to the exact target value at
    every cube point with those weights (prove instances only).  fault names
    the known program fault that makes the answer fail, or is None.
    """

    name: str
    command: str  # "refute" or "prove"
    blocks: tuple[int, ...]
    degree: int
    sums: tuple  # each equality constraint is sum x_i - c, for c in sums
    target: Optional[Poly] = None  # None: refutation
    closed_form: Optional[Callable] = None
    feasible: bool = False  # a refutation must be refused
    fault: Optional[str] = None

    @property
    def n(self) -> int:
        return sum(self.blocks)

    def problem_text(self) -> str:
        lines = [f"vars: {self.n}",
                 "group: " + "x".join(f"S({b})" for b in self.blocks),
                 "domain: {0,1}"]
        lines += [f"eq: {render(p)}" for p in self.equalities]
        lines.append("target: refute" if self.target is None
                     else f"target: {render(self.target)}")
        lines.append(f"degree: {self.degree}")
        return "\n".join(lines) + "\n"

    @property
    def equalities(self) -> list[Poly]:
        return [_shifted_sum(self.n, c) for c in self.sums]

    def weight_feasible(self, weight: int) -> bool:
        """Whether cube points of total Hamming weight `weight` satisfy
        every equality constraint."""
        return all(c == weight for c in self.sums)


FAULT_2A = ("refute reports solver-infeasible although an invariant "
            "degree-1 certificate exists (ROADMAP 2(a))")
FAULT_2B = ("prove fails on the literal square at the default epsilon "
            "(ROADMAP 2(b))")
FAULT_SINGULAR = ("prove on a tight target raises numpy LinAlgError "
                  "'Singular matrix' from np.linalg.inv in sdp._logdet_newton")


def _shifted_sum(n: int, c) -> Poly:
    return add(linear_sum(n), const(n, -Fraction(c)))


def refute_instance(n: int, d: int, fault: Optional[str] = None) -> Instance:
    """sum x_i = n + 1/2 on {0,1}^n, group S(n): infeasible."""
    return Instance(name=f"refute-d{d}-n{n}", command="refute", blocks=(n,),
                    degree=d, sums=(Fraction(2 * n + 1, 2),),
                    fault=fault)


def e2_instance(blocks: tuple[int, ...], d: int, slack: int = 1,
                fault: Optional[str] = None) -> Instance:
    """e2(x) >= C(k,2) - slack given sum x_i = k = n/2."""
    n = sum(blocks)
    k = n // 2
    bound = math.comb(k, 2) - slack
    return Instance(
        name=f"e2-{'x'.join(map(str, blocks))}-d{d}-slack{slack}",
        command="prove", blocks=blocks, degree=d,
        sums=(k,),
        target=add(e2(n), const(n, -bound)),
        closed_form=lambda w: Fraction(math.comb(sum(w), 2) - bound),
        fault=fault)


def square_instance(n: int, fault: Optional[str] = None) -> Instance:
    """(sum x_i - n/2)^2 >= 0 with no constraints, written out term by term."""
    p = _shifted_sum(n, Fraction(n, 2))
    return Instance(name=f"square-n{n}", command="prove", blocks=(n,), degree=1,
                    sums=(), target=mul(p, p),
                    closed_form=lambda w: (sum(w) - Fraction(n, 2)) ** 2,
                    fault=fault)


def balanced_instance(n: int, d: int) -> Instance:
    """sum x_i = n/2: feasible for even n, so refute must answer 'no
    certificate'; infeasible for odd n."""
    return Instance(name=f"balanced-d{d}-n{n}", command="refute", blocks=(n,),
                    degree=d, sums=(Fraction(n, 2),), feasible=n % 2 == 0)


def _refute_boolean() -> list[Instance]:
    out = [refute_instance(n, 1) for n in (4, 6)]
    out += [refute_instance(n, 2) for n in (4, 5, 6)]
    # d=3, n=5 (W=56) is left out: its 8.6 s answer and 2.7 s verify made a
    # pass 17 s long, too few passes per run for a steady median.
    out.append(refute_instance(4, 3))
    out += [refute_instance(n, 1, fault=FAULT_2A) for n in (8, 16)]
    return out


def _prove_boolean() -> list[Instance]:
    out = [e2_instance((n,), 1) for n in (8, 12, 16)]
    out += [e2_instance((n // 2, n // 2), 1) for n in (8, 12)]
    out += [e2_instance((6,), 2), e2_instance((3, 3), 2)]
    out += [square_instance(n, fault=FAULT_2B) for n in (3, 6, 10)]
    out.append(e2_instance((16,), 1, slack=0, fault=FAULT_SINGULAR))
    return out


def _dual_boolean() -> list[Instance]:
    # The odd-n member is a control: it must certify, so a solver that
    # answers "no" to everything cannot pass this workload.
    return ([balanced_instance(n, 1) for n in (8, 16, 24)]
            + [balanced_instance(n, 2) for n in (6, 8)]
            + [balanced_instance(3, 2)])


WORKLOADS = {
    "refute-boolean": _refute_boolean,
    "prove-boolean": _prove_boolean,
    "dual-boolean": _dual_boolean,
}
