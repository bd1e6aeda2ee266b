"""Independent checks of the program's answers.

Nothing here imports symsos.  Certificates are read from their JSON text
with json and Fraction; the identity is checked by exact evaluation at
seeded random rational points, positive semidefiniteness by an exact
LDL^T written below, and the dual of a feasible instance with numpy.
Each check returns a list of problems; an empty list means accepted.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from fractions import Fraction

import numpy as np

from workloads import EPSILON, Instance, add, mul, var, const

FORMAT_TAG = "symsos.certificate/1"
IDENTITY_POINTS = 3
DUAL_TOLERANCE = 1e-6  # the program's solver tolerance (1e-9) times 1e3


def _frac(text) -> Fraction:
    if not isinstance(text, str) or "/" not in text:
        raise ValueError(f"rational {text!r} is not a 'num/den' string")
    return Fraction(text)


def _poly(terms, n: int) -> dict:
    out: dict = {}
    for mono, coeff in terms:
        mono = tuple(int(e) for e in mono)
        if len(mono) != n or min(mono, default=0) < 0:
            raise ValueError(f"bad exponent vector {mono}")
        out[mono] = out.get(mono, Fraction(0)) + _frac(coeff)
    return {m: c for m, c in out.items() if c}


def _degree(p: dict) -> int:
    return max((sum(m) for m in p), default=0)


def gram_basis(n: int, d: int) -> list[tuple]:
    """Monomials of degree <= d, by total degree, then exponent tuple: the
    row order of a certificate's Gram matrix."""
    monos: list[tuple] = []

    def extend(prefix: tuple, budget: int) -> None:
        if len(prefix) == n:
            monos.append(prefix)
            return
        for e in range(budget + 1):
            extend(prefix + (e,), budget - e)

    extend((), d)
    return sorted(monos, key=lambda m: (sum(m), m))


def _evaluate(p: dict, point: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in p.items():
        term = coeff
        for x, e in zip(point, mono):
            if e:
                term *= x ** e
        total += term
    return total


def is_psd(matrix: list[list[Fraction]]) -> bool:
    """Exact test by symmetric elimination on positive pivots: A is PSD iff
    the Schur complement of a positive pivot is; once no positive diagonal
    entry is left, the rest must be zero."""
    a = [row[:] for row in matrix]
    active = list(range(len(a)))
    while active:
        pivot = next((i for i in active if a[i][i] > 0), None)
        if pivot is None:
            return all(a[i][j] == 0 for i in active for j in active)
        active.remove(pivot)
        prow = a[pivot]
        for i in active:
            factor = a[i][pivot] / prow[pivot]
            if factor:
                row = a[i]
                for j in active:
                    if prow[j]:
                        row[j] -= factor * prow[j]
    return True


def _generators(blocks: tuple[int, ...]) -> list[list[int]]:
    """Adjacent transpositions inside each block; they generate the group."""
    n, start, out = sum(blocks), 0, []
    for size in blocks:
        for i in range(start, start + size - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            out.append(perm)
        start += size
    return out


def boolean_generator(n: int, i: int) -> dict:
    return add(mul(var(n, i), var(n, i)), {m: -c for m, c in var(n, i).items()})


def expected_target(inst: Instance) -> dict:
    if inst.target is None:
        return const(inst.n, -1)
    return add(inst.target, const(inst.n, EPSILON))


def check_certificate(text: str, inst: Instance, rng: random.Random) -> list[str]:
    """Everything a recipient can check about a certificate for inst."""
    try:
        doc = json.loads(text)
        return _check_document(doc, inst, rng)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed certificate: {type(exc).__name__}: {exc}"]


def _check_document(doc: dict, inst: Instance, rng: random.Random) -> list[str]:
    n = inst.n
    problems = []
    if doc["format"] != FORMAT_TAG or int(doc["variables"]) != n:
        return ["wrong format tag or variable count"]
    mode = doc["mode"]
    want_mode = "normal-form" if inst.target is None else "general"
    if mode != want_mode:
        problems.append(f"mode {mode!r}, expected {want_mode!r}")
    bound = int(doc["degree_bound"])
    if bound > 2 * inst.degree:
        problems.append(f"degree bound {bound} exceeds 2 * {inst.degree}")
    target = _poly(doc["target"], n)
    if target != expected_target(inst):
        problems.append("target differs from the instance's")

    sigma_degree = int(doc["sigma_basis_degree"])
    basis = gram_basis(n, sigma_degree)
    sigma = [[_frac(x) for x in row] for row in doc["sigma"]]
    if len(sigma) != len(basis) or any(len(row) != len(basis) for row in sigma):
        return problems + ["sigma does not match its basis size"]
    if any(sigma[i][j] != sigma[j][i] for i in range(len(basis)) for j in range(i)):
        return problems + ["sigma is not symmetric"]

    constraints = inst.equalities
    eq_terms = []
    for item in doc["equality_multipliers"]:
        p = _poly(item["constraint"], n)
        if p not in constraints:
            problems.append("an equality constraint is not one of the instance's")
        if mode == "normal-form":
            eq_terms.append(mul(mul(p, p), const(n, _frac(item["scalar"]))))
        else:
            eq_terms.append(mul(_poly(item["multiplier"], n), p))
    domain = [boolean_generator(n, i) for i in range(n)]
    ideal_terms = []
    for item in doc["groebner_multipliers"]:
        g = _poly(item["generator"], n)
        if g not in domain:
            problems.append("a ring generator is not x_i^2 - x_i")
        ideal_terms.append(mul(_poly(item["multiplier"], n), g))

    if 2 * sigma_degree > bound or _degree(target) > bound or any(
            _degree(t) > bound for t in eq_terms + ideal_terms):
        problems.append("a term exceeds the degree bound")

    rest = add(*eq_terms, *ideal_terms)
    for _ in range(IDENTITY_POINTS):
        point = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                 for _ in range(n)]
        z = [_evaluate({m: Fraction(1)}, point) for m in basis]
        quad = sum((z[i] * sigma[i][j] * z[j] for i in range(len(z))
                    for j in range(len(z)) if sigma[i][j]), Fraction(0))
        if _evaluate(target, point) != quad + _evaluate(rest, point):
            problems.append("identity fails at a random rational point")
            break

    index = {m: i for i, m in enumerate(basis)}
    for perm in _generators(inst.blocks):
        image = [index[tuple(m[perm[v]] for v in range(n))] for m in basis]
        if any(sigma[image[i]][image[j]] != sigma[i][j]
               for i in range(len(basis)) for j in range(i, len(basis))):
            problems.append("sigma is not invariant under the group")
            break

    if not is_psd(sigma):
        problems.append("sigma is not positive semidefinite")
    if inst.closed_form is not None:
        problems += _check_bound_holds(inst, target)
    return problems


def _check_bound_holds(inst: Instance, target: dict) -> list[str]:
    """The certified target is >= 0 at every feasible cube point: one point
    per vector of per-block Hamming weights, compared with the closed form."""
    for weights in itertools.product(*(range(b + 1) for b in inst.blocks)):
        if not inst.weight_feasible(sum(weights)):
            continue
        value = inst.closed_form(weights)
        point = []
        for size, w in zip(inst.blocks, weights):
            point += [Fraction(1)] * w + [Fraction(0)] * (size - w)
        if _evaluate(target, point) != value + EPSILON:
            return [f"target at weights {weights} differs from the closed form"]
        if value < 0:
            return [f"bound is false at weights {weights}"]
    return []


def check_dual(text: str, inst: Instance) -> list[str]:
    """A pseudoexpectation for sum x_i = n/2 on {0,1}^n under S(n).

    Moments of multilinear monomials depend only on their support size s
    (y_s).  Checks L(1) = 1, L(m * p) = 0 for every monomial m of degree
    <= 2d - 1, and the moment matrix over subsets of size <= d is PSD within
    the solver tolerance.  The balanced point shows the instance is
    feasible, so no refutation may exist.
    """
    n, d = inst.n, inst.degree
    if not inst.weight_feasible(n // 2):
        return ["the balanced point (n/2 ones) does not satisfy the constraint"]
    try:
        doc = json.loads(text)
        y: dict[int, float] = {}
        for key, value in doc["moments"].items():
            support = set()
            for factor in key.split("*"):
                if factor == "1":
                    continue
                if "^" in factor or not factor.startswith("x"):
                    raise ValueError(f"moment key {key!r} is not multilinear")
                support.add(int(factor[1:]))
            if len(support) in y:
                raise ValueError(f"two moments for support size {len(support)}")
            y[len(support)] = float(value)
        if sorted(y) != list(range(2 * d + 1)):
            raise ValueError(f"moments for support sizes {sorted(y)}")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed pseudoexpectation: {exc}"]
    problems = []
    if abs(y[0] - 1.0) > DUAL_TOLERANCE:
        problems.append(f"L(1) = {y[0]}")
    half = n / 2
    for s in range(2 * d):
        # L(m * (sum x_i - n/2)) for |supp m| = s, reduced by x_i^2 = x_i.
        value = (s - half) * y[s] + (n - s) * y[s + 1]
        if abs(value) > DUAL_TOLERANCE:
            problems.append(f"L(m * p) = {value:.3g} for |m| = {s}")
    subsets = [c for k in range(d + 1) for c in itertools.combinations(range(n), k)]
    moment = np.array([[y[len(set(a) | set(b))] for b in subsets] for a in subsets])
    low = float(np.linalg.eigvalsh(moment)[0])
    if low < -DUAL_TOLERANCE:
        problems.append(f"moment matrix eigenvalue {low:.3g}")
    return problems


# -- self-test of the certificate checker --------------------------------------

# -1 = -4 (x1 - 1/2)^2 + 4 (x1^2 - x1), as printed in the README.
README_REFUTATION = {
    "format": FORMAT_TAG,
    "variables": 1,
    "mode": "normal-form",
    "degree_bound": 2,
    "target": [[[0], "-1/1"]],
    "sigma_basis_degree": 0,
    "sigma": [["0/1"]],
    "equality_multipliers": [
        {"constraint": [[[1], "1/1"], [[0], "-1/2"]], "scalar": "-4/1"}],
    "groebner_multipliers": [
        {"generator": [[[2], "1/1"], [[1], "-1/1"]], "multiplier": [[[0], "4/1"]]}],
}
README_INSTANCE = Instance(name="readme", command="refute", blocks=(1,),
                           degree=1, sums=(Fraction(1, 2),))


def _rational_slots(doc, path=()):
    """Paths of every rational coefficient in a certificate document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _rational_slots(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _rational_slots(value, path + (i,))
    elif isinstance(doc, str) and "/" in doc and path[0] != "format":
        yield path


def checker_self_test(rng: random.Random) -> list[str]:
    """The README refutation is accepted, and each of its single-coefficient
    mutations (coefficient + 1) breaks the identity and is rejected."""
    problems = check_certificate(json.dumps(README_REFUTATION), README_INSTANCE, rng)
    if problems:
        return [f"README refutation rejected: {problems}"]
    slots = list(_rational_slots(README_REFUTATION))
    for path in slots:
        mutant = copy.deepcopy(README_REFUTATION)
        holder = mutant
        for key in path[:-1]:
            holder = holder[key]
        value = Fraction(holder[path[-1]]) + 1
        holder[path[-1]] = f"{value.numerator}/{value.denominator}"
        problems = check_certificate(json.dumps(mutant), README_INSTANCE, rng)
        if not any(p.startswith("identity") for p in problems):
            return [f"mutation at {path} passed the identity check: {problems}"]
    return [] if len(slots) >= 8 else [f"only {len(slots)} mutations tried"]
