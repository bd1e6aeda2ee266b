"""End-to-end acceptance battery.

One test per shipped guarantee.  Each prints a single scoreboard line
(pass/fail plus the measured quantity) even under capture, and then
asserts, so a plain pytest run doubles as the acceptance report.
"""

import os
import random
import tempfile
import time
from fractions import Fraction
from functools import lru_cache

from symsos import cli
from symsos.certificates import (bit_size, order_unit_certificate,
                                 parse_certificate, verify)
from symsos.groebner import boolean_basis, reconstruct_proof, reduce_polynomial
from symsos.linalg import psd_certificate
from symsos.pipeline import (ProblemInstance, check_pseudoexpectation,
                             find_pseudoexpectation, point_pseudoexpectation,
                             refute_invariant_system, variable_count_report)
from symsos.poly import MonomialBasis, Polynomial, monomials_up_to
from symsos.symmetry import (GramMatrix, GroupSpec, enumerate_pair_orbits,
                             reynolds_gram, reynolds_polynomial)

from .group_walk import act_on_polynomial, elements
from .test_certificates import (boolean_witness, linear_refutation,
                                quadratic_refutation)
from .test_pipeline import BOOL, half_integral_knapsack, sum_of_vars
from .test_poly import random_poly
from .test_symmetry import random_group


def frac(a, b=1):
    return Fraction(a, b)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def knapsack(n, rhs, degree=1):
    return ProblemInstance(group=GroupSpec.symmetric(n),
                           equalities=[sum_of_vars(n)
                                       - Polynomial.constant(n, rhs)],
                           domain_roots=BOOL, degree=degree)


# ---------------------------------------------------------------- criterion 1

def _single_coefficient_mutations(make):
    """Fresh copies of make(), each with exactly one stored coefficient
    bumped by +1/7 (symmetric partners move together for Gram entries)."""
    delta = frac(1, 7)
    base = make()
    n = base.target.n
    for mono in base.target.terms:
        cert = make()
        cert.target = cert.target + Polynomial.monomial(n, mono) * delta
        yield cert
    for i in range(base.sigma.dim):
        for j in range(i, base.sigma.dim):
            cert = make()
            cert.sigma.entries[i][j] += delta
            if i != j:
                cert.sigma.entries[j][i] += delta
            yield cert
    for idx, (constr, mult) in enumerate(base.equality_multipliers):
        for mono in constr.terms:
            cert = make()
            c, m = cert.equality_multipliers[idx]
            bump = Polynomial.monomial(n, mono) * delta
            cert.equality_multipliers[idx] = (c + bump, m)
            yield cert
        if isinstance(mult, Fraction):
            cert = make()
            c, m = cert.equality_multipliers[idx]
            cert.equality_multipliers[idx] = (c, m + delta)
            yield cert
        else:
            for mono in mult.terms:
                cert = make()
                c, m = cert.equality_multipliers[idx]
                bump = Polynomial.monomial(n, mono) * delta
                cert.equality_multipliers[idx] = (c, m + bump)
                yield cert
    for idx, (gen, cof) in enumerate(base.groebner_multipliers):
        for side in (0, 1):
            for mono in (gen, cof)[side].terms:
                cert = make()
                g, c = cert.groebner_multipliers[idx]
                bump = Polynomial.monomial(n, mono) * delta
                cert.groebner_multipliers[idx] = \
                    (g + bump, c) if side == 0 else (g, c + bump)
                yield cert


def test_criterion_01_hand_refutations(capsys):
    start = time.perf_counter()
    problems = []
    for make in (linear_refutation, quadratic_refutation):
        out = verify(make())
        if not out.accepted:
            problems.append(f"{make.__name__} rejected: {out.failure}")
    mutants = 0
    for make in (linear_refutation, quadratic_refutation):
        for cert in _single_coefficient_mutations(make):
            mutants += 1
            out = verify(cert)
            if out.accepted:
                problems.append("mutated certificate accepted")
            elif out.residual is None or out.residual.is_zero():
                problems.append(f"mutant rejected without residual: {out.failure}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    report(capsys, 1, not problems,
           f"2 hand refutations verify, {mutants}/{mutants} single-coefficient "
           f"mutations rejected with nonzero residual ({elapsed:.2f}s)")
    assert not problems, problems


# ---------------------------------------------------------------- criterion 2

@lru_cache(maxsize=None)
def _knapsack_refutation_certs():
    """Run the refute subcommand at degree 1 for n = 1, 2, 3 and parse the
    certificates it writes."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in (1, 2, 3):
            terms = " + ".join(f"x{i + 1}" for i in range(n))
            text = (f"vars: {n}\ngroup: S({n})\ndomain: {{0,1}}\n"
                    f"eq: {terms} - {2 * n + 1}/2\ntarget: refute\n")
            prob = os.path.join(tmp, f"k{n}.sos")
            with open(prob, "w", encoding="utf-8") as handle:
                handle.write(text)
            cert_path = prob + ".cert.json"
            code = cli.main(["refute", prob, "--degree", "1", "-o", cert_path])
            assert code == 0, f"refute exited {code} for n={n}"
            with open(cert_path, "r", encoding="utf-8") as handle:
                out.append((n, parse_certificate(handle.read())))
    return out


def test_criterion_02_end_to_end_refute(capsys):
    start = time.perf_counter()
    problems = []
    for n, cert in _knapsack_refutation_certs():
        if not verify(cert).accepted:
            problems.append(f"n={n} certificate rejected")
        group = GroupSpec.symmetric(n)
        if reynolds_gram(group, cert.sigma) != cert.sigma:
            problems.append(f"n={n} sigma not invariant")
        scalars = [m for _, m in cert.equality_multipliers]
        if len(scalars) != 1 or not isinstance(scalars[0], Fraction):
            problems.append(f"n={n} expected one scalar for the single "
                            f"constraint orbit, got {scalars}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s")
    report(capsys, 2, not problems,
           f"refute --degree 1 certified n=1,2,3 exactly; sigma invariant, "
           f"one scalar per constraint orbit ({elapsed:.2f}s)")
    assert not problems, problems


# ---------------------------------------------------------------- criterion 3

def _brute_bipartitions(k, l):
    """Count multisets of pairs (a, b) != (0, 0) with component sums (k, l)
    by direct enumeration over pairs in a fixed order."""
    pairs = [(a, b) for a in range(k + 1) for b in range(l + 1) if a or b]

    def count(idx, ka, lb):
        if ka == 0 and lb == 0:
            return 1
        if idx == len(pairs):
            return 0
        a, b = pairs[idx]
        total = 0
        mult = 0
        while mult * a <= ka and mult * b <= lb:
            total += count(idx + 1, ka - mult * a, lb - mult * b)
            mult += 1
        return total

    return count(0, k, l)


def test_criterion_03_pair_orbit_constancy(capsys):
    start = time.perf_counter()
    problems = []
    observed = {}
    for d in (1, 2):
        expected = sum(_brute_bipartitions(k, l)
                       for k in range(d + 1) for l in range(d + 1))
        counts = [len(enumerate_pair_orbits(GroupSpec.symmetric(n), d))
                  for n in range(2 * d, 2 * d + 5)]
        observed[d] = (counts, expected)
        if len(set(counts)) != 1:
            problems.append(f"d={d} counts vary: {counts}")
        if counts[0] != expected:
            problems.append(f"d={d} count {counts[0]} != oracle {expected}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.2f}s")
    report(capsys, 3, not problems,
           f"pair orbits constant over n: d=1 -> {observed[1][0][0]} "
           f"(oracle {observed[1][1]}), d=2 -> {observed[2][0][0]} "
           f"(oracle {observed[2][1]}) ({elapsed:.2f}s)")
    assert not problems, problems


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_reynolds_properties(capsys):
    start = time.perf_counter()
    rng = random.Random(44)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        group = random_group(rng, n)
        p = random_poly(rng, n, rng.randint(0, 3), terms=4)
        avg = reynolds_polynomial(group, p)
        ok = all(act_on_polynomial(g, avg) == avg for g in elements(group))
        ok = ok and reynolds_polynomial(group, avg) == avg
        basis = MonomialBasis(n, 1)
        dim = len(basis)
        b = [[frac(rng.randint(-3, 3)) for _ in range(dim)]
             for _ in range(dim)]
        gram = GramMatrix(basis, [
            [sum(b[k][i] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)])
        averaged = reynolds_gram(group, gram)
        ok = ok and psd_certificate(averaged.entries).is_psd
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - start
    report(capsys, 4, failures == 0,
           f"200 random polynomials: invariance, idempotence, PSD "
           f"preservation all hold, {failures} failures ({elapsed:.2f}s)")
    assert failures == 0


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_reduction_round_trip(capsys):
    start = time.perf_counter()
    rng = random.Random(55)
    failures = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        gb = boolean_basis(n)
        sigma = random_poly(rng, n, 2, terms=4)
        pairs = [(random_poly(rng, n, 2, terms=3),
                  random_poly(rng, n, 1, terms=2))
                 for _ in range(rng.randint(0, 2))]
        cofactors = [random_poly(rng, n, 2, terms=3) for _ in gb]
        target = sigma
        for mult, constr in pairs:
            target = target + mult * constr
        for c, g in zip(cofactors, gb):
            target = target + c * g
        sigma_r = reduce_polynomial(sigma, gb)
        prods_r = [reduce_polynomial(m * p, gb) for m, p in pairs]
        combination = sum(prods_r, sigma_r)
        try:
            cof = reconstruct_proof(target, combination, gb)
        except Exception:
            failures += 1
            continue
        rebuilt = combination
        for c, g in zip(cof, gb):
            rebuilt = rebuilt + c * g
        if rebuilt != target:
            failures += 1
    elapsed = time.perf_counter() - start
    report(capsys, 5, failures == 0,
           f"100 planted identities reduce and reconstruct exactly, "
           f"{failures} residuals ({elapsed:.2f}s)")
    assert failures == 0


# ---------------------------------------------------------------- criterion 6

@lru_cache(maxsize=None)
def _order_unit_batch():
    out = []
    for n in range(1, 5):
        witness = boolean_witness(n)
        k = witness.degree_bound // 2
        for mono in monomials_up_to(n, 4):
            d = max(1, (sum(mono) + 1) // 2)
            for sign in (1, -1):
                cert = order_unit_certificate(witness, mono, d, sign=sign)
                out.append((n, d, k, cert))
    return out


def test_criterion_06_order_unit(capsys):
    start = time.perf_counter()
    failures = 0
    total = 0
    for n, d, k, cert in _order_unit_batch():
        total += 1
        if not verify(cert).accepted:
            failures += 1
        elif cert.degree_bound > 2 * (d + k - 1):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(capsys, 6, ok,
           f"{total} order-unit certificates (n<=4, |m|<=4, both signs) "
           f"verify within degree 2(d+k-1), {failures} failures "
           f"({elapsed:.2f}s)")
    assert ok, failures


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_duality_battery(capsys):
    start = time.perf_counter()
    problems = []
    unsat = [(1, frac(1, 2)), (1, frac(3, 2)), (2, frac(1, 2)),
             (2, frac(3, 2)), (2, frac(5, 2)), (3, frac(3, 2)),
             (3, frac(7, 2)), (4, frac(3, 2)), (4, frac(7, 2)),
             (4, frac(9, 2))]
    sat = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
           (3, 1), (3, 2), (4, 0), (4, 2), (4, 4)]
    for n, rhs in unsat + [(a, frac(b)) for a, b in sat]:
        inst = knapsack(n, rhs)
        refuted = refute_invariant_system(inst).certified
        pe = find_pseudoexpectation(inst)
        valid = pe is not None and check_pseudoexpectation(inst, pe)
        if refuted and valid:
            problems.append(f"n={n} rhs={rhs}: refutation and "
                            f"pseudoexpectation both accepted")
    for n, t in sat:
        inst = knapsack(n, frac(t))
        point = [frac(1)] * t + [frac(0)] * (n - t)
        pe = point_pseudoexpectation(inst, [point])
        if not check_pseudoexpectation(inst, pe):
            problems.append(f"n={n} t={t}: point pseudoexpectation invalid")
    elapsed = time.perf_counter() - start
    report(capsys, 7, not problems,
           f"20 instances (10 sat, 10 unsat): no instance has both a "
           f"refutation and a valid pseudoexpectation; all 10 point "
           f"functionals validate ({elapsed:.2f}s)")
    assert not problems, problems


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_knapsack_dual_witness(capsys):
    start = time.perf_counter()
    problems = []
    # Independent oracle: the symmetric degree-2 moment system over the
    # basis (1, x1, x2, x3) has two unknowns y1 = L[x_i], y2 = L[x_i x_j].
    # The constraint rows L[(sum x - 3/2) * 1] = 0 and * x1 = 0 force
    # 3 y1 = 3/2 and y1 + 2 y2 = (3/2) y1; the 4x4 moment matrix built
    # from the solution must be exactly PSD.
    y1 = frac(3, 2) / 3
    y2 = (frac(3, 2) * y1 - y1) / 2
    if 3 * y1 - frac(3, 2) != 0 or y1 + 2 * y2 - frac(3, 2) * y1 != 0:
        problems.append("oracle moment values fail the linear rows")
    moment = [[frac(1), y1, y1, y1],
              [y1, y1, y2, y2],
              [y1, y2, y1, y2],
              [y1, y2, y2, y1]]
    if not psd_certificate(moment).is_psd:
        problems.append("oracle moment matrix not PSD")
    inst = knapsack(3, frac(3, 2))
    pe = find_pseudoexpectation(inst)
    if pe is None:
        problems.append("find_pseudoexpectation returned None")
    else:
        if not check_pseudoexpectation(inst, pe):
            problems.append("returned pseudoexpectation invalid")
        if abs(pe.moments[(1, 0, 0)] - float(y1)) > 1e-6:
            problems.append(f"L[x1] = {pe.moments[(1, 0, 0)]}, oracle {y1}")
        if abs(pe.moments[(1, 1, 0)] - float(y2)) > 1e-6:
            problems.append(f"L[x1x2] = {pe.moments[(1, 1, 0)]}, oracle {y2}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s")
    report(capsys, 8, not problems,
           f"degree-2 pseudoexpectation found for sum x = 3/2, n = 3; "
           f"matches exact moment oracle (L[x]=1/2, L[xy]=1/8) "
           f"({elapsed:.2f}s)")
    assert not problems, problems


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_n_independent_size(capsys):
    start = time.perf_counter()
    problems = []
    summary = []
    for d in (1, 2):
        afters = []
        befores = []
        for n in range(2 * d, 2 * d + 5):
            rep = variable_count_report(
                knapsack(n, frac(2 * n + 1, 2), degree=d))
            afters.append(rep.after_variables)
            befores.append(rep.before_variables)
        if len(set(afters)) != 1:
            problems.append(f"d={d} after-counts vary: {afters}")
        if not all(b < c for b, c in zip(befores, befores[1:])):
            problems.append(f"d={d} before-counts not increasing: {befores}")
        summary.append(f"d={d}: after={afters[0]} for all n, "
                       f"before {befores[0]}..{befores[-1]}")
    elapsed = time.perf_counter() - start
    report(capsys, 9, not problems,
           "; ".join(summary) + f" ({elapsed:.2f}s)")
    assert not problems, problems


# --------------------------------------------------------------- criterion 10

def test_criterion_10_bit_size_budget(capsys):
    start = time.perf_counter()
    problems = []
    worst = 0
    checked = 0

    def budget(n, d):
        return (n ** d) ** 3 + 64

    for n, cert in _knapsack_refutation_certs():
        rep = bit_size(cert)
        bits = max(rep.max_numerator_bits, rep.max_denominator_bits)
        worst = max(worst, bits)
        checked += 1
        if bits > budget(n, 1):
            problems.append(f"refutation n={n}: {bits} bits > {budget(n, 1)}")
    for n, d, _, cert in _order_unit_batch():
        rep = bit_size(cert)
        bits = max(rep.max_numerator_bits, rep.max_denominator_bits)
        worst = max(worst, bits)
        checked += 1
        if bits > budget(n, d):
            problems.append(f"order unit n={n} d={d}: {bits} bits "
                            f"> {budget(n, d)}")
    elapsed = time.perf_counter() - start
    report(capsys, 10, not problems,
           f"{checked} certificates within the (n^d)^3 + 64 bit budget, "
           f"max coefficient {worst} bits ({elapsed:.2f}s)")
    assert not problems, problems
