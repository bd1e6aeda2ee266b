"""Command line front end.

Exit codes: 0 success/accepted, 1 rejected or no certificate found,
2 usage, parse, invalid-input or unreadable-file error, 3 resource or
numeric failure.  A command raises its errors; main alone maps each to
exit 2 or 3 and one "error:" line on stderr.
Certificate files are byte-identical across runs for identical inputs and
flags: iteration orders are fixed and the solver makes one deterministic
attempt from the least-norm solution of its linear rows.  The solver takes
no settings, and each subcommand accepts only the flags it reads.

Numeric output (solver diagnostics, pseudoexpectation moments) is always
labelled as such; a "certified" line is printed only after a certificate
has passed exact verification.  A search without a certificate names its
reason: dual-witness (numeric evidence that none exists at this degree),
solver-stopped, or rationalization-failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import __version__
from .certificates import (bit_size, parse_certificate, serialize_certificate,
                           verify)
from .errors import InvalidInstance, ResourceLimit, SymsosError
from .groebner import reduce_polynomial
from .pipeline import (ProblemInstance, check_pseudoexpectation,
                       find_pseudoexpectation, prove_invariant,
                       refute_invariant_system, variable_count_report)
from .poly import Polynomial, coefficient_norm
from .problem import parse_problem, parse_rational
from .symmetry import reynolds_polynomial

EXIT_OK = 0
EXIT_NONE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _problem(args) -> ProblemInstance:
    pf = parse_problem(_read(args.file))
    if getattr(args, "degree", None) is not None:
        pf.degree = args.degree
    if getattr(args, "epsilon", None) is not None:
        pf.epsilon = parse_rational(args.epsilon)
    return pf.instance()


def _mono_str(n: int, mono) -> str:
    return str(Polynomial.monomial(n, mono))


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def _cmd_orbits(args) -> int:
    inst = _problem(args)
    report = variable_count_report(inst)
    payload = {k: getattr(report, k) for k in (
        "n", "gram_degree", "w_size", "pair_orbit_count", "indicator_count",
        "constraint_orbit_count", "before_variables", "after_variables")}
    lines = [
        f"variables: {report.n}, gram basis degree: {report.gram_degree}",
        f"gram dimension: {report.w_size} (standard monomials of degree "
        f"<= {report.gram_degree})",
        f"pair orbits: {report.pair_orbit_count} "
        f"(merged indicators: {report.indicator_count})",
        f"constraint orbits: {report.constraint_orbit_count}",
        f"scalar unknowns before reduction: {report.before_variables}",
        f"scalar unknowns after reduction:  {report.after_variables}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _map_polynomials(args, inst: ProblemInstance, fn) -> int:
    """Print fn(p) for each equality and the target, labelled as in the file."""
    pairs = [("eq", p) for p in inst.equalities]
    if inst.target is not None:
        pairs.append(("target", inst.target))
    payload = {}
    lines = []
    for label, p in pairs:
        image = fn(p)
        payload.setdefault(label, []).append(str(image))
        lines.append(f"{label}: {p}  ->  {image}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    inst = _problem(args)
    if inst.groebner is None:
        raise InvalidInstance("nothing to reduce by (no domain or groebner lines)")
    return _map_polynomials(args, inst, lambda p: reduce_polynomial(p, inst.groebner))


def _cmd_reynolds(args) -> int:
    inst = _problem(args)
    if not inst.equalities and inst.target is None:
        raise InvalidInstance("no polynomials to average")
    return _map_polynomials(args, inst, lambda p: reynolds_polynomial(inst.group, p))


def _run_search(args, mode: str) -> int:
    inst = _problem(args)
    if mode == "prove":
        result = prove_invariant(inst)
    else:
        result = refute_invariant_system(inst)
    if not result.certified:
        detail = result.reason or "unknown"
        payload = {"status": result.status, "reason": detail}
        lines = [f"no-certificate-at-degree (numeric evidence): {detail}"]
        _emit(args, payload, lines)
        return EXIT_NONE
    cert = result.certificate
    out_path = args.output or (args.file + ".cert.json")
    text = serialize_certificate(cert)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    report = result.bit_report
    payload = {
        "status": "certified",
        "certificate": out_path,
        "mode": cert.mode,
        "degree_bound": cert.degree_bound,
        "max_numerator_bits": report.max_numerator_bits,
        "max_denominator_bits": report.max_denominator_bits,
        "total_bits": report.total_bits,
    }
    lines = [
        f"certificate: {out_path}",
        f"max coefficient bits: numerator {report.max_numerator_bits}, "
        f"denominator {report.max_denominator_bits}",
    ]
    if mode == "prove":
        payload["epsilon"] = str(result.epsilon)
        lines.insert(0, f"epsilon: {result.epsilon}")
    if not args.json:  # the target can be long, and --json does not print it
        lines.insert(0, f"certified: {cert.target} (mode {cert.mode}, "
                        f"degree bound {cert.degree_bound})")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_pseudoexpect(args) -> int:
    inst = _problem(args)
    pe = find_pseudoexpectation(inst)
    if pe is None:
        _emit(args, {"status": "none-found"},
              ["no pseudoexpectation found (numeric evidence)"])
        return EXIT_NONE
    valid = check_pseudoexpectation(inst, pe)
    moments = {_mono_str(inst.n, m): f"{v:.12g}" for m, v in
               sorted(pe.moments.items(), key=lambda kv: (sum(kv[0]), kv[0]))}
    payload = {"status": "numeric-pseudoexpectation", "degree": pe.degree,
               "valid_within_tolerance": valid, "moments": moments}
    lines = [f"numeric pseudoexpectation at degree {pe.degree} "
             f"(floating point evidence, not a certificate)"]
    lines += [f"  L[{k}] = {v}" for k, v in moments.items()]
    lines.append(f"validity within tolerance: {valid}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert = parse_certificate(_read(args.file))
    outcome = verify(cert)
    if outcome.accepted:
        target = str(cert.target)
        _emit(args, {"status": "accepted", "target": target},
              [f"certified: {target} (mode {cert.mode}, "
               f"degree bound {cert.degree_bound})"])
        return EXIT_OK
    payload = {"status": "rejected", "failure": outcome.failure}
    lines = [f"rejected: {outcome.failure}"]
    if outcome.residual is not None and not outcome.residual.is_zero():
        payload["residual"] = str(outcome.residual)
        lines.append(f"residual: {outcome.residual}")
    _emit(args, payload, lines)
    return EXIT_NONE


def _cmd_bitsize(args) -> int:
    cert = parse_certificate(_read(args.file))
    report = bit_size(cert)
    payload = {k: getattr(report, k) for k in (
        "max_numerator_bits", "max_denominator_bits", "total_bits",
        "coefficient_count")}
    norm = coefficient_norm(cert.sigma.to_polynomial())
    payload["sigma_expansion_norm"] = str(norm)
    _emit(args, payload, [
        f"max numerator bits: {report.max_numerator_bits}",
        f"max denominator bits: {report.max_denominator_bits}",
        f"total bits: {report.total_bits}",
        f"coefficients: {report.coefficient_count}",
        f"sigma expansion norm: {norm}",
    ])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsos",
        description="Symmetry-reduced sum-of-squares certificates "
                    "over exact rationals.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, file_help="problem file", degree=False,
            epsilon=False, output=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help=file_help)
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        if degree:
            p.add_argument("--degree", type=int, default=None)
        if epsilon:
            p.add_argument("--epsilon", default=None,
                           help="rational slack added to the target")
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="certificate output path")
        p.set_defaults(func=func)

    add("orbits", _cmd_orbits, "print variable counts before and after reduction",
        degree=True)
    add("reduce", _cmd_reduce, "reduce the file's polynomials modulo the domain")
    add("reynolds", _cmd_reynolds, "print group averages of the file's polynomials")
    add("prove", lambda a: _run_search(a, "prove"),
        "search for an invariant proof of the target", degree=True,
        epsilon=True, output=True)
    add("refute", lambda a: _run_search(a, "refute"),
        "search for an invariant refutation of the constraints", degree=True,
        output=True)
    add("pseudoexpect", _cmd_pseudoexpect,
        "search numerically for a symmetric pseudoexpectation", degree=True)
    add("verify", _cmd_verify, "check a certificate file exactly",
        file_help="certificate file")
    add("bitsize", _cmd_bitsize, "report coefficient bit sizes of a certificate",
        file_help="certificate file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads with, built on its first call in a process;
    parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimit, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SymsosError, OSError, UnicodeDecodeError) as exc:
        # Bad input, or an unreadable input or unwritable output path.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
