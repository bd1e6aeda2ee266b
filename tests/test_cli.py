import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest

from symsos import cli, pipeline
from symsos.certificates import parse_certificate, serialize_certificate
from symsos.sdp import FeasibilitySystem

KNAPSACK2 = "vars: 2\ngroup: S(2)\ndomain: {0,1}\neq: x1 + x2 - 5/2\ntarget: refute\n"
SATISFIABLE = "vars: 2\ngroup: S(2)\ndomain: {0,1}\neq: x1 + x2 - 1\ntarget: refute\n"
PROVE = "vars: 2\ngroup: S(2)\ndomain: {0,1}\neq: x1 + x2 - 2\ntarget: x1*x2\n"
KNAPSACK3 = "vars: 3\ngroup: S(3)\ndomain: {0,1}\neq: x1 + x2 + x3 - 3/2\n" \
            "target: refute\n"


def tight_e2(n, slack=0):
    """e2(x) >= C(n/2, 2) - slack given sum x_i = n/2 over {0,1}^n: at slack
    0 it holds with equality on every feasible point."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    e2 = " + ".join(f"{a}*{b}" for a, b in itertools.combinations(xs, 2))
    return (f"vars: {n}\ngroup: S({n})\ndomain: {{0,1}}\n"
            f"eq: {' + '.join(xs)} - {n // 2}\n"
            f"target: {e2} - {math.comb(n // 2, 2) - slack}\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_refute_verify_bitsize_flow(tmp_path, capsys):
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    cert_path = str(tmp_path / "k2.cert.json")
    assert cli.main(["refute", problem, "-o", cert_path]) == 0
    out = capsys.readouterr().out
    assert "certified:" in out
    assert cert_path in out

    assert cli.main(["verify", cert_path]) == 0
    assert "certified:" in capsys.readouterr().out

    assert cli.main(["bitsize", cert_path]) == 0
    out = capsys.readouterr().out
    assert "max numerator bits:" in out
    assert "sigma expansion norm:" in out


def test_refute_deterministic_bytes(tmp_path, capsys):
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    first = str(tmp_path / "a.cert.json")
    second = str(tmp_path / "b.cert.json")
    assert cli.main(["refute", problem, "-o", first]) == 0
    assert cli.main(["refute", problem, "-o", second]) == 0
    capsys.readouterr()
    assert open(first, "rb").read() == open(second, "rb").read()


def test_default_output_path(tmp_path, capsys):
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    assert cli.main(["refute", problem]) == 0
    capsys.readouterr()
    assert (tmp_path / "k2.sos.cert.json").exists()


def test_satisfiable_reports_no_certificate(tmp_path, capsys):
    problem = write(tmp_path, "sat.sos", SATISFIABLE)
    assert cli.main(["refute", problem]) == 1
    out = capsys.readouterr().out
    assert "no-certificate-at-degree (numeric evidence)" in out
    assert "certified" not in out


def test_verify_rejects_mutation(tmp_path, capsys):
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    cert_path = str(tmp_path / "k2.cert.json")
    assert cli.main(["refute", problem, "-o", cert_path]) == 0
    capsys.readouterr()
    cert = parse_certificate(open(cert_path).read())
    mult, constraint = cert.equality_multipliers[0]
    bad = dataclasses.replace(
        cert,
        equality_multipliers=[(mult + 1, constraint)]
        + cert.equality_multipliers[1:])
    bad_path = write(tmp_path, "bad.cert.json", serialize_certificate(bad))
    assert cli.main(["verify", bad_path]) == 1
    out = capsys.readouterr().out
    assert "rejected:" in out
    assert "residual:" in out


def test_prove_flow(tmp_path, capsys):
    problem = write(tmp_path, "p.sos", PROVE)
    cert_path = str(tmp_path / "p.cert.json")
    assert cli.main(["prove", problem, "-o", cert_path,
                     "--epsilon", "1/64"]) == 0
    out = capsys.readouterr().out
    assert "certified:" in out
    assert "epsilon: 1/64" in out
    assert cli.main(["verify", cert_path]) == 0
    capsys.readouterr()


def test_pseudoexpect_output(tmp_path, capsys):
    problem = write(tmp_path, "k3.sos", KNAPSACK3)
    assert cli.main(["pseudoexpect", problem]) == 0
    out = capsys.readouterr().out
    assert "floating point evidence" in out
    assert "L[x1]" in out
    assert "validity within tolerance: True" in out
    assert "certified" not in out


def test_pseudoexpect_none_for_contradiction(tmp_path, capsys):
    problem = write(tmp_path, "c.sos",
                    "vars: 1\ndomain: {0,1}\neq: 1\ntarget: refute\ndegree: 2\n")
    assert cli.main(["pseudoexpect", problem]) == 1
    assert "no pseudoexpectation found" in capsys.readouterr().out


def built_systems(monkeypatch):
    """Every FeasibilitySystem the pipeline builds, in order."""
    built = []

    def record(**fields):
        built.append(FeasibilitySystem(**fields))
        return built[-1]

    monkeypatch.setattr(pipeline, "FeasibilitySystem", record)
    return built


def test_pseudoexpect_builds_one_moment_system_per_command(tmp_path, capsys,
                                                           monkeypatch):
    # find and check share one build; the next command keeps nothing of it
    problem = write(tmp_path, "k3.sos", KNAPSACK3)
    built = built_systems(monkeypatch)
    assert cli.main(["pseudoexpect", problem, "--json"]) == 0
    assert len(built) == 1
    first = capsys.readouterr().out
    assert json.loads(first)["valid_within_tolerance"] is True
    assert cli.main(["pseudoexpect", problem, "--json"]) == 0
    assert len(built) == 2 and built[0] is not built[1]
    assert capsys.readouterr().out == first


def test_orbits_report(tmp_path, capsys):
    problem = write(tmp_path, "k4.sos",
                    "vars: 4\ngroup: S(4)\ndomain: {0,1}\n"
                    "eq: x1 + x2 + x3 + x4 - 9/2\ntarget: refute\n")
    assert cli.main(["orbits", problem]) == 0
    out = capsys.readouterr().out
    assert "pair orbits: 5" in out
    assert "after reduction:  5" in out


def test_orbits_json(tmp_path, capsys):
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    assert cli.main(["orbits", problem, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2
    assert payload["after_variables"] <= payload["before_variables"]


def test_orbits_json_counts_the_multilinear_basis(tmp_path, capsys):
    # d=2 on {0,1}^4: 1 + 4 + 6 multilinear monomials; their 14 ordered pair
    # orbits merge into 10 indicators, plus one scalar for the constraint
    problem = write(tmp_path, "k4.sos",
                    "vars: 4\ngroup: S(4)\ndomain: {0,1}\n"
                    "eq: x1 + x2 + x3 + x4 - 9/2\ntarget: refute\ndegree: 2\n")
    assert cli.main(["orbits", problem, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"n": 4, "gram_degree": 2, "w_size": 11, "pair_orbit_count": 14,
                       "indicator_count": 10, "constraint_orbit_count": 1,
                       "before_variables": 11 * 12 // 2 + math.comb(4 + 3, 3),
                       "after_variables": 11}


def test_verify_of_a_1500_variable_certificate_exits_0(tmp_path, capsys):
    # 1 = sigma with sigma = [[1]] over the degree-0 basis: nothing in
    # verify may recurse once per variable
    n = 1500
    doc = {"format": "symsos.certificate/1", "variables": n, "mode": "general",
           "degree_bound": 0, "target": [[[0] * n, "1"]],
           "sigma_basis_degree": 0, "sigma": [["1/1"]],
           "equality_multipliers": [], "groebner_multipliers": []}
    path = write(tmp_path, "big.cert.json", json.dumps(doc))
    assert cli.main(["verify", path]) == cli.EXIT_OK
    assert "certified:" in capsys.readouterr().out


def one_is_one(**changes):
    """The document 1 = sigma, sigma = [[1]] over the degree-0 basis in one
    variable, with the given fields replaced."""
    doc = {"format": "symsos.certificate/1", "variables": 1, "mode": "general",
           "degree_bound": 0, "target": [[[0], "1/1"]],
           "sigma_basis_degree": 0, "sigma": [["1/1"]],
           "equality_multipliers": [], "groebner_multipliers": []}
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("changes,norm", [
    ({}, "1"),
    # 6 x1 x2 over (1, x1, x2): its multinomial weight is 2
    ({"variables": 2, "sigma_basis_degree": 1, "target": [],
      "sigma": [["0/1"] * 3, ["0/1", "0/1", "3/1"], ["0/1", "3/1", "0/1"]]}, "3"),
], ids=["one", "cross-term"])
def test_bitsize_reports_the_sigma_expansion_norm(tmp_path, capsys, changes, norm):
    path = write(tmp_path, "c.cert.json", one_is_one(**changes))
    assert cli.main(["bitsize", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_expansion_norm"] == norm


@pytest.mark.parametrize("field,value", [
    ("target", [[[0.5], "1/1"]]),
    ("target", [[[True], "1/1"]]),
    ("target", [[["0"], "1/1"]]),
    ("variables", 1.0),
    ("variables", True),
    ("degree_bound", 2.5),
    ("sigma_basis_degree", False),
    # a rational must be a "num/den" string: 0.1 would read as its binary value
    ("target", [[[0], 1.0]]),
    ("target", [[[0], 0.1]]),
    ("sigma", [[True]]),
    ("sigma", [[None]]),
    ("equality_multipliers", [{"constraint": [[[1], "1/1"]], "scalar": 0.0}]),
    # two 1/2 terms: summed they are the target, the last alone is not
    ("target", [[[0], "1/2"], [[0], "1/2"]]),
], ids=["exponent-0.5", "exponent-true", "exponent-string", "variables-1.0",
        "variables-true", "degree-bound-2.5", "basis-degree-false",
        "coefficient-1.0", "coefficient-0.1", "sigma-true", "sigma-null",
        "scalar-0.0", "repeated-monomial"])
@pytest.mark.parametrize("command", ["verify", "bitsize"])
def test_non_integer_fields_exit_2(tmp_path, capsys, command, field, value):
    assert cli.main([command, write(tmp_path, "ok.cert.json", one_is_one())]) == 0
    capsys.readouterr()
    path = write(tmp_path, "bad.cert.json", one_is_one(**{field: value}))
    assert cli.main([command, path]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith("error: ")


# -1 = -4 (x1 - 1/2)^2 + 4 (x1^2 - x1), the README's example certificate.
README_REFUTATION = {
    "format": "symsos.certificate/1", "variables": 1, "mode": "normal-form",
    "degree_bound": 2, "target": [[[0], "-1/1"]], "sigma_basis_degree": 0,
    "sigma": [["0/1"]],
    "equality_multipliers": [
        {"constraint": [[[1], "1/1"], [[0], "-1/2"]], "scalar": "-4/1"}],
    "groebner_multipliers": [
        {"generator": [[[2], "1/1"], [[1], "-1/1"]], "multiplier": [[[0], "4/1"]]}],
}


@pytest.mark.parametrize("problem", [None, tight_e2(8, slack=1)],
                         ids=["readme-refutation", "prove-e2-S8-d1"])
def test_indented_certificates_read_as_their_compact_rewrite(tmp_path, capsys, problem):
    # files written before certificates became one compact line still read
    if problem is None:
        compact = serialize_certificate(parse_certificate(json.dumps(README_REFUTATION)))
        assert compact == json.dumps(README_REFUTATION, sort_keys=True,
                                     separators=(",", ":")) + "\n"
    else:
        cert = str(tmp_path / "e2.cert.json")
        assert cli.main(["prove", write(tmp_path, "e2.sos", problem), "-o", cert]) == 0
        compact = open(cert).read()
    assert compact.count("\n") == 1 and compact.endswith("\n")
    indented = json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n"
    capsys.readouterr()
    outputs = []
    for name, text in (("compact.cert.json", compact), ("indented.cert.json", indented)):
        path = write(tmp_path, name, text)
        for command in ("verify", "bitsize"):
            assert cli.main([command, path, "--json"]) == cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]


def test_reduce_command(tmp_path, capsys):
    problem = write(tmp_path, "r.sos",
                    "vars: 1\ndomain: {0,1}\neq: x1^2 + x1\ntarget: refute\n")
    assert cli.main(["reduce", problem]) == 0
    assert "2*x1" in capsys.readouterr().out


def test_reduce_without_basis_is_usage_error(tmp_path, capsys):
    problem = write(tmp_path, "r.sos", "vars: 1\neq: x1\ntarget: refute\n")
    assert cli.main(["reduce", problem]) == 2
    assert capsys.readouterr().err == (
        "error: nothing to reduce by (no domain or groebner lines)\n")


def test_reynolds_command(tmp_path, capsys):
    problem = write(tmp_path, "r.sos",
                    "vars: 2\ngroup: S(2)\ndomain: {0,1}\neq: x1\n"
                    "target: refute\n")
    assert cli.main(["reynolds", problem]) == 0
    assert "1/2*x1 + 1/2*x2" in capsys.readouterr().out
    target = write(tmp_path, "t.sos", "vars: 2\ngroup: S(2)\ntarget: x1 + x2\n")
    assert cli.main(["reynolds", target]) == 0
    assert capsys.readouterr().out == "target: x1 + x2  ->  x1 + x2\n"
    empty = write(tmp_path, "e.sos", "vars: 2\ndomain: {0,1}\n")
    assert cli.main(["reynolds", empty]) == 2
    assert capsys.readouterr().err == "error: no polynomials to average\n"


def test_search_over_the_solver_cap_exits_3(tmp_path, capsys):
    # no group: 40 variables leave 861 Gram unknowns and one free scalar
    xs = " + ".join(f"x{i}" for i in range(1, 41))
    problem = write(tmp_path, "wide.sos",
                    f"vars: 40\ndomain: {{0,1}}\neq: {xs} - 1/2\ndegree: 1\n")
    assert cli.main(["refute", problem]) == 3
    assert "exceed solver cap" in capsys.readouterr().err
    assert cli.main(["orbits", problem]) == 0  # the report still counts them
    assert "scalar unknowns after reduction:  862" in capsys.readouterr().out


def test_parse_error_exits_2(tmp_path, capsys):
    problem = write(tmp_path, "bad.sos", "vars: 2\nnope: 1\n")
    assert cli.main(["orbits", problem]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("generator", ["0", "x1 - x1"])
@pytest.mark.parametrize("command", ["refute", "reduce", "orbits"])
def test_zero_groebner_generator_exits_2(tmp_path, capsys, command, generator):
    problem = write(tmp_path, "zero.sos",
                    f"vars: 2\ngroebner: x1^2 - x1\ngroebner:  {generator}\n"
                    "eq: x1 + x2 - 1/2\ntarget: refute\n")
    assert cli.main([command, problem]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: groebner generator is zero")
    assert "(line 3, column 12)" in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_degree_flag_overrides_file(tmp_path, capsys):
    problem = write(tmp_path, "sat.sos", SATISFIABLE)
    assert cli.main(["refute", problem, "--degree", "2"]) == 1
    capsys.readouterr()


def test_json_search_output(tmp_path, capsys):
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    cert_path = str(tmp_path / "k2.cert.json")
    assert cli.main(["refute", problem, "--json", "-o", cert_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "certified"
    assert payload["certificate"] == cert_path


def test_prove_tight_target_exits_with_documented_code(tmp_path, capsys):
    # At n=16 the target is tight, so the solver ends near the cone's
    # boundary, where a factorisation can fail; that must end the search,
    # not the CLI.
    problem = write(tmp_path, "tight.sos", tight_e2(16))
    code = cli.main(["prove", problem, "--json"])
    assert code in (cli.EXIT_OK, cli.EXIT_NONE)
    json.loads(capsys.readouterr().out)


def test_seed_flag_is_rejected(tmp_path, capsys):
    # The solver makes one deterministic attempt with fixed settings; there
    # is no seed, tolerance, denominator bound or step budget to set.
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    for flag, value in (("--seed", "0"), ("--tolerance", "1e-6"),
                        ("--denom-bound", "1000"), ("--max-iters", "4000")):
        with pytest.raises(SystemExit) as info:
            cli.main(["refute", problem, flag, value])
        assert info.value.code == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("line", ["seed: 0\n", "restarts: 3\n", "tolerance: 1e-6\n",
                                  "denom-bound: 1000\n", "max-iters: 4000\n"],
                         ids=["seed", "restarts", "tolerance", "denom-bound",
                              "max-iters"])
def test_restart_keys_are_unknown(tmp_path, capsys, line):
    problem = write(tmp_path, "k2.sos", KNAPSACK2 + line)
    assert cli.main(["refute", problem]) == cli.EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1/0", "1/2/3", "1e-3", "1_000", "1/-2",
                                   "-1/-2"])
def test_bad_epsilon_exits_2(tmp_path, capsys, value):
    problem = write(tmp_path, "p.sos", PROVE)
    assert cli.main(["prove", problem, f"--epsilon={value}"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        f"error: bad rational literal {value!r}")


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize("command", ["refute", "verify"])
def test_unreadable_input_exits_2(tmp_path, capsys, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"vars: 2\n\xff\n")
    assert cli.main([command, str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys):
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    assert cli.main(["refute", problem, "-o", str(tmp_path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command,flags", [
    ("refute", ["--epsilon", "7"]),
    ("pseudoexpect", ["--epsilon", "7"]),
    ("pseudoexpect", ["-o", "out.json"]),
    ("reduce", ["--degree", "1"]),
    ("reynolds", ["--degree", "1"]),
], ids=["refute-epsilon", "pseudoexpect-epsilon", "pseudoexpect-output",
        "reduce-degree", "reynolds-degree"])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, command, flags):
    problem = write(tmp_path, "k2.sos", KNAPSACK2)
    with pytest.raises(SystemExit) as info:
        cli.main([command, problem] + flags)
    assert info.value.code == cli.EXIT_USAGE
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prove", "orbits", "pseudoexpect"])
def test_groebner_leads_the_group_moves_exit_2(tmp_path, capsys, command):
    # S(2) maps the leading monomial x1^2 to x2^2, which it does not divide
    problem = write(tmp_path, "lead.sos",
                    "vars: 2\ngroup: S(2)\ngroebner: x1^2 - x1\n"
                    "target: x1^4 + x2^4\ndegree: 2\n")
    assert cli.main([command, problem]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the group does not permute")


MOVED_RING = "vars: 2\ngroebner: x1^2 - x1\ngroebner: x2^2 - 2*x2\ntarget: x1 + x2\n"


@pytest.mark.parametrize("command", ["prove", "orbits", "pseudoexpect"])
def test_a_ring_the_group_moves_exit_2(tmp_path, capsys, command):
    # S(2) maps x1^2 - x1 to x2^2 - x2, which is not in the ideal
    problem = write(tmp_path, "moved.sos", "group: S(2)\n" + MOVED_RING)
    assert cli.main([command, problem]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the group does not map the ideal")


SEARCH_REJECTS = {
    "not-closed": ("refute", "vars: 2\ngroup: S(2)\ndomain: {0,1}\neq: x1 - 1/2\n"
                             "target: refute\n",
                   "error: equality constraints are not closed under the group"),
    "target-moved": ("prove", "vars: 2\ngroup: S(2)\ndomain: {0,1}\ntarget: x1\n",
                     "error: target polynomial is not invariant under the group"),
    "nothing-to-refute": ("refute", "vars: 2\ngroup: S(2)\ndomain: {0,1}\n"
                                    "target: refute\n",
                          "error: nothing to refute: no equality constraints"),
    "no-domain": ("refute", "vars: 2\ngroup: S(2)\neq: x1 + x2 - 1/2\ntarget: refute\n",
                  "error: refutation needs a finite product domain"),
}


@pytest.mark.parametrize("case", sorted(SEARCH_REJECTS))
def test_orbits_rejects_what_the_search_rejects(tmp_path, capsys, case):
    search, text, message = SEARCH_REJECTS[case]
    problem = write(tmp_path, "p.sos", text)
    first_lines = []
    for command in (search, "orbits"):
        assert cli.main([command, problem]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        first_lines.append(captured.err.splitlines()[0])
    assert first_lines == [message, message]


def test_the_moved_ring_certifies_without_the_group(tmp_path, capsys):
    problem = write(tmp_path, "moved.sos", MOVED_RING)
    assert cli.main(["prove", problem]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("certified")


def test_main_builds_its_parser_once():
    assert cli._parser() is cli._parser()
