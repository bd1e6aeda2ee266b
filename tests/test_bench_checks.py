"""The benchmark's own certificate reader accepts what the CLI writes.

perfbench/checks.py reads certificate files with json and Fraction alone,
without importing symsos.  Two workload certificates written through
symsos.cli.main must pass every check it makes, so a change to the file
format fails here before it fails a benchmark run.
"""

import random
from pathlib import Path

import pytest

from symsos import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["refute-d2-n4", "e2-8-d1-slack1"])
def test_the_benchmark_reader_accepts_cli_certificates(monkeypatch, tmp_path,
                                                       capsys, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from checks import check_certificate
    from workloads import WORKLOADS

    inst = next(inst for make in WORKLOADS.values() for inst in make()
                if inst.name == name)
    problem = tmp_path / f"{name}.sos"
    problem.write_text(inst.problem_text())
    cert = tmp_path / f"{name}.cert.json"
    assert cli.main([inst.command, str(problem), "-o", str(cert)]) == cli.EXIT_OK
    capsys.readouterr()
    assert check_certificate(cert.read_text(), inst, random.Random(7)) == []
