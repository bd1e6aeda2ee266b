"""Write every output of the benchmark workloads into one directory.

    python tests/workload_outputs.py DIR

For each instance in perfbench/workloads.py (imported, never changed) this
writes the problem file and runs symsos from this checkout's src/ on it, in
process: refute or prove --json (refute on the feasible instances, as the
benchmark does), then verify --json and bitsize --json on the certificate
when there is one, pseudoexpect --json and orbits --json, and reduce
--json and reynolds --json, which print each parsed polynomial reduced or
averaged, so the outputs also cover the problem-file parser.  Each run's
exit code, stdout and stderr go to DIR/<instance>.<command>.out, and the
certificate to DIR/<instance>.cert.json.  The problem files live in a
temporary directory whose path is written as <tmp>, so the outputs of two
checkouts (copy this file into the other one) compare with one
`diff -r DIR1 DIR2`.  DIR must not exist yet.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from symsos import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(argv: list[str], tmp: str) -> tuple[int, str]:
    """symsos's exit code on argv, and its exit code, stdout and stderr
    as one text with tmp written as <tmp>."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return code, text.replace(tmp, "<tmp>")


def write_outputs(directory: Path) -> None:
    directory.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        for workload, instances in WORKLOADS.items():
            for inst in instances():
                name = f"{workload}.{inst.name}"
                problem = Path(tmp, name + ".txt")
                problem.write_text(inst.problem_text(), encoding="utf-8")
                path = str(problem)
                search = "refute" if inst.feasible else inst.command
                code, text = run([search, path, "--json"], tmp)
                outputs = {search: text}
                cert = Path(path + ".cert.json")
                if code == 0:
                    (directory / f"{name}.cert.json").write_bytes(cert.read_bytes())
                    for command in ("verify", "bitsize"):
                        outputs[command] = run([command, str(cert), "--json"], tmp)[1]
                for command in ("pseudoexpect", "orbits", "reduce", "reynolds"):
                    outputs[command] = run([command, path, "--json"], tmp)[1]
                for command, text in outputs.items():
                    (directory / f"{name}.{command}.out").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_outputs(Path(sys.argv[1]))
