"""symsos benchmark: problem file to exactly checked answer on the Boolean cube.

    python3 perfbench/run.py --workload refute-boolean --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; symsos is imported from ./src.
Each run sets up (imports symsos, writes the workload's problem files),
then repeats passes over the workload's instances in a closed loop, one
operation after another, through symsos.cli.main called in-process.  A
pass is started only while it is expected to end within --seconds.  The
last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per layer with
--trace 1).  --workload all runs every workload, each in its own process,
one after the other.  See README.md for the workloads and metrics.
"""

import os

# One BLAS thread: the benchmark measures the program, not thread scheduling.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_certificate, check_dual, checker_self_test
from tracer import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def import_cli():
    if not (SRC / "symsos" / "__init__.py").is_file():
        sys.exit(f"error: no symsos sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import symsos.cli
    if Path(symsos.cli.__file__).resolve().parent != (SRC / "symsos").resolve():
        sys.exit(f"error: imported symsos from {symsos.cli.__file__}, not {SRC}")
    return symsos.cli


def set_up(workload: str, directory: Path):
    """Import symsos and write the workload's problem files."""
    cli = import_cli()
    directory.mkdir(parents=True)
    items = []
    for inst in WORKLOADS[workload]():
        path = directory / f"{inst.name}.sos"
        path.write_text(inst.problem_text(), encoding="utf-8")
        items.append((inst, str(path)))
    return cli, items


def measure_setup(workload: str, work: Path) -> float:
    """Median wall time of fresh processes that only set up."""
    times = []
    for i in range(SETUP_PROBES):
        directory = work / f"setup-{i}"
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--setup-probe", str(directory)],
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        shutil.rmtree(directory)
    return statistics.median(times)


def call(cli, argv):
    """(seconds, exit code or exception, stdout) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is recorded as a failed operation
        code = exc
    return time.perf_counter() - start, code, out.getvalue()


def _no_answer_reason(stdout: str) -> str:
    try:
        return json.loads(stdout).get("reason", "no reason given")
    except json.JSONDecodeError:
        return "unreadable answer"


class Run:
    def __init__(self, workload: str, seed: int, cli, items):
        self.workload, self.cli, self.items = workload, cli, items
        self.order_rng = random.Random(seed)
        self.point_rng = random.Random(seed + 1_000_003)
        self.first_evidence: dict = {}  # instance name -> (instance, bytes)
        self.attempted = 0
        self.failures: dict = {}  # (instance, op, reason) -> count
        self.problems: list = []  # wrong answers: correct becomes false

    def _fail(self, inst, op: str, reason: str) -> None:
        key = (inst.name, op, reason, inst.fault)
        self.failures[key] = self.failures.get(key, 0) + 1

    def _evidence(self, inst, data: bytes) -> bool:
        """Keep the first copy of an answer for the full check after the
        passes; later copies must equal it."""
        return self.first_evidence.setdefault(inst.name, (inst, data))[1] == data

    def check_answers(self) -> None:
        for inst, data in self.first_evidence.values():
            text = data.decode("utf-8")
            problems = (check_dual(text, inst) if inst.feasible
                        else check_certificate(text, inst, self.point_rng))
            self.problems += [f"{inst.name}: {p}" for p in problems]

    def one_pass(self) -> dict:
        """Seconds of each answer and each check, and evidence bytes, of one
        pass."""
        order = list(self.items)
        self.order_rng.shuffle(order)
        answers, checks = {}, {}
        evidence = documents = 0
        for inst, path in order:
            self.attempted += 1
            seconds, code, stdout = call(self.cli, ["refute" if inst.feasible
                                                    else inst.command,
                                                    path, "--json"])
            answers[inst.name] = seconds
            if isinstance(code, Exception):
                self._fail(inst, inst.command, f"{type(code).__name__}: {code}")
                continue
            if inst.feasible:
                if code != 1:
                    self.problems.append(f"{inst.name}: refute gave exit code {code} "
                                         "on a feasible instance (unsound)")
                check_op, argv = "pseudoexpect", ["pseudoexpect", path, "--json"]
            elif code == 0:
                cert = Path(path + ".cert.json").read_bytes()
                evidence += len(cert)
                documents += 1
                if not self._evidence(inst, cert):
                    self._fail(inst, inst.command, "certificate bytes differ "
                                                   "from the first pass")
                    continue
                check_op, argv = "verify", ["verify", path + ".cert.json"]
            else:
                reason = (_no_answer_reason(stdout) if code == 1
                          else f"exit code {code}")
                self._fail(inst, inst.command, reason)
                continue
            self.attempted += 1
            seconds, code, stdout = call(self.cli, argv)
            checks[inst.name] = seconds
            if code != 0:
                self._fail(inst, check_op, f"exit code {code}" if not isinstance(
                    code, Exception) else f"{type(code).__name__}: {code}")
                continue
            if check_op == "pseudoexpect":
                data = stdout.encode("utf-8")
                evidence += len(data)
                documents += 1
                if not self._evidence(inst, data):
                    self._fail(inst, check_op, "dual differs from the first pass")
        wall, check = sum(answers.values()), sum(checks.values())
        return {"answers": answers, "checks": checks, "wall_s": wall,
                "check_s": check, "cli_s": wall + check,
                "evidence_bytes": evidence / max(documents, 1)}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_passes(run: Run, seconds: float, tracer) -> list:
    """Repeat passes while the next is expected to end within `seconds`.
    With a tracer, passes alternate untraced and traced."""
    start = time.perf_counter()
    longest = 0.0
    rows = []
    while True:
        traced = tracer is not None and len(rows) % 2 == 1
        if traced:
            tracer.begin_pass()
            tracer.install()
        try:
            row = run.one_pass()
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, row["cli_s"])
        row["traced"] = traced
        if traced:
            row.update(tracer.pass_metrics())
        rows.append(row)
        needed = 2 if tracer is not None else 1
        if len(rows) >= needed and time.perf_counter() - start + longest > seconds:
            return rows


def _median(rows, key):
    return statistics.median(row[key] for row in rows)


def _op_medians(rows, key) -> list:
    """Per operation, the median of its seconds over the passes it ran in."""
    names = {name for row in rows for name in row[key]}
    return [statistics.median(row[key][name] for row in rows if name in row[key])
            for name in sorted(names)]


def end_to_end(rows, setup_s: float) -> dict:
    """wall_s is a pass made of each answer's median time; check_s is the
    mean over checks of each check's median time."""
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = _op_medians(rows, "checks")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": sum(_op_medians(rows, "answers")), "unit": "s"},
        "check_s": {"value": sum(checks) / max(len(checks), 1), "unit": "s"},
        "evidence_bytes": {"value": _median(rows, "evidence_bytes"), "unit": "bytes"},
        "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
    }


def per_layer(rows) -> dict:
    traced = [r for r in rows if r["traced"]]
    plain = [r for r in rows if not r["traced"]]
    out = {m: {"value": _median(traced, m), "unit": "s"} for m in TIME_METRICS}
    out.update({m: {"value": _median(traced, m), "unit": "count"}
                for m in COUNT_METRICS})
    traced_s, plain_s = _median(traced, "cli_s"), _median(plain, "cli_s")
    unattributed = statistics.median(
        r["cli_s"] - sum(r[m] for m in TIME_METRICS) for r in traced)
    out["trace.pass_s"] = {"value": traced_s, "unit": "s"}
    out["trace.untraced_pass_s"] = {"value": plain_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    out["trace.unattributed_s"] = {"value": unattributed, "unit": "s"}
    return out


def report(run: Run, rows, metrics: dict) -> None:
    print(f"workload {run.workload}: {len(rows)} passes, "
          f"{run.attempted} operations attempted, {run.failed} failed")
    for (name, op, reason, fault), count in sorted(run.failures.items()):
        known = f"known fault: {fault}" if fault else "NOT A KNOWN FAULT"
        print(f"  failed {count}x {op} {name}: {reason} [{known}]")
    for problem in run.problems:
        print(f"  WRONG ANSWER {problem}")
    for i, row in enumerate(rows):
        print(f"  pass {i}{' (traced)' if row['traced'] else ''}: "
              f"answers {row['wall_s']:.4f} s, checks {row['check_s']:.4f} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)],
                              timeout=CHILD_TIMEOUT_S)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        set_up(args.workload, Path(args.setup_probe))
        return 0
    if args.workload == "all":
        return run_all(args)

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cli, items = set_up(args.workload, work / "problems")
        setup_s = measure_setup(args.workload, work)
        run = Run(args.workload, args.seed, cli, items)
        run.problems += checker_self_test(random.Random(args.seed))
        tracer = Tracer() if args.trace else None
        rows = run_passes(run, args.seconds, tracer)
        metrics = per_layer(rows) if tracer else end_to_end(rows, setup_s)
        run.check_answers()
        if tracer:
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(run, rows, metrics)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
