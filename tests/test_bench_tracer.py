"""The benchmark's tracer wraps program functions by name, from outside.

perfbench/tracer.py looks each entry point up where its caller finds it at
call time (for example symsos.pipeline.solve_feasibility).  A refactor that
renames or stops importing one of those names breaks the traced benchmark
run; this test makes it fail here first.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import ENTRY_POINTS, Tracer, _owner

    originals = [getattr(_owner(path), name) for path, name, _, _ in ENTRY_POINTS]
    tracer = Tracer()
    try:
        tracer.install()
        for path, name, _, _ in ENTRY_POINTS:
            assert hasattr(getattr(_owner(path), name), "__wrapped__"), (path, name)
    finally:
        tracer.uninstall()
    for (path, name, _, _), original in zip(ENTRY_POINTS, originals):
        assert getattr(_owner(path), name) is original, (path, name)


def test_traced_commands_keep_their_answers(monkeypatch, tmp_path, capsys):
    # the wrappers and their counter hooks see real calls: a changed return
    # shape of a wrapped function fails here, not in the traced benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer
    from symsos import cli

    refute = tmp_path / "k2.sos"
    refute.write_text("vars: 2\ngroup: S(2)\ndomain: {0,1}\neq: x1 + x2 - 5/2\n"
                      "target: refute\n")
    dual = tmp_path / "k3.sos"
    dual.write_text("vars: 3\ngroup: S(3)\ndomain: {0,1}\neq: x1 + x2 + x3 - 3/2\n"
                    "target: refute\n")
    tracer = Tracer()
    tracer.begin_pass()
    tracer.install()
    try:
        assert cli.main(["refute", str(refute), "--json"]) == 0
        assert cli.main(["pseudoexpect", str(dual), "--json"]) == 0
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert '"status": "certified"' in out
    assert '"valid_within_tolerance": true' in out
    metrics = tracer.pass_metrics()
    for name in ("symmetry.pair_orbits", "groebner.reduce_calls", "sdp.solve_calls",
                 "sdp.rows", "linalg.psd_calls", "certificates.total_bits"):
        assert metrics[name] > 0, name
    assert metrics["sdp.solve_calls"] == 2
    labels = {span[0] for span in tracer.spans}
    assert {"pipeline.find_pseudoexpectation", "pipeline.check_pseudoexpectation",
            "pipeline.refute_invariant_system"} <= labels
