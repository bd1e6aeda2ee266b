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
