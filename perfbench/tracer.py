"""Spans around the public entry points of each symsos module.

The wrappers are installed from outside the program, on the name the
caller looks up at call time: pipeline binds its helpers with
`from .x import f`, so those names are wrapped in symsos.pipeline, the
CLI's in symsos.cli, and the linalg helpers (looked up as linalg.f) in
symsos.linalg.  A span is (name, start, end, parent, pass); a span's self
time is its duration minus that of its child spans, and goes to the
metric its entry point names below.  poly arithmetic has no spans of its
own and counts as self time of the layer that calls it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict


def _pair_orbits(tracer, args, result):
    if result is not None:
        tracer.counts["symmetry.pair_orbits"] += len(result)


def _calls(metric: str):
    def hook(tracer, args, result):
        tracer.counts[metric] += 1
    return hook


def _solve(tracer, args, result):
    system = args[0]
    counts = tracer.counts
    counts["sdp.solve_calls"] += 1
    counts["sdp.rows"] += system.k1
    counts["sdp.psd_unknowns"] += system.k2
    counts["sdp.free_scalars"] += system.k3
    counts["sdp.gram_dim"] = max(counts["sdp.gram_dim"], system.gram_dim)
    if result is not None:
        counts["sdp.solve_iters"] += result.iterations


def _bit_size(tracer, args, result):
    if result is not None:
        tracer.counts["certificates.total_bits"] += result.total_bits


# (where the caller looks the name up, name, metric taking its self time,
#  counter hook)
ENTRY_POINTS = [
    ("symsos.cli", "main", "cli.self_s", None),
    ("symsos.cli", "parse_problem", "problem.parse_s", None),
    ("symsos.problem", "parse_problem", "problem.parse_s", None),
    ("symsos.problem.ProblemFile", "instance", "problem.parse_s", None),
    ("symsos.cli", "refute_invariant_system", "pipeline.self_s", None),
    ("symsos.cli", "prove_invariant", "pipeline.self_s", None),
    ("symsos.cli", "find_pseudoexpectation", "pipeline.self_s", None),
    ("symsos.cli", "check_pseudoexpectation", "pipeline.self_s", None),
    ("symsos.pipeline", "variable_count_report", "pipeline.accounting_s", None),
    ("symsos.pipeline", "enumerate_pair_orbits", "symmetry.orbits_s", _pair_orbits),
    ("symsos.pipeline", "enumerate_monomial_orbits", "symmetry.orbits_s", None),
    ("symsos.pipeline", "orbit_indicator_matrices", "symmetry.orbits_s", None),
    ("symsos.pipeline", "monomial_orbit_elements", "symmetry.orbits_s", None),
    ("symsos.pipeline", "canonical_monomial", "symmetry.orbits_s", None),
    ("symsos.pipeline", "is_invariant", "symmetry.orbits_s", None),
    ("symsos.pipeline", "is_invariant_system", "symmetry.orbits_s", None),
    ("symsos.pipeline", "reduce_polynomial", "groebner.reduce_s",
     _calls("groebner.reduce_calls")),
    ("symsos.pipeline", "reconstruct_proof", "groebner.reconstruct_s", None),
    ("symsos.pipeline", "solve_feasibility", "sdp.solve_s", _solve),
    ("symsos.pipeline", "rationalize", "sdp.rationalize_s",
     _calls("sdp.rationalize_calls")),
    ("symsos.pipeline", "combination", "sdp.combination_s", None),
    ("symsos.linalg", "psd_certificate", "linalg.psd_s",
     _calls("linalg.psd_calls")),
    ("symsos.linalg", "min_norm_correction", "linalg.min_norm_s", None),
    ("symsos.linalg", "rref_solve", "linalg.min_norm_s", None),
    ("symsos.pipeline", "verify", "certificates.verify_s", None),
    ("symsos.cli", "verify", "certificates.verify_s", None),
    ("symsos.pipeline", "bit_size", "certificates.bit_size_s", _bit_size),
    ("symsos.cli", "serialize_certificate", "certificates.serialize_s", None),
    ("symsos.cli", "parse_certificate", "certificates.parse_s", None),
]

TIME_METRICS = sorted({metric for _, _, metric, _ in ENTRY_POINTS})
COUNT_METRICS = ["symmetry.pair_orbits", "groebner.reduce_calls",
                 "sdp.solve_calls", "sdp.solve_iters", "sdp.rationalize_calls",
                 "sdp.gram_dim", "sdp.rows", "sdp.psd_unknowns",
                 "sdp.free_scalars", "linalg.psd_calls", "certificates.total_bits"]


def _owner(path: str):
    """The module, or the class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Keeps every span in memory; per-pass sums of self times and counts."""

    def __init__(self):
        self.spans: list = []
        self.pass_index = 0
        self.self_times: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list = []  # [span index, time spent in child spans]
        self._saved: list = []

    def _wrap(self, fn, metric: str, hook):
        label = f"{fn.__module__.removeprefix('symsos.')}.{fn.__qualname__}"
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[frame[0]] = (label, start, end, parent, self.pass_index)
                self.self_times[metric] += (end - start) - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                if hook is not None:
                    hook(self, args, result)
            return iter(result) if generator else result

        return wrapper

    def install(self) -> None:
        for path, name, metric, hook in ENTRY_POINTS:
            owner = _owner(path)
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, metric, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.self_times.clear()
        self.counts.clear()

    def pass_metrics(self) -> dict:
        out = {m: self.self_times.get(m, 0.0) for m in TIME_METRICS}
        out.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for label, start, end, parent, index in self.spans:
                handle.write(json.dumps({"name": label, "start": start, "end": end,
                                         "parent": parent, "pass": index}) + "\n")
