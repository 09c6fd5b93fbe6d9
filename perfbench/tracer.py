"""Spans around the public functions of each diffevo layer, installed from outside.

The tracer replaces each target function with a wrapper that records a
span (name, parent span, start, end, note) in memory. Self time is a
span's duration minus the durations of its direct child spans. A target
that no longer exists in the program is reported as missing, and the
metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

# (span name, module, attribute); a dotted attribute is a method on a class
TARGETS = (
    ("cli.parse_benchmark", "diffevo.cli", "parse_benchmark"),
    ("benchmarks.load_tabular", "diffevo.benchmarks", "load_tabular"),
    ("benchmarks.make_synthetic", "diffevo.benchmarks", "make_synthetic"),
    ("de.run_de", "diffevo.de", "run_de"),
    ("baselines.run_random_search", "diffevo.baselines", "run_random_search"),
    ("baselines.run_regularized_evolution", "diffevo.baselines", "run_regularized_evolution"),
    ("trace.RunRecorder.evaluate", "diffevo.trace", "RunRecorder.evaluate"),
    ("trace.RunRecorder.finish", "diffevo.trace", "RunRecorder.finish"),
    ("space.SearchSpace.discretize", "diffevo.space", "SearchSpace.discretize"),
    ("benchmarks.TabularBenchmark.evaluate", "diffevo.benchmarks", "TabularBenchmark.evaluate"),
    ("benchmarks.FunctionBenchmark.evaluate", "diffevo.benchmarks", "FunctionBenchmark.evaluate"),
    ("trace.write_traces", "diffevo.trace", "write_traces"),
    ("trace.read_traces", "diffevo.trace", "read_traces"),
    ("harness.aggregate", "diffevo.harness", "aggregate"),
    ("harness.write_curve_csv", "diffevo.harness", "write_curve_csv"),
)
LOADS = ("cli.parse_benchmark", "benchmarks.load_tabular", "benchmarks.make_synthetic")
OPTIMIZERS = {"de.run_de": "de", "baselines.run_random_search": "rs",
              "baselines.run_regularized_evolution": "re"}
EVALUATES = ("benchmarks.TabularBenchmark.evaluate", "benchmarks.FunctionBenchmark.evaluate")
RAISED = "raised"


def _evaluation_note(args, result):
    """(configuration, valid) of one benchmark evaluation."""
    return args[1], getattr(result, "valid", True)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end, note]
        self._stack: list[int] = []
        self.missing: list[str] = []

    def install(self):
        """Wrap every target that exists in the loaded program."""
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, _evaluation_note if name in EVALUATES else None)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            # modules import functions by name, so replace every reference
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "diffevo" or mod_name.startswith("diffevo."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                stack.pop()
                span[4] = RAISED
                raise
            span[3] = clock()
            stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: Path):
        """Write the spans as JSON Lines: name, parent, start, end (seconds)."""
        with open(path, "w") as fh:
            for name, parent, start, end, _ in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")

    def summary(self, main_start: float, main_end: float) -> dict:
        """Per-name call counts and total/self seconds, plus layer counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = {}, {}, {}
        root_s = load_s = 0.0
        invalid = 0
        distinct: dict[int, set] = {}
        for i, (name, parent, start, end, note) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child[i]
            if parent < 0 and main_start <= start and end <= main_end:
                root_s += duration
            if name in LOADS and (parent < 0 or spans[parent][0] not in LOADS):
                load_s += duration
            if name in EVALUATES and note not in (None, RAISED):
                config, valid = note
                invalid += not valid
                run = parent
                while run >= 0 and spans[run][0] not in OPTIMIZERS:
                    run = spans[run][1]
                distinct.setdefault(run, set()).add(config)
        return {
            "missing": self.missing,
            "calls": calls,
            "total_s": total,
            "self_s": self_s,
            "main_children_s": root_s,
            "load_s": load_s,
            "invalid": invalid,
            "distinct": sum(len(s) for s in distinct.values()),
        }
