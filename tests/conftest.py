import numpy as np
import pytest

import diffevo.baselines as baselines
from diffevo import EvaluationResult, ParameterSpec, RunTrace, SearchSpace
from diffevo.trace import COLUMNS

HEADER = ("seed", "optimizer_id", "benchmark_id", "best_validation_error", "best_test_error",
          "config")


def trace_from_rows(rows, best_validation_error=0.0, best_test_error=None, seed=0,
                    optimizer_id="x", benchmark_id="hand"):
    """Hand-built trace from event rows ordered like ``COLUMNS``:
    (cumulative cost, objective, incumbent, incumbent test error or None, valid).
    """
    columns = zip(*rows) if rows else [()] * len(COLUMNS)
    cost, objective, incumbent, test, valid = (
        np.array(c, dtype=bool if name == "valid" else float) for name, c in zip(COLUMNS, columns)
    )
    return RunTrace(seed=seed, optimizer_id=optimizer_id, benchmark_id=benchmark_id,
                    best_validation_error=best_validation_error, best_test_error=best_test_error,
                    cumulative_cost=cost, objective=objective, incumbent_objective=incumbent,
                    incumbent_test_error=test, valid=valid)


def assert_same_traces(got, want):
    """Every header field and every column equal, run by run.

    Only ``incumbent_test_error`` may hold NaN (no test error), and NaN
    there matches NaN.
    """
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in HEADER:
            assert getattr(a, name) == getattr(b, name), name
        for name in COLUMNS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, name
            assert np.array_equal(x, y, equal_nan=name == "incumbent_test_error"), name


def watch_tournaments(monkeypatch):
    """Record a copy of the age-ordered fitness array of every RE tournament."""
    seen = []
    select = baselines.tournament_select

    def watching(fitness, sample_size, rng):
        seen.append(fitness.copy())
        return select(fitness, sample_size, rng)

    monkeypatch.setattr(baselines, "tournament_select", watching)
    return seen


class RecordingBenchmark:
    """Wraps a benchmark and logs every configuration it is asked to score."""

    def __init__(self, base):
        self.base = base
        self.space = base.space
        self.benchmark_id = base.benchmark_id
        self.best_validation_error = base.best_validation_error
        self.best_test_error = base.best_test_error
        self.configs = []

    def evaluate(self, config):
        self.configs.append(config)
        return self.base.evaluate(config)


class TransformedBenchmark:
    """Applies a strictly increasing map to the base validation errors."""

    def __init__(self, base, transform):
        self.base = base
        self.transform = transform
        self.space = base.space
        self.benchmark_id = base.benchmark_id + ":transformed"
        self.best_validation_error = transform(base.best_validation_error)
        self.best_test_error = base.best_test_error

    def evaluate(self, config):
        res = self.base.evaluate(config)
        if not res.valid:
            return res
        return EvaluationResult(
            valid=True,
            validation_error=self.transform(res.validation_error),
            test_error=res.test_error,
            cost_seconds=res.cost_seconds,
        )


@pytest.fixture
def mixed_space():
    return SearchSpace(params=(
        ParameterSpec(name="lr", kind="float", lo=-5.0, hi=5.0),
        ParameterSpec(name="layers", kind="integer", lo=0, hi=10),
        ParameterSpec(name="width", kind="ordinal", values=("narrow", "medium", "wide")),
        ParameterSpec(name="op", kind="categorical", choices=("1x1 conv", "skip", "3x3 conv")),
    ))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
