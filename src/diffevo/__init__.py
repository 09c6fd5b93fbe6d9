"""Differential evolution for mixed discrete/continuous search spaces.

The optimizer keeps its population in [0, 1]^D and discretizes copies of
genotypes only for evaluation, which preserves population diversity on
categorical and integer parameters. Random-search and regularized-evolution
baselines share the same search-space, benchmark, and trace contracts, so
anytime-regret curves are directly comparable across optimizers.
"""

from .baselines import REConfig, run_random_search, run_regularized_evolution
from .benchmarks import (
    Benchmark,
    BenchmarkLoadError,
    FunctionBenchmark,
    TabularBenchmark,
    load_tabular,
    make_synthetic,
    write_tabular,
)
from .de import DEConfig, run_de
from .harness import (
    AggregateCurve,
    aggregate,
    final_regrets,
    paired_sign_test,
    regret_series,
    run_experiment,
    write_curve_csv,
)
from .space import Configuration, ParameterSpec, SearchSpace
from .trace import Budget, RunTrace, check_trace_invariants, read_traces, write_traces

__all__ = [
    "AggregateCurve",
    "Benchmark",
    "BenchmarkLoadError",
    "Budget",
    "Configuration",
    "DEConfig",
    "FunctionBenchmark",
    "ParameterSpec",
    "REConfig",
    "RunTrace",
    "SearchSpace",
    "TabularBenchmark",
    "aggregate",
    "check_trace_invariants",
    "final_regrets",
    "load_tabular",
    "make_synthetic",
    "paired_sign_test",
    "read_traces",
    "regret_series",
    "run_de",
    "run_experiment",
    "run_random_search",
    "run_regularized_evolution",
    "write_curve_csv",
    "write_tabular",
    "write_traces",
]

__version__ = "0.1.0"
