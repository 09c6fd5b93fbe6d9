import json
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffevo import (Budget, DEConfig, REConfig, load_tabular, make_synthetic, read_traces,
                     run_de, run_random_search, run_regularized_evolution, write_traces)
import diffevo.trace as trace_module
from diffevo.jsonl import BLOCK_LINES
from diffevo.trace import EVENT_FIELDS, ZERO_COST_LIMIT, RunRecorder

from conftest import (
    REPEATABLE_FLOATS,
    ReferenceRecorder,
    RecordingBenchmark,
    ScalarBenchmark,
    assert_same_traces,
    each_seed,
    reference_read_traces,
    repeated_value_columns,
    trace_from_rows,
    watch_line_reads,
)


class TableBench(ScalarBenchmark):
    """Scores a 1-D genotype space with 5 bins by a fixed row (or None) per bin."""

    def __init__(self, rows):
        self.space = make_synthetic(1, 5, seed=0).space
        self.benchmark_id = "bins"
        self.best_validation_error = min(row[0] for row in rows if row is not None)
        self.best_test_error = None
        self.rows = dict(zip(self.space.params[0].choices, rows))

    def evaluate(self, config):
        return self.rows[config[0]]


def run_blocks(bench, budget, genotypes, cuts):
    """Feed ``genotypes`` to a one-run RunRecorder in blocks split at ``cuts``
    until the run leaves; returns the fitness values and the trace."""
    recorder = RunRecorder(bench, budget)
    fitness = []
    for block in np.split(genotypes, cuts):
        got = recorder.evaluate(block[None])
        fitness.extend(got.ravel().tolist())
        if not len(recorder.live):
            break
    trace, = recorder.finish([0], "x")
    return fitness[:len(trace)], trace


def run_rows(bench, budget, genotypes):
    recorder = ReferenceRecorder(bench, budget)
    fitness = []
    for genotype in genotypes:
        got = recorder.evaluate(genotype)
        if got is None:
            break
        fitness.append(got)
    return fitness, recorder.finish(seed=0, optimizer_id="x")


class TestBlockRecorder:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=1, max_value=60),
           st.lists(st.integers(min_value=0, max_value=60), max_size=6),
           st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
           st.one_of(st.none(), st.floats(min_value=0.1, max_value=40.0)))
    def test_equals_sequential_reference(self, seed, rows, cuts, max_evaluations, max_cost):
        # count and cost caps land anywhere in a block; half the keys are invalid
        if max_evaluations is None and max_cost is None:
            max_evaluations = 30
        budget = Budget(max_evaluations=max_evaluations, max_cost=max_cost)
        base = make_synthetic(3, 3, invalid_fraction=0.5, seed=seed % 5)
        genotypes = np.random.default_rng(seed).random((rows, 3))
        got_bench, want_bench = RecordingBenchmark(base), RecordingBenchmark(base)
        got_fitness, got = run_blocks(got_bench, budget, genotypes, sorted(cuts))
        want_fitness, want = run_rows(want_bench, budget, genotypes)
        assert got_fitness == want_fitness
        assert_same_traces([got], [want])
        # the same configurations in the same order, and none past the
        # evaluation limit; a block may also score rows past a cost limit
        assert got_bench.configs[:len(want_bench.configs)] == want_bench.configs
        assert len(got_bench.configs) == len(want_bench.configs) or max_cost is not None

    def test_spent_budget_evaluates_nothing(self):
        bench = RecordingBenchmark(make_synthetic(3, 3, cost_model="unit", seed=0))
        recorder = RunRecorder(bench, Budget(max_cost=2.0))
        fitness = recorder.evaluate(np.full((1, 5, 3), 0.5))
        assert fitness[0, :2].tolist() == [bench.base.evaluate(("c1", "c1", "c1"))[0]] * 2
        assert len(recorder.live) == 0
        asked = len(bench.configs)
        # the rows of a run that has left are not scored and hold 1.0
        fitness = recorder.evaluate(np.full((1, 5, 3), 0.5))
        assert fitness.tolist() == [[1.0] * 5]
        assert len(bench.configs) == asked
        assert len(recorder.finish([0], "x")[0]) == 2

    def test_record_stops_at_the_evaluation_limit(self):
        # two of five evaluations made; a four-row block has room for three,
        # and the benchmark's batch is asked for no more than those
        bench = RecordingBenchmark(make_synthetic(3, 3, cost_model="unit", seed=0))
        recorder = RunRecorder(bench, Budget(max_evaluations=5))
        genotypes = np.random.default_rng(0).random((4, 3))
        assert recorder.evaluate(genotypes[None, :2]).shape == (1, 2)
        fitness = recorder.evaluate(genotypes[None])
        want = [bench.base.evaluate(bench.space.discretize(g))[0] for g in genotypes]
        assert fitness[0].tolist() == want[:3] + [1.0]  # the row past the limit holds 1.0
        assert len(bench.configs) == 2 + 3
        assert len(recorder.live) == 0
        assert len(recorder.finish([0], "x")[0]) == 5

    def test_valid_point_displaces_invalid_incumbent_on_a_tie(self):
        # bins: invalid, valid at error 1.0 (ties the invalid penalty), valid 0.4
        bench = TableBench([None, (1.0, 0.9, 2.0), (0.4, 0.5, 1.0), None, None])
        genotypes = np.array([[0.1], [0.9], [0.3], [0.1], [0.5], [0.7]])
        for cuts in ([], [1], [2, 4], [1, 2, 3, 4, 5]):
            fitness, trace = run_blocks(bench, Budget(max_evaluations=10), genotypes, cuts)
            assert fitness == [1.0, 1.0, 1.0, 1.0, 0.4, 1.0]
            assert trace.incumbent_objective.tolist() == [1.0, 1.0, 1.0, 1.0, 0.4, 0.4]
            assert np.array_equal(trace.incumbent_test_error,
                                  [np.nan, np.nan, 0.9, 0.9, 0.5, 0.5], equal_nan=True)
            assert trace.cumulative_cost.tolist() == [0.0, 0.0, 2.0, 2.0, 3.0, 3.0]
            assert_same_traces([trace], [run_rows(bench, Budget(max_evaluations=10),
                                                  genotypes)[1]])

    def test_cost_only_run_stops_at_the_zero_cost_limit(self):
        # bins: invalid, valid at zero cost, valid at cost 1; both kinds of
        # free evaluation count, across blocks, and a costly one resets the count
        bench = RecordingBenchmark(TableBench([None, (0.5, None, 0.0), (0.4, None, 1.0),
                                               None, None]))
        free = np.tile([[0.1], [0.3]], (ZERO_COST_LIMIT // 2, 1))
        genotypes = np.concatenate([free[:-1], [[0.5]], free])
        budget = Budget(max_cost=10.0)
        with pytest.raises(ValueError) as got:
            run_blocks(bench, budget, genotypes, [3, 50_000, ZERO_COST_LIMIT, 150_001])
        message = (f"{ZERO_COST_LIMIT} evaluations in a row left the cumulative cost at 1.0, "
                   "so the cost budget may never be spent; add an evaluation limit (--evals)")
        assert str(got.value) == f"run with seed 0 failed: {message}"
        assert len(bench.configs) == len(genotypes) == 2 * ZERO_COST_LIMIT
        want = RecordingBenchmark(bench.base)
        with pytest.raises(ValueError) as reference:
            run_rows(want, budget, genotypes)
        assert str(reference.value) == message
        assert want.configs == bench.configs

    @pytest.mark.parametrize("cost", [math.nan, -1.0])
    def test_negative_or_nan_cost_stops_the_run(self, cost):
        # bins: valid at cost 0.25, valid at the bad cost; under a cost-only
        # budget a NaN cost would otherwise never spend the budget
        bench = TableBench([(0.5, None, 0.25), (0.4, None, cost), None, None, None])
        genotypes = np.array([[0.1], [0.1], [0.3], [0.1]])
        budget = Budget(max_cost=1.0)
        message = f"benchmark cost {cost!r} of ('c1',) is negative or not a number"
        for cuts in ([], [1], [2, 3]):
            with pytest.raises(ValueError) as got:
                run_blocks(bench, budget, genotypes, cuts)
            assert str(got.value) == f"run with seed 0 failed: {message}"
        with pytest.raises(ValueError) as reference:
            run_rows(bench, budget, genotypes)
        assert str(reference.value) == message
        with pytest.raises(ValueError, match=re.escape(f"benchmark cost {cost!r} of")):
            run_random_search(bench, budget, [0])

    def test_negative_cost_that_leaves_the_total_as_it_was_stops_the_run(self):
        # 3e20 - 1.0 rounds back to 3e20, so the cumulative cost never falls
        bench = TableBench([(0.5, None, 1e20), (0.4, None, -1.0), None, None, None])
        genotypes = np.array([[0.1], [0.1], [0.1], [0.3], [0.1]])
        budget = Budget(max_evaluations=10)
        message = "benchmark cost -1.0 of ('c1',) is negative or not a number"
        for cuts in ([], [1], [3], [3, 4]):
            with pytest.raises(ValueError) as got:
                run_blocks(bench, budget, genotypes, cuts)
            assert str(got.value) == f"run with seed 0 failed: {message}"
        with pytest.raises(ValueError) as reference:
            run_rows(bench, budget, genotypes)
        assert str(reference.value) == message

    @pytest.mark.parametrize("cost", [math.nan, -1.0])
    def test_bad_cost_past_the_cost_limit_is_not_an_error(self, cost):
        # a batch scores the row after the one that spends the budget, which
        # no reference run would ask for
        bench = TableBench([(0.5, None, 2.0), (0.4, None, cost), None, None, None])
        fitness, trace = run_blocks(bench, Budget(max_cost=2.0), np.array([[0.1], [0.3]]), [])
        assert trace.cumulative_cost.tolist() == [2.0]

    def test_evaluation_limit_lifts_the_zero_cost_limit(self):
        bench = make_synthetic(3, 3, invalid_fraction=0.5, seed=0)
        invalid = next(g for g in np.random.default_rng(0).random((50, 3))
                       if bench.evaluate(bench.space.discretize(g)) is None)
        budget = Budget(max_evaluations=ZERO_COST_LIMIT + 1, max_cost=1.0)
        fitness, trace = run_blocks(bench, budget, np.tile(invalid, (ZERO_COST_LIMIT + 1, 1)), [])
        assert len(fitness) == len(trace) == ZERO_COST_LIMIT + 1


BUDGETS = st.one_of(st.builds(Budget, max_evaluations=st.integers(1, 60)),
                    st.builds(Budget, max_cost=st.floats(0.5, 20.0)),
                    st.builds(Budget, max_evaluations=st.integers(1, 60),
                              max_cost=st.floats(0.5, 20.0)),
                    st.builds(Budget, max_cost=st.floats(2.0, 20.0)))
# the row of a bin: invalid, or (objective, test error, cost) with objectives
# that tie the invalid penalty at 1.0 and costs of zero
BIN_ROWS = st.one_of(st.none(), st.tuples(st.sampled_from([0.0, 0.3, 1.0]),
                                          st.sampled_from([None, 0.2]),
                                          st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])))


def outcome(run):
    """The traces ``run()`` returns, or the message of the ValueError it raises."""
    try:
        return run()
    except ValueError as exc:
        return str(exc)


def record_in_steps(bench, budget, genotypes, steps, limit=ZERO_COST_LIMIT):
    """Feed the (R, N, D) ``genotypes`` to one RunRecorder for R runs, ``k``
    rows for every run per call for each ``k`` in ``steps``, under a
    zero-cost limit of ``limit``; returns the outcome of ``finish`` and the
    history's capacity after each call."""
    with mock.patch.object(trace_module, "ZERO_COST_LIMIT", limit):
        recorder = RunRecorder(bench, budget, len(genotypes))
    capacities, start = [], 0
    for k in steps:
        if len(recorder.live):
            recorder.evaluate(genotypes[:, start:start + k])
            capacities.append(recorder.history.shape[2])
            start += k
    return outcome(lambda: recorder.finish(range(len(genotypes)), "x")), capacities


def reference_outcome(bench, budget, genotypes, limit=ZERO_COST_LIMIT):
    """The outcome of one ReferenceRecorder per run fed that run's rows."""
    def reference(bench, run):
        recorder = ReferenceRecorder(bench, budget, free_limit=limit)
        for genotype in genotypes[run]:
            if recorder.evaluate(genotype) is None:
                break
        return recorder.finish(run, "x")

    return outcome(lambda: each_seed(reference, bench, range(len(genotypes))))


class TestExperimentRecorder:
    """One recorder for R runs against one scalar reference per run."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(BIN_ROWS, min_size=5, max_size=5).filter(lambda rows: any(rows)),
           st.sampled_from(range(15)), st.sampled_from([-1.0, math.nan]),
           st.integers(1, 6), BUDGETS, st.lists(st.integers(1, 9), min_size=4, max_size=12),
           st.integers(0, 2**16))
    def test_runs_match_the_scalar_reference(self, rows, bad, cost, runs, budget, steps, seed):
        # runs end at different steps under a cost limit, a small zero-cost
        # limit is reached, and one bin in three costs a negative or NaN amount
        if bad < len(rows):
            rows[bad] = (0.4, None, cost)
        limit = 5
        base = TableBench(rows)
        genotypes = np.random.default_rng(seed).random((runs, sum(steps), 1))
        got, _ = record_in_steps(base, budget, genotypes, steps, limit)
        want = reference_outcome(base, budget, genotypes, limit)
        if isinstance(want, str):
            assert got == want
            return
        assert_same_traces(got, want)


    def test_runs_leaving_at_different_steps_under_a_cost_cap(self):
        # the history takes a slice while every run is live and the live runs'
        # rows once some have left; every run matches its scalar reference
        bench = TableBench(GROWTH_BINS)
        budget = Budget(max_cost=30.0)
        genotypes = np.random.default_rng(1).random((6, 90, 1))
        recorder = RunRecorder(bench, budget, len(genotypes))
        live, start = [], 0
        while len(recorder.live):
            live.append(len(recorder.live))
            recorder.evaluate(genotypes[:, start:start + 3])
            start += 3
        traces = recorder.finish(range(len(genotypes)), "x")
        assert live[:2] == [6, 6] and 0 < live[-1] < 6 and len(set(map(len, traces))) > 2
        assert_same_traces(traces, reference_outcome(bench, budget, genotypes))

    def test_a_batch_that_fails_is_asked_again_run_by_run(self):
        # a block of every live run's rows runs out of memory, and each run's
        # 20 rows alone do not: the traces are those of the plain benchmark
        base = make_synthetic(4, 3, invalid_fraction=0.2)
        sizes = []

        class SmallBatches:
            space, benchmark_id = base.space, base.benchmark_id
            best_validation_error, best_test_error = base.best_validation_error, base.best_test_error

            def evaluate_batch(self, genotypes):
                sizes.append(len(genotypes))
                if len(genotypes) > 20:
                    raise MemoryError(f"no room for {len(genotypes)} rows")
                return base.evaluate_batch(genotypes)

        cfg = DEConfig(population_size=20, budget=Budget(max_evaluations=300))
        got = run_de(SmallBatches(), cfg, range(5))
        assert sizes[:6] == [100] + [20] * 5
        assert_same_traces(got, run_de(base, cfg, range(5)))


# bins: cost 10, cost 1, invalid, free, cost 2
GROWTH_BINS = [(0.5, None, 10.0), (0.4, 0.3, 1.0), None, (0.3, None, 0.0), (0.2, 0.1, 2.0)]


def bin_rows(*columns):
    """(R, N, 1) genotypes, run r taking the bins of ``columns[r]``."""
    return (np.array(columns, dtype=float)[..., None] + 0.5) / 5


class TestInvalidPenalty:
    def test_a_benchmark_that_scores_invalid_rows_fails_the_run(self):
        # rows marked invalid that keep their table error and cost nothing
        base = make_synthetic(3, 3, seed=0)

        class Unpenalized:
            space, benchmark_id = base.space, base.benchmark_id
            best_validation_error, best_test_error = base.best_validation_error, None

            def evaluate_batch(self, genotypes):
                val, test, cost, valid = base.evaluate_batch(genotypes)
                valid = np.arange(len(val)) % 2 == 0
                return val, test, np.where(valid, cost, 0.0), valid

        with pytest.raises(ValueError, match=r"^run with seed 3 failed: event 1 of rs run "
                                             r"\(seed 3\): invalid evaluation scored other "
                                             r"than 1\.0$"):
            run_random_search(Unpenalized(), Budget(max_evaluations=20), [3])

    def test_a_file_that_scores_an_invalid_event_is_refused(self, tmp_path):
        trace = trace_from_rows([(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, None, True),
                                 (1.5, 0.2, 0.4, None, False)])
        path = tmp_path / "runs.jsonl"
        write_traces([trace], path)
        message = (f"{path}:1: event 2 of x run (seed 0): invalid evaluation scored "
                   "other than 1.0")
        for read in (read_traces, reference_read_traces):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == message


class TestHistory:
    """The recorder's one (4, R, N) history array: grown by copying into
    min(2 * (n + k), evaluation limit) columns, checked against one scalar
    reference per run."""

    def grown(self, budget, genotypes, steps, limit=ZERO_COST_LIMIT):
        bench = TableBench(GROWTH_BINS)
        got, capacities = record_in_steps(bench, budget, genotypes, steps, limit)
        want = reference_outcome(bench, budget, genotypes, limit)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_traces(got, want)
        return got, capacities

    def test_block_larger_than_twice_the_capacity(self):
        # a 9-row block after a 2-column history, then a 40-row one
        genotypes = np.random.default_rng(0).random((3, 50, 1))
        traces, capacities = self.grown(Budget(max_evaluations=100), genotypes, [1, 9, 40])
        assert capacities == [2, 20, 100]
        assert [len(t) for t in traces] == [50] * 3

    def test_growth_after_runs_have_left(self):
        # run 0 spends the cost limit at event 1, runs 1 and 2 at event 10, and
        # the last growth copies the history of all three
        genotypes = bin_rows([0] * 33, [1] * 33, [2, 4] * 16 + [2], [3] * 33)
        traces, capacities = self.grown(Budget(max_cost=10.0), genotypes, [2, 3, 8, 20])
        assert capacities == [4, 10, 26, 66]
        assert [len(t) for t in traces] == [1, 10, 10, 33]

    def test_growth_stops_at_the_evaluation_limit(self):
        genotypes = np.random.default_rng(1).random((2, 10, 1))
        traces, capacities = self.grown(Budget(max_evaluations=7), genotypes, [1, 2, 3, 4])
        assert capacities == [2, 6, 6, 7]
        assert [len(t) for t in traces] == [7, 7]

    def test_zero_cost_limit_reached_after_a_growth(self):
        # run 1 spends nothing and fails at event 5; run 0 pays at events 1,
        # 3 and 8, so it lasts only if its count starts from event 3, read
        # from totals recorded before a growth
        genotypes = bin_rows([1, 2, 1, 3, 3, 3, 3, 1, 3, 3, 3], [3] * 11)
        message, capacities = self.grown(Budget(max_cost=100.0), genotypes, [1, 2, 4, 4],
                                         limit=5)
        assert capacities == [2, 6, 14, 14]
        assert message == ("run with seed 1 failed: 5 evaluations in a row left the cumulative "
                           "cost at 0.0, so the cost budget may never be spent; add an "
                           "evaluation limit (--evals)")

    def test_returned_fitness_is_the_callers(self):
        bench = make_synthetic(3, 3, invalid_fraction=0.3, seed=0)
        genotypes = np.random.default_rng(0).random((2, 12, 3))
        budget = Budget(max_evaluations=12)
        recorder = RunRecorder(bench, budget, 2)
        for block in np.split(genotypes, [4], axis=1):
            fitness = recorder.evaluate(block)
            fitness[...] = 0.5
        assert_same_traces(recorder.finish(range(2), "x"),
                           reference_outcome(bench, budget, genotypes))

    def test_regularized_evolution_records_in_at_most_150_bytes_an_event(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(budget=Budget(max_evaluations=2000))
        tracemalloc.start()
        try:
            traces = run_regularized_evolution(bench, cfg, range(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        events = sum(map(len, traces))
        assert events == 20 * 2000
        assert peak <= 150 * events


class TestBudget:
    @pytest.mark.parametrize("max_cost", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_cost_limit_must_be_positive_and_finite(self, max_cost):
        # a NaN or infinite limit is never reached, so the run would never end
        with pytest.raises(ValueError, match=re.escape(
                f"max_cost must be positive and finite, got {max_cost}")):
            Budget(max_cost=max_cost)


def reference_event_line(index, row):
    """The event line as ``json.dumps`` writes it."""
    cost, objective, incumbent, test, valid = row
    event = dict(zip(EVENT_FIELDS, (index, cost, objective, incumbent,
                                    None if math.isnan(test) else test, valid)))
    return json.dumps(event, separators=(",", ":"), sort_keys=True)


def reference_lines(trace):
    rows = zip(trace.cumulative_cost.tolist(), trace.objective.tolist(),
               trace.incumbent_objective.tolist(), trace.incumbent_test_error.tolist(),
               trace.valid.tolist())
    return [reference_event_line(i, row) for i, row in enumerate(rows)]


def written_event_lines(trace):
    """The event lines ``write_traces`` writes for ``trace``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        write_traces([trace], path)
        return path.read_text().splitlines()[1:]


ODD_FLOATS = [0.0, -0.0, 5e-324, 1e-17, 0.1, 1 / 3, 1.0, 1e16, 1.5e300,
              math.inf, -math.inf]


class TestTraceWriter:
    def test_odd_floats_match_json_dumps(self):
        rows = [(x, y, x, y, i % 2 == 0)
                for i, (x, y) in enumerate(zip(ODD_FLOATS, reversed(ODD_FLOATS)))]
        rows.append((1.0, 0.5, 0.5, None, False))
        rows.append((math.nan, math.nan, 0.5, 0.25, True))
        trace = trace_from_rows(rows)
        assert written_event_lines(trace) == reference_lines(trace)

    @given(st.lists(st.tuples(st.floats(), st.floats(), st.floats(),
                              st.one_of(st.none(), st.floats()), st.booleans()),
                    min_size=1, max_size=20))
    def test_any_floats_match_json_dumps(self, rows):
        trace = trace_from_rows(rows)
        assert written_event_lines(trace) == reference_lines(trace)

    @given(repeated_value_columns(st.floats(min_value=0.0), REPEATABLE_FLOATS, REPEATABLE_FLOATS,
                                  st.none() | REPEATABLE_FLOATS, st.booleans()))
    def test_repeated_values_match_json_dumps(self, columns):
        # sorted, the costs' runs of equal values follow in increasing order
        cost, *rest = columns
        trace = trace_from_rows(list(zip(sorted(cost), *rest)))
        assert written_event_lines(trace) == reference_lines(trace)

    def test_runs_of_different_lengths_share_one_file(self, tmp_path):
        # a 1-event run, a run longer than every run before it, then a short
        # one: each run's eval_index counts from 0
        rng = np.random.default_rng(0)
        traces = [trace_from_rows([(c, o, o, t, v < 0.5) for c, o, t, v in rng.random((n, 4))],
                                  seed=n) for n in (1, 9, 4)]
        path = tmp_path / "t.jsonl"
        write_traces(traces, path)
        runs = []
        for line in path.read_text().splitlines():
            if line.startswith('{"run":'):
                runs.append([])
            else:
                runs[-1].append(line)
        assert runs == [reference_lines(trace) for trace in traces]

    def test_no_traces_write_an_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_traces([], path)
        assert path.read_bytes() == b""

    def test_negative_zero_error_is_spelled_as_json_dumps_spells_it(self, tmp_path):
        # one column holds both -0.0 and 0.0, which compare equal as floats
        space = make_synthetic(1, 3, seed=0).space
        path = tmp_path / "zero.jsonl"
        path.write_text("\n".join([json.dumps(space.to_json_dict()), *(
            json.dumps({"key": [token], "val_err": val, "test_err": None, "cost": 1.0})
            for token, val in zip(space.params[0].choices, [-0.0, 0.0, 0.5]))]) + "\n")
        recorder = RunRecorder(load_tabular(path), Budget(max_evaluations=6))
        recorder.evaluate(np.array([[[0.9], [0.1], [0.5], [0.1], [0.5], [0.9]]]))
        trace, = recorder.finish([0], "x")
        write_traces([trace], tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()[1:]
        assert lines == reference_lines(trace)
        assert [line.split('"objective":')[1].split(",")[0] for line in lines] == [
            "0.5", "-0.0", "0.0", "-0.0", "0.0", "0.5"]

    def test_recorded_run_round_trips(self, tmp_path):
        bench = make_synthetic(3, 3, invalid_fraction=0.3, seed=1)
        recorder = RunRecorder(bench, Budget(max_evaluations=40))
        recorder.evaluate(np.random.default_rng(0).random((1, 40, 3)))
        trace, = recorder.finish([4], "x")
        path = tmp_path / "t.jsonl"
        write_traces([trace], path)
        assert path.read_text().splitlines()[1:] == reference_lines(trace)
        assert_same_traces(read_traces(path), [trace])



def canonical_dumps(doc) -> str:
    """The spelling ``write_traces`` gives: compact separators, sorted keys."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


@st.composite
def trace_file_lines(draw):
    """The lines of a valid trace file: 1-3 runs of 1-4 events each, in the
    spelling ``write_traces`` gives or in ``json.dumps``' default one."""
    dumps = draw(st.sampled_from([canonical_dumps, json.dumps]))
    lines = []
    for seed in range(draw(st.integers(min_value=1, max_value=3))):
        best = draw(st.sampled_from([0.0, 0.1]))
        lines.append(dumps({"run": {
            "seed": seed, "optimizer": "x", "benchmark": "b", "best_validation_error": best,
            "best_test_error": draw(st.sampled_from([None, 0.2])), "config": {"np": 4}}}))
        cost, incumbent = 0.0, math.inf
        for index in range(draw(st.integers(min_value=1, max_value=4))):
            valid = draw(st.booleans())
            objective = draw(st.sampled_from([best, 0.3, 0.7, 1.0])) if valid else 1.0
            if valid:
                cost += draw(st.sampled_from([0.0, 0.5, 2.25]))
            incumbent = min(incumbent, objective)
            lines.append(dumps({
                "eval_index": index, "cumulative_cost": cost, "objective": objective,
                "incumbent_objective": incumbent,
                "incumbent_test_error": draw(st.sampled_from([None, 0.25])), "valid": valid}))
    return lines


# per run header field, values of a wrong JSON type
WRONG_HEADER_VALUES = {
    "seed": ["zero", "1", [1], {}, True, 1.0, None],
    "optimizer": [5, None, ["x"], True],
    "benchmark": [5, {}, False],
    "best_validation_error": ["0.1", True, None, [0.1]],
    "best_test_error": ["0.2", False, [], {}],
    "config": [[1], "np", 3, None],
}

# per event field, values of a wrong JSON type
WRONG_EVENT_VALUES = {
    "eval_index": [True, False, 0.0, 1.0, "0", "1", None, [0]],
    "cumulative_cost": ["1.5", "0", True, False, [0.0]],
    "objective": ["0.5", "1", True, False, {}],
    "incumbent_objective": ["0.5", True, [1.0]],
    "incumbent_test_error": ["0.25", True, False, [0.25]],
}

ODD_VALUES = [0, 1, 2, 0.0, 1.5, -1, True, False, None, "x", "1.5", [1], {}, math.nan, math.inf,
              -math.inf, 10**400, -10**400]

# the raw text of a value that is not JSON, reads as an odd number, or holds
# the characters that delimit values in an event line
ODD_SPELLINGS = ["1_0", "+1", ".5", "01", "1.", "-0", "1E2", "NaN", "-Infinity", "Infinity",
                 "1e400", "1" + "0" * 400, "true", "null", "1:2", "1,2", "0.5,", ":0.5", "[1,2]",
                 "{}", " 0.5 ", "0.5\n", "0.5\t", "", '"0.5"']


def respell_value(line, name, spelling):
    """``line`` with the text of field ``name``'s value replaced, or None."""
    value = re.search(f'"{name}": ?([^,}}]*)', line)
    return value and line[:value.start(1)] + spelling + line[value.end(1):]


def assert_reads_as_reference(path):
    """``read_traces`` returns the reference reader's traces or raises its error."""
    try:
        want = reference_read_traces(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        with pytest.raises(type(exc)) as err:
            read_traces(path)
        assert str(err.value) == str(exc)
    else:
        assert_same_traces(read_traces(path), want)


def mutate(data, lines):
    """One edit of the kinds a damaged or hand-edited trace file shows."""
    kind = data.draw(st.sampled_from(["pad", "blank", "join", "split", "truncate", "drop key",
                                      "set key", "retype header", "retype event", "replace",
                                      "move", "delete", "repeat", "respell value",
                                      "swap keys"]))
    dumps = data.draw(st.sampled_from([canonical_dumps, json.dumps]))
    i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    line = lines[i]
    cut = data.draw(st.integers(min_value=1, max_value=max(len(line) - 1, 1)))
    if kind == "pad":  # whitespace around a line
        space = st.sampled_from(["", " ", "\t", " \t ", "\xa0"])
        lines[i] = data.draw(space) + line + data.draw(space)
    elif kind == "blank":
        lines.insert(i, data.draw(st.sampled_from(["", " ", "\t", "\xa0 "])))
    elif kind == "join":  # two JSON values on one line
        lines[i] = line + data.draw(st.sampled_from(["", " "])) + lines[j]
    elif kind == "split":  # one line across two
        lines[i:i + 1] = [line[:cut], line[cut:]]
    elif kind == "truncate":
        lines[i] = line[:cut]
    elif kind in ("drop key", "set key"):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:  # an earlier edit broke the line
            return
        target = doc["run"] if isinstance(doc, dict) and isinstance(doc.get("run"), dict) \
            and data.draw(st.booleans()) else doc
        if not isinstance(target, dict) or not target:
            return
        key = data.draw(st.sampled_from(sorted(target)))
        if kind == "drop key":
            del target[key]
        else:  # "valid": 1, a wrong eval_index, an integer cost, null, NaN, Infinity, ...
            target[key] = data.draw(st.sampled_from(ODD_VALUES))
        lines[i] = dumps(doc)
    elif kind == "retype header":
        headers = [k for k, text in enumerate(lines) if text.startswith(('{"run": {', '{"run":{'))]
        if not headers:
            return
        k = data.draw(st.sampled_from(headers))
        try:
            doc = json.loads(lines[k])
        except json.JSONDecodeError:  # an earlier edit broke the line
            return
        if not isinstance(doc.get("run"), dict):
            return
        name = data.draw(st.sampled_from(sorted(WRONG_HEADER_VALUES)))
        doc["run"][name] = data.draw(st.sampled_from(WRONG_HEADER_VALUES[name]))
        lines[k] = dumps(doc)
    elif kind == "retype event":  # a string of digits, a bool, null, ...
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:  # an earlier edit broke the line
            return
        if not isinstance(doc, dict) or "run" in doc:
            return
        name = data.draw(st.sampled_from(sorted(WRONG_EVENT_VALUES)))
        doc[name] = data.draw(st.sampled_from(WRONG_EVENT_VALUES[name]))
        lines[i] = dumps(doc)
    elif kind == "replace":  # JSON that is neither a header nor an event
        lines[i] = data.draw(st.sampled_from(["3", "null", "[]", '["run"]', '"run"', "{}",
                                              '{"run": 1}', '{"run": [], "valid": true}']))
    elif kind == "respell value":  # the text of one event value, left in place
        lines[i] = respell_value(line, data.draw(st.sampled_from(EVENT_FIELDS)),
                                 data.draw(st.sampled_from(ODD_SPELLINGS))) or line
    elif kind == "swap keys":  # two field names trade places, values staying put
        a, b = data.draw(st.permutations(EVENT_FIELDS))[:2]
        lines[i] = line.replace(f'"{a}"', "\0").replace(f'"{b}"', f'"{a}"').replace("\0", f'"{b}"')
    elif kind == "move":  # events before any header, headers with no events
        lines.insert(j, lines.pop(i))
    elif kind == "delete":
        del lines[i]
    else:
        lines.insert(j, line)


class TestTraceReader:
    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_a_file_without_runs_fails(self, tmp_path, text):
        path = tmp_path / "runs.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_traces(path)
        assert str(err.value) == f"{path}: no runs found"

    def test_integer_best_errors_read_as_floats(self, tmp_path):
        # a hand-written header's JSON integers read as floats and write back as 0.0
        header = {"seed": 0, "optimizer": "x", "benchmark": "b", "best_validation_error": 0,
                  "best_test_error": 0}
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps({"run": header}) + "\n" + json.dumps({
            "eval_index": 0, "cumulative_cost": 0.0, "objective": 1.0, "incumbent_objective": 1.0,
            "incumbent_test_error": None, "valid": False}) + "\n")
        for read in (read_traces, reference_read_traces):
            trace, = read(path)
            assert type(trace.best_validation_error) is float
            assert type(trace.best_test_error) is float
        write_traces(read_traces(path), tmp_path / "again.jsonl")
        again = (tmp_path / "again.jsonl").read_text().splitlines()[0]
        assert '"best_test_error":0.0,"best_validation_error":0.0,' in again

    @pytest.mark.parametrize("name, value", [(name, value) for name, values
                                             in WRONG_HEADER_VALUES.items() for value in values])
    def test_wrongly_typed_header_field(self, tmp_path, name, value):
        header = {"seed": 0, "optimizer": "x", "benchmark": "b", "best_validation_error": 0.0,
                  "best_test_error": None, name: value}
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps({"run": header}) + "\n" + json.dumps({
            "eval_index": 0, "cumulative_cost": 0.0, "objective": 1.0, "incumbent_objective": 1.0,
            "incumbent_test_error": None, "valid": False}) + "\n")
        message = f"{path}:1: run header field {name!r} is not .*: {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            read_traces(path)
        with pytest.raises(ValueError, match=message):
            reference_read_traces(path)

    @pytest.mark.parametrize("name, value", [(name, value) for name, values
                                             in WRONG_EVENT_VALUES.items() for value in values])
    def test_wrongly_typed_event_field(self, tmp_path, name, value):
        # the second event, so that an eval_index of true would match its position
        header = {"seed": 0, "optimizer": "x", "benchmark": "b", "best_validation_error": 0.0,
                  "best_test_error": None}
        events = [{"eval_index": index, "cumulative_cost": 0.0, "objective": 1.0,
                   "incumbent_objective": 1.0, "incumbent_test_error": None, "valid": False}
                  for index in range(3)]
        events[1][name] = value
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(map(json.dumps, [{"run": header}, *events])) + "\n")
        kind = {"eval_index": "an integer", "incumbent_test_error": "a number or null"}.get(
            name, "a number")
        message = f"{path}:3: event field {name!r} is not {kind}: {value!r}"
        for read in (read_traces, reference_read_traces):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == message

    @pytest.mark.parametrize("name, value", [
        ("best_validation_error", math.nan), ("best_validation_error", math.inf),
        ("best_test_error", math.nan), ("best_test_error", -math.inf)])
    def test_non_finite_best_error(self, tmp_path, name, value):
        # NaN and Infinity are valid JSON numbers here, but no regret can be taken from them
        header = {"seed": 0, "optimizer": "x", "benchmark": "b", "best_validation_error": 0.0,
                  "best_test_error": None, name: value}
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps({"run": header}) + "\n" + json.dumps({
            "eval_index": 0, "cumulative_cost": 0.0, "objective": 1.0, "incumbent_objective": 1.0,
            "incumbent_test_error": None, "valid": False}) + "\n")
        message = f"{path}:1: {name.replace('_', ' ')} {value} is not finite"
        for read in (read_traces, reference_read_traces):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == message

    @pytest.mark.parametrize("empty", [1, 2], ids=["middle", "end"])
    def test_run_with_no_events_names_its_header_line(self, tmp_path, empty):
        # three runs of two events each; run `empty` keeps its header alone
        rows = [(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, None, True)]
        path = tmp_path / "runs.jsonl"
        write_traces([trace_from_rows(rows, seed=seed) for seed in range(3)], path)
        lines = path.read_text().splitlines(keepends=True)
        del lines[3 * empty + 1:3 * empty + 3]
        path.write_text("".join(lines))
        message = f"{path}:{3 * empty + 1}: run (seed {empty}) has no events"
        for read in (read_traces, reference_read_traces):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == message

    @pytest.mark.parametrize("line", [1, 2])
    def test_integer_too_large_for_a_float(self, tmp_path, line):
        # 1 followed by 400 zeros is a JSON number, but no float holds it
        huge = int("1" + "0" * 400)
        header = {"seed": 0, "optimizer": "x", "benchmark": "b",
                  "best_validation_error": huge if line == 1 else 0.0, "best_test_error": None}
        event = {"eval_index": 0, "cumulative_cost": huge if line == 2 else 0.0,
                 "objective": 1.0, "incumbent_objective": 1.0, "incumbent_test_error": None,
                 "valid": False}
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps({"run": header}) + "\n" + json.dumps(event) + "\n")
        message = (f"{path}:1: run header field 'best_validation_error' is too large for a float"
                   if line == 1 else f"{path}:2: event field 'cumulative_cost' is too large "
                   "for a float")
        for read in (read_traces, reference_read_traces):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == message

    @pytest.mark.parametrize("where", ["canonical event", "walked event", "header"])
    @pytest.mark.parametrize("value", [2**1024 - 2**971, 2**1024 - 2**970 - 1],
                             ids=["float_max", "above"])
    def test_integer_at_the_largest_float(self, tmp_path, monkeypatch, value, where):
        # 2**1024 - 2**971 is the largest float; a float conversion rounds an
        # integer up to 2**970 above it down to it, yet that integer is refused
        trace = trace_from_rows([(1.5, 0.4, 0.4, None, True)], best_test_error=0.25)
        path = tmp_path / "runs.jsonl"
        write_traces([trace], path)
        header, event = path.read_text().splitlines()
        if where == "header":
            header = header.replace('"best_test_error":0.25', f'"best_test_error":{value}')
        else:
            event = event.replace('"cumulative_cost":1.5', f'"cumulative_cost":{value}')
            if where == "walked event":
                event = json.dumps(json.loads(event))  # spaced separators
        path.write_text(f"{header}\n{event}\n")
        lines, _ = watch_line_reads(monkeypatch, trace_module)
        if value > sys.float_info.max:
            problem = ("1: run header field 'best_test_error'" if where == "header"
                       else "2: event field 'cumulative_cost'")
            for read in (read_traces, reference_read_traces):
                with pytest.raises(ValueError) as err:
                    read(path)
                assert str(err.value) == f"{path}:{problem} is too large for a float"
            return
        for read in (read_traces, reference_read_traces):
            got, = read(path)
            assert sys.float_info.max == (got.best_test_error if where == "header"
                                          else got.cumulative_cost[0])
        # the event line in canonical spelling is read as a column
        assert lines == ([1, 2] if where == "walked event" else [1])

    def test_lines_end_only_at_newlines(self, tmp_path):
        # U+2028 is a line break to str.splitlines() but may stand raw in JSON
        trace = trace_from_rows([(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, None, True)],
                                benchmark_id="tab\u2028le")
        path = tmp_path / "runs.jsonl"
        write_traces([trace], path)
        text = path.read_text()
        assert "\\u2028" in text
        path.write_text(text.replace("\\u2028", "\u2028").replace("\n", "\r\n"),
                        encoding="utf-8")
        assert_same_traces(read_traces(path), [trace])
        assert_same_traces(reference_read_traces(path), [trace])

    def test_lone_carriage_return_is_not_a_line_end(self, tmp_path):
        # JSON allows "\r" between tokens, and a line ends only at "\n", so a
        # later bad line's number counts "\n" alone
        trace = trace_from_rows([(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, None, True)])
        path = tmp_path / "runs.jsonl"
        write_traces([trace], path)
        text = path.read_text().replace('"objective"', '\r"objective"')
        path.write_text(text)
        assert_same_traces(read_traces(path), [trace])
        assert_same_traces(reference_read_traces(path), [trace])
        path.write_text(text + "{not json\n")
        for read in (read_traces, reference_read_traces):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: bad JSON"):
                read(path)

    def test_crlf_file_reads_as_its_lf_twin(self, tmp_path, monkeypatch):
        traces = run_random_search(make_synthetic(3, 3, seed=0), Budget(max_evaluations=30),
                                   range(3))
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        write_traces(traces, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        walked, opened = watch_line_reads(monkeypatch, trace_module)
        assert_same_traces(read_traces(crlf), traces)
        assert walked == [1, 32, 63] and opened == [crlf]  # the run headers alone
        walked.clear()
        assert_same_traces(read_traces(lf), traces)
        assert walked == [1, 32, 63]
        assert_same_traces(reference_read_traces(crlf), traces)

    @pytest.mark.parametrize("bad_line", [1, 3])
    def test_undecodable_byte_names_the_line(self, tmp_path, bad_line):
        trace = trace_from_rows([(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, None, True)],
                                optimizer_id="ab")
        path = tmp_path / "runs.jsonl"
        write_traces([trace], path)
        lines = path.read_bytes().split(b"\n")
        lines[bad_line - 1] = lines[bad_line - 1].replace(b'"ab"', b'"a\xffb"').replace(
            b"true}", b'true,"note":"\xff"}')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as err:
            read_traces(path)
        position = lines[bad_line - 1].index(b"\xff")
        assert str(err.value) == (f"{path}:{bad_line}: 'utf-8' codec can't decode byte 0xff in "
                                  f"position {position}: invalid start byte")

    def test_a_bad_line_before_an_undecodable_byte_wins(self, tmp_path):
        trace = trace_from_rows([(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, None, True),
                                 (2.5, 0.4, 0.4, None, True)])
        path = tmp_path / "runs.jsonl"
        write_traces([trace], path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"eval_index":1', b'"eval_index":7')
        lines[3] = lines[3].replace(b"true}", b'true,"note":"\xff"}')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as err:
            read_traces(path)
        assert str(err.value) == f"{path}:3: eval_index 7 != position 1 in its run"

    def test_a_written_file_is_read_as_columns(self, tmp_path, monkeypatch):
        # runs that cross block boundaries, NaN test errors (written as null),
        # and -0.0 beside 0.0
        rng = np.random.default_rng(5)
        traces = []
        for seed, n in enumerate([1, BLOCK_LINES + 5, 700]):
            valid = rng.random(n) < 0.8
            objective = np.where(valid, rng.choice([-0.0, 0.0, 0.5, 0.75], n), 1.0)
            cost = np.cumsum(np.where(valid, rng.choice([0.0, 0.5, 1.25], n), 0.0))
            test = np.where(rng.random(n) < 0.5, np.nan, rng.random(n))
            rows = zip(cost, objective, np.minimum.accumulate(objective), test, valid)
            traces.append(trace_from_rows(list(rows), seed=seed, config={"np": seed}))
        path = tmp_path / "runs.jsonl"
        write_traces(traces, path)
        walked, opened = watch_line_reads(monkeypatch, trace_module)
        got = read_traces(path)
        assert walked == [1, 3, BLOCK_LINES + 9] and opened == [path]  # the run headers alone
        assert_same_traces(got, traces)
        assert [t.objective.tobytes() for t in got] == [t.objective.tobytes() for t in traces]

    def test_a_run_read_a_line_at_a_time_in_one_block_and_as_columns_in_the_next(
            self, tmp_path, monkeypatch):
        n = 2 * BLOCK_LINES
        objective = np.random.default_rng(4).random(n)
        trace = trace_from_rows(list(zip(np.arange(n) * 0.5, objective,
                                         np.minimum.accumulate(objective), [None] * n,
                                         [True] * n)))
        path = tmp_path / "runs.jsonl"
        write_traces([trace], path)
        lines = path.read_text().split("\n")
        lines[5] = json.dumps(json.loads(lines[5]))  # spaced separators, in the first block
        path.write_text("\n".join(lines))
        walked, _ = watch_line_reads(monkeypatch, trace_module)
        assert_same_traces(read_traces(path), [trace])
        assert walked == list(range(1, BLOCK_LINES + 1))

    def test_a_file_without_its_last_newline_reads_only_its_last_block_a_line_at_a_time(
            self, tmp_path, monkeypatch):
        traces = [trace_from_rows([(0.0, 1.0, 1.0, None, False)] * n, seed=seed)
                  for seed, n in enumerate([BLOCK_LINES + 5, 2 * BLOCK_LINES])]
        path = tmp_path / "runs.jsonl"
        write_traces(traces, path)
        path.write_text(path.read_text()[:-1])
        lines = 3 * BLOCK_LINES + 7
        walked, opened = watch_line_reads(monkeypatch, trace_module)
        assert_same_traces(read_traces(path), reference_read_traces(path))
        events = [i for i in walked if i not in (1, BLOCK_LINES + 7)]  # not the run headers
        assert events == list(range(3 * BLOCK_LINES + 1, lines + 1)) and len(opened) == 1

    @pytest.mark.parametrize("name", EVENT_FIELDS)
    def test_respelled_value_in_a_written_file(self, tmp_path, name):
        # a file write_traces wrote, with field name of the one event of its
        # second run spelled oddly, or without its ':' or ','; a one-event run
        # leaves one piece a column, where a piece's first or last character
        # could pass unchecked (10.25 without a ':' or ',' still ends in JSON)
        traces = [trace_from_rows([(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, 0.5, True)]),
                  trace_from_rows([(10.25, 0.4, 0.4, 0.5, True)])]
        path = tmp_path / "runs.jsonl"
        write_traces(traces, path)
        *lines, event, end = path.read_text().split("\n")
        edits = [respell_value(event, name, spelling) for spelling in ODD_SPELLINGS]
        edits += [event.replace(f'"{name}":', f'"{name}"'),
                  re.sub(f'("{name}":[^,]*),', r"\1", event)]
        for edit in edits:
            path.write_text("\n".join([*lines, edit, end]))
            assert_reads_as_reference(path)

    def test_odd_lines_in_a_written_file(self, tmp_path):
        traces = [trace_from_rows([(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, 0.5, True)])] * 2
        path = tmp_path / "runs.jsonl"
        write_traces(traces, path)
        lines = path.read_text().split("\n")
        header, event = lines[3], lines[4]
        for i, edit in [(4, "," + event), (4, event + " "), (4, event.replace(":", ": ")),
                        (4, event.replace("{", "{ ")), (4, event + event), (3, '{"run":1}'),
                        (3, '{"run":[]}'), (3, header + "{}"), (3, header.replace(",", ", ")),
                        (3, header + " "), (2, header), (2, "")]:
            path.write_text("\n".join([*lines[:i], edit, *lines[i + 1:]]))
            assert_reads_as_reference(path)

    @settings(max_examples=400, deadline=None)
    @given(trace_file_lines(), st.integers(min_value=0, max_value=3), st.sampled_from(["\n", ""]),
           st.data())
    def test_matches_line_by_line_reference(self, lines, edits, end, data):
        # end: with or without a final newline
        for _ in range(edits):
            if lines:
                mutate(data, lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "runs.jsonl"
            path.write_text("\n".join(lines) + end)
            assert_reads_as_reference(path)
