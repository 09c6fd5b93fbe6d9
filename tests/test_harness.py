import csv
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffevo import (
    Budget,
    DEConfig,
    REConfig,
    aggregate,
    check_trace_invariants,
    final_regrets,
    make_synthetic,
    paired_sign_test,
    read_traces,
    regret_series,
    run_de,
    run_random_search,
    run_regularized_evolution,
    write_curve_csv,
    write_traces,
)

from diffevo import baselines, harness
from diffevo.harness import _CSV_CHUNK_ROWS, AggregateCurve, RunStreams, _build_grid
from diffevo.trace import RunRecorder

from conftest import (REPEATABLE_FLOATS, RecordingBenchmark, assert_same_traces,
                      repeated_value_columns, trace_from_rows)


def make_trace(times, regrets, best=0.0, seed=0, optimizer="x", benchmark="hand"):
    """Hand-built trace whose incumbent regret steps are given directly."""
    rows = [(t, best + r, best + r, None, True) for t, r in zip(times, regrets)]
    return trace_from_rows(rows, best_validation_error=best, seed=seed,
                           optimizer_id=optimizer, benchmark_id=benchmark)


class TestRegret:
    def test_arithmetic(self):
        trace = make_trace([1.0, 2.0], [0.01, 0.0], best=0.05)
        validation, test = regret_series(trace)
        assert validation.tolist() == pytest.approx([0.01, 0.0])
        assert test is None

    def test_non_negative_and_non_increasing_on_real_runs(self):
        bench = make_synthetic(5, 4, invalid_fraction=0.2, seed=0)
        trace, = run_de(bench, DEConfig(budget=Budget(max_evaluations=300)), [1])
        assert (trace.best_validation_error, trace.best_test_error) == (
            bench.best_validation_error, bench.best_test_error)
        validation, test = regret_series(trace)
        assert np.all(validation >= 0.0)
        assert np.all(np.diff(validation) <= 0.0)
        finite = test[~np.isnan(test)]
        assert finite.size > 0

    def test_test_regret_uses_validation_incumbent(self):
        trace = trace_from_rows([
            (1.0, 0.3, 0.3, 0.35, True),
            (2.0, 0.2, 0.2, 0.22, True),
            (3.0, 0.9, 0.2, 0.22, True),
        ], best_validation_error=0.2, best_test_error=0.2)
        _, test = regret_series(trace)
        assert test.tolist() == pytest.approx([0.15, 0.02, 0.02])

    def test_final_regrets(self):
        traces = [make_trace([1.0], [0.3]), make_trace([1.0], [0.1])]
        assert final_regrets(traces).tolist() == pytest.approx([0.3, 0.1])


class TestAggregate:
    @pytest.mark.parametrize("grid", [[], [[1.0]]], ids=["empty", "2d"])
    def test_explicit_grid_must_be_a_nonempty_sequence(self, grid):
        with pytest.raises(ValueError, match="^explicit grid must be a non-empty 1-d sequence$"):
            aggregate([make_trace([1.0], [0.5])], grid=grid)

    def test_two_trace_hand_example(self):
        a = make_trace([1.0, 3.0], [0.4, 0.2])
        b = make_trace([2.0], [0.3])
        curve = aggregate([a, b], grid="union")
        assert curve.times.tolist() == [1.0, 2.0, 3.0]
        # at t=3 the second run forward-fills 0.3: mean (0.2 + 0.3) / 2
        assert curve.mean_regret.tolist() == pytest.approx([0.4, 0.35, 0.25])
        assert curve.n_runs.tolist() == [1, 2, 2]

    def test_single_trace_is_identity_on_its_grid(self):
        trace = make_trace([1.0, 2.5, 4.0], [0.5, 0.3, 0.1])
        curve = aggregate([trace], grid="union")
        assert curve.times.tolist() == [1.0, 2.5, 4.0]
        assert curve.mean_regret.tolist() == pytest.approx([0.5, 0.3, 0.1])
        assert curve.n_runs.tolist() == [1, 1, 1]

    def test_constant_traces_give_constant_curve(self):
        traces = [make_trace([1.0, 2.0, 3.0], [0.2, 0.2, 0.2]) for _ in range(3)]
        curve = aggregate(traces, grid="union")
        assert curve.mean_regret.tolist() == pytest.approx([0.2, 0.2, 0.2])

    def test_order_invariance(self):
        a = make_trace([1.0, 3.0], [0.4, 0.2], seed=0)
        b = make_trace([2.0], [0.3], seed=1)
        fwd = aggregate([a, b], grid="union")
        rev = aggregate([b, a], grid="union")
        assert np.array_equal(fwd.times, rev.times)
        assert np.array_equal(fwd.mean_regret, rev.mean_regret)
        assert np.array_equal(fwd.n_runs, rev.n_runs)

    def test_points_before_first_event_are_unsupported(self):
        trace = make_trace([5.0], [0.1])
        curve = aggregate([trace], grid=[1.0, 5.0, 9.0])
        assert curve.n_runs.tolist() == [0, 1, 1]
        assert math.isnan(curve.mean_regret[0])
        assert curve.mean_regret[1:].tolist() == pytest.approx([0.1, 0.1])

    def test_duplicate_times_take_the_latest_event(self):
        # zero-cost (invalid) evaluations stack events at one time stamp
        trace = make_trace([1.0, 1.0, 1.0], [0.5, 0.5, 0.2])
        curve = aggregate([trace], grid="union")
        assert curve.times.tolist() == [1.0]
        assert curve.mean_regret.tolist() == pytest.approx([0.2])

    def test_log_grid_spans_event_times(self):
        a = make_trace([2.0, 50.0], [0.4, 0.1])
        b = make_trace([4.0, 80.0], [0.5, 0.2])
        curve = aggregate([a, b], grid="log", points=64)
        assert len(curve.times) == 64
        assert curve.times[0] == pytest.approx(2.0)
        assert curve.times[-1] == pytest.approx(80.0)
        assert np.all(np.diff(curve.times) > 0)

    @pytest.mark.parametrize("bests", [[0.1], [0.1, 0.3, 0.5]])
    def test_log_grid_of_runs_that_spend_nothing_is_the_one_time_zero(self, bests):
        # invalid evaluations cost nothing, so no time is positive to start a log grid
        traces = [trace_from_rows([(0.0, 1.0, 1.0, None, False)] * 2, best_validation_error=b,
                                  seed=seed) for seed, b in enumerate(bests)]
        curve = aggregate(traces, grid="log")
        assert curve.times.tolist() == [0.0]
        assert curve.mean_regret.tolist() == pytest.approx([np.mean([1.0 - b for b in bests])])
        assert curve.n_runs.tolist() == [len(bests)]

    def test_mean_curve_monotone_when_runs_share_origin(self):
        bench = make_synthetic(5, 4, cost_model="unit", seed=0)
        traces = run_random_search(bench, Budget(max_evaluations=150), range(8))
        curve = aggregate(traces, grid="union")
        assert np.all(np.diff(curve.mean_regret) <= 1e-15)

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([], grid="union")

    def test_mixed_benchmarks_rejected(self):
        a = make_trace([1.0], [0.1], benchmark="one")
        b = make_trace([1.0], [0.1], benchmark="two")
        with pytest.raises(ValueError, match="multiple benchmarks"):
            aggregate([a, b])

    @pytest.mark.parametrize("points", [0, -1])
    def test_log_grid_needs_a_point(self, points):
        # even where the times collapse to a single grid point
        for times in ([1.0], [1.0, 9.0]):
            trace = make_trace(times, [0.1] * len(times))
            with pytest.raises(ValueError, match=f"at least 1 point, got {points}"):
                aggregate([trace], grid="log", points=points)
        assert len(aggregate([trace], grid="log", points=1).times) == 1

    def test_bad_grid_specs_rejected(self):
        trace = make_trace([1.0], [0.1])
        with pytest.raises(ValueError):
            aggregate([trace], grid="linear")
        with pytest.raises(ValueError):
            aggregate([trace], grid=[3.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            aggregate([trace], grid=[math.nan, 1.0])


def reference_aggregate(traces, grid="union", points=512):
    """Reference: one ``searchsorted`` of every grid time into each run's event times."""
    series = [(t.cumulative_cost, regret_series(t)[0]) for t in traces]
    grid_times = _build_grid(grid, points, [t for t, _ in series])
    total = np.zeros(len(grid_times))
    count = np.zeros(len(grid_times), dtype=int)
    for times, regret in series:
        pos = np.searchsorted(times, grid_times, side="right") - 1
        started = pos >= 0
        total[started] += regret[pos[started]]
        count[started] += 1
    mean = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return AggregateCurve(times=grid_times, mean_regret=mean, n_runs=count)


@st.composite
def step_runs(draw):
    """1-5 runs of 1-6 events; zero-cost steps repeat a time stamp."""
    runs = []
    for seed in range(draw(st.integers(min_value=1, max_value=5))):
        time = draw(st.sampled_from([0.0, 0.5, 3.0]))
        regret = draw(st.floats(min_value=0.0, max_value=1.0))
        times, regrets = [], []
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            time += draw(st.sampled_from([0.0, 0.0, 0.25, 1.0, 7.5]))
            regret = draw(st.floats(min_value=0.0, max_value=regret))
            times.append(time)
            regrets.append(regret)
        runs.append(make_trace(times, regrets, seed=seed))
    return runs


class TestAggregateAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(step_runs(), st.one_of(
        st.just("union"),
        st.integers(min_value=1, max_value=40).map(lambda points: ("log", points)),
        st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 9.0, 40.0, math.inf]),
                 min_size=1, max_size=12).map(sorted)))
    def test_matches_searchsorted_reference(self, traces, grid):
        grid, points = grid if isinstance(grid, tuple) else (grid, 512)
        got = aggregate(traces, grid=grid, points=points)
        want = reference_aggregate(traces, grid=grid, points=points)
        for name in ("times", "mean_regret", "n_runs"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name

    @pytest.mark.parametrize("grid", ["union", "log", [0.0, 0.5, 0.5, 1.0, 6.0, 6.0, 100.0]])
    def test_edge_runs_match_reference(self, grid):
        # grid points before every first event, repeated zero-cost times, single events
        traces = [make_trace([6.0], [0.5], seed=0),
                  make_trace([1.0, 1.0, 1.0, 6.0], [0.9, 0.9, 0.4, 0.1], seed=1),
                  make_trace([6.0, 6.0], [0.3, 0.2], seed=2)]
        got = aggregate(traces, grid=grid)
        want = reference_aggregate(traces, grid=grid)
        for name in ("times", "mean_regret", "n_runs"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


class TestRunExperiment:
    """An experiment is one optimizer call over a range of seeds."""

    @staticmethod
    def run(bench, seeds, budget=20):
        return run_random_search(bench, Budget(max_evaluations=budget), seeds)

    def test_seed_order_and_count(self):
        bench = make_synthetic(4, 3, seed=0)
        traces = self.run(bench, range(10, 15))
        assert [t.seed for t in traces] == [10, 11, 12, 13, 14]

    def test_single_run(self):
        bench = make_synthetic(4, 3, seed=0)
        traces = self.run(bench, range(1))
        assert len(traces) == 1

    def test_many_independent_runs(self):
        bench = make_synthetic(4, 3, seed=0)
        traces = self.run(bench, range(500), budget=1)
        assert len(traces) == 500
        assert len({t.seed for t in traces}) == 500

    def test_rerun_identical(self):
        bench = make_synthetic(4, 3, seed=0)
        a = self.run(bench, range(3, 7))
        b = self.run(bench, range(3, 7))
        assert_same_traces(a, b)

    def test_abort_carries_the_seed(self):
        # the benchmark fails on a configuration that seed 2 draws and seeds 0
        # and 1 do not
        base = make_synthetic(4, 3, seed=0)
        logs = [RecordingBenchmark(base) for _ in range(4)]
        for seed, log in enumerate(logs):
            self.run(log, [seed])
        bad = next(c for c in logs[2].configs if not any(c in log.configs for log in logs[:2]))

        class Failing(RecordingBenchmark):
            def evaluate(self, config):
                if config == bad:
                    raise RuntimeError("boom")
                return super().evaluate(config)

        with pytest.raises(RuntimeError, match="seed 2"):
            self.run(Failing(base), range(4))

    def test_value_error_stays_a_value_error(self):
        class Failing(RecordingBenchmark):
            def evaluate(self, config):
                raise ValueError("bad input")

        bench = Failing(make_synthetic(4, 3, seed=0))
        with pytest.raises(ValueError, match="^run with seed 5 failed: bad input$"):
            self.run(bench, range(5, 7))

    def test_rejects_zero_runs(self):
        bench = make_synthetic(4, 3, seed=0)
        with pytest.raises(ValueError):
            self.run(bench, range(0))

    @pytest.mark.parametrize("optimize, budget", [
        (lambda bench, budget, seeds: run_de(
            bench, DEConfig(population_size=5, budget=budget), seeds),
         Budget(max_evaluations=178, max_cost=120.0)),
        (lambda bench, budget, seeds: run_regularized_evolution(
            bench, REConfig(population_size=5, sample_size=3, budget=budget), seeds),
         Budget(max_evaluations=160, max_cost=120.0)),
        (run_random_search, Budget(max_evaluations=170, max_cost=100.0))],
        ids=["de", "re", "rs"])
    def test_the_benchmark_sees_only_the_rows_of_runs_still_going(self, monkeypatch, optimize,
                                                                 budget):
        # under the cost cap the runs leave at different steps (random search
        # at 32 genotypes a step), and some reach the evaluation limit, which
        # cuts DE's and random search's last block; each evaluate_batch call
        # holds exactly the rows of the runs live before its recorder call, up
        # to that limit
        monkeypatch.setattr(baselines, "RS_BLOCK", 64)
        base = make_synthetic(3, 4, invalid_fraction=0.5, cost_model="lognormal", seed=3)
        runs = 6
        asked, wanted, live = [], [], []

        class Batches:
            space, benchmark_id = base.space, base.benchmark_id
            best_validation_error, best_test_error = base.best_validation_error, base.best_test_error

            def evaluate_batch(self, genotypes):
                asked.append(genotypes.copy())
                return base.evaluate_batch(genotypes)

        evaluate = RunRecorder.evaluate

        def watched(recorder, genotypes):
            assert len(genotypes) == runs
            events = sum(w.shape[1] for w in wanted)  # every run still going has as many
            rows = genotypes[recorder.live, :budget.max_evaluations - events]
            if rows.size:
                wanted.append(rows)
            live.append(len(recorder.live))
            return evaluate(recorder, genotypes)

        monkeypatch.setattr(RunRecorder, "evaluate", watched)
        lengths = [len(t) for t in optimize(Batches(), budget, range(runs))]
        assert len(asked) == len(wanted)
        for got, want in zip(asked, wanted):
            assert got.tobytes() == want.reshape(-1, base.space.dimension).tobytes()
        assert any(0 < n < runs for n in live)
        assert min(lengths) < max(lengths) == budget.max_evaluations


class TestRunStreams:
    @pytest.mark.parametrize("block", [1, 50, 2**16])
    def test_rows_are_each_runs_sequential_draws(self, monkeypatch, block):
        # a block of 1 refills at every request; 50 gives 4 runs rows of 12
        # values, so requests cross refills and leave tails
        monkeypatch.setattr(harness, "DRAW_BLOCK", block)
        seeds = [3, 4, 5, 6]
        streams, rngs = RunStreams(seeds), {seed: np.random.default_rng(seed) for seed in seeds}
        for n in [7, 0, 13, 1, 5, 40, 2, 11, 3, 9]:
            got = streams(n)
            assert got.shape == (len(seeds), n)
            for row, seed in zip(got, seeds):
                assert row.tobytes() == rngs[seed].random(n).tobytes()


def scalar_invariant_violation(trace):
    """Reference: the event-by-event check, returning its first message or None."""
    prev_cost, lowest = 0.0, math.inf
    events = zip(trace.cumulative_cost.tolist(), trace.objective.tolist(),
                 trace.incumbent_objective.tolist(), trace.valid.tolist())
    for i, (cost, objective, incumbent, valid) in enumerate(events):
        where = f"event {i} of {trace.optimizer_id} run (seed {trace.seed})"
        if not 0.0 <= objective <= 1.0:
            return f"{where}: objective {objective} outside [0, 1]"
        if not cost >= prev_cost:
            return f"{where}: cumulative cost decreased or is not a number"
        if not valid and cost != prev_cost:
            return f"{where}: invalid evaluation accrued cost"
        if not valid and objective != 1.0:
            return f"{where}: invalid evaluation scored other than 1.0"
        lowest = min(lowest, objective)
        if incumbent != lowest:
            return f"{where}: incumbent objective is not the best objective so far"
        if incumbent < trace.best_validation_error:
            return f"{where}: incumbent beats the benchmark's best (negative regret)"
        prev_cost = cost
    return None


class TestTraceInvariants:
    @given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 2.5, math.nan]),
                              st.sampled_from([-0.1, 0.0, 0.3, 1.0, 1.5, math.nan]),
                              st.sampled_from([0.0, 0.2, 0.3, 0.6, math.nan]),
                              st.booleans()),
                    min_size=1, max_size=8),
           st.sampled_from([0.0, 0.25]))
    def test_matches_event_by_event_reference(self, events, best):
        rows = [(cost, objective, incumbent, None, valid)
                for cost, objective, incumbent, valid in events]
        trace = trace_from_rows(rows, best_validation_error=best)
        want = scalar_invariant_violation(trace)
        if want is None:
            check_trace_invariants(trace)
        else:
            with pytest.raises(ValueError) as err:
                check_trace_invariants(trace)
            assert str(err.value) == want

    def test_recorded_runs_always_satisfy_them(self):
        bench = make_synthetic(5, 4, invalid_fraction=0.4, seed=2)
        trace, = run_de(bench, DEConfig(budget=Budget(max_evaluations=200)), [0])
        check_trace_invariants(trace)

    def test_detects_increasing_incumbent(self):
        trace = make_trace([1.0, 2.0], [0.1, 0.2])
        with pytest.raises(ValueError, match="incumbent"):
            check_trace_invariants(trace)

    def test_detects_decreasing_cost(self):
        trace = trace_from_rows([(2.0, 0.5, 0.5, None, True),
                                 (1.0, 0.5, 0.5, None, True)])
        with pytest.raises(ValueError, match="cost"):
            check_trace_invariants(trace)

    def test_detects_invalid_evaluation_with_cost(self):
        trace = trace_from_rows([(1.0, 1.0, 1.0, None, False)])
        with pytest.raises(ValueError, match="invalid"):
            check_trace_invariants(trace)

    def test_detects_negative_regret(self):
        trace = make_trace([1.0], [0.1], best=0.3)
        object.__setattr__(trace, "best_validation_error", 0.5)
        with pytest.raises(ValueError, match="negative regret"):
            check_trace_invariants(trace)

    def test_detects_empty_trace(self):
        trace = trace_from_rows([])
        with pytest.raises(ValueError, match="no events"):
            check_trace_invariants(trace)


class TestTracePersistence:
    def test_round_trip(self, tmp_path):
        bench = make_synthetic(5, 4, invalid_fraction=0.2, seed=0)
        traces = run_de(bench, DEConfig(budget=Budget(max_evaluations=60)), range(3))
        path = tmp_path / "runs.jsonl"
        write_traces(traces, path)
        loaded = read_traces(path)
        assert_same_traces(loaded, traces)

    @pytest.mark.parametrize("run, config, fields", [
        (run_de, DEConfig(population_size=6, scaling_factor=0.7, crossover_rate=0.2,
                          budget=Budget(max_evaluations=30)),
         {"population_size": 6, "scaling_factor": 0.7, "crossover_rate": 0.2}),
        (run_regularized_evolution, REConfig(population_size=7, sample_size=3,
                                             budget=Budget(max_evaluations=30)),
         {"population_size": 7, "sample_size": 3}),
        (run_random_search, Budget(max_evaluations=30), {}),
    ], ids=["de", "re", "rs"])
    def test_config_holds_the_optimizer_fields_but_the_budget(self, tmp_path, run, config,
                                                              fields):
        traces = run(make_synthetic(3, 3, seed=0), config, range(2))
        path = tmp_path / "runs.jsonl"
        write_traces(traces, path)
        headers = [json.loads(line)["run"] for line in path.read_text().splitlines()
                   if line.startswith('{"run":')]
        assert [trace.config for trace in traces] == [fields] * 2
        assert [header["config"] for header in headers] == [fields] * 2

    def test_missing_test_error_round_trips_as_null(self, tmp_path):
        trace = trace_from_rows([(0.0, 1.0, 1.0, None, False), (1.5, 0.4, 0.4, 0.45, True)],
                                best_test_error=0.3)
        path = tmp_path / "runs.jsonl"
        write_traces([trace], path)
        first_event = path.read_text().splitlines()[1]
        assert '"incumbent_test_error":null' in first_event
        assert_same_traces(read_traces(path), [trace])

    def test_reaggregation_equals_in_process(self, tmp_path):
        bench = make_synthetic(5, 4, seed=0)
        traces = run_random_search(bench, Budget(max_evaluations=40), range(4))
        path = tmp_path / "runs.jsonl"
        write_traces(traces, path)
        direct = aggregate(traces, grid="union")
        reloaded = aggregate(read_traces(path), grid="union")
        assert np.array_equal(direct.times, reloaded.times)
        assert np.array_equal(direct.mean_regret, reloaded.mean_regret)
        assert np.array_equal(direct.n_runs, reloaded.n_runs)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"weird": 1}\n')
        with pytest.raises(ValueError):
            read_traces(path)

    def test_rejects_event_before_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"eval_index":0,"cumulative_cost":1.0,"objective":0.5,'
                        '"incumbent_objective":0.5,"incumbent_test_error":null,"valid":true}\n')
        with pytest.raises(ValueError, match="before any run header"):
            read_traces(path)


class TestTraceFileValidation:
    HEADER = ('{"run":{"benchmark":"hand","best_test_error":null,"best_validation_error":0.1,'
              '"config":{},"optimizer":"x","seed":3}}')

    def event(self, index, cost, objective, incumbent, valid=True):
        return json.dumps({"eval_index": index, "cumulative_cost": cost, "objective": objective,
                           "incumbent_objective": incumbent, "incumbent_test_error": None,
                           "valid": valid})

    def write(self, tmp_path, *lines):
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_well_formed_file_reads(self, tmp_path):
        path = self.write(tmp_path, self.HEADER, self.event(0, 1.0, 0.5, 0.5),
                          self.event(1, 2.0, 0.3, 0.3))
        (trace,) = read_traces(path)
        assert trace.seed == 3 and len(trace) == 2

    def test_event_missing_a_field_names_line_and_field(self, tmp_path):
        broken = json.loads(self.event(1, 2.0, 0.3, 0.3))
        del broken["incumbent_objective"]
        path = self.write(tmp_path, self.HEADER, self.event(0, 1.0, 0.5, 0.5), json.dumps(broken))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:3: .*'incumbent_objective'"):
            read_traces(path)

    def test_header_missing_a_field_names_line_and_field(self, tmp_path):
        header = json.loads(self.HEADER)
        del header["run"]["best_validation_error"]
        path = self.write(tmp_path, json.dumps(header), self.event(0, 1.0, 0.5, 0.5))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: .*'best_validation_error'"):
            read_traces(path)

    def test_eval_index_out_of_sequence_names_line(self, tmp_path):
        path = self.write(tmp_path, self.HEADER, self.event(0, 1.0, 0.5, 0.5),
                          self.event(2, 2.0, 0.3, 0.3))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:3: eval_index 2"):
            read_traces(path)

    def test_null_number_or_non_boolean_valid_rejected(self, tmp_path):
        null_cost = json.loads(self.event(1, 2.0, 0.3, 0.3))
        null_cost["cumulative_cost"] = None
        path = self.write(tmp_path, self.HEADER, self.event(0, 1.0, 0.5, 0.5), json.dumps(null_cost))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: event 1 .*not a number"):
            read_traces(path)
        word = json.loads(self.event(1, 2.0, 0.3, 0.3))
        word["valid"] = "false"
        path = self.write(tmp_path, self.HEADER, self.event(0, 1.0, 0.5, 0.5), json.dumps(word))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:3: event field 'valid' "
                                             "is not true or false: 'false'$"):
            read_traces(path)

    def test_run_breaking_invariants_names_the_path(self, tmp_path):
        # the second incumbent lies below the benchmark's best (0.1)
        path = self.write(tmp_path, self.HEADER, self.event(0, 1.0, 0.5, 0.5),
                          self.event(1, 2.0, 0.05, 0.05))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: event 1 .*negative regret"):
            read_traces(path)


def reference_curve_csv(curve, path):
    """Reference: the curve through ``csv.writer``, floats by ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mean_regret", "n_runs"])
        for t, r, n in zip(curve.times, curve.mean_regret, curve.n_runs):
            writer.writerow([repr(float(t)), repr(float(r)), int(n)])


def assert_csv_matches_reference(curve, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_curve_csv(curve, got)
    reference_curve_csv(curve, want)
    assert got.read_bytes() == want.read_bytes()


ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3]


class TestCurveCsv:
    def test_odd_floats_match_csv_writer(self, tmp_path):
        n = len(ODD_FLOATS)
        curve = AggregateCurve(times=np.array(ODD_FLOATS), mean_regret=np.array(ODD_FLOATS[::-1]),
                               n_runs=np.arange(n) * 7)
        assert_csv_matches_reference(curve, tmp_path)
        assert curve.n_runs[0] == 0

    @pytest.mark.parametrize("n", [_CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 3])
    def test_curve_longer_than_a_write_chunk(self, tmp_path, n):
        rng = np.random.default_rng(0)
        curve = AggregateCurve(times=np.cumsum(rng.random(n)),
                               mean_regret=np.where(np.arange(n) < 5, np.nan, rng.random(n)),
                               n_runs=rng.integers(0, 50, n))
        assert_csv_matches_reference(curve, tmp_path)

    def test_repeated_regrets_across_a_write_chunk(self, tmp_path):
        # runs of three equal regrets, one of them across each chunk boundary;
        # -0.0 and 0.0 keep their own spellings
        n = 2 * _CSV_CHUNK_ROWS + 7
        regrets = np.array([-0.0, 0.0, math.nan, 0.25, -0.0, math.inf])
        curve = AggregateCurve(times=np.arange(n) * 0.5,
                               mean_regret=regrets[np.arange(n) // 3 % len(regrets)],
                               n_runs=np.full(n, 4))
        assert _CSV_CHUNK_ROWS % 3
        assert_csv_matches_reference(curve, tmp_path)

    @settings(deadline=None)
    @given(repeated_value_columns(REPEATABLE_FLOATS, REPEATABLE_FLOATS,
                                  st.integers(min_value=0, max_value=5)),
           st.integers(min_value=1, max_value=8))
    def test_repeated_values_match_csv_writer(self, columns, chunk_rows):
        # a small chunk puts runs of equal values across chunk boundaries
        times, regrets, counts = map(np.array, columns)
        curve = AggregateCurve(times=times, mean_regret=regrets, n_runs=counts)
        with (tempfile.TemporaryDirectory() as tmp,
              mock.patch.object(harness, "_CSV_CHUNK_ROWS", chunk_rows)):
            assert_csv_matches_reference(curve, Path(tmp))

    def test_empty_curve_is_a_header(self, tmp_path):
        curve = AggregateCurve(times=np.array([]), mean_regret=np.array([]),
                               n_runs=np.array([], dtype=int))
        assert_csv_matches_reference(curve, tmp_path)

    def test_columns_and_values(self, tmp_path):
        curve = aggregate([make_trace([1.0, 2.0], [0.4, 0.1])], grid="union")
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,mean_regret,n_runs"
        assert lines[1].split(",") == ["1.0", "0.4", "1"]
        assert lines[2].split(",") == ["2.0", "0.1", "1"]


class TestPairedSignTest:
    def p_binomial(self, wins, n):
        # oracle: one-sided binomial tail computed from first principles
        return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n

    def test_matches_binomial_tail(self):
        x = np.array([0.1] * 14 + [0.9] * 6)
        y = np.array([0.5] * 20)
        assert paired_sign_test(x, y) == pytest.approx(self.p_binomial(14, 20))

    def test_all_wins_is_significant(self):
        x, y = np.zeros(20), np.ones(20)
        assert paired_sign_test(x, y) == pytest.approx(0.5**20)
        assert paired_sign_test(x, y) < 0.05

    def test_ties_are_dropped(self):
        x = np.array([0.1, 0.5, 0.5, 0.1])
        y = np.array([0.5, 0.5, 0.5, 0.5])
        assert paired_sign_test(x, y) == pytest.approx(self.p_binomial(2, 2))

    def test_all_ties_give_one(self):
        x = np.full(5, 0.3)
        assert paired_sign_test(x, x) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            paired_sign_test([0.1, 0.2], [0.1])
