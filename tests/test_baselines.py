from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffevo import (Budget, REConfig, make_synthetic, run_experiment, run_random_search,
                     run_regularized_evolution)
from diffevo.baselines import tournament_select

from conftest import (RecordingBenchmark, TransformedBenchmark, WithBatch, WithoutBatch,
                      assert_same_traces, each_seed, mutate_one_dimension, reference_run_re,
                      reference_run_rs, watch_tournaments)


class TestRandomSearch:
    def test_single_evaluation_budget(self):
        bench = make_synthetic(5, 4, seed=0)
        trace, = run_random_search(bench, Budget(max_evaluations=1), [0])
        assert len(trace) == 1
        assert trace.incumbent_objective[0] == trace.objective[0]

    def test_same_seed_identical_trace(self):
        bench = make_synthetic(5, 4, seed=0)
        budget = Budget(max_evaluations=100)
        assert_same_traces(run_random_search(bench, budget, [5]),
                           run_random_search(bench, budget, [5]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=1, max_value=6),
           st.one_of(st.builds(Budget, max_evaluations=st.integers(1, 120)),
                     st.builds(Budget, max_cost=st.floats(0.5, 90.0)),
                     st.builds(Budget, max_evaluations=st.integers(1, 120),
                               max_cost=st.floats(0.5, 90.0))),
           st.sampled_from(["unit", "lognormal"]),
           st.sampled_from([WithoutBatch, WithBatch, None]))
    def test_lockstep_matches_scalar_reference(self, seed, runs, budget, cost_model, wrap):
        bench = make_synthetic(3, 4, invalid_fraction=0.5, cost_model=cost_model, seed=seed % 7)
        got = bench if wrap is None else wrap(bench)
        want = RecordingBenchmark(bench)
        assert_same_traces(
            run_experiment(lambda b, seeds: run_random_search(b, budget, seeds), got, runs, seed),
            run_experiment(each_seed(lambda b, s: reference_run_rs(b, budget, s)), want, runs,
                           seed))
        if wrap is WithoutBatch:  # a batch may score rows past the cost limit
            assert Counter(got.configs) == Counter(want.configs)

    def test_incumbent_non_increasing(self):
        bench = make_synthetic(5, 4, invalid_fraction=0.3, seed=0)
        trace, = run_random_search(bench, Budget(max_evaluations=300), [1])
        assert np.all(np.diff(trace.incumbent_objective) <= 0.0)


def assert_fifo(seen, trace, population_size):
    """The k-th tournament saw exactly evaluations k .. k + size - 1, oldest first."""
    for k, fitness in enumerate(seen):
        assert np.array_equal(fitness, trace.objective[k:k + population_size])


class TestAging:
    def test_eviction_is_strictly_fifo(self, monkeypatch):
        seen = watch_tournaments(monkeypatch)
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=3, sample_size=2, budget=Budget(max_evaluations=60))
        trace, = run_regularized_evolution(bench, cfg, [0])
        assert len(seen) == 60 - 3  # one tournament per child
        assert_fifo(seen, trace, 3)
        # the oldest leaves first even when it is the fittest member
        assert any(before[0] < after.min() for before, after in zip(seen, seen[1:]))

    def test_capacity_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            REConfig(population_size=0)
        # the smallest population: every child replaces the only member
        seen = watch_tournaments(monkeypatch)
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=1, sample_size=1, budget=Budget(max_evaluations=20))
        trace, = run_regularized_evolution(bench, cfg, [0])
        assert len(seen) == 20 - 1
        assert_fifo(seen, trace, 1)


class TestTournament:
    def test_picks_fittest_entrant(self):
        fitness = np.array([[0.9, 0.1, 0.5, 0.7], [0.2, 0.8, 0.3, 0.1]])
        entrants = np.random.default_rng(3).integers(0, 4, size=(2, 3))
        choice = tournament_select(fitness, entrants)
        assert choice.tolist() == [min(row, key=lambda i: f[i])
                                   for f, row in zip(fitness, entrants.tolist())]

    def test_tie_broken_by_lowest_index(self):
        fitness = np.full((50, 4), 0.5)
        entrants = np.random.default_rng(0).integers(0, 4, size=(50, 2))
        assert tournament_select(fitness, entrants).tolist() == entrants.min(axis=1).tolist()

    def test_sample_size_one_returns_the_single_draw(self):
        fitness = np.tile([0.4, 0.2, 0.9], (50, 1))
        drawn = np.random.default_rng(0).integers(0, 3, size=(50, 1))
        assert tournament_select(fitness, drawn).tolist() == drawn[:, 0].tolist()


class TestMutateOneDimension:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=10))
    def test_changes_at_most_one_coordinate(self, seed, dimension):
        rng = np.random.default_rng(seed)
        parent = rng.random(dimension)
        child = mutate_one_dimension(parent, rng.random(2))
        assert child.shape == parent.shape
        assert np.sum(child != parent) <= 1
        assert np.all((child >= 0.0) & (child < 1.0))

    def test_parent_not_modified(self, rng):
        parent = rng.random(5)
        before = parent.copy()
        mutate_one_dimension(parent, rng.random(2))
        assert np.array_equal(parent, before)


class TestRegularizedEvolution:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            REConfig(population_size=0)
        with pytest.raises(ValueError):
            REConfig(population_size=10, sample_size=11)
        with pytest.raises(ValueError):
            REConfig(population_size=10, sample_size=0)

    def test_same_seed_identical_trace(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=20, sample_size=5, budget=Budget(max_evaluations=100))
        assert_same_traces(run_regularized_evolution(bench, cfg, [9]),
                           run_regularized_evolution(bench, cfg, [9]))

    def test_budget_smaller_than_warmup(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=50, sample_size=5, budget=Budget(max_evaluations=10))
        trace, = run_regularized_evolution(bench, cfg, [0])
        assert len(trace) == 10

    def test_population_stays_at_capacity(self, monkeypatch):
        seen = watch_tournaments(monkeypatch)
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=15, sample_size=3, budget=Budget(max_evaluations=80))
        trace, = run_regularized_evolution(bench, cfg, [0])
        # one tournament per child
        assert [len(fitness) for fitness in seen] == [15] * (80 - 15)
        assert_fifo(seen, trace, 15)

    def test_eviction_order_matches_insertion_order(self, monkeypatch):
        seen = watch_tournaments(monkeypatch)
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=10, sample_size=3, budget=Budget(max_evaluations=60))
        trace, = run_regularized_evolution(bench, cfg, [2])
        evictions = len(seen) - 1  # a member leaves between consecutive tournaments
        assert evictions == 49
        assert_fifo(seen, trace, 10)

    def test_every_run_in_lockstep_ages_fifo(self, monkeypatch):
        # an evaluation budget ends every run at the same step, so each step
        # shows one fitness row per run, in seed order
        seen = watch_tournaments(monkeypatch)
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=5, sample_size=2, budget=Budget(max_evaluations=40))
        traces = run_regularized_evolution(bench, cfg, [4, 5, 6])
        assert len(seen) == 3 * (40 - 5)
        for run, trace in enumerate(traces):
            assert_fifo(seen[run::3], trace, 5)

    def test_invalid_configurations_cost_nothing(self):
        bench = make_synthetic(5, 4, invalid_fraction=0.6, seed=1)
        cfg = REConfig(population_size=20, sample_size=4, budget=Budget(max_evaluations=200))
        trace, = run_regularized_evolution(bench, cfg, [0])
        invalid = ~trace.valid
        assert invalid.any(), "expected some invalid evaluations on this benchmark"
        increments = np.diff(trace.cumulative_cost, prepend=0.0)
        assert np.all(increments[invalid] == 0.0)
        assert np.all(trace.objective[invalid] == 1.0)


def reference_experiment(bench, cfg, seeds):
    """The traces of one reference run per seed, or the message of the
    ValueError that stopped the first failing one."""
    try:
        return run_experiment(each_seed(lambda b, s: reference_run_re(b, cfg, s)), bench,
                              n_runs=len(seeds), base_seed=seeds[0])
    except ValueError as exc:
        return str(exc)


def lockstep_experiment(bench, cfg, seeds):
    try:
        return run_experiment(lambda b, s: run_regularized_evolution(b, cfg, s), bench,
                              n_runs=len(seeds), base_seed=seeds[0])
    except ValueError as exc:
        return str(exc)


class TestLockstep:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([1, 2, 5, 20]).flatmap(
               lambda size: st.tuples(st.just(size), st.integers(1, size))),
           st.one_of(st.builds(Budget, max_evaluations=st.integers(1, 120)),
                     st.builds(Budget, max_cost=st.floats(0.5, 90.0)),
                     st.builds(Budget, max_evaluations=st.integers(1, 120),
                               max_cost=st.floats(0.5, 90.0))),
           st.sampled_from(["unit", "lognormal"]),
           st.booleans())
    def test_matches_scalar_reference(self, seed, runs, sizes, budget, cost_model, batch):
        # budgets cut runs during initialization and end them at different
        # steps; without evaluate_batch the children are asked one at a time
        bench = make_synthetic(3, 4, invalid_fraction=0.5, cost_model=cost_model, seed=seed % 7)
        cfg = REConfig(population_size=sizes[0], sample_size=sizes[1], budget=budget)
        seeds = range(seed, seed + runs)
        got = (WithBatch if batch else WithoutBatch)(bench)
        want = RecordingBenchmark(bench)
        got_runs = lockstep_experiment(got, cfg, seeds)
        want_runs = reference_experiment(want, cfg, seeds)
        if isinstance(want_runs, str):
            assert got_runs == want_runs
        else:
            assert_same_traces(got_runs, want_runs)
            if not batch:  # a batch may score rows past the cost limit
                # every configuration the reference asked for, and nothing past a cap
                assert Counter(got.configs) == Counter(want.configs)

    def test_ties_go_to_the_oldest_entrant(self):
        # a constant objective makes every tournament a tie
        bench = TransformedBenchmark(make_synthetic(3, 3, cost_model="unit", seed=0),
                                     lambda x: 0.5)
        cfg = REConfig(population_size=5, sample_size=3, budget=Budget(max_evaluations=60))
        got, want = RecordingBenchmark(bench), RecordingBenchmark(bench)
        assert_same_traces(lockstep_experiment(got, cfg, range(4)),
                           reference_experiment(want, cfg, range(4)))
        assert Counter(got.configs) == Counter(want.configs)

    @pytest.mark.parametrize("batch", [False, True])
    def test_failure_names_the_lowest_failing_seed(self, batch):
        # a configuration that a higher seed reaches at an earlier step than
        # a lower one: lockstep meets the higher seed's failure first
        base = make_synthetic(3, 3, cost_model="unit", seed=0)
        cfg = REConfig(population_size=4, sample_size=2, budget=Budget(max_evaluations=40))
        first = []  # per seed: configuration -> index of its first evaluation
        for seed in range(4):
            log = RecordingBenchmark(base)
            reference_run_re(log, cfg, seed)
            first.append({})
            for i, config in enumerate(log.configs):
                first[-1].setdefault(config, i)
        low, bad = next(
            (a, config) for a in range(4) for b in range(a + 1, 4)
            for config, i in first[a].items()
            if cfg.population_size <= first[b].get(config, i) < i)

        class Failing(WithBatch if batch else WithoutBatch):
            def evaluate(self, config):
                if config == bad:
                    raise ValueError(f"no score for {config}")
                return super().evaluate(config)

        want = reference_experiment(Failing(base), cfg, range(4))
        assert want.startswith(f"run with seed {low} failed: no score for ")
        assert lockstep_experiment(Failing(base), cfg, range(4)) == want

    def test_failure_during_initialization_names_the_lowest_seed(self):
        class Broken(WithoutBatch):
            def evaluate(self, config):
                self.configs.append(config)
                raise ValueError("backend gone")

        bench = Broken(make_synthetic(3, 3, seed=0))
        cfg = REConfig(population_size=4, sample_size=2, budget=Budget(max_evaluations=40))
        assert lockstep_experiment(bench, cfg, range(3, 6)) == \
            "run with seed 3 failed: backend gone"
        assert len(bench.configs) == 1  # no seed after the failing one was started
