import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffevo import Budget, REConfig, make_synthetic, run_random_search, run_regularized_evolution
from diffevo.baselines import mutate_one_dimension, tournament_select

from conftest import assert_same_traces, watch_tournaments


class TestRandomSearch:
    def test_single_evaluation_budget(self):
        bench = make_synthetic(5, 4, seed=0)
        trace = run_random_search(bench, Budget(max_evaluations=1), seed=0)
        assert len(trace) == 1
        assert trace.incumbent_objective[0] == trace.objective[0]

    def test_same_seed_identical_trace(self):
        bench = make_synthetic(5, 4, seed=0)
        budget = Budget(max_evaluations=100)
        a = run_random_search(bench, budget, seed=5)
        b = run_random_search(bench, budget, seed=5)
        assert_same_traces([a], [b])

    def test_incumbent_non_increasing(self):
        bench = make_synthetic(5, 4, invalid_fraction=0.3, seed=0)
        trace = run_random_search(bench, Budget(max_evaluations=300), seed=1)
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
        trace = run_regularized_evolution(bench, cfg, seed=0)
        assert len(seen) == 60 - 3 + 1
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
        trace = run_regularized_evolution(bench, cfg, seed=0)
        assert len(seen) == 20
        assert_fifo(seen, trace, 1)


class TestTournament:
    def test_picks_fittest_entrant(self):
        fitness = np.array([0.9, 0.1, 0.5, 0.7])
        rng = np.random.default_rng(3)
        expected_entrants = np.random.default_rng(3).integers(0, 4, size=3)
        choice = tournament_select(fitness, sample_size=3, rng=rng)
        assert choice == min(expected_entrants, key=lambda i: fitness[i])

    def test_tie_broken_by_lowest_index(self):
        fitness = np.array([0.5, 0.5, 0.5, 0.5])
        for seed in range(50):
            rng = np.random.default_rng(seed)
            entrants = np.random.default_rng(seed).integers(0, 4, size=2)
            assert tournament_select(fitness, 2, rng) == min(entrants)

    def test_sample_size_one_returns_the_single_draw(self):
        fitness = np.array([0.4, 0.2, 0.9])
        for seed in range(50):
            rng = np.random.default_rng(seed)
            drawn = int(np.random.default_rng(seed).integers(0, 3, size=1)[0])
            assert tournament_select(fitness, 1, rng) == drawn


class TestMutateOneDimension:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=10))
    def test_changes_at_most_one_coordinate(self, seed, dimension):
        rng = np.random.default_rng(seed)
        parent = rng.random(dimension)
        child = mutate_one_dimension(parent, rng)
        assert child.shape == parent.shape
        assert np.sum(child != parent) <= 1
        assert np.all((child >= 0.0) & (child < 1.0))

    def test_parent_not_modified(self, rng):
        parent = rng.random(5)
        before = parent.copy()
        mutate_one_dimension(parent, rng)
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
        a = run_regularized_evolution(bench, cfg, seed=9)
        b = run_regularized_evolution(bench, cfg, seed=9)
        assert_same_traces([a], [b])

    def test_budget_smaller_than_warmup(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=50, sample_size=5, budget=Budget(max_evaluations=10))
        trace = run_regularized_evolution(bench, cfg, seed=0)
        assert len(trace) == 10

    def test_population_stays_at_capacity(self, monkeypatch):
        seen = watch_tournaments(monkeypatch)
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=15, sample_size=3, budget=Budget(max_evaluations=80))
        trace = run_regularized_evolution(bench, cfg, seed=0)
        # one tournament per child, plus the one cut short by the budget
        assert [len(fitness) for fitness in seen] == [15] * (80 - 15 + 1)
        assert_fifo(seen, trace, 15)

    def test_eviction_order_matches_insertion_order(self, monkeypatch):
        seen = watch_tournaments(monkeypatch)
        bench = make_synthetic(5, 4, seed=0)
        cfg = REConfig(population_size=10, sample_size=3, budget=Budget(max_evaluations=60))
        trace = run_regularized_evolution(bench, cfg, seed=2)
        evictions = len(seen) - 1  # a member leaves between consecutive tournaments
        assert evictions == 50
        assert_fifo(seen, trace, 10)

    def test_invalid_configurations_cost_nothing(self):
        bench = make_synthetic(5, 4, invalid_fraction=0.6, seed=1)
        cfg = REConfig(population_size=20, sample_size=4, budget=Budget(max_evaluations=200))
        trace = run_regularized_evolution(bench, cfg, seed=0)
        invalid = ~trace.valid
        assert invalid.any(), "expected some invalid evaluations on this benchmark"
        increments = np.diff(trace.cumulative_cost, prepend=0.0)
        assert np.all(increments[invalid] == 0.0)
        assert np.all(trace.objective[invalid] == 1.0)
