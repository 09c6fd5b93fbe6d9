import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffevo import Budget, DEConfig, make_synthetic, run_de
from diffevo.benchmarks import continuous_function
from diffevo.de import crossover_binomial, draw_parent_indices, mutant_vector, trial_wins

from conftest import RecordingBenchmark, TransformedBenchmark, assert_same_traces


def identity_bench(dimension):
    # float bounds [0, 1] make discretized configs equal the genotypes
    return continuous_function("sphere", dimension, lo=0.0, hi=1.0)


def initial_population(population_size, dimension, seed):
    """The genotypes DE evaluates first, read back through an identity benchmark."""
    bench = RecordingBenchmark(identity_bench(dimension))
    cfg = DEConfig(population_size=population_size,
                   budget=Budget(max_evaluations=population_size))
    run_de(bench.space, bench, cfg, seed=seed)
    return np.array(bench.configs)


class TestInitialize:
    def test_population_shape_and_range(self):
        population = initial_population(20, 5, seed=12345)
        assert population.shape == (20, 5)
        assert np.all((population >= 0.0) & (population < 1.0))

    def test_too_small_population_rejected(self):
        with pytest.raises(ValueError):
            DEConfig(population_size=3)
        # four members are enough: the target plus three distinct parents
        bench = make_synthetic(4, 3, seed=0)
        trace = run_de(bench.space, bench,
                       DEConfig(population_size=4, budget=Budget(max_evaluations=40)), seed=0)
        assert len(trace) == 40

    def test_same_seed_identical(self):
        a = initial_population(8, 3, seed=4)
        b = initial_population(8, 3, seed=4)
        assert np.array_equal(a, b)
        # one (NP, D) uniform draw from the run's generator, row by row
        assert np.array_equal(a, np.random.default_rng(4).random((8, 3)))


class TestParentIndices:
    @pytest.mark.parametrize("population_size", [4, 5, 8])
    def test_distinct_and_exclude_target(self, population_size):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(10_000):
            target = int(rng.integers(population_size))
            r1, r2, r3 = draw_parent_indices(population_size, target, rng)
            assert len({r1, r2, r3}) == 3
            assert target not in (r1, r2, r3)
            seen.update((r1, r2, r3))
        assert seen == set(range(population_size))

    @pytest.mark.parametrize("population_size", [4, 5, 20, 100])
    def test_matches_sampling_from_the_other_members(self, population_size):
        # reference: choose three of the members other than the target
        for target in range(population_size):
            for seed in range(20):
                rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                others = np.delete(np.arange(population_size), target)
                want = reference.choice(others, size=3, replace=False).tolist()
                assert list(draw_parent_indices(population_size, target, rng)) == want
                # same draws consumed: the generators stay in step
                assert rng.random() == reference.random()


class TestMutantVector:
    def test_zero_difference_returns_first_parent(self):
        x1 = np.array([0.4, 0.6])
        x23 = np.array([0.8, 0.2])
        for f in (0.0, 0.5, 1.0, 7.3):
            assert np.array_equal(mutant_vector(x1, x23, x23, f), x1)

    def test_direct_evaluation(self):
        got = mutant_vector(np.array([0.2, 0.2]), np.array([1.0, 0.6]),
                            np.array([0.0, 0.2]), 0.5)
        assert np.array_equal(got, np.array([0.7, 0.4]))

    def test_clipping(self):
        # raw result (1.4, -0.4) leaves the hypercube and is clipped back
        got = mutant_vector(np.array([0.9, 0.1]), np.array([1.0, 0.0]),
                            np.array([0.0, 1.0]), 0.5)
        assert np.array_equal(got, np.array([1.0, 0.0]))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.0, max_value=2.0))
    def test_always_inside_hypercube(self, seed, f):
        rng = np.random.default_rng(seed)
        x1, x2, x3 = rng.random((3, 6))
        v = mutant_vector(x1, x2, x3, f)
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_mutate_uses_three_distinct_members(self, rng):
        population = rng.random((4, 3))
        # NP=4 leaves exactly one choice of parents, in some order, and the
        # mutant built from them must stay inside the cube
        for target in range(4):
            parents = draw_parent_indices(4, target, rng)
            assert sorted(parents) == sorted(set(range(4)) - {target})
            v = mutant_vector(*population[list(parents)], 0.5)
            assert np.all((v >= 0.0) & (v <= 1.0))


class TestCrossover:
    def test_full_rate_copies_mutant(self, rng):
        for _ in range(200):
            target, mutant = rng.random((2, 5))
            trial = crossover_binomial(target, mutant, 1.0, rng)
            assert np.array_equal(trial, mutant)

    def test_zero_rate_keeps_exactly_one_mutant_dimension(self, rng):
        target = np.zeros(4)
        mutant = np.ones(4)
        for _ in range(200):
            trial = crossover_binomial(target, mutant, 0.0, rng)
            assert trial.sum() == 1.0  # exactly the forced index

    def test_single_dimension_always_mutant(self, rng):
        for cr in (0.0, 0.5, 1.0):
            trial = crossover_binomial(np.array([0.3]), np.array([0.9]), cr, rng)
            assert trial[0] == 0.9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            crossover_binomial(np.zeros(3), np.zeros(4), 0.5, rng)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=12))
    def test_every_dimension_comes_from_a_parent(self, seed, cr, dimension):
        rng = np.random.default_rng(seed)
        target = np.zeros(dimension)
        mutant = np.ones(dimension)
        trial = crossover_binomial(target, mutant, cr, rng)
        assert set(trial.tolist()) <= {0.0, 1.0}
        assert trial.sum() >= 1.0  # at least the forced mutant dimension


class TestSelection:
    def test_tie_goes_to_trial(self):
        assert trial_wins(target_fitness=0.30, trial_fitness=0.30)

    def test_worse_trial_loses(self):
        assert not trial_wins(target_fitness=0.30, trial_fitness=0.50)

    def test_invalid_penalty_loses(self):
        assert not trial_wins(target_fitness=0.20, trial_fitness=1.00)


class TestRunDE:
    def test_budget_of_np_evaluates_initial_population_only(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = DEConfig(population_size=20, budget=Budget(max_evaluations=20))
        trace = run_de(bench.space, bench, cfg, seed=0)
        assert len(trace) == 20

    def test_run_may_stop_mid_generation(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = DEConfig(population_size=20, budget=Budget(max_evaluations=27))
        trace = run_de(bench.space, bench, cfg, seed=0)
        assert len(trace) == 27

    def test_cost_budget_stops_run(self):
        bench = make_synthetic(5, 4, cost_model="unit", seed=0)
        cfg = DEConfig(population_size=20, budget=Budget(max_cost=33.0))
        trace = run_de(bench.space, bench, cfg, seed=0)
        assert len(trace) == 33

    def test_incumbent_objective_non_increasing(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = DEConfig(budget=Budget(max_evaluations=400))
        trace = run_de(bench.space, bench, cfg, seed=3)
        assert np.all(np.diff(trace.incumbent_objective) <= 0.0)

    def test_same_seed_identical_trace(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = DEConfig(budget=Budget(max_evaluations=200))
        assert_same_traces([run_de(bench.space, bench, cfg, seed=7)],
                           [run_de(bench.space, bench, cfg, seed=7)])

    def test_genotypes_stay_in_hypercube(self):
        bench = RecordingBenchmark(identity_bench(4))
        cfg = DEConfig(population_size=8, scaling_factor=0.9, crossover_rate=0.8,
                       budget=Budget(max_evaluations=500))
        run_de(bench.space, bench, cfg, seed=5)
        assert len(bench.configs) == 500
        for config in bench.configs:
            assert all(0.0 <= v <= 1.0 for v in config)

    def test_degenerate_parameters_only_resample_population(self):
        # F=0 and Cr=1 make every trial a copy of a current member, so no
        # configuration outside the initial population can ever appear
        bench = RecordingBenchmark(identity_bench(3))
        cfg = DEConfig(population_size=8, scaling_factor=0.0, crossover_rate=1.0,
                       budget=Budget(max_evaluations=200))
        run_de(bench.space, bench, cfg, seed=1)
        initial = set(bench.configs[:8])
        assert set(bench.configs) == initial

    def test_selection_is_invariant_under_increasing_transforms(self):
        base = make_synthetic(4, 3, seed=2)
        plain = RecordingBenchmark(base)
        squeezed = RecordingBenchmark(TransformedBenchmark(base, lambda x: 0.2 + 0.6 * x))
        cfg = DEConfig(population_size=10, budget=Budget(max_evaluations=300))
        run_de(base.space, plain, cfg, seed=4)
        run_de(base.space, squeezed, cfg, seed=4)
        assert plain.configs == squeezed.configs

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DEConfig(population_size=3)
        with pytest.raises(ValueError):
            DEConfig(scaling_factor=-0.1)
        with pytest.raises(ValueError):
            DEConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            Budget()

    def test_benchmark_errors_abort_the_run(self):
        class Exploding(RecordingBenchmark):
            def evaluate(self, config):
                if len(self.configs) == 10:
                    raise RuntimeError("backend gone")
                return super().evaluate(config)

        bench = Exploding(make_synthetic(4, 3, seed=0))
        cfg = DEConfig(budget=Budget(max_evaluations=100))
        with pytest.raises(RuntimeError, match="backend gone"):
            run_de(bench.space, bench, cfg, seed=0)
