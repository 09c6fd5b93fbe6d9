import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffevo import (Budget, DEConfig, FunctionBenchmark, ParameterSpec, SearchSpace,
                     make_synthetic, run_de)
from diffevo.de import crossover_binomial, mutant_vector, parent_indices

from conftest import (ReferenceRecorder, RecordingBenchmark, ScalarBenchmark, TransformedBenchmark,
                      assert_same_traces, each_seed, tabular)


def identity_bench(dimension):
    # float bounds [0, 1] make discretized configs equal the genotypes
    return FunctionBenchmark("sphere", dimension, lo=0.0, hi=1.0)


def initial_population(population_size, dimension, seed):
    """The genotypes DE evaluates first, read back through an identity benchmark."""
    bench = RecordingBenchmark(identity_bench(dimension))
    cfg = DEConfig(population_size=population_size,
                   budget=Budget(max_evaluations=population_size))
    run_de(bench, cfg, [seed])
    return np.array(bench.configs)


# -- scalar references for the generation-at-a-time code ----------------------


def outcome(run, *args):
    """A run's trace, or the message of the ValueError that stopped it."""
    try:
        return run(*args)
    except ValueError as exc:
        return str(exc)


def crossover(target, mutant, crossover_rate, rng):
    """Binomial crossover with the draws a run makes for it: a uniform value
    per coordinate, then one forced index per vector."""
    return crossover_binomial(target, mutant, crossover_rate, rng.random(target.shape),
                              rng.integers(target.shape[-1], size=target.shape[:-1]))


def draw_parent_indices(population_size, target, rng):
    """Per-target reference: three distinct indices other than ``target``,
    drawn from the other members and shifted past the target."""
    r = rng.choice(population_size - 1, size=3, replace=False)
    return tuple((r + (r >= target)).tolist())


def trial_wins(target_fitness, trial_fitness):
    """Per-target reference selection: the trial wins when at least as good."""
    return trial_fitness <= target_fitness


def reference_parents(keys, target):
    """The three other members with the lowest keys, lowest first."""
    others = [k for k in range(len(keys)) if k != target]
    return sorted(others, key=keys[target].__getitem__)[:3]


def generation_draws(rng, size, dimension):
    """One generation's draws as ``run_de`` makes them: a single draw of
    NP * NP + NP * D + NP uniforms, cut into the (NP, NP) parent keys, the
    (NP, D) crossover values and the NP forced dimensions ``floor(u * D)``."""
    u = rng.random(size * size + size * dimension + size)
    return (u[:size * size].reshape(size, size),
            u[size * size:-size].reshape(size, dimension),
            [math.floor(v * dimension) for v in u[-size:]])


def reference_run_de(bench, cfg, seed):
    """DE one target at a time, consuming the generator exactly like
    ``run_de``: per generation one draw of NP * NP + NP * D + NP uniforms
    (see ``generation_draws``). Uses the scalar recorder."""
    rng = np.random.default_rng(seed)
    recorder = ReferenceRecorder(bench, cfg.budget)
    size, dimension = cfg.population_size, bench.space.dimension
    genotypes = rng.random((size, dimension))
    fitness = [recorder.evaluate(g) for g in genotypes]
    while not recorder.exhausted():
        keys, crossover_draws, forced = generation_draws(rng, size, dimension)
        next_genotypes, next_fitness = genotypes.copy(), list(fitness)
        for i in range(size):
            r1, r2, r3 = reference_parents(keys, i)
            mutant = mutant_vector(genotypes[r1], genotypes[r2], genotypes[r3],
                                   cfg.scaling_factor)
            trial = np.array([mutant[j] if crossover_draws[i, j] < cfg.crossover_rate
                              or j == forced[i] else genotypes[i, j]
                              for j in range(dimension)])
            trial_fitness = recorder.evaluate(trial)
            if trial_fitness is None:
                break
            if trial_wins(fitness[i], trial_fitness):
                next_genotypes[i], next_fitness[i] = trial, trial_fitness
        genotypes, fitness = next_genotypes, next_fitness
    return recorder.finish(seed=seed, optimizer_id="de", config={
        "population_size": cfg.population_size,
        "scaling_factor": cfg.scaling_factor,
        "crossover_rate": cfg.crossover_rate,
    })


def reference_de(bench, cfg, seeds):
    """``reference_run_de`` for each seed, one run after another."""
    return each_seed(lambda b, s: reference_run_de(b, cfg, s), bench, seeds)


def de_benchmark(kind, seed):
    """Invalid keys, a constant objective (every selection a tie), a mixed
    table with invalid keys and integers from a nonzero ``lo``, a table
    whose every row costs 0, or float discretization."""
    if kind == "free":
        base = make_synthetic(3, 3, seed=0)
        return tabular(base.space, {key: (val, test, 0.0)
                                    for key, (val, test, _) in base.table.items()}, "free")
    if kind == "invalid":
        return make_synthetic(3, 4, invalid_fraction=0.5, seed=seed % 7)
    if kind == "ties":
        return TransformedBenchmark(make_synthetic(3, 3, cost_model="unit", seed=0),
                                    lambda x: 0.5)
    if kind == "mixed":
        space = SearchSpace(params=(
            ParameterSpec(name="k", kind="integer", lo=-2, hi=3),
            ParameterSpec(name="o", kind="ordinal", values=("s", "m", "l")),
            ParameterSpec(name="c", kind="categorical", choices=("a", "b"))))
        rng = np.random.default_rng(seed)
        table = {(k, o, c): (float(rng.random()), None, float(rng.random()))
                 for k in range(-2, 4) for o in "sml" for c in "ab" if rng.random() < 0.6}
        return tabular(space, table, "mixed")
    return FunctionBenchmark(kind, 2)


class OnePointBenchmark(ScalarBenchmark):
    """Scores genotypes by membership: ``known`` configurations get
    ``known_result``, every other one ``other_result``. Float bounds [0, 1]."""

    def __init__(self, dimension, known, known_result, other_result):
        self.space = identity_bench(dimension).space
        self.benchmark_id = "one-point"
        self.best_validation_error = 0.0
        self.best_test_error = None
        self.known, self.known_result, self.other_result = set(known), known_result, other_result
        self.configs = []

    def evaluate(self, config):
        self.configs.append(config)
        return self.known_result if config in self.known else self.other_result


def generation_trials(known_result, other_result, population_size=6, dimension=4, seed=0):
    """Evaluated genotypes of a Cr=0, F=0 run, one array per generation.

    With Cr=0 and F=0 a trial is its target with exactly one coordinate
    copied from another member, so which genotype a trial started from
    shows whether the previous trial replaced its target.
    """
    initial = [tuple(g) for g in np.random.default_rng(seed).random((population_size, dimension))]
    bench = OnePointBenchmark(dimension, initial, known_result, other_result)
    cfg = DEConfig(population_size=population_size, scaling_factor=0.0, crossover_rate=0.0,
                   budget=Budget(max_evaluations=population_size * 5))
    run_de(bench, cfg, [seed])
    return np.array(bench.configs).reshape(5, population_size, dimension)


def differing(a, b):
    """Number of differing coordinates, row by row."""
    return (a != b).sum(axis=-1)


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
        trace, = run_de(bench, DEConfig(population_size=4, budget=Budget(max_evaluations=40)),
                        [0])
        assert len(trace) == 40

    def test_same_seed_identical(self):
        a = initial_population(8, 3, seed=4)
        b = initial_population(8, 3, seed=4)
        assert np.array_equal(a, b)
        # one (NP, D) uniform draw from the run's generator, row by row
        assert np.array_equal(a, np.random.default_rng(4).random((8, 3)))


class TestGenerationDraws:
    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=4, max_value=40),
           st.integers(min_value=1, max_value=20))
    def test_one_draw_begins_with_the_keys_and_crossover_values_of_two(self, seed, size,
                                                                       dimension):
        # a generation drawn into one row of a (runs, NP*NP + NP*D + NP) block,
        # as run_de draws it, begins with the values of an (NP, NP) draw and
        # then an (NP, D) draw
        flat = np.empty((2, size * (size + dimension + 1)))
        np.random.default_rng(seed).random(out=flat[1])
        rng = np.random.default_rng(seed)
        keys, draws = np.empty((size, size)), np.empty((size, dimension))
        rng.random(out=keys)
        rng.random(out=draws)
        assert flat[1, :size * size].tobytes() == keys.tobytes()
        assert flat[1, size * size:-size].tobytes() == draws.tobytes()
        got_keys, got_draws, _ = generation_draws(np.random.default_rng(seed), size, dimension)
        assert got_keys.tobytes() == keys.tobytes() and got_draws.tobytes() == draws.tobytes()

    def test_forced_dimension_is_below_the_dimension(self):
        # floor(u * D) for the largest double below 1, in Python and as
        # run_de truncates it in numpy
        u = 1 - 2**-53
        dimensions = np.arange(1, 65)
        assert [math.floor(u * d) for d in dimensions.tolist()] == (dimensions - 1).tolist()
        assert np.array_equal((u * dimensions).astype(np.intp), dimensions - 1)


class TestParentIndices:
    @pytest.mark.parametrize("population_size", [4, 5, 8])
    def test_distinct_and_exclude_target(self, population_size):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(2_000):
            parents = parent_indices(rng.random((population_size, population_size)))
            assert parents.shape == (population_size, 3)
            for target, triple in enumerate(parents.tolist()):
                assert len(set(triple)) == 3
                assert target not in triple
                seen.update(triple)
        assert seen == set(range(population_size))

    @pytest.mark.parametrize("population_size", [4, 5, 20, 100])
    def test_matches_sampling_from_the_other_members(self, population_size):
        # reference: per target, the three other members with the lowest keys;
        # a stack of key blocks, one per run, ranks each block alone
        for seed in range(20):
            keys = np.random.default_rng(seed).random((3, population_size, population_size))
            want = [[reference_parents(block, target) for target in range(population_size)]
                    for block in keys]
            assert parent_indices(keys.copy()).tolist() == want
            assert parent_indices(keys[1].copy()).tolist() == want[1]

    def test_each_role_and_triple_is_uniform(self):
        # NP=5 at a fixed seed: per target, each role takes each of the 4
        # other members and each of the 24 ordered triples about equally often
        # as the per-target reference sampler does
        size, draws = 5, 12_000
        rng = np.random.default_rng(11)
        block = parent_indices(rng.random((draws, size, size)))
        reference_rng = np.random.default_rng(12)
        reference = np.array([[draw_parent_indices(size, t, reference_rng) for t in range(size)]
                              for _ in range(draws)])
        for sample in (block, reference):
            for target in range(size):
                for role in range(3):
                    counts = np.bincount(sample[:, target, role], minlength=size)
                    assert counts[target] == 0
                    expected = draws / 4  # binomial sd ~47
                    assert np.all(np.abs(np.delete(counts, target) - expected) < 5 * 47)
                codes = sample[:, target] @ np.array([size * size, size, 1])
                counts = np.unique(codes, return_counts=True)[1]
                assert len(counts) == 24
                expected = draws / 24  # binomial sd ~22
                assert np.all(np.abs(counts - expected) < 5 * 22)


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
        # mutants built from them must stay inside the cube
        for _ in range(50):
            parents = parent_indices(rng.random((4, 4)))
            for target, triple in enumerate(parents.tolist()):
                assert sorted(triple) == sorted(set(range(4)) - {target})
            r1, r2, r3 = parents.T
            v = mutant_vector(population[r1], population[r2], population[r3], 0.5)
            assert v.shape == population.shape
            assert np.all((v >= 0.0) & (v <= 1.0))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.0, max_value=2.0))
    def test_block_equals_row_by_row(self, seed, f):
        x1, x2, x3 = np.random.default_rng(seed).random((3, 7, 5))
        block = mutant_vector(x1, x2, x3, f)
        for i in range(7):
            assert np.array_equal(block[i], mutant_vector(x1[i], x2[i], x3[i], f))


class TestCrossover:
    def test_full_rate_copies_mutant(self, rng):
        for _ in range(200):
            target, mutant = rng.random((2, 5))
            trial = crossover(target, mutant, 1.0, rng)
            assert np.array_equal(trial, mutant)

    def test_zero_rate_keeps_exactly_one_mutant_dimension(self, rng):
        target = np.zeros(4)
        mutant = np.ones(4)
        for _ in range(200):
            trial = crossover(target, mutant, 0.0, rng)
            assert trial.sum() == 1.0  # exactly the forced index

    def test_single_dimension_always_mutant(self, rng):
        for cr in (0.0, 0.5, 1.0):
            trial = crossover(np.array([0.3]), np.array([0.9]), cr, rng)
            assert trial[0] == 0.9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            crossover(np.zeros(3), np.zeros(4), 0.5, rng)
        with pytest.raises(ValueError):
            crossover(np.zeros((5, 3)), np.zeros((4, 3)), 0.5, rng)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=12))
    def test_block_equals_row_by_row_reference(self, seed, cr, rows, dimension):
        # reference: each row takes the mutant where its draw is below Cr or
        # at its forced index
        targets, mutants = np.random.default_rng(seed + 1).random((2, rows, dimension))
        rng = np.random.default_rng(seed)
        draws, forced = rng.random((rows, dimension)), rng.integers(dimension, size=rows)
        trials = crossover_binomial(targets, mutants, cr, draws, forced)
        for i in range(rows):
            want = [mutants[i, j] if draws[i, j] < cr or j == forced[i] else targets[i, j]
                    for j in range(dimension)]
            assert trials[i].tolist() == want

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=12))
    def test_every_dimension_comes_from_a_parent(self, seed, cr, dimension):
        rng = np.random.default_rng(seed)
        target = np.zeros(dimension)
        mutant = np.ones(dimension)
        trial = crossover(target, mutant, cr, rng)
        assert set(trial.tolist()) <= {0.0, 1.0}
        assert trial.sum() >= 1.0  # at least the forced mutant dimension


class TestSelection:
    # Cr=0, F=0 runs (see generation_trials): the trial of generation g + 1
    # differs in at most one coordinate from whichever genotype held the
    # target's row after generation g

    def test_tie_goes_to_trial(self):
        same = (0.3, None, 1.0)
        # an invalid trial scores 1.0, so it also ties a valid target of error 1.0
        for known, other in [(same, same), ((1.0, None, 1.0), None)]:
            trials = generation_trials(known_result=known, other_result=other)
            # every trial tied its target, so each row moved on to its trial
            assert np.all(differing(trials[2:], trials[1:-1]) <= 1)
            # and some trials started from a target that had already changed
            assert np.any(differing(trials[2], trials[0]) == 2)

    def test_worse_trial_loses(self):
        trials = generation_trials(
            known_result=(0.3, None, 1.0), other_result=(0.5, None, 1.0))
        # every row kept its initial genotype
        assert np.all(differing(trials[1:], trials[0]) == 1)

    def test_invalid_penalty_loses(self):
        trials = generation_trials(
            known_result=(0.2, None, 1.0), other_result=None)
        assert np.all(differing(trials[1:], trials[0]) == 1)

    def test_scalar_reference_selection(self):
        assert trial_wins(target_fitness=0.30, trial_fitness=0.30)
        assert not trial_wins(target_fitness=0.30, trial_fitness=0.50)
        assert not trial_wins(target_fitness=0.20, trial_fitness=1.00)
        assert trial_wins(target_fitness=1.00, trial_fitness=1.00)


class TestRunDE:
    def test_budget_of_np_evaluates_initial_population_only(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = DEConfig(population_size=20, budget=Budget(max_evaluations=20))
        trace, = run_de(bench, cfg, [0])
        assert len(trace) == 20

    def test_run_may_stop_mid_generation(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = DEConfig(population_size=20, budget=Budget(max_evaluations=27))
        trace, = run_de(bench, cfg, [0])
        assert len(trace) == 27

    def test_cost_budget_stops_run(self):
        bench = make_synthetic(5, 4, cost_model="unit", seed=0)
        cfg = DEConfig(population_size=20, budget=Budget(max_cost=33.0))
        trace, = run_de(bench, cfg, [0])
        assert len(trace) == 33

    def test_incumbent_objective_non_increasing(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = DEConfig(budget=Budget(max_evaluations=400))
        trace, = run_de(bench, cfg, [3])
        assert np.all(np.diff(trace.incumbent_objective) <= 0.0)

    def test_same_seed_identical_trace(self):
        bench = make_synthetic(5, 4, seed=0)
        cfg = DEConfig(budget=Budget(max_evaluations=200))
        assert_same_traces(run_de(bench, cfg, [7]), run_de(bench, cfg, [7]))

    def test_genotypes_stay_in_hypercube(self):
        bench = RecordingBenchmark(identity_bench(4))
        cfg = DEConfig(population_size=8, scaling_factor=0.9, crossover_rate=0.8,
                       budget=Budget(max_evaluations=500))
        run_de(bench, cfg, [5])
        assert len(bench.configs) == 500
        for config in bench.configs:
            assert all(0.0 <= v <= 1.0 for v in config)

    def test_degenerate_parameters_only_resample_population(self):
        # F=0 and Cr=1 make every trial a copy of a current member, so no
        # configuration outside the initial population can ever appear
        bench = RecordingBenchmark(identity_bench(3))
        cfg = DEConfig(population_size=8, scaling_factor=0.0, crossover_rate=1.0,
                       budget=Budget(max_evaluations=200))
        run_de(bench, cfg, [1])
        initial = set(bench.configs[:8])
        assert set(bench.configs) == initial

    def test_selection_is_invariant_under_increasing_transforms(self):
        base = make_synthetic(4, 3, seed=2)
        plain = RecordingBenchmark(base)
        squeezed = RecordingBenchmark(TransformedBenchmark(base, lambda x: 0.2 + 0.6 * x))
        cfg = DEConfig(population_size=10, budget=Budget(max_evaluations=300))
        run_de(plain, cfg, [4])
        run_de(squeezed, cfg, [4])
        assert plain.configs == squeezed.configs

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DEConfig(population_size=3)
        for f in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="scaling_factor must be finite and >= 0"):
                DEConfig(scaling_factor=f)
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
            run_de(bench, cfg, [0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.sampled_from([4, 5, 9]),
           st.sampled_from([0.0, 0.5, 0.9]),
           st.sampled_from([0.0, 0.3, 1.0]),
           st.one_of(st.builds(Budget, max_evaluations=st.integers(1, 120)),
                     st.builds(Budget, max_cost=st.floats(0.5, 90.0))),
           st.sampled_from(["invalid", "ties", "sphere"]))
    # every row costs 0, so this run meets the zero-cost limit
    @example(seed=189, size=4, f=0.5, cr=0.5, budget=Budget(max_cost=0.5), kind="free")
    def test_matches_scalar_reference(self, seed, size, f, cr, budget, kind):
        # budgets stop runs mid-initialization and mid-generation; invalid
        # keys, a constant objective (every selection a tie) and float
        # discretization all give the same trace one target at a time, and
        # a run stopped by the zero-cost limit the same error
        bench = de_benchmark(kind, seed)
        cfg = DEConfig(population_size=size, scaling_factor=f, crossover_rate=cr, budget=budget)
        got, want = RecordingBenchmark(bench), RecordingBenchmark(bench)
        got_run = outcome(run_de, got, cfg, [seed])
        want_run = outcome(reference_de, want, cfg, [seed])
        if isinstance(want_run, str):
            assert got_run == want_run
        else:
            assert_same_traces(got_run, want_run)
        # the same configurations in the same order; a batch may also score
        # rows of its last block past a cost limit
        assert got.configs[:len(want.configs)] == want.configs
        assert len(got.configs) == len(want.configs) or budget.max_cost is not None


class TestLockstep:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([4, 5, 9]),
           st.sampled_from([0.0, 0.5, 0.9]),
           st.sampled_from([0.0, 0.3, 1.0]),
           st.one_of(st.builds(Budget, max_evaluations=st.integers(1, 120)),
                     st.builds(Budget, max_cost=st.floats(0.5, 90.0)),
                     st.builds(Budget, max_evaluations=st.integers(1, 120),
                               max_cost=st.floats(0.5, 90.0))),
           st.sampled_from(["invalid", "ties", "mixed", "sphere", "rastrigin"]),
           st.sampled_from([RecordingBenchmark, None]))
    def test_matches_scalar_reference(self, seed, runs, size, f, cr, budget, kind, wrap):
        # budgets cut runs during initialization and mid-generation and end
        # them at different steps; the trials of a step are scored through a
        # looped evaluate_batch (RecordingBenchmark) or through the
        # benchmark's own evaluate_batch (None)
        bench = de_benchmark(kind, seed)
        cfg = DEConfig(population_size=size, scaling_factor=f, crossover_rate=cr, budget=budget)
        seeds = range(seed, seed + runs)
        got = bench if wrap is None else wrap(bench)
        want = RecordingBenchmark(bench)
        got_runs = outcome(run_de, got, cfg, seeds)
        want_runs = outcome(reference_de, want, cfg, seeds)
        if isinstance(want_runs, str):
            assert got_runs == want_runs
        else:
            assert_same_traces(got_runs, want_runs)

    @pytest.mark.parametrize("higher_first", [True, False])
    def test_failure_names_the_lowest_failing_seed(self, higher_first):
        # a configuration that two seeds reach after initialization, and no
        # seed below the lower one at all: lockstep meets the higher seed's
        # failure first, or the lower seed's while the higher one still runs
        base = make_synthetic(5, 4, cost_model="unit", seed=0)
        cfg = DEConfig(population_size=4, budget=Budget(max_evaluations=40))
        first = []  # per seed: configuration -> generation of its first evaluation
        for seed in range(4):
            log = RecordingBenchmark(base)
            reference_run_de(log, cfg, seed)
            first.append({})
            for i, config in enumerate(log.configs):
                first[-1].setdefault(config, i // cfg.population_size)
        low, bad = next(
            (a, config) for a in range(4) for b in range(a + 1, 4)
            for config, generation in first[a].items()
            if 1 <= min(generation, first[b].get(config, 0))
            and (first[b][config] < generation) == higher_first
            and not any(config in first[c] for c in range(a)))

        class Failing(RecordingBenchmark):
            def evaluate(self, config):
                if config == bad:
                    raise ValueError(f"no score for {config}")
                return super().evaluate(config)

        want = outcome(reference_de, Failing(base), cfg, range(4))
        assert want.startswith(f"run with seed {low} failed: no score for ")
        assert outcome(run_de, Failing(base), cfg, range(4)) == want

    def test_failure_during_initialization_names_the_lowest_seed(self):
        class Broken(RecordingBenchmark):
            def evaluate(self, config):
                raise ValueError("backend gone")

        bench = Broken(make_synthetic(3, 3, seed=0))
        cfg = DEConfig(population_size=4, budget=Budget(max_evaluations=40))
        assert outcome(run_de, bench, cfg, range(3, 6)) == "run with seed 3 failed: backend gone"
