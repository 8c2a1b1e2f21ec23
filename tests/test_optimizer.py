"""Restart scheme, archive post-processing and full-run invariants."""

import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from hillvallea import (BenchmarkProblem, ElitistArchive, SearchDomain, SearcherKind,
                        Solution, make_problem, peak_ratio, run_hillvallea)
from hillvallea.core_search import init_from_cluster, recommended_population_size
from hillvallea.hillvalley import hill_valley_test
from hillvallea.optimizer import _search_niches, postprocess, truncation_selection, uniform_sample
from helpers import (RecordingObserver, budgeted, budgeted_fn, double_well, make_ripple_problem,
                     make_sphere_problem, selection)


def _kept(fitness, tau):
    return truncation_selection(np.array(fitness, dtype=float), tau).tolist()


def test_truncation_selection_sizes():
    assert _kept(range(10), 0.35) == [0, 1, 2]
    assert _kept(range(4), 0.5) == [0, 1]
    assert _kept([3.0], 0.1) == [0]
    with pytest.raises(ValueError):
        truncation_selection(np.empty(0), 0.5)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(fitness=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.5, np.inf, -np.inf]),
                        min_size=1, max_size=12),
       tau=st.floats(0.0, 1.0))
@example(fitness=[1.0, 1.0, 1.0, 1.0], tau=0.5)
@example(fitness=[0.0, -0.0, 1.0, -0.0, 0.0], tau=0.6)
def test_truncation_selection_stable_ties(fitness, tau):
    # ties, +-0.0 among them, keep their input order as Python's stable sort does
    keep = max(1, int(tau * len(fitness)))
    assert _kept(fitness, tau) == sorted(range(len(fitness)), key=fitness.__getitem__)[:keep]


def bits(archive):
    """The archive's positions and fitnesses, bit for bit."""
    return archive.positions.tobytes(), archive.fitness.tobytes()


def test_postprocess_tol_filter_discards():
    archive = ElitistArchive(np.array([[0.0]]), np.array([0.0]))
    obj = budgeted_fn(lambda x: 0.0, phase="postprocess")
    assert postprocess(np.array([[2.0]]), np.array([0.5]), archive, 1e-5, obj) == 0
    assert bits(archive) == (np.array([[0.0]]).tobytes(), np.array([0.0]).tobytes())
    assert obj.counter.used == 0  # dropped before any distinctness test


def test_postprocess_empties_archive_for_better_optimum():
    archive = ElitistArchive(np.array([[1.0]]), np.array([0.5]))
    obj = budgeted_fn(lambda x: 1.0, phase="postprocess")  # any interior point is a hill
    assert postprocess(np.array([[0.0]]), np.array([0.0]), archive, 1e-5, obj) == 1
    # emptied first, so the stale elite is gone although no test ran
    assert bits(archive) == (np.array([[0.0]]).tobytes(), np.array([0.0]).tobytes())
    assert obj.counter.used == 0


def test_postprocess_double_well_distinctness():
    obj = budgeted_fn(double_well, phase="postprocess")
    archive = ElitistArchive(*selection(double_well, [-1.0]))
    assert postprocess(*selection(double_well, [1.0]), archive, 1e-5, obj) == 1
    assert bits(archive) == bits(ElitistArchive(*selection(double_well, [-1.0, 1.0])))
    # the five-point test rejected at its first interior sample
    assert obj.counter.used == 1


def test_postprocess_same_niche_replacement_rules():
    fn = lambda x: float(x[0] ** 2)
    archive = ElitistArchive(*selection(fn, [0.1]))
    obj = budgeted_fn(fn, phase="postprocess")
    assert postprocess(*selection(fn, [0.2]), archive, 1.0, obj) == 0  # a worse duplicate
    assert bits(archive) == bits(ElitistArchive(*selection(fn, [0.1])))
    assert postprocess(*selection(fn, [0.05]), archive, 1.0, obj) == 1  # a better one
    assert bits(archive) == bits(ElitistArchive(*selection(fn, [0.05])))


def test_postprocess_budget_exhaustion_appends_unverified():
    problem = make_sphere_problem(1)
    obj, _ = budgeted(problem, 0, phase="postprocess")
    archive = ElitistArchive(np.array([[-1.0]]), np.array([0.0]))
    assert postprocess(np.array([[1.0]]), np.array([0.0]), archive, 1e-5, obj) == 1
    assert len(archive) == 2
    assert not archive.verified


def test_uniform_sample_bounds_and_determinism():
    dom = SearchDomain(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    a = uniform_sample(dom, 1000, np.random.default_rng(3))
    b = uniform_sample(dom, 1000, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert np.all(a >= dom.lower) and np.all(a <= dom.upper)


def test_uniform_sample_mean_oracle():
    dom = SearchDomain(np.array([-2.0, 4.0]), np.array([2.0, 10.0]))
    n = 10 ** 5
    X = uniform_sample(dom, n, np.random.default_rng(17))
    center = 0.5 * (dom.lower + dom.upper)
    stderr = (dom.upper - dom.lower) / np.sqrt(12.0) / np.sqrt(n)
    assert np.all(np.abs(X.mean(axis=0) - center) < 5.0 * stderr)


def test_run_himmelblau_finds_all_optima():
    problem = make_problem(4)
    result = run_hillvallea(problem, SearcherKind.AMU, seed=1)
    report = peak_ratio(list(result.archive), problem)
    assert report.ratio == 1.0
    assert len(result.archive) >= 4
    assert result.evaluations_used == problem.budget


def test_run_single_optimum_problem():
    problem = make_problem(3)
    result = run_hillvallea(problem, SearcherKind.AMU, seed=2)
    report = peak_ratio(list(result.archive), problem)
    assert report.found == 1
    assert min(s.fitness for s in result.archive) <= problem.optimal_fitness + 1e-5


def test_zero_budget_guard_single_restart():
    problem = make_problem(4)
    n_init = 16 * problem.dimension
    result = run_hillvallea(replace(problem, budget=n_init), SearcherKind.AMU, seed=3)
    assert result.restarts == 1
    assert result.evaluations_used == n_init
    assert result.phase_used["init"] == n_init
    assert len(result.archive) >= 1  # archive built from the raw sample


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(list(SearcherKind)), d=st.integers(1, 5),
       budget=st.integers(1, 50), inject=st.sampled_from((True, False)),
       seed=st.integers(0, 2 ** 16), pid=st.just(0))
@example(kind=SearcherKind.IAMU, d=1, budget=16, inject=True, seed=4, pid=2)
@example(kind=SearcherKind.IAMU, d=1, budget=33, inject=True, seed=4, pid=2)
@example(kind=SearcherKind.IAMU, d=1, budget=500, inject=True, seed=4, pid=2)
@example(kind=SearcherKind.IAMU, d=1, budget=2000, inject=True, seed=4, pid=2)
def test_budget_hard_stop_and_phase_accounting(kind, d, budget, inject, seed, pid):
    # pid 0 is a d-dimensional ripple; the examples run benchmark problem 2
    problem = replace(make_problem(pid) if pid else make_ripple_problem(d), budget=budget)
    result = run_hillvallea(problem, kind, seed, inject=inject)
    assert result.evaluations_used == budget
    assert sum(result.phase_used.values()) == budget
    fractions = result.phase_fractions
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)
    # the archive is arrays, and a caller reads its rows as Solutions
    archive = result.archive
    m = len(archive)
    assert archive.positions.shape == (m, problem.dimension)
    assert archive.fitness.shape == (m,)
    elites = list(archive)
    assert all(isinstance(elite, Solution) for elite in elites)
    assert [(s.position.tobytes(), s.fitness.hex()) for s in elites] == [
        (x.tobytes(), f.hex()) for x, f in zip(archive.positions, archive.fitness.tolist())]
    for elite in elites:
        assert problem.domain.contains(elite.position)
    searchers = sum(log.n_searchers for log in result.per_restart_log)
    assert sum(result.stop_reasons.values()) == searchers


def test_archive_spread_after_every_restart():
    problem = replace(make_problem(5), budget=20_000)
    result = run_hillvallea(problem, SearcherKind.AMU, seed=5)
    for log in result.per_restart_log:
        assert log.archive_spread <= 1e-5 + 1e-12


def test_archive_pairwise_distinct_replay():
    problem = make_problem(4)
    result = run_hillvallea(replace(problem, budget=20_000), SearcherKind.AMU, seed=6)
    if not result.archive.verified:
        pytest.skip("budget died during distinctness testing on this seed")
    X, f = result.archive.positions, result.archive.fitness
    obj, _ = budgeted(problem, 10 ** 6, phase="postprocess")
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            same, _ = hill_valley_test(X[i], X[j], f[i], f[j], 5, obj)
            assert not same


@pytest.mark.parametrize("pid, seed", [(4, 9), (2, 0)])
def test_skipped_clusters_are_those_an_elite_founds(monkeypatch, pid, seed):
    # a restart searches every cluster but those whose founder row is, bit for
    # bit, an elite of the archive it started with
    from hillvallea import optimizer
    founders, archives = [], []
    cluster = optimizer.hill_valley_clustering

    def traced(positions, fitness, *args):
        clusters, complete = cluster(positions, fitness, *args)
        founders.append([(positions[rows[0]].tobytes(), float(fitness[rows[0]]).hex())
                         for rows in clusters])
        return clusters, complete

    def observe(counter, archive):
        archives.append({(s.position.tobytes(), float(s.fitness).hex()) for s in archive})

    monkeypatch.setattr(optimizer, "hill_valley_clustering", traced)
    result = run_hillvallea(make_problem(pid), SearcherKind.AMU, seed=seed, observe=observe)
    # each restart's first observe call, before its postprocess, sees the archive it started with
    starts = archives[::2]
    assert len(founders) == len(starts) == result.restarts
    skipped = [sum(f in elites for f in restart) for restart, elites in zip(founders, starts)]
    assert any(skipped)
    assert [log.n_skipped_elites for log in result.per_restart_log] == skipped


def test_elites_own_their_positions(monkeypatch):
    # a never-improved founder enters the archive as a copy of its row: nothing
    # of a restart outlives it but what it put in the archive, and a caller's
    # Solutions share nothing with the archive
    from hillvallea import optimizer
    selections = []
    cluster = optimizer.hill_valley_clustering

    def traced(positions, fitness, *args):
        selections.append((positions, fitness))
        return cluster(positions, fitness, *args)

    monkeypatch.setattr(optimizer, "hill_valley_clustering", traced)
    result = run_hillvallea(make_problem(2), SearcherKind.AMU, seed=0)
    archive = result.archive
    assert len(archive) > 1 and len(selections) > 1
    for positions, fitness in selections:
        assert not np.shares_memory(archive.positions, positions)
        assert not np.shares_memory(archive.fitness, fitness)
    assert not any(np.shares_memory(elite.position, archive.positions) for elite in archive)


def test_restart_builds_solutions_only_where_read(monkeypatch):
    # a run is arrays up to its archive: no Solution is built until a caller
    # reads the archive, and then one per elite
    built = []
    init = Solution.__init__
    monkeypatch.setattr(Solution, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    result = run_hillvallea(replace(make_problem(10), budget=60_000), SearcherKind.AMU, seed=0)
    assert sum(log.n_searchers for log in result.per_restart_log) > 0
    assert built == []
    assert len(list(result.archive)) == len(built) == len(result.archive) > 0


def test_only_the_selection_is_alive_while_clustering(monkeypatch):
    # a restart's sample, its fitness and index arrays and the last restart's
    # state are released before clustering: P10 samples up to 65,536 points
    from hillvallea import optimizer
    run_hillvallea(replace(make_problem(10), budget=500), SearcherKind.AMU, seed=0)
    entries = []
    cluster = optimizer.hill_valley_clustering

    def traced(positions, fitness, *args):
        alive = positions.nbytes + fitness.nbytes
        entries.append((tracemalloc.get_traced_memory()[0], alive))
        return cluster(positions, fitness, *args)

    monkeypatch.setattr(optimizer, "hill_valley_clustering", traced)
    tracemalloc.start()
    try:
        run_hillvallea(make_problem(10), SearcherKind.AMU, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20
    assert max(alive for _, alive in entries) > 500_000
    assert all(held <= alive + 128 * 1024 for held, alive in entries)


def _outputs(result) -> tuple:
    """Everything a run returns but its archive, which compares by bits."""
    return (result.evaluations_used, result.phase_used, result.restarts,
            result.per_restart_log, result.stop_reasons, result.archive.n_unverified)


def test_observer_changes_nothing_and_sees_each_postprocess():
    problem = replace(make_problem(7), budget=5_000)
    seen = RecordingObserver()
    plain = run_hillvallea(problem, SearcherKind.AMU, seed=1, inject=True)
    observed = run_hillvallea(problem, SearcherKind.AMU, seed=1, inject=True, observe=seen)
    assert _outputs(observed) == _outputs(plain)
    assert bits(observed.archive) == bits(plain.archive)
    assert plain.restarts > 1
    # one call just before and one just after each restart's postprocess
    assert len(seen.calls) == 2 * observed.restarts
    used = [u for u, _ in seen.calls]
    assert used == sorted(used) and used[-1] == observed.evaluations_used
    # and postprocess is the only phase that changes the archive
    sizes = [log.archive_size for log in observed.per_restart_log]
    assert [size for _, size in seen.calls[1::2]] == sizes
    assert [size for _, size in seen.calls[0::2]] == [0] + sizes[:-1]


def _logged(problem, calls):
    """``problem`` with an objective that logs each batch it is called on in ``calls``."""
    return replace(problem, objective=lambda X: calls.append(X) or problem.objective(X))


@pytest.mark.parametrize("pid, kind", [(1, SearcherKind.AMU), (6, SearcherKind.CMSA)])
def test_objective_rows_counts_every_row_the_objective_sees(pid, kind):
    # trials (look-ahead first points, hill-valley test batches, lockstep
    # groups) pass rows charged later or never; all of them are counted
    problem, calls = replace(make_problem(pid), budget=20_000), []
    plain = run_hillvallea(problem, kind, seed=0)
    counted = run_hillvallea(_logged(problem, calls), kind, seed=0)
    assert counted.objective_rows == sum(map(len, calls)) == plain.objective_rows
    assert counted.objective_rows > counted.evaluations_used == problem.budget
    assert _outputs(counted) == _outputs(plain)
    assert bits(counted.archive) == bits(plain.archive)


def test_budget_must_be_positive():
    problem, calls = make_problem(2), []
    for budget in (0, -1):
        with pytest.raises(ValueError):
            run_hillvallea(replace(_logged(problem, calls), budget=budget), SearcherKind.AMU,
                           seed=0)
    assert calls == []


def test_budget_must_be_an_integer():
    problem, calls = make_problem(2), []
    # a quarter of the budget by true division, and a flag passed for a count
    for budget in (problem.budget / 4, True):
        with pytest.raises(TypeError, match="budget"):
            run_hillvallea(replace(_logged(problem, calls), budget=budget), SearcherKind.AMU,
                           seed=0)
    assert calls == []
    # numpy integers are integers
    result = run_hillvallea(replace(problem, budget=np.int64(5000)), SearcherKind.AMU, seed=0)
    assert result.evaluations_used == 5000


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(list(SearcherKind)), d=st.integers(1, 3),
       n_niches=st.integers(1, 6), budget=st.integers(1, 4_000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_search_niches_settles_as_lone_searchers_in_niche_order(kind, d, n_niches, budget,
                                                               seed):
    problem = make_ripple_problem(d)
    rng = np.random.default_rng(seed)
    niches = []
    for _ in range(n_niches):
        rows = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 6)), d))
        fitness = problem.objective(rows)
        order = np.argsort(fitness, kind="stable")
        niches.append((rows[order], fitness[order]))
    founder_x = np.array([rows[0] for rows, _ in niches])
    founder_f = np.array([fitness[0] for _, fitness in niches])
    founder_bits = founder_x.tobytes() + founder_f.tobytes()
    population = recommended_population_size(kind, d)

    def build(k, seq):
        return init_from_cluster(*niches[k], 0.5, kind, population,
                                 rng=np.random.default_rng(seq))

    outcomes = []
    for search in (_search_niches, reference.search_niches):
        evaluate, counter = budgeted(problem, budget)
        stop_reasons = {}
        X, f = search(founder_x, founder_f, build, np.random.SeedSequence(seed), evaluate,
                      stop_reasons)
        outcomes.append(((X.tobytes(), f.tobytes()), counter, stop_reasons))
    (got, got_counter, got_reasons), (want, want_counter, want_reasons) = outcomes
    assert got == want
    # both return new arrays: the founders' rows are the caller's
    assert founder_x.tobytes() + founder_f.tobytes() == founder_bits
    assert got_counter.used == want_counter.used
    assert got_counter.phase_used == want_counter.phase_used
    assert got_reasons == want_reasons


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(list(SearcherKind)), d=st.integers(1, 3),
       budget=st.integers(1, 5_000), inject=st.booleans(), seed=st.integers(0, 2 ** 16),
       pid=st.just(0))
@example(kind=SearcherKind.AMU, d=1, budget=300, inject=True, seed=0, pid=1)
@example(kind=SearcherKind.IAMU, d=1, budget=800, inject=True, seed=0, pid=2)
@example(kind=SearcherKind.CMSA, d=1, budget=1_500, inject=True, seed=0, pid=3)
@example(kind=SearcherKind.IAM, d=1, budget=1_500, inject=False, seed=0, pid=4)
@example(kind=SearcherKind.CMSA, d=1, budget=4_000, inject=True, seed=0, pid=5)
@example(kind=SearcherKind.CMSA, d=1, budget=2_500, inject=True, seed=0, pid=6)
@example(kind=SearcherKind.IAMU, d=1, budget=1_500, inject=True, seed=0, pid=7)
@example(kind=SearcherKind.AM, d=1, budget=1_500, inject=True, seed=0, pid=8)
@example(kind=SearcherKind.IAMU, d=1, budget=2_500, inject=True, seed=0, pid=9)
@example(kind=SearcherKind.IAM, d=1, budget=2_500, inject=True, seed=0, pid=10)
def test_run_equals_the_sequential_reference(kind, d, budget, inject, seed, pid):
    # pid 0 is a d-dimensional ripple; the examples run benchmark problems
    problem = replace(make_problem(pid) if pid else make_ripple_problem(d), budget=budget)
    got = run_hillvallea(problem, kind, seed, inject=inject)
    X, f, unverified, counter, stop_reasons, logs = reference.run(problem, kind, seed, inject)
    assert bits(got.archive) == (X.tobytes(), f.tobytes())
    assert got.archive.n_unverified == unverified
    assert (got.evaluations_used, got.phase_used) == (counter.used, counter.phase_used)
    assert (got.stop_reasons, got.per_restart_log) == (stop_reasons, logs)


def test_reference_imports_nothing_it_checks():
    # it shares no code with the clustering and optimizer it checks
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = [(getattr(node, "module", None), alias.name) for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [(module, name) for module, name in imported if "hillvallea" in (module or name)] == [
        ("hillvallea.core_search", "SearcherKind"),
        ("hillvallea.core_search", "init_from_cluster"),
        ("hillvallea.core_search", "recommended_population_size"),
        ("hillvallea.optimizer", "RestartLog"),
        ("hillvallea.problems", "BudgetedObjective"),
        ("hillvallea.problems", "EvaluationCounter")]


@pytest.mark.parametrize("kind", list(SearcherKind), ids=lambda k: k.value)
def test_nan_half_plane_runs_to_budget_with_finite_elites(kind):
    # the objective is NaN for x0 > 0.5; NaN reads as +inf, so it never wins
    def bowl(X):
        return np.where(X[:, 0] > 0.5, np.nan, np.sum(X * X, axis=1))

    problem = BenchmarkProblem(SearchDomain(np.full(2, -2.0), np.full(2, 2.0)), bowl, 3_000,
                               name="nan_half_plane")
    result = run_hillvallea(problem, kind, seed=0)
    assert result.evaluations_used == 3_000
    assert len(result.archive) > 0
    assert all(np.isfinite(s.fitness) for s in result.archive)
    assert all(s.position[0] <= 0.5 for s in result.archive)


@pytest.mark.parametrize("region", ["half_plane", "stripe"])
@pytest.mark.parametrize("kind", list(SearcherKind), ids=lambda k: k.value)
def test_minus_inf_region_runs_to_budget_with_minus_inf_elites(kind, region):
    # the objective is -inf on a region; two -inf ends share a niche unless a
    # test point above -inf lies between them, and equal -inf bests are no
    # improvement, so no NaN arises and every elite lies in the region
    def inside(X):
        return X[:, 0] > 0.5 if region == "half_plane" else np.abs(X[:, 0] - 0.3) < 0.2

    def bowl(X):
        return np.where(inside(X), -np.inf, np.sum(X * X, axis=1))

    problem = BenchmarkProblem(SearchDomain(np.full(2, -2.0), np.full(2, 2.0)), bowl, 3_000,
                               name=region)
    result = run_hillvallea(problem, kind, seed=0)
    assert result.evaluations_used == 3_000
    assert len(result.archive) > 0
    assert all(s.fitness == -np.inf for s in result.archive)
    assert all(log.archive_spread == 0.0 for log in result.per_restart_log)
    assert inside(np.array([s.position for s in result.archive])).all()
