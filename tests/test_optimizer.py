"""Restart scheme, archive post-processing and full-run invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillvallea import (BenchmarkProblem, ElitistArchive, InjectionMode,
                        OptimizerConfig, SearchDomain, SearcherKind, Solution,
                        hill_valley_test, make_problem, peak_ratio, postprocess,
                        run_hillvallea, truncation_selection, uniform_sample)
from helpers import (RecordingObjective, budgeted, double_well, make_ripple_problem,
                     make_sphere_problem, solution)


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


def test_postprocess_tol_filter_discards():
    archive = ElitistArchive([Solution(np.array([0.0]), 0.0)])
    obj = RecordingObjective(lambda x: 0.0)
    result = postprocess([Solution(np.array([2.0]), 0.5)], archive, 1e-5, obj)
    assert result.added == 0 and len(archive) == 1
    assert [c.fitness for c in result.discarded] == [0.5]


def test_postprocess_empties_archive_for_better_optimum():
    stale = Solution(np.array([1.0]), 0.5)
    archive = ElitistArchive([stale])
    obj = RecordingObjective(lambda x: 1.0)  # any interior point reads as a hill
    fresh = Solution(np.array([0.0]), 0.0)
    result = postprocess([fresh], archive, 1e-5, obj)
    assert result.emptied
    assert archive.solutions == [fresh]


def test_postprocess_double_well_distinctness():
    obj = RecordingObjective(double_well)
    left = solution(-1.0, double_well)
    right = solution(1.0, double_well)
    archive = ElitistArchive([left])
    result = postprocess([right], archive, 1e-5, obj)
    assert result.added == 1
    assert archive.solutions == [left, right]
    # the five-point test rejected at its first interior sample
    assert obj.count == 1


def test_postprocess_same_niche_replacement_rules():
    fn = lambda x: float(x[0] ** 2)
    elite = solution(0.1, fn)
    archive = ElitistArchive([elite])
    worse_dup = solution(0.2, fn)
    result = postprocess([worse_dup], archive, 1.0, fn)
    assert result.added == 0 and archive.solutions == [elite]
    better_dup = solution(0.05, fn)
    result = postprocess([better_dup], archive, 1.0, fn)
    assert result.added == 1 and archive.solutions == [better_dup]


def test_postprocess_budget_exhaustion_appends_unverified():
    problem = make_sphere_problem(1)
    obj, _ = budgeted(problem, 0, phase="postprocess")
    archive = ElitistArchive([Solution(np.array([-1.0]), 0.0)])
    result = postprocess([Solution(np.array([1.0]), 0.0)], archive, 1e-5, obj)
    assert result.added == 1
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
    config = OptimizerConfig(budget=n_init)
    result = run_hillvallea(problem, SearcherKind.AMU, config, seed=3)
    assert result.restarts == 1
    assert result.evaluations_used == n_init
    assert result.phase_used["init"] == n_init
    assert len(result.archive) >= 1  # archive built from the raw sample


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(list(SearcherKind)), d=st.integers(1, 5),
       budget=st.integers(1, 50), injection=st.sampled_from(list(InjectionMode)),
       seed=st.integers(0, 2 ** 16), pid=st.just(0))
@example(kind=SearcherKind.IAMU, d=1, budget=16, injection=InjectionMode.ONLY_GLOBAL,
         seed=4, pid=2)
@example(kind=SearcherKind.IAMU, d=1, budget=33, injection=InjectionMode.ONLY_GLOBAL,
         seed=4, pid=2)
@example(kind=SearcherKind.IAMU, d=1, budget=500, injection=InjectionMode.ONLY_GLOBAL,
         seed=4, pid=2)
@example(kind=SearcherKind.IAMU, d=1, budget=2000, injection=InjectionMode.ONLY_GLOBAL,
         seed=4, pid=2)
def test_budget_hard_stop_and_phase_accounting(kind, d, budget, injection, seed, pid):
    # pid 0 is a d-dimensional ripple; the examples run benchmark problem 2
    problem = make_problem(pid) if pid else make_ripple_problem(d)
    config = OptimizerConfig(budget=budget, injection=injection)
    result = run_hillvallea(problem, kind, config, seed=seed)
    assert result.evaluations_used == budget
    assert sum(result.phase_used.values()) == budget
    fractions = result.phase_fractions
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)
    for elite in [*result.archive, *result.side_archive]:
        assert problem.domain.contains(elite.position)
    searchers = sum(log.n_searchers for log in result.per_restart_log)
    assert sum(result.stop_reasons.values()) <= searchers


def test_archive_spread_after_every_restart():
    problem = make_problem(5)
    config = OptimizerConfig(budget=20_000, tol=1e-5)
    result = run_hillvallea(problem, SearcherKind.AMU, config, seed=5)
    for log in result.per_restart_log:
        assert log.archive_spread <= 1e-5 + 1e-12


def test_archive_pairwise_distinct_replay():
    problem = make_problem(4)
    result = run_hillvallea(problem, SearcherKind.AMU,
                            OptimizerConfig(budget=20_000), seed=6)
    if not result.archive.verified:
        pytest.skip("budget died during distinctness testing on this seed")
    elites = result.archive.solutions
    obj, _ = budgeted(problem, 10 ** 6, phase="postprocess")
    for i in range(len(elites)):
        for j in range(i + 1, len(elites)):
            same, _ = hill_valley_test(elites[i], elites[j], 5, obj)
            assert not same


def test_population_growth_on_stagnant_restarts():
    problem = make_problem(3)
    config = OptimizerConfig(budget=30_000)
    result = run_hillvallea(problem, SearcherKind.AMU, config, seed=7)
    stagnant = 0
    d = problem.dimension
    for log in result.per_restart_log:
        assert log.population_size == 16 * d * 2 ** stagnant
        if log.n_new_elites == 0:
            stagnant += 1
    assert stagnant >= 2  # single-optimum problem stagnates quickly


def test_cluster_size_growth():
    problem = make_problem(3)
    result = run_hillvallea(problem, SearcherKind.AMU,
                            OptimizerConfig(budget=30_000), seed=8)
    sizes = [log.cluster_size for log in result.per_restart_log]
    assert sizes[0] == 10  # ceil(10 sqrt(1))
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > sizes[0]


def test_only_global_injection_skips_elite_clusters():
    problem = make_problem(4)
    result = run_hillvallea(problem, SearcherKind.AMU, seed=9)
    assert any(log.n_skipped_elites > 0 for log in result.per_restart_log)
    for log in result.per_restart_log:
        assert log.n_searchers + log.n_skipped_elites == log.n_clusters


def test_injection_none_never_skips():
    problem = make_problem(4)
    config = OptimizerConfig(budget=10_000, injection=InjectionMode.NONE)
    result = run_hillvallea(problem, SearcherKind.AMU, config, seed=10)
    for log in result.per_restart_log:
        assert log.n_skipped_elites == 0


def test_all_optima_injection_builds_side_archive():
    problem = make_problem(5)  # has local optima
    config = OptimizerConfig(budget=30_000, injection=InjectionMode.ALL_OPTIMA)
    result = run_hillvallea(problem, SearcherKind.AMU, config, seed=11)
    assert len(result.side_archive) >= 1
    best = min(s.fitness for s in result.archive)
    assert all(s.fitness > best + 1e-5 for s in result.side_archive)


def test_side_archive_counts_entries_appended_untested():
    # side entries merged while budget remained were tested for distinctness;
    # those merged after it ran out were appended untested
    config = OptimizerConfig(budget=10_000, injection=InjectionMode.ALL_OPTIMA)
    result = run_hillvallea(make_problem(5), SearcherKind.AMU, config, seed=0)
    assert 0 < result.side_unverified < len(result.side_archive)
    plain = run_hillvallea(make_problem(5), SearcherKind.AMU, OptimizerConfig(budget=10_000),
                           seed=0)
    assert plain.side_archive == [] and plain.side_unverified == 0


def test_seed_determinism_bitwise():
    problem = make_problem(5)
    config = OptimizerConfig(budget=15_000, trace_every=1000)
    a = run_hillvallea(problem, SearcherKind.IAM, config, seed=12)
    b = run_hillvallea(problem, SearcherKind.IAM, config, seed=12)
    assert a.evaluations_used == b.evaluations_used
    assert a.phase_used == b.phase_used
    assert len(a.archive) == len(b.archive)
    for sa, sb in zip(a.archive, b.archive):
        assert sa.fitness == sb.fitness
        assert np.array_equal(sa.position, sb.position)
    assert a.trace == b.trace
    assert a.per_restart_log == b.per_restart_log


def test_trace_spacing_and_metric():
    problem = make_problem(2)
    config = OptimizerConfig(budget=20_000, trace_every=1000)
    result = run_hillvallea(
        problem, SearcherKind.AMU, config, seed=13,
        trace_metric=lambda archive: peak_ratio(list(archive), problem).ratio)
    evals = [e for e, _ in result.trace]
    assert evals == sorted(evals)
    assert all(b - a <= 1000 for a, b in zip(evals, evals[1:]))
    assert evals[-1] == result.evaluations_used
    assert result.trace[-1][1] == 1.0


def test_budget_must_be_positive():
    problem = make_problem(2)
    with pytest.raises(ValueError):
        run_hillvallea(problem, SearcherKind.AMU, OptimizerConfig(budget=0), seed=0)


def test_scalar_only_custom_problem_matches_batch_form():
    # the README's custom problem, written so both forms round identically
    def ring(x):
        return float((x[0] * x[0] + x[1] * x[1] - 1.0) ** 2)

    def ring_batch(X):
        return (X[:, 0] * X[:, 0] + X[:, 1] * X[:, 1] - 1.0) ** 2

    def build(**batch):
        return BenchmarkProblem(
            id=0, name="ring", domain=SearchDomain(np.full(2, -5.0), np.full(2, 5.0)),
            objective=ring, known_global_optima=[], budget=5_000, niche_radius=0.5,
            **batch)

    config = OptimizerConfig(trace_every=500)
    a = run_hillvallea(build(), SearcherKind.CMSA, config, seed=0)
    b = run_hillvallea(build(objective_batch=ring_batch), SearcherKind.CMSA, config, seed=0)
    assert a.evaluations_used == b.evaluations_used == 5_000
    assert a.phase_used == b.phase_used
    assert a.per_restart_log == b.per_restart_log
    assert a.trace == b.trace
    assert len(a.archive) == len(b.archive) > 0
    for sa, sb in zip(a.archive, b.archive):
        assert sa.fitness == sb.fitness
        assert np.array_equal(sa.position, sb.position)


@pytest.mark.parametrize("kind", list(SearcherKind), ids=lambda k: k.value)
def test_nan_half_plane_runs_to_budget_with_finite_elites(kind):
    # the objective is NaN for x0 > 0.5; NaN reads as +inf, so it never wins
    def bowl(x):
        return float("nan") if x[0] > 0.5 else float(x @ x)

    def bowl_batch(X):
        return np.where(X[:, 0] > 0.5, np.nan, np.sum(X * X, axis=1))

    problem = BenchmarkProblem(
        id=0, name="nan_half_plane", domain=SearchDomain(np.full(2, -2.0), np.full(2, 2.0)),
        objective=bowl, objective_batch=bowl_batch, known_global_optima=[],
        budget=3_000, niche_radius=0.5)
    result = run_hillvallea(problem, kind, seed=0)
    assert result.evaluations_used == 3_000
    assert len(result.archive) > 0
    assert all(np.isfinite(s.fitness) for s in result.archive)
    assert all(s.position[0] <= 0.5 for s in result.archive)
