"""Core searchers: size tables, cluster initialization, generations, termination."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hillvallea import SearchDomain, SearcherKind
from hillvallea.core_search import (CmsaSearcher, CoreSearcher, EdaSearcher, _mean, _std,
                                    init_from_cluster, recommended_population_size)
from helpers import (RecordingObjective, budgeted, budgeted_fn, make_ripple_problem,
                     make_sphere_problem, ripple, selection, sphere)


def _searcher(kind, mean, covariance, population_size, seed, founder=None, fn=sphere):
    """A fresh searcher of ``kind``; its founder, a (position, fitness) pair, sits at
    its mean unless given."""
    mean = np.asarray(mean, float)
    best_x, best_f = (mean.copy(), fn(mean)) if founder is None else founder
    rng = np.random.default_rng(seed)
    if kind is SearcherKind.CMSA:
        return CmsaSearcher(mean, covariance, population_size, best_x=best_x, best_f=best_f,
                            rng=rng)
    return EdaSearcher(mean, covariance, population_size, kind, best_x=best_x, best_f=best_f,
                       rng=rng)


def _best(searcher, i=0):
    """Member i's best position and fitness, bit for bit."""
    positions, fitness = searcher.best_ever
    return positions[i].tobytes(), float(fitness[i]).hex()


def test_recommended_sizes_match_table_arithmetic():
    assert recommended_population_size(SearcherKind.AMU, 2) == 15   # ceil(10*sqrt(2))
    assert recommended_population_size(SearcherKind.AM, 2) == 26    # ceil(17+6*sqrt(2))
    assert recommended_population_size(SearcherKind.IAMU, 1) == 4   # max(4, ceil(4))
    assert recommended_population_size(SearcherKind.IAM, 2) == 15
    assert recommended_population_size(SearcherKind.CMSA, 1) == 4   # ceil(3 ln 1) + 4
    assert recommended_population_size(SearcherKind.CMSA, 2) == 7


@pytest.mark.parametrize("kind", list(SearcherKind))
def test_recommended_size_monotone_and_floored(kind):
    sizes = [recommended_population_size(kind, d) for d in range(1, 31)]
    assert all(s >= 4 for s in sizes)
    assert sizes == sorted(sizes)


def test_selection_fraction_per_kind():
    assert SearcherKind.CMSA.tau == 0.5
    for kind in (SearcherKind.AM, SearcherKind.AMU, SearcherKind.IAM, SearcherKind.IAMU):
        assert kind.tau == 0.35


def test_init_singleton_cluster_covariance():
    positions, fitness = selection(sphere, [[0.3, 0.4]])
    s = init_from_cluster(positions, fitness, eel=1.0, kind=SearcherKind.AMU,
                          population_size=8, rng=np.random.default_rng(0))
    assert np.allclose(s.covariance, 1e-4 * np.eye(2))
    assert _best(s) == (positions[0].tobytes(), float(fitness[0]).hex())


def test_init_full_sample_covariance():
    c = selection(sphere, [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    s = init_from_cluster(*c, eel=1.0, kind=SearcherKind.AM,
                          population_size=8, rng=np.random.default_rng(0))
    assert np.allclose(s.mean, [1.0, 1.0])
    assert np.allclose(s.covariance, np.diag([4.0 / 3.0, 4.0 / 3.0]))


def test_init_small_cluster_diagonal_only():
    c = selection(sphere, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    s = init_from_cluster(*c, eel=1.0, kind=SearcherKind.AM,
                          population_size=8, rng=np.random.default_rng(0))
    off_diag = s.covariance[0] - np.diag(np.diag(s.covariance[0]))
    assert np.all(off_diag == 0.0)
    assert np.all(np.diag(s.covariance[0]) > 0.0)


def test_init_coincident_members_fall_back_to_tiny_sphere():
    c = selection(sphere, [[1.0, 1.0], [1.0, 1.0]])
    s = init_from_cluster(*c, eel=2.0, kind=SearcherKind.CMSA,
                          population_size=6, rng=np.random.default_rng(0))
    assert s.sigma == pytest.approx(0.02)


def test_cmsa_init_splits_scale_and_shape():
    s = _searcher(SearcherKind.CMSA, np.zeros(2), np.diag([4.0, 16.0]), 7, 0)
    assert s.sigma == pytest.approx(np.sqrt(10.0))
    assert np.allclose(s.shape, np.diag([0.4, 1.6]))


def test_cmsa_generation_updates():
    problem = make_sphere_problem(2)
    founder = (np.array([0.5, 0.5]), 0.5)
    s = _searcher(SearcherKind.CMSA, [2.0, 2.0], np.eye(2), 8, 5, founder=founder)
    rec = RecordingObjective(sphere)
    s.run_generation(budgeted_fn(rec), problem.domain)
    assert np.allclose(s.shape[0], s.shape[0].T)
    # the founder replaces the worst offspring; the new mean is the exact mean
    # of the best half of that population
    X = np.array(rec.points)
    fs = np.array([sphere(x) for x in X])
    worst = np.argmax(fs)
    X[worst], fs[worst] = founder
    best = np.argsort(fs, kind="stable")[:4]
    assert worst in best
    assert np.allclose(s.mean, X[best].mean(axis=0))


def test_cmsa_constant_objective_keeps_best():
    problem = make_sphere_problem(2)
    s = _searcher(SearcherKind.CMSA, np.zeros(2), np.eye(2), 8, 6,
                  founder=(np.zeros(2), 1.0))
    for _ in range(3):
        s.run_generation(budgeted_fn(lambda x: 1.0), problem.domain)
    assert s.best_ever[1][0] == 1.0
    assert np.allclose(s.best_ever[0][0], np.zeros(2))


def test_cmsa_sphere_convergence_oracle():
    problem = make_sphere_problem(2, half_width=10.0)
    s = _searcher(SearcherKind.CMSA, [5.0, 5.0], np.eye(2),
                  recommended_population_size(SearcherKind.CMSA, 2), 0)
    obj, _ = budgeted(problem, 10 ** 6)
    prev = np.inf
    for _ in range(50):
        s.run_generation(obj, problem.domain)
        assert s.best_ever[1][0] <= prev + 1e-15
        prev = s.best_ever[1][0]
    assert s.best_ever[1][0] < 1e-5


def test_eda_selection_floor_and_refit_mean():
    assert int(0.35 * 15) == 5
    problem = make_sphere_problem(2)
    founder_x, founder_f = np.array([0.2, 0.2]), 0.08
    s = _searcher(SearcherKind.AMU, [1.0, 1.0], np.eye(2), 15, 7,
                  founder=(founder_x, founder_f))
    rec = RecordingObjective(sphere)
    s.run_generation(budgeted_fn(rec), problem.domain)
    assert rec.count == 14  # the founder is the population's 15th row
    X = np.vstack([rec.points, founder_x])
    fs = np.array([sphere(x) for x in rec.points] + [founder_f])
    best = np.argsort(fs, kind="stable")[:5]
    assert 14 in best
    assert np.allclose(s.mean, X[best].mean(axis=0))


def test_eda_rejects_cmsa_kind():
    with pytest.raises(ValueError):
        EdaSearcher(np.zeros(1), np.eye(1), 5, SearcherKind.CMSA, best_x=np.zeros(1),
                    best_f=0.0, rng=np.random.default_rng(0))


def test_amu_quadratic_oracle_from_singleton_init():
    problem = make_sphere_problem(1, half_width=0.5)  # domain [-0.5, 0.5]
    quad = RecordingObjective(lambda x: float((x[0] - 0.3) ** 2))
    c = selection(quad, [[-0.2]])
    s = init_from_cluster(*c, eel=1.0, kind=SearcherKind.AMU,
                          population_size=10, rng=np.random.default_rng(2))
    s.run(budgeted_fn(quad), problem.domain, tol=1e-5)
    assert s.terminated_reason[0] in ("population-std", "fitness-std")
    assert abs(s.best_ever[0][0, 0] - 0.3) < 1e-4


def test_cmsa_termination_window_arithmetic():
    s = _searcher(SearcherKind.CMSA, np.zeros(2), np.eye(2), 8, 0)
    assert s.window == 17  # 10 + floor(30 * 2 / 8)


def test_eda_degenerate_population_terminates():
    problem = make_sphere_problem(2)
    for population_std, reason in ((0.0, "population-std"), (1.0, "fitness-std")):
        s = _searcher(SearcherKind.AMU, np.zeros(2), np.eye(2), 8, 1)
        s.population_std[0] = np.full(2, population_std)
        s.fitness_std[0] = 0.0
        obj = budgeted_fn(sphere)
        s.run(obj, problem.domain, tol=1e-5)
        assert s.terminated_reason == [reason]
        assert obj.counter.used == 0  # it stops before its first generation


def test_cmsa_ill_conditioned_termination():
    problem = make_sphere_problem(2)
    s = _searcher(SearcherKind.CMSA, np.zeros(2), np.eye(2), 8, 0)
    s.shape[0] = np.diag([1.0, 1e-15])
    obj = budgeted_fn(sphere)
    s.run(obj, problem.domain, tol=1e-5)
    assert s.terminated_reason == ["ill-conditioned"]
    assert obj.counter.used == 0


def test_cmsa_no_improvement_termination():
    problem = make_sphere_problem(1)
    s = _searcher(SearcherKind.CMSA, np.zeros(1), np.eye(1), 8, 0,
                  founder=(np.zeros(1), 5.0))
    flat = budgeted_fn(lambda x: 5.0)
    s.run(flat, problem.domain, tol=1e-5)
    # the best must stall over window + 1 generations
    assert s.terminated_reason == ["no-improvement"]
    assert s.generation == s.window + 1
    assert flat.counter.used == (s.window + 1) * 8


def test_budget_exhaustion_mid_generation():
    rec = RecordingObjective(sphere)
    problem = make_sphere_problem(2)
    obj = budgeted_fn(rec, 5)
    counter = obj.counter
    founder = (np.array([3.0, 3.0]), 18.0)
    s = _searcher(SearcherKind.CMSA, [3.0, 3.0], np.eye(2), 8, 3, founder=founder)
    s.run_generation(obj, problem.domain)
    assert list(s.terminated_reason) == ["budget"]
    assert counter.used == 5 and rec.count == 5
    # the best of the founder and the 5 granted offspring
    X = np.vstack([founder[0], rec.points])
    fs = np.array([founder[1]] + [sphere(x) for x in rec.points])
    best = int(np.argmin(fs))
    assert best != 0
    assert _best(s) == (X[best].tobytes(), float(fs[best]).hex())


@pytest.mark.parametrize("kind", list(SearcherKind))
def test_best_ever_monotone_and_in_domain(kind):
    problem = make_sphere_problem(2, half_width=2.0)

    def fn(x):
        return float(np.sin(3 * x[0]) + 0.5 * (x @ x))

    rec = RecordingObjective(fn)
    obj = budgeted_fn(rec)
    s = _searcher(kind, [1.5, -1.0], 0.25 * np.eye(2), recommended_population_size(kind, 2),
                  9, fn=fn)
    prev = np.inf
    for _ in range(30):
        s.run_generation(obj, problem.domain)
        assert s.best_ever[1][0] <= prev + 1e-15
        prev = s.best_ever[1][0]
    pts = np.array(rec.points)
    assert np.all(pts >= problem.domain.lower - 1e-12)
    assert np.all(pts <= problem.domain.upper + 1e-12)
    # sampling model stays symmetric PSD
    cov = s.shape if kind is SearcherKind.CMSA else s.covariance
    assert np.allclose(cov, cov.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(cov).min() >= -1e-12


@pytest.mark.parametrize("kind", list(SearcherKind))
def test_sphere_statistical_convergence(kind):
    problem = make_sphere_problem(2, half_width=5.0, budget=10 ** 4)
    successes = 0
    for seed in range(100):
        obj, _ = budgeted(problem, 10 ** 4)
        s = _searcher(kind, [3.0, 3.0], np.eye(2), recommended_population_size(kind, 2),
                      1000 + seed)
        _, best_f = s.run(obj, problem.domain, tol=1e-5)
        successes += best_f[0] < 1e-5
    assert successes >= 95


def _ripple_searchers(kind, d, size, seed):
    """``size`` fresh searchers on the ripple, each with its own model and stream."""
    rng = np.random.default_rng(seed)
    searchers = []
    for k in range(size):
        mean = rng.uniform(-1.5, 1.5, d)
        A = 0.3 * rng.standard_normal((d, d))
        searchers.append(_searcher(kind, mean, A @ A.T + 0.05 * np.eye(d),
                                   recommended_population_size(kind, d), [seed, k],
                                   fn=ripple))
    return searchers


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(list(SearcherKind)), d=st.integers(1, 3),
       size=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
       limit=st.none() | st.integers(0, 3000))
def test_lockstep_members_match_lone_runs(kind, d, size, seed, limit):
    problem = make_ripple_problem(d)
    group = CoreSearcher.stack(_ripple_searchers(kind, d, size, seed))
    obj, _ = budgeted(problem, 10 ** 8)
    group.run(obj, problem.domain, tol=1e-5, limit=limit)
    assert limit is None or group.evaluations.sum() <= limit
    alone = _ripple_searchers(kind, d, size, seed)
    for k in range(size):
        lone = alone[k]
        lone.run(obj, problem.domain, tol=1e-5)
        member, i = group, k
        if group.terminated_reason[k] is None:  # paused by the limit: finish it alone
            member, i = group.member(k), 0
            member.run(obj, problem.domain, tol=1e-5)
        assert member.terminated_reason[i] == lone.terminated_reason[0]
        assert member.evaluations[i] == lone.evaluations[0]
        assert _best(member, i) == _best(lone)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# magnitudes whose squares and sums stay finite, where numpy's std is defined
_moderate = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=arrays(np.float64, array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=9),
                elements=_moderate))
def test_reductions_equal_numpy_bitwise(a):
    assert _bits(_mean(a)) == _bits(np.mean(a, axis=1))
    assert _bits(_std(a)) == _bits(np.std(a, axis=1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), shape=array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=9))
def test_domain_clip_equals_numpy_bitwise(data, shape):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    x = data.draw(arrays(np.float64, shape, elements=finite))
    bound = st.floats(-1e307, 1e307)  # a box's widths must be finite too
    pairs = data.draw(st.lists(st.lists(bound, min_size=2, max_size=2, unique=True),
                               min_size=shape[-1], max_size=shape[-1]))
    domain = SearchDomain(*np.sort(np.array(pairs), axis=1).T)
    assert _bits(domain.clip(x)) == _bits(np.clip(x, domain.lower, domain.upper))


@pytest.mark.parametrize("lower, upper, x", [(-0.0, 1.0, 0.0), (0.0, 1.0, -0.0),
                                             (-1.0, 0.0, -0.0), (-1.0, -0.0, 0.0)])
def test_domain_clip_keeps_a_zero_on_a_bound_of_opposite_sign(lower, upper, x):
    # a coordinate equal to a bound is inside the box: it stays as it is, sign
    # bit included, as in np.clip
    domain = SearchDomain(np.array([lower]), np.array([upper]))
    x = np.array([[x]])
    assert _bits(domain.clip(x)) == _bits(np.clip(x, domain.lower, domain.upper)) == _bits(x)


def test_fitness_spread_with_infinities_is_defined_without_warning():
    fs = np.array([[1.0, np.inf, 2.0], [np.inf, np.inf, np.inf], [1.0, 2.0, 4.0],
                   [np.inf, -np.inf, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spread = _std(fs)
    assert spread[0] == np.inf
    assert spread[1] == 0.0
    assert spread[2] == np.std(fs[2])
    assert spread[3] == np.inf  # numpy's own sum of +inf and -inf warns


@pytest.mark.parametrize("kind", [SearcherKind.AM, SearcherKind.AMU, SearcherKind.IAMU])
def test_eda_fitness_std_stop_fires_on_all_infinite_population(kind):
    problem = make_sphere_problem(2)
    # a founder whose objective returned NaN reads as +inf
    s = _searcher(kind, np.zeros(2), np.eye(2), 8, 3, founder=(np.zeros(2), np.inf))
    s.run(budgeted_fn(lambda x: np.inf), problem.domain, tol=1e-5)
    assert s.terminated_reason == ["fitness-std"]
    assert s.generation == 1


@pytest.mark.parametrize("kind", list(SearcherKind))
def test_member_that_never_improves_keeps_its_founders_row(kind):
    problem = make_sphere_problem(2)
    n = recommended_population_size(kind, 2)

    def build(founder, seed):
        return _searcher(kind, np.zeros(2), 0.01 * np.eye(2), n, seed, founder=founder)

    # nothing on the sphere beats the minimum, so the first founder is never replaced
    stuck = (np.zeros(2), 0.0)
    movable = (np.array([0.05, 0.05]), 10.0)
    obj, _ = budgeted(problem, 10 ** 6)
    group = CoreSearcher.stack([build(stuck, 1), build(movable, 2)])
    group.run(obj, problem.domain, tol=1e-5, limit=4 * n)
    stuck_row = (stuck[0].tobytes(), float(stuck[1]).hex())
    assert _best(group, 0) == stuck_row
    assert _best(group, 1) != (movable[0].tobytes(), float(movable[1]).hex())
    assert _best(group.member(0)) == stuck_row
    alone = build(stuck, 1)
    alone.run(obj, problem.domain, tol=1e-5)
    assert _best(alone) == stuck_row
