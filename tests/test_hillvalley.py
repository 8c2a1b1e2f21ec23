"""Hill-valley test and clustering: unit examples plus property suites."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hillvallea import (BenchmarkProblem, BudgetedObjective, EvaluationCounter,
                        KnownOptimum, SearchDomain, Solution, expected_edge_length,
                        hill_valley_clustering, hill_valley_test)
from hillvallea.hillvalley import _nearest_better
from hillvallea import test_point_count as n_test_points
from helpers import (RecordingObjective, budgeted, budgeted_fn, double_well,
                     make_sphere_problem, selection_of, solution)


def test_expected_edge_length_examples():
    assert expected_edge_length(16.0, 4, 2) == pytest.approx(2.0)
    assert expected_edge_length(10.0, 20, 1) == pytest.approx(0.5)
    assert expected_edge_length(8.0, 1, 3) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        expected_edge_length(0.0, 4, 2)


def test_test_point_count_examples():
    assert n_test_points(1.2, 0.5) == 3
    assert n_test_points(0.4, 0.5) == 1
    assert n_test_points(2.0, 2.0) == 2
    assert n_test_points(0.0, 1.0) == 1


def test_hill_valley_convex_segment():
    f = RecordingObjective(lambda x: x[0] ** 2)
    obj = budgeted_fn(f)
    same, spent = hill_valley_test(solution(-1.0, f.fn), solution(1.0, f.fn), 1, obj)
    assert same is True and spent == 1 and obj.counter.used == f.count == 1


def test_hill_valley_double_well_rejects():
    f = RecordingObjective(double_well)
    obj = budgeted_fn(f)
    same, spent = hill_valley_test(solution(-1.0, f.fn), solution(1.0, f.fn), 1, obj)
    assert same is False and spent == 1 and obj.counter.used == 1
    assert f.points[0][0] == pytest.approx(0.0)


def test_hill_valley_early_exit_two_points():
    # first test point x = 1/3 evaluates to (8/9)^2, worse than both endpoints:
    # both points are evaluated in one batch, and only the first is charged
    f = RecordingObjective(double_well)
    obj = budgeted_fn(f, phase="postprocess")
    same, spent = hill_valley_test(solution(-1.0, f.fn), solution(1.0, f.fn), 2, obj)
    assert same is False and spent == 1
    assert obj.counter.used == obj.counter.phase_used["postprocess"] == 1
    assert [x[0] for x in f.points] == pytest.approx([1.0 / 3.0, -1.0 / 3.0])
    assert double_well(f.points[0]) == pytest.approx((8.0 / 9.0) ** 2)


def test_hill_valley_budget_exhaustion_merges():
    problem = make_sphere_problem(1)
    obj, counter = budgeted(problem, 0)
    a = Solution(np.array([-1.0]), 1.0)
    b = Solution(np.array([1.0]), 1.0)
    same, spent = hill_valley_test(a, b, 4, obj)
    assert same is True and spent == 0 and counter.used == 0


def test_hill_valley_rejects_across_nan_point():
    # NaN on a band around the origin; through the budgeted objective it reads
    # as +inf, worse than both endpoints
    problem = BenchmarkProblem(
        id=0, name="nan_band", domain=SearchDomain(np.array([-2.0]), np.array([2.0])),
        objective=lambda x: math.nan if abs(x[0]) < 0.1 else float(x[0] ** 2),
        known_global_optima=[KnownOptimum(np.array([1.0]), 1.0)],
        budget=100, niche_radius=0.1)
    obj, counter = budgeted(problem, 100)
    a = Solution(np.array([-1.0]), 1.0)
    b = Solution(np.array([1.0]), 1.0)
    same, spent = hill_valley_test(a, b, 1, obj)
    assert same is False and spent == 1 and counter.used == 1


def test_hill_valley_dimension_mismatch():
    with pytest.raises(ValueError):
        hill_valley_test(Solution(np.zeros(2), 0.0), Solution(np.zeros(3), 0.0),
                         1, budgeted_fn(lambda x: 0.0))


def test_hill_valley_symmetry_property():
    rng = np.random.default_rng(11)
    for case in range(1000):
        d = int(rng.integers(1, 4))
        w = rng.standard_normal(d)
        freq = rng.uniform(0.5, 4.0)
        fn = lambda x: float(np.sin(freq * x @ w) + 0.1 * (x @ x))
        a, b = rng.uniform(-3, 3, size=(2, d))
        sa, sb = Solution(a, fn(a)), Solution(b, fn(b))
        n = int(rng.integers(1, 6))
        assert (hill_valley_test(sa, sb, n, budgeted_fn(fn))[0]
                == hill_valley_test(sb, sa, n, budgeted_fn(fn))[0])


def test_hill_valley_evaluation_bound_property():
    rng = np.random.default_rng(12)
    for case in range(1000):
        d = int(rng.integers(1, 4))
        w = rng.standard_normal(d)
        fn = lambda x: float(np.cos(x @ w) + 0.05 * (x @ x))
        obj = budgeted_fn(fn)
        a, b = rng.uniform(-3, 3, size=(2, d))
        n = int(rng.integers(1, 7))
        same, spent = hill_valley_test(Solution(a, fn(a)), Solution(b, fn(b)), n, obj)
        assert 1 <= spent <= n and spent == obj.counter.used
        assert not same or spent == n  # passing means every point was evaluated
        assert spent == n or not same  # stopping early only happens on rejection


def reference_hill_valley_test(x_left, x_right, n_test, problem, counter, phase):
    """Sequential reference: charge a point, evaluate it, stop at the first worse point.

    A NaN fitness reads as +inf; the points charged before the budget ends decide."""
    worst = max(x_left.fitness, x_right.fitness)
    bar = worst + 1e-12 * max(1.0, abs(worst))
    segment = x_left.position - x_right.position
    for k in range(1, n_test + 1):
        if not counter.take(phase, 1):
            return True, k - 1
        f = problem.objective(x_right.position + (k / (n_test + 1)) * segment)
        if f != f or f > bar:
            return False, k
    return True, n_test


_coordinates = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), n_test=st.integers(1, 8), data=st.data())
def test_hill_valley_test_matches_sequential_reference(d, n_test, data):
    ends = data.draw(st.lists(st.lists(_coordinates, min_size=d, max_size=d),
                              min_size=2, max_size=2))
    f_left = data.draw(st.floats(-1e3, 1e3, allow_nan=False))
    f_right = data.draw(st.sampled_from([f_left, -f_left])
                        | st.floats(-1e3, 1e3, allow_nan=False))
    a, b = Solution(np.array(ends[0]), f_left), Solution(np.array(ends[1]), f_right)
    worst = max(f_left, f_right)
    bar = worst + 1e-12 * max(1.0, abs(worst))
    # each test point's fitness: better, tied with the worse end, tied with the
    # reject bar, just past it, or NaN
    levels = {"below": min(f_left, f_right) - 1.0, "worst": worst, "bar": bar,
              "above": np.nextafter(bar, np.inf), "nan": math.nan}
    picks = data.draw(st.lists(st.sampled_from(sorted(levels)), min_size=n_test,
                               max_size=n_test))
    left, right = (a, b) if data.draw(st.booleans()) else (b, a)
    segment = left.position - right.position
    table = {}
    for k, pick in enumerate(picks, 1):
        table.setdefault((right.position + (k / (n_test + 1)) * segment).tobytes(),
                         levels[pick])
    problem = BenchmarkProblem(
        id=0, name="table", domain=SearchDomain(np.full(d, -10.0), np.full(d, 10.0)),
        objective=lambda x: table[np.asarray(x, dtype=float).tobytes()],
        known_global_optima=[], budget=100, niche_radius=1.0)
    used = data.draw(st.integers(0, 2))
    for budget in range(n_test + 2):
        counters = []
        for _ in range(2):
            counter = EvaluationCounter(used + budget)
            counter.take("init", used)
            counters.append(counter)
        want = reference_hill_valley_test(left, right, n_test, problem, counters[0],
                                          "clustering")
        got = hill_valley_test(left, right, n_test,
                               BudgetedObjective(problem, counters[1], "clustering"))
        assert got == want
        assert counters[1].used == counters[0].used
        assert counters[1].phase_used == counters[0].phase_used


def _cluster_members(cluster_set):
    return [sorted(s.position[0] for s in c.members) for c in cluster_set]


def test_clustering_double_well_trace():
    selection = selection_of(solution(x, double_well) for x in (-1.0, 1.0, -0.9, 0.9))
    result = hill_valley_clustering(selection, volume=4.0, d=1,
                                    evaluate=budgeted_fn(double_well))
    assert result.complete
    assert len(result) == 2
    assert _cluster_members(result) == [[-1.0, -0.9], [0.9, 1.0]]
    founders = [c.founder.position[0] for c in result]
    assert founders == [-1.0, 1.0]


def test_clustering_convex_single_cluster():
    rng = np.random.default_rng(13)
    fn = lambda x: float(x @ x)
    selection = selection_of(Solution(p, fn(p)) for p in rng.uniform(-5, 5, size=(40, 2)))
    result = hill_valley_clustering(selection, volume=100.0, d=2, evaluate=budgeted_fn(fn))
    assert len(result) == 1
    assert len(result.clusters[0]) == 40


def test_clustering_singleton_selection():
    f = RecordingObjective(lambda x: float(x[0]))
    obj = budgeted_fn(f)
    result = hill_valley_clustering(selection_of([solution(0.5, f.fn)]), volume=1.0, d=1,
                                    evaluate=obj)
    assert len(result) == 1 and f.count == obj.counter.used == 0 and result.complete


def test_clustering_partition_property():
    rng = np.random.default_rng(14)
    for case in range(150):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 30))
        w = rng.standard_normal(d)
        fn = lambda x: float(np.sin(2.0 * x @ w) + 0.1 * (x @ x))
        selection = [Solution(p, fn(p)) for p in rng.uniform(-4, 4, size=(n, d))]
        result = hill_valley_clustering(selection_of(selection), volume=8.0 ** d, d=d,
                                        evaluate=budgeted_fn(fn))
        members = [s for c in result for s in c.members]
        assert len(members) == n
        assert {id(s) for s in members} == {id(s) for s in selection}
        for c in result:
            assert min(s.fitness for s in c.members) == c.founder.fitness
        founder_fitness = [c.founder.fitness for c in result]
        assert founder_fitness == sorted(founder_fitness)


def test_clustering_determinism():
    rng = np.random.default_rng(15)
    fn = lambda x: float(np.sin(3 * x[0]) + np.cos(2 * x[1]))
    selection = selection_of(Solution(p, fn(p)) for p in rng.uniform(-3, 3, size=(60, 2)))
    a = hill_valley_clustering(selection, volume=36.0, d=2, evaluate=budgeted_fn(fn))
    b = hill_valley_clustering(selection, volume=36.0, d=2, evaluate=budgeted_fn(fn))
    assert [[id(s) for s in c.members] for c in a] == \
           [[id(s) for s in c.members] for c in b]


def test_clustering_neighbour_cap_evaluation_budget():
    # needle landscape: every point is its own niche and every test fails at
    # its first point, so evaluations are bounded by sum of min(i, d+1)
    rng = np.random.default_rng(16)
    d = 2
    centers = rng.uniform(-10, 10, size=(25, d))
    def needle(x):
        dist = np.linalg.norm(centers - x, axis=1).min()
        return float(-max(0.0, 1.0 - 200.0 * dist))
    obj = budgeted_fn(needle)
    selection = selection_of(Solution(c.copy(), needle(c)) for c in centers)
    result = hill_valley_clustering(selection, volume=400.0, d=d, evaluate=obj)
    assert len(result) == 25
    assert obj.counter.used <= sum(min(i, d + 1) for i in range(1, 25))


def test_clustering_budget_exhaustion_singleton_tail():
    problem = make_sphere_problem(1, half_width=2.0)
    obj, counter = budgeted(problem, 1, phase="clustering")
    xs = (-1.0, 1.0, -0.9, 0.9, 0.5, -0.5)
    selection = selection_of(solution(x, double_well) for x in xs)
    result = hill_valley_clustering(selection, volume=4.0, d=1, evaluate=obj)
    assert not result.complete
    assert counter.used == 1
    members = [s for c in result for s in c.members]
    assert len(members) == len(xs)


def test_clustering_spacing_from_volume_sets_test_points():
    obj = budgeted_fn(double_well)
    selection = selection_of(solution(x, double_well) for x in (-1.0, 1.0))
    hill_valley_clustering(selection, volume=4.0, d=1, evaluate=obj)
    # volume 4 over 2 points: eel 2; edge length 2 -> exactly 2 test points
    # when the pair merges; the double well rejects at the first interior
    # sample either way
    assert obj.counter.used == 1


def _brute_nearest_better(positions, k):
    full = cdist(positions, positions)
    return [sorted(full[i, :i])[:k] for i in range(len(positions))], full


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 600), d=st.integers(1, 4), k_off=st.integers(0, 4),
       chunk=st.integers(2, 64), grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_nearest_better_matches_brute_force(n, d, k_off, chunk, grid, seed):
    # a small chunk sends most rows through the k-d trees; a coarse grid makes
    # exact distance ties and duplicate points
    k = 1 + k_off % (d + 1)
    rng = np.random.default_rng(seed)
    positions = (rng.integers(0, 4, size=(n, d)).astype(float) if grid
                 else rng.uniform(-3.0, 3.0, size=(n, d)))
    idx, dist = _nearest_better(positions, k, chunk=chunk)
    assert idx.shape == dist.shape == (n, k)
    expected, full = _brute_nearest_better(positions, k)
    for i in range(n):
        found = len(expected[i])
        assert dist[i, :found].tolist() == expected[i]
        assert (dist[i, found:] == np.inf).all() and (idx[i, found:] == -1).all()
        picked = idx[i, :found]
        assert len(set(picked.tolist())) == found and (picked < i).all()
        assert full[i, picked].tolist() == expected[i]
        # where the distance is not tied, the neighbour is the only choice
        for j in range(found):
            if np.count_nonzero(full[i, :i] == dist[i, j]) == 1:
                assert picked[j] == np.flatnonzero(full[i, :i] == dist[i, j])[0]
