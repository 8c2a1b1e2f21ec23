"""Hill-valley test and clustering: unit examples plus property suites."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hillvallea import (BenchmarkProblem, KnownOptimum, SearchDomain, Solution,
                        expected_edge_length, hill_valley_clustering, hill_valley_test)
from hillvallea.hillvalley import _nearest_better
from hillvallea import test_point_count as n_test_points
from helpers import RecordingObjective, budgeted, double_well, make_sphere_problem, solution


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
    same, spent = hill_valley_test(solution(-1.0, f.fn), solution(1.0, f.fn), 1, f)
    assert same is True and spent == 1 and f.count == 1


def test_hill_valley_double_well_rejects():
    f = RecordingObjective(double_well)
    same, spent = hill_valley_test(solution(-1.0, f.fn), solution(1.0, f.fn), 1, f)
    assert same is False and spent == 1
    assert f.points[0][0] == pytest.approx(0.0)


def test_hill_valley_early_exit_two_points():
    # first test point x = 1/3 evaluates to (8/9)^2, worse than both endpoints
    f = RecordingObjective(double_well)
    same, spent = hill_valley_test(solution(-1.0, f.fn), solution(1.0, f.fn), 2, f)
    assert same is False and spent == 1 and f.count == 1
    assert f.points[0][0] == pytest.approx(1.0 / 3.0)
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
                         1, lambda x: 0.0)


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
        assert hill_valley_test(sa, sb, n, fn)[0] == hill_valley_test(sb, sa, n, fn)[0]


def test_hill_valley_evaluation_bound_property():
    rng = np.random.default_rng(12)
    for case in range(1000):
        d = int(rng.integers(1, 4))
        w = rng.standard_normal(d)
        fn = lambda x: float(np.cos(x @ w) + 0.05 * (x @ x))
        obj = RecordingObjective(fn)
        a, b = rng.uniform(-3, 3, size=(2, d))
        n = int(rng.integers(1, 7))
        same, spent = hill_valley_test(Solution(a, fn(a)), Solution(b, fn(b)), n, obj)
        assert 1 <= spent <= n and spent == obj.count
        assert not same or spent == n  # passing means every point was evaluated
        assert spent == n or not same  # stopping early only happens on rejection


def _cluster_members(cluster_set):
    return [sorted(s.position[0] for s in c.members) for c in cluster_set]


def test_clustering_double_well_trace():
    f = RecordingObjective(double_well)
    selection = [solution(x, double_well) for x in (-1.0, 1.0, -0.9, 0.9)]
    result = hill_valley_clustering(selection, volume=4.0, d=1, evaluate=f)
    assert result.complete
    assert len(result) == 2
    assert _cluster_members(result) == [[-1.0, -0.9], [0.9, 1.0]]
    founders = [c.founder.position[0] for c in result]
    assert founders == [-1.0, 1.0]


def test_clustering_convex_single_cluster():
    rng = np.random.default_rng(13)
    fn = lambda x: float(x @ x)
    selection = [Solution(p, fn(p)) for p in rng.uniform(-5, 5, size=(40, 2))]
    result = hill_valley_clustering(selection, volume=100.0, d=2, evaluate=fn)
    assert len(result) == 1
    assert len(result.clusters[0]) == 40


def test_clustering_singleton_selection():
    f = RecordingObjective(lambda x: float(x[0]))
    result = hill_valley_clustering([solution(0.5, f.fn)], volume=1.0, d=1, evaluate=f)
    assert len(result) == 1 and f.count == 0 and result.complete


def test_clustering_partition_property():
    rng = np.random.default_rng(14)
    for case in range(150):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 30))
        w = rng.standard_normal(d)
        fn = lambda x: float(np.sin(2.0 * x @ w) + 0.1 * (x @ x))
        selection = [Solution(p, fn(p)) for p in rng.uniform(-4, 4, size=(n, d))]
        result = hill_valley_clustering(selection, volume=8.0 ** d, d=d, evaluate=fn)
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
    selection = [Solution(p, fn(p)) for p in rng.uniform(-3, 3, size=(60, 2))]
    a = hill_valley_clustering(selection, volume=36.0, d=2, evaluate=fn)
    b = hill_valley_clustering(selection, volume=36.0, d=2, evaluate=fn)
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
    obj = RecordingObjective(needle)
    selection = [Solution(c.copy(), needle(c)) for c in centers]
    result = hill_valley_clustering(selection, volume=400.0, d=d, evaluate=obj)
    assert len(result) == 25
    assert obj.count <= sum(min(i, d + 1) for i in range(1, 25))


def test_clustering_budget_exhaustion_singleton_tail():
    problem = make_sphere_problem(1, half_width=2.0)
    obj, counter = budgeted(problem, 1, phase="clustering")
    xs = (-1.0, 1.0, -0.9, 0.9, 0.5, -0.5)
    selection = [solution(x, double_well) for x in xs]
    result = hill_valley_clustering(selection, volume=4.0, d=1, evaluate=obj)
    assert not result.complete
    assert counter.used == 1
    members = [s for c in result for s in c.members]
    assert len(members) == len(xs)


def test_clustering_eel_override_changes_test_points():
    f = RecordingObjective(double_well)
    selection = [solution(x, double_well) for x in (-1.0, 1.0)]
    hill_valley_clustering(selection, volume=4.0, d=1, evaluate=f, eel=2.0)
    # edge length 2, eel 2 -> exactly 2 test points when the pair merges; the
    # double well rejects at the first interior sample either way
    assert f.count == 1


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
