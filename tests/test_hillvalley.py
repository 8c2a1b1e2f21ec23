"""Hill-valley test and clustering: unit examples plus property suites."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import reference
from hillvallea import BenchmarkProblem, SearchDomain, SearcherKind, make_problem, run_hillvallea
from hillvallea.hillvalley import (_nearest_better, expected_edge_length, hill_valley_clustering,
                                   hill_valley_test)
from hillvallea.hillvalley import test_point_count as n_test_points
from helpers import (RecordingObjective, budgeted, budgeted_fn, double_well, make_sphere_problem,
                     row_loop, selection)

LEFT, RIGHT = np.array([-1.0]), np.array([1.0])


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
    same, spent = hill_valley_test(LEFT, RIGHT, 1.0, 1.0, 1, obj)
    assert same is True and spent == 1 and obj.counter.used == f.count == 1


def test_hill_valley_double_well_rejects():
    f = RecordingObjective(double_well)
    obj = budgeted_fn(f)
    same, spent = hill_valley_test(LEFT, RIGHT, 0.0, 0.0, 1, obj)
    assert same is False and spent == 1 and obj.counter.used == 1
    assert f.points[0][0] == pytest.approx(0.0)


def test_hill_valley_early_exit_two_points():
    # first test point x = 1/3 evaluates to (8/9)^2, worse than both endpoints:
    # both points are evaluated in one batch, and only the first is charged
    f = RecordingObjective(double_well)
    obj = budgeted_fn(f, phase="postprocess")
    same, spent = hill_valley_test(LEFT, RIGHT, 0.0, 0.0, 2, obj)
    assert same is False and spent == 1
    assert obj.counter.used == obj.counter.phase_used["postprocess"] == 1
    assert [x[0] for x in f.points] == pytest.approx([1.0 / 3.0, -1.0 / 3.0])
    assert double_well(f.points[0]) == pytest.approx((8.0 / 9.0) ** 2)


def test_hill_valley_budget_exhaustion_merges():
    problem = make_sphere_problem(1)
    obj, counter = budgeted(problem, 0)
    same, spent = hill_valley_test(LEFT, RIGHT, 1.0, 1.0, 4, obj)
    assert same is True and spent == 0 and counter.used == 0


def test_hill_valley_rejects_across_nan_point():
    # NaN on a band around the origin; through the budgeted objective it reads
    # as +inf, worse than both endpoints
    problem = BenchmarkProblem(
        SearchDomain(np.array([-2.0]), np.array([2.0])),
        row_loop(lambda x: math.nan if abs(x[0]) < 0.1 else float(x[0] ** 2)), 100,
        name="nan_band")
    obj, counter = budgeted(problem, 100)
    same, spent = hill_valley_test(LEFT, RIGHT, 1.0, 1.0, 1, obj)
    assert same is False and spent == 1 and counter.used == 1


def test_hill_valley_dimension_mismatch():
    with pytest.raises(ValueError):
        hill_valley_test(np.zeros(2), np.zeros(3), 0.0, 0.0, 1, budgeted_fn(lambda x: 0.0))


def test_hill_valley_symmetry_property():
    rng = np.random.default_rng(11)
    for case in range(1000):
        d = int(rng.integers(1, 4))
        w = rng.standard_normal(d)
        freq = rng.uniform(0.5, 4.0)
        fn = lambda x: float(np.sin(freq * x @ w) + 0.1 * (x @ x))
        a, b = rng.uniform(-3, 3, size=(2, d))
        n = int(rng.integers(1, 6))
        assert (hill_valley_test(a, b, fn(a), fn(b), n, budgeted_fn(fn))[0]
                == hill_valley_test(b, a, fn(b), fn(a), n, budgeted_fn(fn))[0])


def test_hill_valley_evaluation_bound_property():
    rng = np.random.default_rng(12)
    for case in range(1000):
        d = int(rng.integers(1, 4))
        w = rng.standard_normal(d)
        fn = lambda x: float(np.cos(x @ w) + 0.05 * (x @ x))
        obj = budgeted_fn(fn)
        a, b = rng.uniform(-3, 3, size=(2, d))
        n = int(rng.integers(1, 7))
        same, spent = hill_valley_test(a, b, fn(a), fn(b), n, obj)
        assert 1 <= spent <= n and spent == obj.counter.used
        assert not same or spent == n  # passing means every point was evaluated
        assert spent == n or not same  # stopping early only happens on rejection


def _last_batch(p):
    """(points evaluated, last batch size) of a test that rejects at point p:
    it evaluates through its batch of 8, 16, 32, ... points."""
    end, size = 0, 8
    while end < p:
        end, size = end + size, 2 * size
    return end, size // 2


def test_hill_valley_test_evaluates_in_doubling_batches():
    # a bump at test point p rejects there: the charge is p, and the points
    # evaluated past it are fewer than the batch that held it
    for n_test in (1, 7, 8, 9, 24, 25, 100, 431):
        for p in sorted({1, 8, 9, 24, 25, n_test // 2 + 1, n_test} & set(range(1, n_test + 1))):
            bump = p / (n_test + 1)
            f = RecordingObjective(lambda x: float(abs(x[0] - bump) < 0.25 / (n_test + 1)))
            obj = budgeted_fn(f)
            same, spent = hill_valley_test(RIGHT, np.zeros(1), 0.0, 0.0, n_test, obj)
            assert not same and spent == obj.counter.used == p
            end, last = _last_batch(p)
            assert f.count == min(n_test, end) and f.count - p < last
        f = RecordingObjective(lambda x: 0.0)
        obj = budgeted_fn(f)
        assert hill_valley_test(RIGHT, np.zeros(1), 0.0, 0.0, n_test, obj) == (True, n_test)
        assert f.count == n_test


def test_hill_valley_tests_of_a_run_waste_less_than_their_last_batch(monkeypatch):
    # P1 AMU, seed 0: each test evaluates its points through the batch that
    # rejects, so its uncharged points are fewer than that batch
    from hillvallea import hillvalley, optimizer
    problem = make_problem(1)
    rows = [0]
    batch = problem.objective

    def counting(X):
        rows[0] += len(X)
        return batch(X)

    problem.objective = counting
    tests = []
    test = hillvalley.hill_valley_test

    def recording(left, right, f_left, f_right, n_test, evaluate):
        before = rows[0]
        same, charged = test(left, right, f_left, f_right, n_test, evaluate)
        tests.append((n_test, charged, rows[0] - before, evaluate.exhausted))
        return same, charged

    monkeypatch.setattr(hillvalley, "hill_valley_test", recording)
    monkeypatch.setattr(optimizer, "hill_valley_test", recording)
    run_hillvallea(problem, SearcherKind.AMU, seed=0)
    assert len(tests) > 100 and max(n for n, _, _, _ in tests) > 100
    for n_test, charged, evaluated, exhausted in tests:
        if not exhausted:  # a test cut by the budget charges fewer than it evaluated
            end, last = _last_batch(charged)
            assert evaluated == min(n_test, end) and evaluated - charged < last


_coordinates = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), n_test=st.integers(1, 8), data=st.data())
def test_hill_valley_test_matches_sequential_reference(d, n_test, data):
    ends = data.draw(st.lists(st.lists(_coordinates, min_size=d, max_size=d),
                              min_size=2, max_size=2))
    f_left = data.draw(st.floats(-1e3, 1e3, allow_nan=False))
    f_right = data.draw(st.sampled_from([f_left, -f_left])
                        | st.floats(-1e3, 1e3, allow_nan=False))
    a, b = (np.array(ends[0]), f_left), (np.array(ends[1]), f_right)
    worst = max(f_left, f_right)
    bar = worst + 1e-12 * max(1.0, abs(worst))
    # each test point's fitness: better, tied with the worse end, tied with the
    # reject bar, just past it, or NaN
    levels = {"below": min(f_left, f_right) - 1.0, "worst": worst, "bar": bar,
              "above": np.nextafter(bar, np.inf), "nan": math.nan}
    picks = data.draw(st.lists(st.sampled_from(sorted(levels)), min_size=n_test,
                               max_size=n_test))
    (left, f_left), (right, f_right) = (a, b) if data.draw(st.booleans()) else (b, a)
    table = {}
    for k, pick in enumerate(picks, 1):
        table.setdefault((right + (k / (n_test + 1)) * (left - right)).tobytes(),
                         levels[pick])
    problem = BenchmarkProblem(SearchDomain(np.full(d, -10.0), np.full(d, 10.0)),
                               row_loop(lambda x: table[x.tobytes()]), 100, name="table")
    used = data.draw(st.integers(0, 2))
    for budget in range(n_test + 2):
        (ref, ref_counter), (new, new_counter) = (
            budgeted(problem, used + budget, "clustering", used) for _ in range(2))
        want = reference.same_niche(left, right, f_left, f_right, n_test, ref)
        got = hill_valley_test(left, right, f_left, f_right, n_test, new)
        assert got == (want, ref_counter.used - used)
        assert new_counter.used == ref_counter.used
        assert new_counter.phase_used == ref_counter.phase_used


def _cluster_members(positions, clusters):
    return [sorted(positions[rows, 0].tolist()) for rows in clusters]


def test_clustering_double_well_trace():
    positions, fitness = selection(double_well, [-1.0, 1.0, -0.9, 0.9])
    clusters, complete = hill_valley_clustering(positions, fitness, volume=4.0,
                                                evaluate=budgeted_fn(double_well))
    assert complete
    assert len(clusters) == 2
    assert _cluster_members(positions, clusters) == [[-1.0, -0.9], [0.9, 1.0]]
    founders = [positions[rows[0], 0] for rows in clusters]
    assert founders == [-1.0, 1.0]


def test_clustering_convex_single_cluster():
    rng = np.random.default_rng(13)
    fn = lambda x: float(x @ x)
    clusters, _ = hill_valley_clustering(*selection(fn, rng.uniform(-5, 5, size=(40, 2))),
                                         volume=100.0, evaluate=budgeted_fn(fn))
    assert len(clusters) == 1
    assert len(clusters[0]) == 40


def test_clustering_singleton_selection():
    f = RecordingObjective(lambda x: float(x[0]))
    obj = budgeted_fn(f)
    clusters, complete = hill_valley_clustering(*selection(f.fn, [0.5]),
                                                volume=1.0, evaluate=obj)
    assert len(clusters) == 1 and f.count == obj.counter.used == 0 and complete


def test_clustering_partition_property():
    rng = np.random.default_rng(14)
    for case in range(150):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 30))
        w = rng.standard_normal(d)
        fn = lambda x: float(np.sin(2.0 * x @ w) + 0.1 * (x @ x))
        positions, fitness = selection(fn, rng.uniform(-4, 4, size=(n, d)))
        clusters, _ = hill_valley_clustering(positions, fitness, volume=8.0 ** d,
                                             evaluate=budgeted_fn(fn))
        assert sorted(np.concatenate(clusters).tolist()) == list(range(n))
        for rows in clusters:
            assert fitness[rows].min() == fitness[rows[0]]
        founder_fitness = [fitness[rows[0]] for rows in clusters]
        assert founder_fitness == sorted(founder_fitness)


def test_clustering_determinism():
    rng = np.random.default_rng(15)
    fn = lambda x: float(np.sin(3 * x[0]) + np.cos(2 * x[1]))
    rows = selection(fn, rng.uniform(-3, 3, size=(60, 2)))
    a, _ = hill_valley_clustering(*rows, volume=36.0, evaluate=budgeted_fn(fn))
    b, _ = hill_valley_clustering(*rows, volume=36.0, evaluate=budgeted_fn(fn))
    assert [rows.tolist() for rows in a] == [rows.tolist() for rows in b]


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
    clusters, _ = hill_valley_clustering(*selection(needle, centers), volume=400.0, evaluate=obj)
    assert len(clusters) == 25
    assert obj.counter.used <= sum(min(i, d + 1) for i in range(1, 25))


def test_clustering_budget_exhaustion_singleton_tail():
    problem = make_sphere_problem(1, half_width=2.0)
    obj, counter = budgeted(problem, 1, phase="clustering")
    xs = (-1.0, 1.0, -0.9, 0.9, 0.5, -0.5)
    clusters, complete = hill_valley_clustering(*selection(double_well, xs), volume=4.0,
                                                evaluate=obj)
    assert not complete
    assert counter.used == 1
    assert sorted(np.concatenate(clusters).tolist()) == list(range(len(xs)))


def test_clustering_spacing_from_volume_sets_test_points():
    obj = budgeted_fn(double_well)
    hill_valley_clustering(*selection(double_well, [-1.0, 1.0]), volume=4.0, evaluate=obj)
    # volume 4 over 2 points: eel 2; edge length 2 -> exactly 2 test points
    # when the pair merges; the double well rejects at the first interior
    # sample either way
    assert obj.counter.used == 1


def _brute_nearest_better(positions, k, block=512):
    """Per row i, its rows j < i in (distance, index) order, first k: from cdist,
    a block of rows at a time, sorting only the rows within each k-th distance."""
    n = len(positions)
    idx, dist = np.full((n, k), -1), np.full((n, k), np.inf)
    for lo in range(0, n, block):
        full = cdist(positions[lo:lo + block], positions[:lo + block])
        for i in range(lo, min(lo + block, n)):
            row = full[i - lo, :i]
            near = np.flatnonzero(row <= np.partition(row, k - 1)[k - 1]) if i > k else np.arange(i)
            near = near[np.lexsort((near, row[near]))][:k]
            idx[i, :len(near)], dist[i, :len(near)] = near, row[near]
    return idx, dist


def _layout(kind, n, d, rng):
    if kind == "uniform":
        return rng.uniform(-3.0, 3.0, size=(n, d))
    if kind == "grid":  # exact distance ties and duplicate points
        return rng.integers(0, 4, size=(n, d)).astype(float)
    if kind == "blobs":  # tight clusters with far outliers: the blocks must grow
        centers = rng.uniform(-1.0, 1.0, size=(3, d))
        points = centers[rng.integers(0, 3, n)] + 1e-3 * rng.standard_normal((n, d))
        points[rng.random(n) < 0.05] *= 1e4
        return points
    if kind == "identical":
        return np.full((n, d), 0.5)
    points = np.zeros((n, d))  # "line": on one axis; the others have zero extent
    points[:, d - 1] = rng.uniform(0.0, 1.0, n)
    return points


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 600), d=st.integers(1, 8), k_off=st.integers(0, 8),
       chunk=st.integers(2, 64),
       kind=st.sampled_from(["uniform", "grid", "blobs", "identical", "line"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nearest_better_matches_brute_force(n, d, k_off, chunk, kind, seed):
    # a small chunk sends most rows through the grids; past 3 axes the grid
    # sees a projection, and zero-extent axes get a single cell
    if kind == "line":
        d = 3
    k = 1 + k_off % (d + 1)
    positions = _layout(kind, n, d, np.random.default_rng(seed))
    idx, dist = _nearest_better(positions, k, chunk=chunk)
    expected_idx, expected_dist = _brute_nearest_better(positions, k)
    assert idx.shape == dist.shape == (n, k)
    assert np.array_equal(dist, expected_dist)
    assert np.array_equal(idx, expected_idx)


def test_nearest_better_past_the_head_matches_brute_force():
    # every layout at a size that fills several doubling prefixes
    rng = np.random.default_rng(7)
    for kind in ("uniform", "grid", "blobs", "identical", "line"):
        for d in (1, 2, 3, 5):
            positions = _layout(kind, 1500, 3 if kind == "line" else d, rng)
            k = positions.shape[1] + 1
            idx, dist = _nearest_better(positions, k)
            expected_idx, expected_dist = _brute_nearest_better(positions, k)
            assert np.array_equal(dist, expected_dist), (kind, d)
            assert np.array_equal(idx, expected_idx), (kind, d)


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_nearest_better_across_pass_boundaries_matches_brute_force(n):
    # the default 128-row chunk serves passes of at most 32 * 128 = 4,096 rows:
    # prefixes up to [2048, 4096) in step, then [4096, 8192) alone, then [8192, n)
    rng = np.random.default_rng(n)
    for kind in ("uniform", "grid", "blobs"):
        for d in (2, 3):
            positions = _layout(kind, n, d, rng)
            idx, dist = _nearest_better(positions, d + 1)
            expected_idx, expected_dist = _brute_nearest_better(positions, d + 1)
            assert np.array_equal(dist, expected_dist), (kind, d)
            assert np.array_equal(idx, expected_idx), (kind, d)


@pytest.mark.parametrize("d", [2, 3])
def test_nearest_better_working_memory_is_bounded_per_row(d):
    # beyond its (n, k) outputs the search holds one pass's rows and the grids
    # of at most two passes: at most 256 bytes per row of a uniform selection
    n, k = 40_000, d + 1
    positions = np.random.default_rng(d).uniform(-1.0, 1.0, size=(n, d))
    _nearest_better(positions[:1000], k)
    tracemalloc.start()
    try:
        _nearest_better(positions, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - 2 * n * k * 8) / n <= 256


def test_clustering_searches_only_the_rows_the_budget_reaches(monkeypatch):
    # row i is tested only after each row before it spent an evaluation, so a
    # budget of 40 evaluations reaches rows 0..40 and no further
    from hillvallea import hillvalley
    searched = []
    search = hillvalley._nearest_better

    def counting(positions, k, chunk=128):
        searched.append(len(positions))
        return search(positions, k, chunk)

    monkeypatch.setattr(hillvalley, "_nearest_better", counting)
    rng = np.random.default_rng(5)
    points = rng.uniform(-3.0, 3.0, size=(500, 2))
    obj = budgeted_fn(lambda x: double_well(x[:1]), budget=40)
    clusters, complete = hill_valley_clustering(*selection(lambda x: double_well(x[:1]), points),
                                                volume=36.0, evaluate=obj)
    assert not complete and obj.counter.used == 40
    assert searched == [41]
    assert sorted(np.concatenate(clusters).tolist()) == list(range(500))
