"""Acceptance criteria: benchmark reproduction and cross-module property suites.

Each test prints one pass/fail line. The sweep fixtures are shared between
criteria and parallelized over repetitions (HILLVALLEA_TEST_JOBS overrides
the worker count).
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from hillvallea import SearcherKind, make_problem, run_hillvallea
from hillvallea.core_search import recommended_population_size
from hillvallea.hillvalley import expected_edge_length, hill_valley_clustering, hill_valley_test
from hillvallea.hillvalley import test_point_count as n_test_points
from hillvallea.cli import RunConfig, execute_sweep
from hillvallea.optimizer import TOL
from helpers import RecordingObserver, budgeted_fn, double_well, selection

SEEDS = 20
JOBS = int(os.environ.get("HILLVALLEA_TEST_JOBS", "0")) or min(2, os.cpu_count() or 1)


def _criterion(num, description, detail, ok):
    print(f"[acceptance] criterion {num:>2}: {description}: {detail} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {detail}"


def _sweep(problems, injection="global", multiplier=None):
    config = RunConfig(problems=tuple(problems), kind=SearcherKind.AMU,
                       reps=SEEDS, seed=0, budget_multiplier=multiplier,
                       inject=injection == "global",
                       jobs=JOBS)
    return execute_sweep(config)


def _mean_ratios(data):
    return {agg["problem_id"]: agg["mean_peak_ratio"] for agg in data["aggregates"]}


@pytest.fixture(scope="module")
def easy_sweep():
    return _sweep([1, 2, 3, 4, 5, 10])


@pytest.fixture(scope="module")
def vincent2d_sweep():
    return _sweep([7])


@pytest.fixture(scope="module")
def shubert2d_sweep():
    return _sweep([6])


@pytest.fixture(scope="module")
def vincent3d_sweep():
    return _sweep([9])


@pytest.fixture(scope="module")
def vincent3d_noinject_sweep():
    return _sweep([9], injection="none")


@pytest.fixture(scope="module")
def long_budget_sweep():
    return _sweep([6, 7], multiplier=10.0)


def test_criterion_01_easy_problems(easy_sweep):
    means = _mean_ratios(easy_sweep)
    detail = ", ".join(f"P{pid}={means[pid]:.3f}" for pid in sorted(means))
    _criterion(1, "problems 1-5,10 mean peak ratio >= 0.98", detail,
               all(means[pid] >= 0.98 for pid in means))


def test_criterion_02_vincent_2d(vincent2d_sweep):
    mean = _mean_ratios(vincent2d_sweep)[7]
    _criterion(2, "problem 7 mean peak ratio >= 0.97", f"mean={mean:.3f}",
               mean >= 0.97)


def test_criterion_03_shubert_2d(shubert2d_sweep):
    mean = _mean_ratios(shubert2d_sweep)[6]
    _criterion(3, "problem 6 mean peak ratio >= 0.90", f"mean={mean:.3f}",
               mean >= 0.90)


def test_criterion_04_vincent_3d(vincent3d_sweep):
    mean = _mean_ratios(vincent3d_sweep)[9]
    _criterion(4, "problem 9 mean peak ratio >= 0.75", f"mean={mean:.3f}",
               mean >= 0.75)


def test_criterion_05_injection_ordering(vincent3d_sweep, vincent3d_noinject_sweep):
    with_elites = _mean_ratios(vincent3d_sweep)[9]
    without = _mean_ratios(vincent3d_noinject_sweep)[9]
    gap = with_elites - without
    _criterion(5, "problem 9 elite injection gain >= 0.2",
               f"only_global={with_elites:.3f} none={without:.3f} gap={gap:.3f}",
               gap >= 0.2)


def test_criterion_06_long_budget(long_budget_sweep):
    means = _mean_ratios(long_budget_sweep)
    detail = f"P6={means[6]:.3f} P7={means[7]:.3f}"
    _criterion(6, "problems 6,7 at 10x budget mean peak ratio >= 0.99", detail,
               means[6] >= 0.99 and means[7] >= 0.99)


def test_criterion_07_phase_accounting(vincent2d_sweep):
    agg = vincent2d_sweep["aggregates"][0]
    hvc, lopt = agg["mean_phase_hvc"], agg["mean_phase_lopt"]
    _criterion(7, "problem 7 phase fractions (hvc >= 0.05, lopt <= 0.9)",
               f"hvc={hvc:.3f} lopt={lopt:.3f}", hvc >= 0.05 and lopt <= 0.9)


def test_criterion_08_convex_clustering():
    rng = np.random.default_rng(80)
    fn = lambda x: float(x @ x)
    ok = True
    for case in range(200):
        n = int(rng.integers(2, 40))
        pts = rng.uniform(-5.0, 5.0, size=(n, 2))
        clusters, _ = hill_valley_clustering(*selection(fn, pts), volume=100.0,
                                             evaluate=budgeted_fn(fn))
        ok = ok and len(clusters) == 1
    _criterion(8, "convex objective clusters to a single niche (200 cases)",
               "all single-cluster" if ok else "split detected", ok)


def test_criterion_09_double_well_trace():
    positions, fitness = selection(double_well, [-1.0, 1.0, -0.9, 0.9])
    clusters, _ = hill_valley_clustering(positions, fitness, volume=4.0,
                                         evaluate=budgeted_fn(double_well))
    members = sorted(tuple(sorted(positions[rows, 0].tolist()))
                     for rows in clusters)
    expected = [(-1.0, -0.9), (0.9, 1.0)]
    _criterion(9, "double-well selection clusters into the two wells",
               f"clusters={members}", members == expected)


def test_criterion_10a_hill_valley_symmetry_and_bound():
    rng = np.random.default_rng(100)
    ok = True
    for case in range(1000):
        d = int(rng.integers(1, 4))
        w = rng.standard_normal(d)
        freq = rng.uniform(0.5, 4.0)
        fn = lambda x: float(np.sin(freq * (x @ w)) + 0.1 * (x @ x))
        a, b = rng.uniform(-3.0, 3.0, size=(2, d))
        fa, fb = fn(a), fn(b)
        n = int(rng.integers(1, 6))
        fwd = budgeted_fn(fn)
        rev = budgeted_fn(fn)
        same_ab, spent_ab = hill_valley_test(a, b, fa, fb, n, fwd)
        same_ba, spent_ba = hill_valley_test(b, a, fb, fa, n, rev)
        ok &= same_ab == same_ba
        ok &= 1 <= spent_ab <= n and spent_ab == fwd.counter.used
        ok &= (not same_ab) or spent_ab == n
    _criterion("10a", "hill-valley symmetry and evaluation bound (1000 cases)",
               "all held" if ok else "violated", ok)


def test_criterion_10b_partition_property():
    rng = np.random.default_rng(101)
    ok = True
    for case in range(1000):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 25))
        w = rng.standard_normal(d)
        fn = lambda x: float(np.sin(2.0 * (x @ w)) + 0.1 * (x @ x))
        positions, fitness = selection(fn, rng.uniform(-4, 4, size=(n, d)))
        clusters, _ = hill_valley_clustering(positions, fitness, volume=8.0 ** d,
                                             evaluate=budgeted_fn(fn))
        rows = np.concatenate(clusters)
        ok &= len(rows) == n
        ok &= set(rows.tolist()) == set(range(n))
        ok &= all(fitness[c[0]] == fitness[c].min() for c in clusters)
    _criterion("10b", "clustering partitions the selection (1000 cases)",
               "all held" if ok else "violated", ok)


def test_criterion_10c_run_invariants_and_determinism():
    rng = np.random.default_rng(102)
    kinds = list(SearcherKind)
    ok = True
    for case in range(1000):
        pid = int(rng.choice([2, 3, 5]))
        problem = replace(make_problem(pid), budget=int(rng.integers(150, 800)))
        inject = (True, False)[int(rng.integers(0, 2))]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        seed = int(rng.integers(0, 10 ** 6))
        seen, seen_replay = RecordingObserver(), RecordingObserver()
        result = run_hillvallea(problem, kind, seed, inject=inject, observe=seen)
        ok &= result.evaluations_used <= problem.budget
        ok &= result.evaluations_used == sum(result.phase_used.values())
        ok &= all(log.archive_spread <= TOL + 1e-12
                  for log in result.per_restart_log)
        d = problem.dimension
        stagnant = 0
        for log in result.per_restart_log:
            ok &= log.population_size == 16 * d * 2 ** stagnant
            stagnant += log.n_new_elites == 0
        replay = run_hillvallea(problem, kind, seed, inject=inject, observe=seen_replay)
        ok &= replay.evaluations_used == result.evaluations_used
        ok &= replay.phase_used == result.phase_used
        ok &= seen_replay.calls == seen.calls
        ok &= len(replay.archive) == len(result.archive)
        ok &= all(np.array_equal(x.position, y.position) and x.fitness == y.fitness
                  for x, y in zip(result.archive, replay.archive))
    _criterion("10c", "budget stop, archive spread, growth and seed determinism "
               "(1000 random runs)", "all held" if ok else "violated", ok)


def test_criterion_11_unit_arithmetic():
    checks = [
        expected_edge_length(16.0, 4, 2) == pytest.approx(2.0),
        expected_edge_length(10.0, 20, 1) == pytest.approx(0.5),
        expected_edge_length(8.0, 1, 3) == pytest.approx(2.0),
        n_test_points(1.2, 0.5) == 3,
        n_test_points(0.4, 0.5) == 1,
        n_test_points(2.0, 2.0) == 2,
        recommended_population_size(SearcherKind.AMU, 2) == math.ceil(10 * math.sqrt(2)),
        recommended_population_size(SearcherKind.AM, 2) == math.ceil(17 + 6 * math.sqrt(2)),
        recommended_population_size(SearcherKind.IAMU, 1) == 4,
        recommended_population_size(SearcherKind.IAM, 3) == math.ceil(10 * math.sqrt(3)),
        recommended_population_size(SearcherKind.CMSA, 2) == math.ceil(3 * math.log(2)) + 4,
    ]
    _criterion(11, "edge-length, test-point and population-size arithmetic",
               f"{sum(checks)}/{len(checks)} exact", all(checks))
