"""Peak-ratio scoring by the suite's seed-and-radius rule."""

import numpy as np
import pytest

from hillvallea import Solution, make_problem, peak_ratio
from helpers import make_sphere_problem


def _report_solutions(problem, positions):
    X = np.array(positions, dtype=float)
    return [Solution(x, float(f)) for x, f in zip(X, problem.objective(X))]


def test_true_maxima_give_full_ratio():
    p = make_problem(2)
    reported = _report_solutions(p, p.known_global_optima)
    report = peak_ratio(reported, p)
    assert report.ratio == 1.0
    assert report.found == report.total == 5


def test_partial_cover_counts():
    p = make_problem(2)
    reported = _report_solutions(p, [[0.1], [0.3], [0.5]])
    assert peak_ratio(reported, p).ratio == pytest.approx(0.6)


def test_copies_within_radius_count_once():
    p = make_problem(2)
    # five near-identical copies of one optimum find exactly one peak
    reported = _report_solutions(p, [[0.1], [0.1 + 1e-9], [0.1 - 1e-9],
                                     [0.1 + 2e-9], [0.1 - 2e-9]])
    report = peak_ratio(reported, p)
    assert report.found == 1


def test_worse_solution_within_radius_of_a_seed_is_absorbed():
    p = make_problem(2)  # radius 0.01
    # 0.105 is within 0.1 of the optimal fitness, but within the radius of the
    # better 0.1, which takes the seed whatever the input order
    near = _report_solutions(p, [[0.105], [0.1]])
    assert abs(near[0].fitness - p.optimal_fitness) <= 0.1
    assert peak_ratio(near, p, epsilon=0.1).found == 1
    assert peak_ratio(near[:1], p, epsilon=0.1).found == 1


def test_count_is_capped_at_the_number_of_optima():
    p = make_problem(2)
    # 0.111 lies beyond the radius of 0.1 and within 0.1 of the optimal
    # fitness, so by the suite's rule it is a seed of its own that counts
    beside = _report_solutions(p, [[0.1], [0.111]])
    assert peak_ratio(beside, p, epsilon=0.1).found == 2
    assert peak_ratio(beside, p, epsilon=1e-5).found == 1
    report = peak_ratio(_report_solutions(p, p.known_global_optima) + beside, p, epsilon=0.1)
    assert report.found == report.total == 5


def test_epsilon_rule_excludes_poor_fitness():
    p = make_problem(2)
    off_peak = _report_solutions(p, [[0.105]])  # inside radius, fitness off
    assert abs(off_peak[0].fitness - p.optimal_fitness) > 1e-5
    assert peak_ratio(off_peak, p, epsilon=1e-5).found == 0


def test_permutation_and_junk_invariance():
    p = make_problem(2)
    qualifying = _report_solutions(p, [[0.1], [0.5], [0.9]])
    junk = _report_solutions(p, [[0.2], [0.41], [0.62]])
    base = peak_ratio(qualifying, p).ratio
    rng = np.random.default_rng(0)
    for _ in range(10):
        mixed = qualifying + junk
        rng.shuffle(mixed)
        assert peak_ratio(mixed, p).ratio == base


def test_monotone_in_added_qualifying_solution():
    p = make_problem(2)
    partial = _report_solutions(p, [[0.1], [0.3]])
    more = partial + _report_solutions(p, [[0.7]])
    assert peak_ratio(more, p).ratio >= peak_ratio(partial, p).ratio


@pytest.mark.parametrize("n_reported", [0, 1])
def test_problem_without_known_optima_cannot_be_scored(n_reported):
    p = make_sphere_problem(2)
    reported = _report_solutions(p, [[0.0, 0.0]])[:n_reported]
    for optima in (None, np.empty((0, 2))):
        p.known_global_optima = optima
        with pytest.raises(ValueError, match="no known global optima"):
            peak_ratio(reported, p)


def test_problem_without_niche_radius_cannot_be_scored():
    p = make_sphere_problem(2)
    p.niche_radius = None
    with pytest.raises(ValueError, match="no niche radius"):
        peak_ratio(_report_solutions(p, [[0.0, 0.0]]), p)


def test_epsilon_must_be_positive():
    p = make_problem(2)
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError):
            peak_ratio([], p, epsilon=bad)

