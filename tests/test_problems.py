"""Benchmark-problem contracts: closed forms, optima tables, budget counting."""

import numpy as np
import pytest

from hillvallea import (BenchmarkProblem, SearchDomain, SearcherKind, UnsupportedProblemError,
                        make_problem, problem_names, run_hillvallea)
from hillvallea.cli import RunConfig
from hillvallea.problems import BudgetedObjective, EvaluationCounter
from helpers import grid_minimum


def _at(problem, x):
    """The problem's fitness at the single point ``x``."""
    return float(problem.objective(np.reshape(x, (1, -1)))[0])

# (id, name, d, #gopt, budget)
TABLE = [
    (1, "five_uneven_peak_trap", 1, 2, 50_000),
    (2, "equal_maxima", 1, 5, 50_000),
    (3, "uneven_decreasing_maxima", 1, 1, 50_000),
    (4, "himmelblau", 2, 4, 50_000),
    (5, "six_hump_camel_back", 2, 2, 50_000),
    (6, "shubert_2d", 2, 18, 200_000),
    (7, "vincent_2d", 2, 36, 200_000),
    (8, "shubert_3d", 3, 81, 400_000),
    (9, "vincent_3d", 3, 216, 400_000),
    (10, "modified_rastrigin_2d", 2, 12, 200_000),
]
# the suite's niche radii, by id
RADII = {1: 0.01, 2: 0.01, 3: 0.01, 4: 0.01, 5: 0.5, 6: 0.5, 7: 0.2, 8: 0.5, 9: 0.2, 10: 0.01}


@pytest.mark.parametrize("pid,name,d,gopt,budget", TABLE)
def test_problem_table(pid, name, d, gopt, budget):
    p = make_problem(pid)
    assert p.name == name
    assert p.dimension == d
    assert p.known_global_optima.shape == (gopt, d)
    assert p.budget == budget
    assert p.niche_radius == RADII[pid]


@pytest.mark.parametrize("pid", [row[0] for row in TABLE])
def test_known_optima_share_fitness_and_lie_inside(pid):
    p = make_problem(pid)
    fits = p.objective(p.known_global_optima)
    assert fits.max() - fits.min() <= 1e-9
    assert p.optimal_fitness == fits.min()
    for x in p.known_global_optima:
        assert p.domain.contains(x)


def test_equal_maxima_positions():
    p = make_problem(2)
    xs = sorted(p.known_global_optima[:, 0])
    assert np.allclose(xs, [0.1, 0.3, 0.5, 0.7, 0.9], atol=1e-12)
    for x in xs:
        assert _at(p, [x]) == pytest.approx(-1.0, abs=1e-12)


def test_himmelblau_peak_value():
    p = make_problem(4)
    assert _at(p, [3.0, 2.0]) == -200.0  # both residuals vanish


def test_trap_local_peak_value():
    p = make_problem(1)
    # piecewise form at x=5: 64 * (7.5 - 5) = 160, negated internally
    assert _at(p, [5.0]) == pytest.approx(-160.0, abs=1e-12)


def test_trap_endpoints_are_global():
    p = make_problem(1)
    assert _at(p, [0.0]) == -200.0
    assert _at(p, [30.0]) == -200.0


def test_vincent_optima_count_from_axis():
    p7, p9 = make_problem(7), make_problem(9)
    axis = {round(x, 9) for x in p7.known_global_optima[:, 0]}
    assert len(axis) == 6
    assert len(p9.known_global_optima) == 6 ** 3


def test_shubert_values_match_known_products():
    p6, p8 = make_problem(6), make_problem(8)
    assert p6.optimal_fitness == pytest.approx(-186.7309088310239, abs=1e-8)
    assert p8.optimal_fitness == pytest.approx(-2709.093505572820, abs=1e-7)


def _shubert_column_loop(X):
    """Reference: the Shubert batch form, one column and one term at a time."""
    prod = np.ones(X.shape[0])
    for i in range(X.shape[1]):
        acc = np.zeros(X.shape[0])
        for j in range(1, 6):
            acc += j * np.cos((j + 1) * X[:, i] + j)
        prod *= acc
    return prod


@pytest.mark.parametrize("pid", [6, 8])
def test_shubert_batch_matches_column_loop_bitwise(pid):
    # fixed-seed runs depend on every bit of the vectorized form
    p = make_problem(pid)
    rng = np.random.default_rng(pid)
    for n in (1, 7, 24, 5000):
        X = rng.uniform(p.domain.lower, p.domain.upper, size=(n, p.dimension))
        assert np.array_equal(p.objective(X), _shubert_column_loop(X))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _trap_select(X):
    """Reference: the trap as np.select over its seven segment conditions."""
    t = X[:, 0]
    conds = [t < 2.5, t < 5.0, t < 7.5, t < 12.5, t < 17.5, t < 22.5, t < 27.5]
    vals = [80.0 * (2.5 - t), 64.0 * (t - 2.5), 64.0 * (7.5 - t),
            28.0 * (t - 7.5), 28.0 * (17.5 - t), 32.0 * (t - 17.5),
            32.0 * (27.5 - t)]
    return -np.select(conds, vals, default=80.0 * (t - 27.5))


def test_trap_segment_lookup_matches_select_bitwise():
    # every breakpoint, the domain ends and their float neighbours, signed
    # zeros included, plus uniform points
    edges = np.array([0.0, -0.0, 2.5, 5.0, 7.5, 12.5, 17.5, 22.5, 27.5, 30.0])
    t = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        np.random.default_rng(1).uniform(0.0, 30.0, 200_000)])
    X = t[:, None]
    assert np.array_equal(_bits(make_problem(1).objective(X)), _bits(_trap_select(X)))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_vincent_and_shubert_match_their_plain_expressions_bitwise(d):
    from hillvallea.problems import _shubert, _vincent
    rng = np.random.default_rng(d)
    for n in (1, 8, 4099):
        X = rng.uniform(0.25, 10.0, size=(n, d))
        assert np.array_equal(_bits(_vincent(X)), _bits(-np.sin(10.0 * np.log(X)).mean(axis=1)))
        X = rng.uniform(-10.0, 10.0, size=(n, d))
        j = np.arange(1.0, 6.0)
        T = j * np.cos(X[:, :, None] * (j + 1.0) + j)
        factors = T[..., 0] + T[..., 1] + T[..., 2] + T[..., 3] + T[..., 4]
        prod = factors[:, 0]
        for i in range(1, d):
            prod = prod * factors[:, i]
        assert np.array_equal(_bits(_shubert(X)), _bits(prod))


@pytest.mark.parametrize("pid", range(1, 11))
def test_batch_rows_are_independent(pid):
    # the hill-valley tests evaluate points ahead in batches of any size and
    # layout, and must get every bit the one-point objective gets
    p = make_problem(pid)
    rng = np.random.default_rng(pid)
    for n in [*range(1, 70), 257, 4099]:
        X = rng.uniform(p.domain.lower, p.domain.upper, size=(n, p.dimension))
        for Y in (X, np.asfortranarray(X)):
            batch = p.objective(Y)
            assert np.array_equal(batch, [p.objective(Y[i:i + 1])[0] for i in range(n)])
            assert np.array_equal(batch, [_at(p, y) for y in Y])


@pytest.mark.parametrize("pid", [1, 2, 3])
def test_grid_scan_oracle_1d(pid):
    p = make_problem(pid)
    assert grid_minimum(p, 10 ** 6) >= p.optimal_fitness - 1e-6


@pytest.mark.parametrize("pid", [4, 5, 6, 7, 10])
def test_grid_scan_oracle_2d(pid):
    p = make_problem(pid)
    assert grid_minimum(p, 10 ** 4) >= p.optimal_fitness - 1e-6


def test_six_hump_camel_back_optimum_value():
    # the suite's maximum is 1.0316284534898774, negated for minimization
    assert make_problem(5).optimal_fitness == pytest.approx(-1.0316284534898774, abs=1e-9)


def test_evaluate_counts_and_budget_signal():
    p = make_problem(4)
    counter = EvaluationCounter(5)
    init = BudgetedObjective(p, counter, "init")
    assert init.batch(np.array([[3.0, 2.0], [0.0, 0.0]])).tolist() == [-200.0, -30.0]
    assert counter.used == 2 and counter.phase_used["init"] == 2
    # the budget grants a prefix of the rows
    clustering = BudgetedObjective(p, counter, "clustering")
    X = np.array([[0.0, 0.0], [3.0, 2.0], [1.0, 1.0], [2.0, 2.0]])
    assert clustering.batch(X).tolist() == [-30.0, -200.0, -94.0]
    assert counter.used == 5 and counter.phase_used["clustering"] == 3
    # used == budget now: the signal is an empty result, without evaluating
    assert clustering.batch(X).shape == (0,) and clustering.exhausted
    assert counter.used == 5
    assert counter.used == sum(counter.phase_used.values())


_MALFORMED = {
    "short": r"ndarray of shape \(6,\) for 7 rows; expected an ndarray of shape \(7,\)",
    "column": r"ndarray of shape \((\d+), 1\) for \1 rows",
    "list": r"list of shape \((\d+),\) for \1 rows",
}


@pytest.mark.parametrize("malformed", sorted(_MALFORMED))
def test_malformed_objective_result_is_rejected(malformed):
    # a short result would read as a partial budget grant; CMSA in 2-D
    # evaluates 7-row generations
    def quadratic(X):
        fs = np.einsum("ij,ij->i", X, X)
        if malformed == "short":
            return fs[:-1] if len(X) == 7 else fs
        return fs[:, None] if malformed == "column" else list(fs)

    problem = BenchmarkProblem(SearchDomain(np.full(2, -5.0), np.full(2, 5.0)), quadratic,
                               5_000, name="quadratic")
    message = "objective of problem 'quadratic' returned " + _MALFORMED[malformed]
    with pytest.raises(ValueError, match=message):
        run_hillvallea(problem, SearcherKind.CMSA, seed=0)


@pytest.mark.parametrize("pid", list(range(11, 21)))
def test_composition_ids_unsupported(pid):
    with pytest.raises(UnsupportedProblemError):
        make_problem(pid)


@pytest.mark.parametrize("pid", [0, 21, -3])
def test_unknown_ids_rejected(pid):
    with pytest.raises(UnsupportedProblemError):
        make_problem(pid)


@pytest.mark.parametrize("pid", [True, 2.0])
def test_ids_that_are_not_ints_rejected(pid):
    # True == 1 and 2.0 == 2, yet neither names a problem
    with pytest.raises(UnsupportedProblemError, match="must be an int"):
        make_problem(pid)
    with pytest.raises(UnsupportedProblemError, match="must be an int"):
        RunConfig(problems=(pid,))


def test_problem_names_map():
    names = problem_names()
    assert names["himmelblau"] == 4
    assert names["shubert_3d"] == 8
    assert len(names) == 10


def test_domain_validation():
    with pytest.raises(ValueError):
        SearchDomain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    dom = SearchDomain(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert dom.volume() == pytest.approx(4.0)
    assert dom.clip(np.array([5.0, -7.0])) == pytest.approx([2.0, -1.0])


@pytest.mark.parametrize("lower, upper", [([-np.inf], [np.inf]), ([0.0, 0.0], [1.0, np.inf]),
                                          ([-1e308], [1e308])])
def test_domain_bounds_and_widths_must_be_finite(lower, upper):
    # an infinite bound fails the uniform sample, an infinite width the volume
    with pytest.raises(ValueError, match="must be finite"):
        SearchDomain(np.array(lower), np.array(upper))
