"""The looked-ahead clustering sweep and archive merge against the sequential reference.

For every budget up to what ``reference.cluster`` or ``reference.merge`` spends,
one test point at a time, the looked-ahead versions must give the same clusters
in the same member order, the same ``complete`` flag, the same archive and the
same charged evaluations per phase.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from hillvallea import BenchmarkProblem, ElitistArchive, SearchDomain
from hillvallea.hillvalley import hill_valley_clustering
from hillvallea.optimizer import postprocess
from helpers import budgeted


def terraced_problem(d: int, step: float) -> BenchmarkProblem:
    """Many basins on [0, 4]^d; fitness rounded to ``step``, so values tie."""
    kept = {}  # each batch's values: the loops evaluate the same rows at every budget

    def batch(X):
        if X.tobytes() not in kept:
            raw = np.sum(np.sin(3.0 * X) ** 2 + 0.1 * (X - 2.0) ** 2, axis=1)
            kept[X.tobytes()] = np.round(raw / step) * step
        return kept[X.tobytes()].copy()

    return BenchmarkProblem(SearchDomain(np.zeros(d), np.full(d, 4.0)), batch, 10 ** 6,
                            name="terraced")


@st.composite
def instances(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    step = draw(st.sampled_from([1e-9, 0.05, 0.5]))
    grid = draw(st.sampled_from([0.5, 0.25, 0.0]))  # 0: continuous coordinates
    seed = draw(st.integers(0, 2 ** 16))
    problem = terraced_problem(d, step)
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 4.0, size=(n, d))
    if grid:
        X = np.round(X / grid) * grid  # duplicate and equidistant positions
    fitness = problem.objective(X)
    if draw(st.booleans()):
        fitness = np.round(fitness, 1)  # ties between the selected solutions
    # test-point spacing: the domain's, or a fixed expected edge length
    eel = draw(st.sampled_from([None, 0.05, 0.3, 2.0]))
    volume = problem.domain.volume() if eel is None else n * eel ** d
    return problem, X, fitness, volume


def _unbudgeted_spend(loop, problem, *args):
    """Evaluations ``loop(*args, evaluate)`` charges when the budget never ends."""
    evaluate, counter = budgeted(problem, 10 ** 9, "clustering")
    loop(*args, evaluate)
    return counter.used


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 3))
def test_clustering_matches_sequential_sweep(instance, used):
    problem, X, fitness, volume = instance
    order = np.argsort(fitness, kind="stable")
    selection = X[order], fitness[order]  # best first
    spend_all = _unbudgeted_spend(reference.cluster, problem, *selection, volume)
    # a budget that ends at every position of the sweep, and one that does not
    for spend in range(spend_all + 2):
        ref_eval, ref_counter = budgeted(problem, used + spend, "clustering", used)
        members, complete = reference.cluster(*selection, volume, ref_eval)
        new_eval, new_counter = budgeted(problem, used + spend, "clustering", used)
        clusters, got_complete = hill_valley_clustering(*selection, volume, new_eval)
        assert [rows.tolist() for rows in clusters] == members
        assert got_complete == complete
        assert new_counter.used == ref_counter.used
        assert new_counter.phase_used == ref_counter.phase_used


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 12), st.integers(0, 3))
def test_merge_matches_sequential_merge(instance, n_elites, used):
    # with no tolerance, postprocess only merges
    problem, X, fitness, _ = instance
    elites, candidates = (X[:n_elites], fitness[:n_elites]), (X[n_elites:], fitness[n_elites:])
    spend_all = _unbudgeted_spend(reference.merge, problem, *candidates, list(zip(*elites)), 0,
                                  math.inf)
    for spend in range(spend_all + 2):
        ref_eval, ref_counter = budgeted(problem, used + spend, "clustering", used)
        ref_elites = list(zip(*elites))
        want = reference.merge(*candidates, ref_elites, 0, math.inf, ref_eval)
        new_eval, new_counter = budgeted(problem, used + spend, "clustering", used)
        archive = ElitistArchive(*elites)
        got = postprocess(*candidates, archive, math.inf, new_eval), archive.n_unverified
        assert got == want
        assert [a.tobytes() for a in (archive.positions, archive.fitness)] == [
            a.tobytes() for a in reference.arrays(ref_elites, X.shape[1])]
        assert new_counter.used == ref_counter.used
        assert new_counter.phase_used == ref_counter.phase_used
