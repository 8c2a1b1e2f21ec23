"""The looked-ahead clustering sweep and archive merge against sequential references.

The references below are the plain loops the looked-ahead versions replace:
one solution (or candidate) at a time, every test through
``hill_valley_test``, each test's evaluations charged when it is made. For
every budget up to what the reference spends, both must produce the same
clusters in the same member order, the same ``complete`` flag, the same
archive and the same charged evaluations per phase.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hillvallea import BenchmarkProblem, ElitistArchive, SearchDomain, Solution
from hillvallea.hillvalley import _nearest_better, expected_edge_length, hill_valley_clustering
from hillvallea.hillvalley import test_point_count as n_test_points
from hillvallea.optimizer import ARCHIVE_TEST_POINTS, postprocess
from hillvallea.problems import BudgetedObjective, EvaluationCounter
from helpers import bits, hill_valley, rows_of, selection_of


def reference_clustering(selection, volume, d, evaluate):
    """Sequential sweep: returns (member lists, complete)."""
    ordered = sorted(selection, key=lambda s: s.fitness)
    n = len(ordered)
    spacing = expected_edge_length(volume, n, d)
    positions = np.array([s.position for s in ordered])
    nb_idx, nb_dist = _nearest_better(positions, min(d + 1, n - 1))
    members = [[ordered[0]]]
    cluster_of = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        if evaluate.exhausted:
            members.extend([s] for s in ordered[i:])
            return members, False
        checked = set()
        for j in range(min(i, d + 1)):
            neighbour = nb_idx[i, j]
            cluster = cluster_of[neighbour]
            if cluster in checked:
                continue
            checked.add(cluster)
            n_t = n_test_points(nb_dist[i, j], spacing)
            if hill_valley(ordered[neighbour], ordered[i], n_t, evaluate)[0]:
                members[cluster].append(ordered[i])
                cluster_of[i] = cluster
                break
        else:
            members.append([ordered[i]])
            cluster_of[i] = len(members) - 1
    return members, True


def reference_merge(candidates, elites, evaluate):
    """Sequential merge: returns (added, untested); ``elites`` is updated in place."""
    added = untested = 0
    for cand in sorted(candidates, key=lambda s: s.fitness):
        if evaluate.exhausted:
            elites.append(cand)
            added += 1
            untested += 1
            continue
        for i, elite in enumerate(elites):
            if hill_valley(cand, elite, ARCHIVE_TEST_POINTS, evaluate)[0]:
                if cand.fitness < elite.fitness:
                    elites[i] = cand
                    added += 1
                break
        else:
            elites.append(cand)
            added += 1
    return added, untested


def merge(candidates, elites, d, evaluate):
    """``postprocess`` with no tolerance filter, so it only merges, on the rows of
    ``candidates`` and ``elites``: returns (added, untested) and the merged elites."""
    archive = ElitistArchive(*rows_of(elites, d))
    added = postprocess(*rows_of(candidates, d), archive, math.inf, evaluate)
    return (added, archive.n_unverified), list(archive)


def terraced_problem(d: int, step: float) -> BenchmarkProblem:
    """Many basins on [0, 4]^d; fitness rounded to ``step``, so values tie."""
    def batch(X):
        raw = np.sum(np.sin(3.0 * X) ** 2 + 0.1 * (X - 2.0) ** 2, axis=1)
        return np.round(raw / step) * step

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
    solutions = [Solution(x, float(f)) for x, f in zip(X, fitness)]
    # test-point spacing: the domain's, or a fixed expected edge length
    eel = draw(st.sampled_from([None, 0.05, 0.3, 2.0]))
    volume = problem.domain.volume() if eel is None else n * eel ** d
    return problem, solutions, d, volume


def _rows(members, ordered):
    """Each member list as rows of ``ordered``."""
    row = {id(s): r for r, s in enumerate(ordered)}
    return [[row[id(s)] for s in m] for m in members]


def _budgeted(problem, budget, used=0):
    counter = EvaluationCounter(budget)
    counter.take("init", used)
    return BudgetedObjective(problem, counter, "clustering"), counter


def _unbudgeted_spend(reference, problem, *args):
    """Evaluations ``reference(*args, evaluate)`` charges when the budget never ends."""
    evaluate, counter = _budgeted(problem, 10 ** 9)
    reference(*args, evaluate)
    return counter.used


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 3))
def test_clustering_matches_sequential_sweep(instance, used):
    problem, solutions, d, volume = instance
    ordered = sorted(solutions, key=lambda s: s.fitness)
    selection = selection_of(solutions)
    spend_all = _unbudgeted_spend(reference_clustering, problem, solutions, volume, d)
    # a budget that ends at every position of the sweep, and one that does not
    for spend in range(spend_all + 2):
        ref_eval, ref_counter = _budgeted(problem, used + spend, used)
        members, complete = reference_clustering(solutions, volume, d, ref_eval)
        new_eval, new_counter = _budgeted(problem, used + spend, used)
        clusters, got_complete = hill_valley_clustering(*selection, volume, new_eval)
        assert [rows.tolist() for rows in clusters] == _rows(members, ordered)
        assert got_complete == complete
        assert new_counter.used == ref_counter.used
        assert new_counter.phase_used == ref_counter.phase_used


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 12), st.integers(0, 3))
def test_merge_matches_sequential_merge(instance, n_elites, used):
    problem, solutions, d, _ = instance
    elites, candidates = solutions[:n_elites], solutions[n_elites:]
    spend_all = _unbudgeted_spend(reference_merge, problem, candidates, list(elites))
    for spend in range(spend_all + 2):
        ref_eval, ref_counter = _budgeted(problem, used + spend, used)
        ref_elites = list(elites)
        reference = reference_merge(candidates, ref_elites, ref_eval)
        new_eval, new_counter = _budgeted(problem, used + spend, used)
        got, got_elites = merge(candidates, elites, d, new_eval)
        assert got == reference
        assert bits(got_elites) == bits(ref_elites)
        assert new_counter.used == ref_counter.used
        assert new_counter.phase_used == ref_counter.phase_used
