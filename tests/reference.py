"""HillVallEA as one plain sequential loop, on arrays: the run ``run_hillvallea`` must equal.

With no batch, look-ahead or lockstep, each evaluation is one row, charged when
it is made. It reuses the package's searchers (each run alone), its counter and
budgeted objective, and ``RestartLog``; it writes out every loop it checks.
"""

import math

import numpy as np

from hillvallea.core_search import SearcherKind, init_from_cluster, recommended_population_size
from hillvallea.optimizer import RestartLog
from hillvallea.problems import BudgetedObjective, EvaluationCounter

TOL = 1e-5  # of a candidate against the best
ARCHIVE_POINTS = 5  # interior points of the archive's distinctness test


def same_niche(left, right, f_left, f_right, n_test: int, evaluate: BudgetedObjective) -> bool:
    """The hill-valley test, one of ``n_test`` equidistant points from ``right``
    towards ``left`` at a time: it rejects at the first point worse than both
    ends beyond floating noise, and passes when the budget runs out."""
    worst = max(f_left, f_right)
    bar = worst + 1e-12 * min(max(1.0, abs(worst)), np.finfo(float).max)
    for m in range(1, n_test + 1):
        f = evaluate.batch((right + m / (n_test + 1) * (left - right))[None])
        if not len(f) or f[0] > bar:
            return not len(f)
    return True


def nearest_better(positions: np.ndarray, i: int, k: int) -> tuple:
    """Up to k rows before row i, nearest first and ties to the earlier row, and
    their distances: squares summed axis by axis, as ``cdist`` sums them."""
    diff = positions[:i] - positions[i]
    dist = np.sqrt(sum(diff[:, a] ** 2 for a in range(positions.shape[1])))
    near = np.lexsort((np.arange(i), dist))[:k]
    return near, dist[near]


def cluster(positions: np.ndarray, fitness: np.ndarray, volume: float,
            evaluate: BudgetedObjective) -> tuple:
    """Clusters of a selection sorted best first, as row lists in founder
    order, and whether the sweep finished. Row i joins the first cluster of
    its d + 1 nearest better rows, each tried once, whose test passes, or
    founds one; once the budget is spent, each row left founds one."""
    n, d = positions.shape
    spacing = (volume / n) ** (1.0 / d)  # the edge length of n points spread evenly
    clusters, label = [[0]], [0]
    for i in range(1, n):
        if evaluate.exhausted:
            return clusters + [[r] for r in range(i, n)], False
        tried = set()
        for j, dist in zip(*nearest_better(positions, i, d + 1)):
            c = label[j]
            if c not in tried and same_niche(positions[j], positions[i], fitness[j], fitness[i],
                                             1 + math.floor(dist / spacing), evaluate):
                break
            tried.add(c)
        else:
            c = len(clusters)
            clusters.append([])
        clusters[c].append(i)
        label.append(c)
    return clusters, True


def search_niches(X, f, build, seeds: np.random.SeedSequence, evaluate: BudgetedObjective,
                  stop_reasons: dict) -> tuple:
    """Copies of the founders' rows ``X`` and ``f``, niche k's replaced by the
    best of its lone searcher ``build(k, seed)``, run one after another until
    the budget is spent. ``stop_reasons`` counts why each searcher stopped."""
    X, f = X.copy(), f.copy()
    if evaluate.exhausted:
        return X, f  # and spawns no seeds
    for k, seq in enumerate(seeds.spawn(len(f))):
        if evaluate.exhausted:
            break
        searcher = build(k, seq)
        best_x, best_f = searcher.run(evaluate)
        X[k], f[k] = best_x[0], best_f[0]
        reason = searcher.terminated_reason[0]
        stop_reasons[reason] = stop_reasons.get(reason, 0) + 1
    return X, f


def merge(X, f, elites: list, unverified: int, tol: float, evaluate: BudgetedObjective) -> tuple:
    """Merge the candidates, rows of ``X`` with fitnesses ``f``, into ``elites``,
    a list of (position, fitness) pairs; returns the elites added or replaced,
    and the count of elites appended untested."""
    best = min([*f, *(fe for _, fe in elites)], default=math.inf)
    cands = sorted((c for c in range(len(f)) if f[c] <= best + tol), key=lambda c: f[c])
    if cands and elites and f[cands[0]] + tol < max(fe for _, fe in elites):
        elites.clear()  # a better optimum: every elite goes
        unverified = 0
    added = 0
    for c in cands:
        exhausted = evaluate.exhausted  # then the candidate joins untested
        unverified += exhausted
        i = None if exhausted else next(  # the first elite in the candidate's niche
            (i for i, (x, fe) in enumerate(elites)
             if same_niche(X[c], x, f[c], fe, ARCHIVE_POINTS, evaluate)), None)
        if i is None:
            elites.append((X[c], f[c]))
        elif f[c] < elites[i][1]:
            elites[i] = (X[c], f[c])
        else:
            continue
        added += 1
    return added, unverified


def arrays(pairs: list, d: int) -> tuple:
    """The (m, d) positions and m fitnesses of (position, fitness) pairs."""
    return np.array([x for x, _ in pairs]).reshape(-1, d), np.array([fx for _, fx in pairs])


def run(problem, kind: SearcherKind, seed: int = 0, inject: bool = True) -> tuple:
    """``run_hillvallea(problem, kind, seed, inject=inject)``: returns the
    archive's positions and fitnesses and its untested elites, the run's
    counter, its searchers' stop reasons and its restart logs."""
    domain, d, volume = problem.domain, problem.dimension, problem.domain.volume()
    counter = EvaluationCounter(problem.budget)
    init, hvc, local, post = (BudgetedObjective(problem, counter, phase)
                              for phase in ("init", "clustering", "local_opt", "postprocess"))
    sample_seq, searcher_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(sample_seq)
    population, cluster_size = 16 * d, recommended_population_size(kind, d)
    elites, unverified, stop_reasons, logs = [], 0, {}, []
    while counter.remaining > 0:
        n = min(population, counter.remaining)
        sample = rng.uniform(domain.lower, domain.upper, size=(n, d))
        pool = [(x, init.batch(x[None])[0]) for x in sample] + (elites if inject else [])
        kept = sorted(range(len(pool)), key=lambda r: pool[r][1])
        kept = kept[:max(1, int(kind.tau * len(kept)))]
        positions, fitness = arrays([pool[r] for r in kept], d)
        clusters, complete = cluster(positions, fitness, volume, hvc)

        niches = [rows for rows in clusters if kept[rows[0]] < n]  # founded by no elite
        founders, eel = [rows[0] for rows in niches], (volume / len(kept)) ** (1.0 / d)
        cand_x, cand_f = search_niches(
            positions[founders], fitness[founders], lambda k, seq: init_from_cluster(
                positions[niches[k]], fitness[niches[k]], eel, kind, cluster_size,
                rng=np.random.default_rng(seq)),
            searcher_seq, local, stop_reasons)
        added, unverified = merge(cand_x, cand_f, elites, unverified, TOL, post)

        fs = [fx for _, fx in elites]
        spread = 0.0 if not fs or max(fs) == min(fs) else float(max(fs) - min(fs))
        logs.append(RestartLog(population, cluster_size, len(kept), len(clusters), complete,
                               len(clusters) - len(niches), len(niches), added, len(elites),
                               spread))
        if not added:
            population, cluster_size = 2 * population, math.ceil(1.2 * cluster_size)
    return *arrays(elites, d), unverified, counter, stop_reasons, logs
