"""Restart-driven multi-modal optimizer with an elitist archive.

Each restart uniformly samples the domain, injects known elites, truncation-
selects, clusters the selection into presumed niches, runs one core searcher
per new niche and post-processes the resulting candidates into the archive.
The first restart samples 16 d points and sizes each searcher's population
by :func:`recommended_population_size`; a restart that adds no elite doubles
the sample and grows the searcher population by a factor 1.2, rounded up.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core_search import (CoreSearcher, SearcherKind, init_from_cluster,
                          recommended_population_size)
from .hillvalley import (Solution, _first_rejects, expected_edge_length,
                         hill_valley_clustering, hill_valley_test)
from .problems import (BenchmarkProblem, BudgetedObjective, EvaluationCounter,
                       SearchDomain)

#: Interior test points for the archive distinctness test.
ARCHIVE_TEST_POINTS = 5
#: Fitness tolerance: of an elite against the best, and of a searcher's stagnation test.
TOL = 1e-5


@dataclass
class ElitistArchive:
    """Presumed distinct global optima, kept across restarts as (m, d)
    ``positions`` and m ``fitness`` values; iterating yields each as a new
    :class:`Solution`. ``n_unverified`` counts the elites appended untested
    because the budget ran out before their distinctness tests could be run.
    """

    positions: np.ndarray
    fitness: np.ndarray
    n_unverified: int = 0

    @property
    def verified(self) -> bool:
        return self.n_unverified == 0

    def __len__(self) -> int:
        return len(self.fitness)

    def __iter__(self):
        return map(Solution, self.positions.copy(), self.fitness.tolist())

    def spread(self) -> float:
        """Largest minus smallest elite fitness; 0 when they are equal, infinite ones too."""
        fs = self.fitness
        return 0.0 if not len(fs) or fs.max() == fs.min() else float(fs.max() - fs.min())


@dataclass
class RestartLog:
    """Per-restart bookkeeping of one run."""

    population_size: int
    cluster_size: int
    selection_size: int
    n_clusters: int
    clustering_complete: bool
    n_skipped_elites: int
    n_searchers: int
    n_new_elites: int
    archive_size: int
    archive_spread: float


@dataclass
class RunResult:
    """Outcome of one optimizer run."""

    archive: ElitistArchive
    evaluations_used: int
    phase_used: dict
    per_restart_log: list
    stop_reasons: dict = field(default_factory=dict)  # core searchers per stop reason
    objective_rows: int = 0  # rows passed to the objective, charged or not

    @property
    def restarts(self) -> int:
        return len(self.per_restart_log)

    @property
    def phase_fractions(self) -> dict:
        if self.evaluations_used == 0:
            return {p: 0.0 for p in self.phase_used}
        return {p: v / self.evaluations_used for p, v in self.phase_used.items()}


def uniform_sample(domain: SearchDomain, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points i.i.d. uniform over the box, as an (n, d) array."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return rng.uniform(domain.lower, domain.upper, size=(n, domain.dimension))


def truncation_selection(fitness: np.ndarray, tau: float) -> np.ndarray:
    """Indices of the floor(tau * n) best fitnesses (at least one), best first.

    The sort is stable, so ties keep their input order.
    """
    if len(fitness) == 0:
        raise ValueError("population must be nonempty")
    keep = max(1, int(tau * len(fitness)))
    return np.argsort(fitness, kind="stable")[:keep]


def postprocess(X: np.ndarray, f: np.ndarray, archive: ElitistArchive, tol: float,
                evaluate: BudgetedObjective) -> int:
    """Fold terminated-searcher bests, at the rows of ``X`` with fitnesses ``f``,
    into the archive; returns insertions plus replacements.

    Candidates more than ``tol`` worse than the all-time best are dropped.
    If a survivor beats some elite by more than ``tol`` the archive is emptied
    first. Each survivor, best first (ties in row order), is then tested
    against the current elites with the fixed five-point hill-valley test: in
    a shared niche it replaces the elite only when strictly better, otherwise
    it joins as a new elite. When the budget dies mid-testing, the remaining
    survivors are appended untested and counted in ``archive.n_unverified``.
    """
    best = min(f.min(initial=math.inf), archive.fitness.min(initial=math.inf))
    cands = np.flatnonzero(f <= best + tol)
    if not cands.size:
        return 0
    cands = cands[np.argsort(f[cands], kind="stable")]
    m = len(archive)
    if m and f[cands[0]] + tol < archive.fitness.max():
        m, archive.n_unverified = 0, 0

    # rows [0, m) are the elites, and the survivors follow them
    positions = np.concatenate([archive.positions[:m], X[cands]])
    fitness = np.concatenate([archive.fitness[:m], f[cands]])
    added = 0
    for c in range(m, len(fitness)):
        exhausted = evaluate.exhausted
        archive.n_unverified += exhausted
        i = None if exhausted else _first_shared_niche(positions[c], fitness[c], positions[:m],
                                                       fitness[:m], evaluate)
        if i is None:
            i, m = m, m + 1
        elif not fitness[c] < fitness[i]:
            continue
        positions[i], fitness[i] = positions[c], fitness[c]
        added += 1
    archive.positions, archive.fitness = positions[:m], fitness[:m]
    return added


def _first_shared_niche(x: np.ndarray, fx: float, positions: np.ndarray, fitness: np.ndarray,
                        evaluate: BudgetedObjective) -> Optional[int]:
    """Index of the first elite, at row i of ``positions`` with ``fitness[i]``, that
    passes the hill-valley test with the candidate at ``x`` with fitness ``fx``, or None.

    Every test's first point is looked ahead in one batch; the tests that
    reject there are charged in bulk.
    """
    m = len(fitness)
    reject = _first_rejects(evaluate, x, positions, fx, fitness, float(ARCHIVE_TEST_POINTS))
    i = 0
    while i < m:
        # if the budget ends among these rejections, the next test passes
        run = int(np.argmin(np.append(reject[i:], False)))
        if run:
            i += evaluate.counter.take(evaluate.phase, run)
            if i == m:
                return None
        if hill_valley_test(x, positions[i], fx, fitness[i], ARCHIVE_TEST_POINTS, evaluate)[0]:
            return i
        i += 1
    return None


def _search_niches(X: np.ndarray, f: np.ndarray, build: Callable,
                   seeds: np.random.SeedSequence, evaluate: BudgetedObjective,
                   stop_reasons: dict) -> tuple:
    """Run one core searcher per niche; returns their best positions and
    fitnesses, as new arrays in niche order.

    Row k of ``X`` and ``f`` is niche k's founder, and ``build(k, seed)``
    builds niche k's searcher.

    The searchers run in lockstep, uncharged, and stop before a generation
    that would take them past the remaining budget. They are then charged in
    niche order, as if they had run one after another:

    - one whose lockstep use fits the budget left is charged that, and goes
      on alone if it was still running;
    - one whose lockstep use does not fit is run again alone from its start,
      and the budget cuts it;
    - those after the cut keep their founders' rows, as a searcher given no
      budget would.

    ``stop_reasons`` counts why each searcher that ran stopped.
    """
    counter = evaluate.counter
    X, f = X.copy(), f.copy()
    if not len(f) or counter.exhausted:
        return X, f
    seqs = seeds.spawn(len(f))
    group = CoreSearcher.stack([build(k, seq) for k, seq in enumerate(seqs)])
    group.run(evaluate.trial(), evaluate.problem.domain, tol=TOL, limit=counter.remaining)
    reasons = group.terminated_reason
    for k, seq in enumerate(seqs):
        if counter.exhausted:
            break
        used = int(group.evaluations[k])
        searcher, i = group, k
        if used > counter.remaining:  # the budget cuts it: run it again alone
            searcher, i = build(k, seq), 0
        else:
            counter.take(evaluate.phase, used)
            if reasons[k] is None:  # paused: it goes on alone
                searcher, i = group.member(k), 0
        if searcher is not group:
            searcher.run(evaluate, evaluate.problem.domain, tol=TOL)
        best_x, best_f = searcher.best_ever
        X[k], f[k] = best_x[i], best_f[i]
        reason = reasons[k] if searcher is group else searcher.terminated_reason[0]
        stop_reasons[reason] = stop_reasons.get(reason, 0) + 1
    return X, f


def _select(domain: SearchDomain, n: int, elite_x: np.ndarray, elite_f: np.ndarray,
            tau: float, rng: np.random.Generator, evaluate: BudgetedObjective) -> tuple:
    """Sample n points, add the injected elites' rows and truncation-select.

    Returns the kept rows' positions and fitnesses, best first, and which of
    them are injected elites.
    """
    X = uniform_sample(domain, n, rng)
    fitness = np.concatenate([evaluate.batch(X), elite_f])
    kept = truncation_selection(fitness, tau)
    return np.concatenate([X, elite_x])[kept], fitness[kept], kept >= n


def run_hillvallea(problem: BenchmarkProblem, kind: SearcherKind, seed: int = 0, *,
                   inject: bool = True,
                   observe: Optional[Callable[[EvaluationCounter, ElitistArchive], None]] = None
                   ) -> RunResult:
    """Run the full restart scheme on one problem until its budget is spent.

    ``inject`` feeds the archive's elites into each restart's sample.
    ``observe(counter, archive)`` is called just before and just after each
    restart's postprocess, the only phase that changes the archive; it must
    change neither argument.
    """
    if isinstance(problem.budget, bool) or not isinstance(problem.budget, numbers.Integral):
        raise TypeError(f"budget of {problem.name} must be an integer, got {problem.budget!r}")
    if problem.budget <= 0:
        raise ValueError("budget must be positive")
    d = problem.domain.dimension
    volume = problem.domain.volume()
    counter = EvaluationCounter(problem.budget)

    root = np.random.SeedSequence(seed)
    sample_seq, searcher_seq = root.spawn(2)
    sample_rng = np.random.default_rng(sample_seq)

    obj_init = BudgetedObjective(problem, counter, "init")
    obj_cluster = BudgetedObjective(problem, counter, "clustering")
    obj_local = BudgetedObjective(problem, counter, "local_opt")
    obj_post = BudgetedObjective(problem, counter, "postprocess")

    population_size = 16 * d
    cluster_size = recommended_population_size(kind, d)

    archive = ElitistArchive(np.empty((0, d)), np.empty(0))
    logs: list = []
    stop_reasons: dict = {}

    while counter.remaining > 0:
        # phase 1: sample, inject elites, select, cluster; only the selection outlives sampling
        keep = len(archive) if inject else 0
        positions, fitness, injected = _select(
            problem.domain, min(population_size, counter.remaining),
            archive.positions[:keep], archive.fitness[:keep], kind.tau, sample_rng, obj_init)
        clusters, complete = hill_valley_clustering(positions, fitness, volume, obj_cluster)

        # phase 2: one core searcher per niche whose founder is not an injected elite
        searcher_eel = expected_edge_length(volume, len(fitness), d)
        niches = [rows for rows in clusters if not injected[rows[0]]]
        founders = [rows[0] for rows in niches]
        cand_x, cand_f = _search_niches(
            positions[founders], fitness[founders], lambda k, seq: init_from_cluster(
                positions[niches[k]], fitness[niches[k]], searcher_eel, kind, cluster_size,
                rng=np.random.default_rng(seq)),
            searcher_seq, obj_local, stop_reasons)

        if observe is not None:
            observe(counter, archive)
        added = postprocess(cand_x, cand_f, archive, TOL, obj_post)
        if observe is not None:
            observe(counter, archive)

        logs.append(RestartLog(
            population_size=population_size,
            cluster_size=cluster_size,
            selection_size=len(fitness),
            n_clusters=len(clusters),
            clustering_complete=complete,
            n_skipped_elites=len(clusters) - len(niches),
            n_searchers=len(niches),
            n_new_elites=added,
            archive_size=len(archive),
            archive_spread=archive.spread(),
        ))
        if added == 0:
            population_size *= 2
            cluster_size = math.ceil(1.2 * cluster_size)
        # a restart's arrays die with it, before the next restart samples
        del positions, fitness, injected, clusters, niches, founders, cand_x, cand_f

    return RunResult(
        archive=archive,
        evaluations_used=counter.used,
        phase_used=dict(counter.phase_used),
        per_restart_log=logs,
        stop_reasons=stop_reasons,
        objective_rows=counter.rows,
    )
