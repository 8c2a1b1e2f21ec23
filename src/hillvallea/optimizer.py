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
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core_search import (CoreSearcher, SearcherKind, init_from_cluster,
                          recommended_population_size)
from .hillvalley import (Selection, Solution, _first_tests, _LookedAhead,
                         expected_edge_length, hill_valley_clustering, hill_valley_test)
from .problems import (BenchmarkProblem, BudgetedObjective, EvaluationCounter,
                       SearchDomain)

#: Interior test points for the archive distinctness test.
ARCHIVE_TEST_POINTS = 5


class InjectionMode(Enum):
    """Which optima are fed back into the population on restarts."""

    ALL_OPTIMA = "all_optima"
    ONLY_GLOBAL = "only_global"
    NONE = "none"


@dataclass(frozen=True)
class OptimizerConfig:
    """Run-level configuration; defaults reproduce the shipped setup."""

    tol: float = 1e-5
    injection: InjectionMode = InjectionMode.ONLY_GLOBAL
    budget: Optional[int] = None            # overrides the problem budget


@dataclass
class ElitistArchive:
    """Presumed distinct global optima, kept across restarts.

    ``n_unverified`` counts the elites appended untested because the budget
    ran out before their distinctness tests could be run.
    """

    solutions: list = field(default_factory=list)
    n_unverified: int = 0

    @property
    def verified(self) -> bool:
        return self.n_unverified == 0

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def best_fitness(self) -> float:
        return min(s.fitness for s in self.solutions) if self.solutions else math.inf

    def spread(self) -> float:
        if len(self.solutions) < 2:
            return 0.0
        fs = [s.fitness for s in self.solutions]
        return max(fs) - min(fs)


@dataclass
class PostprocessResult:
    added: int                 # insertions plus replacements
    discarded: list            # candidates dropped by the tolerance filter
    emptied: bool              # archive was reset for a strictly better optimum


@dataclass
class RestartLog:
    """Per-restart bookkeeping of one run."""

    index: int
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

    problem_id: int
    kind: SearcherKind
    seed: int
    archive: ElitistArchive
    side_archive: list
    evaluations_used: int
    budget: int
    phase_used: dict
    restarts: int
    per_restart_log: list
    stop_reasons: dict = field(default_factory=dict)  # core searchers per stop reason
    side_unverified: int = 0  # side-archive entries appended untested

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


def postprocess(candidates: Sequence[Solution], archive: ElitistArchive, tol: float,
                evaluate: Callable) -> PostprocessResult:
    """Fold terminated-searcher bests into the archive.

    Candidates more than ``tol`` worse than the all-time best are discarded.
    If a survivor beats some elite by more than ``tol`` the archive is emptied
    first. Each survivor is then tested against the current elites with the
    fixed five-point hill-valley test: in a shared niche it replaces the elite
    only when strictly better, otherwise it joins as a new elite. When the
    budget dies mid-testing, the remaining survivors are appended untested and
    counted in ``archive.n_unverified``.
    """
    if not candidates:
        return PostprocessResult(0, [], False)
    best = min(min(c.fitness for c in candidates), archive.best_fitness())
    survivors = [c for c in candidates if c.fitness <= best + tol]
    discarded = [c for c in candidates if c.fitness > best + tol]

    emptied = False
    if archive.solutions:
        worst_elite = max(e.fitness for e in archive.solutions)
        if any(c.fitness + tol < worst_elite for c in survivors):
            archive.solutions.clear()
            archive.n_unverified = 0
            emptied = True

    added, untested = _merge(survivors, archive.solutions, evaluate)
    archive.n_unverified += untested
    return PostprocessResult(added, discarded, emptied)


def _merge(candidates: Sequence[Solution], elites: list,
           evaluate: Callable) -> tuple[int, int]:
    """Deduplicate candidates, best first, into ``elites`` as :func:`postprocess` describes.

    Returns (insertions plus replacements, candidates appended untested).
    """
    cands = sorted(candidates, key=lambda s: s.fitness)
    # row s mirrors elites[s]
    positions = np.array([s.position for s in elites + cands])
    fitness = np.array([s.fitness for s in elites + cands])
    added = untested = 0
    for cand in cands:
        exhausted = getattr(evaluate, "exhausted", False)
        untested += exhausted
        i = None if exhausted else _first_shared_niche(cand, elites, positions, fitness,
                                                       evaluate)
        if i is None:
            i = len(elites)
            elites.append(cand)
        elif cand.fitness < elites[i].fitness:
            elites[i] = cand
        else:
            continue
        positions[i], fitness[i] = cand.position, cand.fitness
        added += 1
    return added, untested


def _first_shared_niche(cand: Solution, elites: list, positions: np.ndarray,
                        fitness: np.ndarray, evaluate: Callable) -> Optional[int]:
    """Index of the first elite that passes the hill-valley test with ``cand``, or None.

    With a :class:`BudgetedObjective`, every test's first point is looked
    ahead in one batch; the tests that reject there are charged in bulk.
    """
    m = len(elites)
    first, reject = np.full(m, np.nan), np.zeros(m, dtype=bool)
    if isinstance(evaluate, BudgetedObjective) and m:
        first, reject = _first_tests(evaluate, cand.position, positions[:m], cand.fitness,
                                     fitness[:m], float(ARCHIVE_TEST_POINTS))
    ahead = _LookedAhead(evaluate)
    i = 0
    while i < m:
        # if the budget ends among these rejections, the next test passes
        run = int(np.argmin(np.append(reject[i:], False)))
        if run:
            i += evaluate.counter.take(evaluate.phase, run)
            if i == m:
                return None
        ahead.first = first[i]
        if hill_valley_test(cand, elites[i], ARCHIVE_TEST_POINTS, ahead)[0]:
            return i
        i += 1
    return None


def _search_niches(niches: Sequence, build: Callable, seeds: np.random.SeedSequence,
                   evaluate: BudgetedObjective, tol: float, stop_reasons: dict) -> list:
    """Run one core searcher per niche; returns their bests in niche order.

    The searchers run in lockstep on a trial counter and stop before a
    generation that would take them past the remaining budget. They are then
    charged in niche order, as if they had run one after another:

    - one whose trial use fits the budget left is charged that, and goes on
      alone if it was still running;
    - one whose trial use does not fit is run again alone from its start,
      and the budget cuts it;
    - those after the cut keep their founders, as a searcher given no
      budget would.

    ``stop_reasons`` counts why each searcher that ran stopped.
    """
    counter = evaluate.counter
    if not niches or counter.exhausted:
        return [niche.founder for niche in niches]
    seqs = seeds.spawn(len(niches))
    group = CoreSearcher.stack([build(niche, seq) for niche, seq in zip(niches, seqs)])
    trial = BudgetedObjective(evaluate.problem, EvaluationCounter(counter.remaining),
                              evaluate.phase)
    group.run(trial, evaluate.problem.domain, tol=tol, limit=counter.remaining)
    reasons = group.terminated_reason
    bests = []
    for k, (niche, seq) in enumerate(zip(niches, seqs)):
        if counter.exhausted:
            bests.append(niche.founder)
            continue
        used = int(group.evaluations[k])
        searcher, i = group, k
        if used > counter.remaining:  # the budget cuts it: run it again alone
            searcher, i = build(niche, seq), 0
        else:
            counter.take(evaluate.phase, used)
            if reasons[k] is None:  # paused: it goes on alone
                searcher, i = group.member(k), 0
        if searcher is not group:
            searcher.run(evaluate, evaluate.problem.domain, tol=tol)
        bests.append(searcher.best_ever[i])
        reason = reasons[k] if searcher is group else searcher.terminated_reason[0]
        stop_reasons[reason] = stop_reasons.get(reason, 0) + 1
    return bests


def run_hillvallea(problem: BenchmarkProblem, kind: SearcherKind,
                   config: Optional[OptimizerConfig] = None, seed: int = 0,
                   observe: Optional[Callable[[EvaluationCounter, ElitistArchive], None]] = None
                   ) -> RunResult:
    """Run the full restart scheme on one problem until the budget is spent.

    ``observe(counter, archive)`` is called just before and just after each
    restart's postprocess, the only phase that changes the archive; it must
    change neither argument.
    """
    config = config or OptimizerConfig()
    budget = config.budget if config.budget is not None else problem.budget
    if budget <= 0:
        raise ValueError("budget must be positive")
    d = problem.domain.dimension
    volume = problem.domain.volume()
    counter = EvaluationCounter(budget)

    root = np.random.SeedSequence(seed)
    sample_seq, searcher_seq = root.spawn(2)
    sample_rng = np.random.default_rng(sample_seq)

    obj_init = BudgetedObjective(problem, counter, "init")
    obj_cluster = BudgetedObjective(problem, counter, "clustering")
    obj_local = BudgetedObjective(problem, counter, "local_opt")
    obj_post = BudgetedObjective(problem, counter, "postprocess")

    population_size = 16 * d
    cluster_size = recommended_population_size(kind, d)

    archive = ElitistArchive()
    side: list = []
    side_unverified = 0
    logs: list = []
    stop_reasons: dict = {}
    restarts = 0

    while counter.remaining > 0:
        # phase 1: sample, inject elites, select, cluster
        n_sample = min(population_size, counter.remaining)
        X = uniform_sample(problem.domain, n_sample, sample_rng)
        fs = obj_init.batch(X)

        injected: list = []
        if config.injection is not InjectionMode.NONE:
            injected.extend(archive.solutions)
        if config.injection is InjectionMode.ALL_OPTIMA:
            injected.extend(side)

        # injected elites stay the same objects: the known-niche check matches them by id
        n_fs = len(fs)
        fitness = np.concatenate([fs, [s.fitness for s in injected]])
        kept = truncation_selection(fitness, kind.tau)
        selection = Selection(
            np.concatenate([X, np.reshape([s.position for s in injected], (-1, d))])[kept],
            fitness[kept], {r: injected[kept[r] - n_fs] for r in np.flatnonzero(kept >= n_fs)})
        clusters = hill_valley_clustering(selection, volume, d, obj_cluster)

        # phase 2: one core searcher per niche not already represented
        searcher_eel = expected_edge_length(volume, len(selection), d)
        known_ids = set(map(id, archive.solutions))
        if config.injection is InjectionMode.ALL_OPTIMA:
            known_ids.update(map(id, side))
        niches = [c for c in clusters if id(c.founder) not in known_ids]
        candidates = _search_niches(
            niches, lambda cluster, seq: init_from_cluster(
                cluster, searcher_eel, kind, cluster_size, rng=np.random.default_rng(seq)),
            searcher_seq, obj_local, config.tol, stop_reasons)

        if observe is not None:
            observe(counter, archive)
        result = postprocess(candidates, archive, config.tol, obj_post)
        if config.injection is InjectionMode.ALL_OPTIMA:
            if result.emptied:
                side.clear()
                side_unverified = 0
            # presumed local optima, deduplicated into the side archive
            side_unverified += _merge(result.discarded, side, obj_post)[1]
        if observe is not None:
            observe(counter, archive)

        logs.append(RestartLog(
            index=restarts,
            population_size=population_size,
            cluster_size=cluster_size,
            selection_size=len(selection),
            n_clusters=len(clusters),
            clustering_complete=clusters.complete,
            n_skipped_elites=len(clusters) - len(niches),
            n_searchers=len(candidates),
            n_new_elites=result.added,
            archive_size=len(archive),
            archive_spread=archive.spread(),
        ))
        restarts += 1
        if result.added == 0:
            population_size *= 2
            cluster_size = math.ceil(1.2 * cluster_size)

    return RunResult(
        problem_id=problem.id,
        kind=kind,
        seed=seed,
        archive=archive,
        side_archive=side,
        evaluations_used=counter.used,
        budget=budget,
        phase_used=dict(counter.phase_used),
        restarts=restarts,
        per_restart_log=logs,
        stop_reasons=stop_reasons,
        side_unverified=side_unverified,
    )
