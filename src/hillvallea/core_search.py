"""Gaussian core searchers: CMSA and AMaLGaM-style EDA variants.

Each searcher optimizes one niche from a cluster-derived Gaussian
(mean/covariance/population size), with the cluster's best row (its founder)
as its best so far, until its termination criteria or the shared evaluation
budget stop it, and reports the best position and fitness it saw.
"""

from __future__ import annotations

import copy
import itertools
import math
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .problems import BudgetedObjective, SearchDomain


class SearcherKind(Enum):
    """Available core search algorithms."""

    CMSA = "cmsa"
    AM = "am"      # full-covariance EDA
    AMU = "amu"    # univariate EDA
    IAM = "iam"    # full-covariance EDA with covariance memory
    IAMU = "iamu"  # univariate EDA with covariance memory

    @property
    def tau(self) -> float:
        """Truncation-selection fraction."""
        return 0.5 if self is SearcherKind.CMSA else 0.35

    @property
    def univariate(self) -> bool:
        return self in (SearcherKind.AMU, SearcherKind.IAMU)

    @property
    def incremental(self) -> bool:
        return self in (SearcherKind.IAM, SearcherKind.IAMU)


#: Every reason a core searcher can stop for.
STOP_REASONS = ("budget", "no-improvement", "min-std", "ill-conditioned",
                "population-std", "fitness-std", "degenerate")


def recommended_population_size(kind: SearcherKind, d: int) -> int:
    """Recommended per-niche population size, floored at 4."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if kind is SearcherKind.CMSA:
        base = math.ceil(3.0 * math.log(d)) + 4
    elif kind is SearcherKind.AM:
        base = math.ceil(17.0 + 3.0 * d * math.sqrt(d))
    elif kind is SearcherKind.IAMU:
        base = math.ceil(4.0 * math.sqrt(d))
    else:  # AMU and IAM share the same recommendation
        base = math.ceil(10.0 * math.sqrt(d))
    return max(4, base)


#: Covariance smoothing of the incremental (i*) EDA variants.
MEMORY_ETA = 0.7
#: EDA distribution multiplier: decay factor per adaptation, and its bounds.
MULTIPLIER_DECAY = 0.9
MULTIPLIER_MIN, MULTIPLIER_MAX = 1e-4, 1e4


def _sqrt_factor(matrices: np.ndarray) -> np.ndarray:
    """Factors L with L L^T = M for a stack of matrices M.

    A matrix Cholesky rejects gets a clipped eigen square root instead.
    """
    try:
        return np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        if len(matrices) > 1:
            return np.concatenate([_sqrt_factor(m[None]) for m in matrices])
        w, v = np.linalg.eigh(matrices[0])
        return (v * np.sqrt(np.clip(w, 0.0, None)))[None]


def _quadratic_form(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """v^T M^-1 v for stacked matrices M and vectors v; inf where M is singular."""
    try:
        solved = np.linalg.solve(matrices, vectors[:, :, None])
        return (vectors[:, None, :] @ solved)[:, 0, 0]
    except np.linalg.LinAlgError:
        if len(matrices) > 1:
            return np.concatenate([_quadratic_form(m[None], v[None])
                                   for m, v in zip(matrices, vectors)])
        return np.array([math.inf])


def _usable(cov: np.ndarray) -> np.ndarray:
    """Which stacked covariances are finite with a nonnegative, nonzero diagonal."""
    diag = cov.diagonal(0, 1, 2)
    return (np.logical_and.reduce(np.isfinite(cov), axis=(1, 2))
            & np.logical_and.reduce(diag >= 0, 1) & (np.maximum.reduce(diag, 1) > 0))


def _mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1)``, bitwise, without numpy's wrapper."""
    return np.add.reduce(a, 1) / a.shape[1]


def _std(a: np.ndarray) -> np.ndarray:
    """``a.std(axis=1)``, bitwise, by numpy's own steps without its wrapper.

    Where numpy gives NaN, a slice holding inf or NaN has spread 0 when all its
    values are equal (all +inf or all -inf), else inf. The check comes before
    the sum, which would warn on a slice holding both +inf and -inf.
    """
    n = a.shape[1]
    finite = np.isfinite(a)
    if np.count_nonzero(finite) < finite.size:
        rows = np.logical_and.reduce(finite, 1, keepdims=True)
        spread = np.where(np.minimum.reduce(a, 1) == np.maximum.reduce(a, 1), 0.0, np.inf)
        return np.where(rows[:, 0], _std(np.where(rows, a, 0.0)), spread)
    mean = np.add.reduce(a, 1, keepdims=True) / n
    x = a - mean
    return np.sqrt(np.add.reduce(np.square(x, out=x), 1) / n)


#: Stop codes kept per member: 0 while it runs, else 1 + the index in STOP_REASONS.
_CODE = {reason: code for code, reason in enumerate(STOP_REASONS, start=1)}
_REASONS = (None,) + STOP_REASONS


class CoreSearcher:
    """Shared state and control loop of the Gaussian searchers.

    A searcher is a group of members, each optimizing its own niche, stepped
    in lockstep. Each member draws from its own generator, in the order it
    would alone, and otherwise shares stacked arithmetic with the others, so
    every member follows the trajectory it would follow alone. A searcher
    built from one initial model (mean, covariance and population size), its
    founder's position and fitness and its generator is a group of one;
    :meth:`stack` joins fresh ones.

    Results are indexed by member: ``best_ever`` (positions and fitnesses),
    ``terminated_reason`` (None while running) and ``evaluations``. The
    sampling state of the members still stepping is stacked along axis 0,
    in member order; ``members`` gives each row's member index.
    """

    kind: SearcherKind
    #: Attributes stacked along the member axis; rows go when members stop.
    _STATE = ("members", "rngs", "best_f", "best_x", "mean")
    #: Attributes indexed by member, stopped or not.
    _PER_MEMBER = ("_ever_x", "_ever_f", "_codes", "evaluations")

    def __init__(self, mean: np.ndarray, population_size: int, *, best_x: np.ndarray,
                 best_f: float, rng: np.random.Generator):
        self.dimension = len(mean)
        self.population_size = population_size
        self.samples = population_size  # rows each member evaluates per generation
        self.generation = 0
        self.window = 10 + (30 * self.dimension) // self.population_size
        self.members = np.zeros(1, dtype=np.int64)
        self.rngs = [rng]
        self.best_f = np.array([best_f], dtype=float)
        self.best_x = np.array([best_x], dtype=float)
        self.mean = np.array(mean, dtype=float, ndmin=2)
        # per member: its best as of when it stopped, its stop code and its evaluations
        self._ever_x, self._ever_f = self.best_x.copy(), self.best_f.copy()
        self._codes = np.zeros(1, dtype=np.int8)
        self.evaluations = np.zeros(1, dtype=np.int64)

    @staticmethod
    def stack(searchers: Sequence[CoreSearcher]) -> CoreSearcher:
        """Join fresh searchers of one kind, dimension and population size.

        Members keep their order, generators and founders.
        """
        group = copy.copy(searchers[0])
        for name in group._STATE + group._PER_MEMBER:
            parts = [getattr(s, name) for s in searchers]
            setattr(group, name, list(itertools.chain.from_iterable(parts))
                    if isinstance(parts[0], list) else np.concatenate(parts))
        group.members = np.arange(len(searchers))
        return group

    @property
    def best_ever(self) -> tuple:
        """Each member's best position and fitness, as (members, d) and (members,) arrays."""
        self._ever_x[self.members], self._ever_f[self.members] = self.best_x, self.best_f
        return self._ever_x, self._ever_f

    @property
    def terminated_reason(self) -> list:
        return [_REASONS[c] for c in self._codes.tolist()]

    def member(self, k: int) -> CoreSearcher:
        """Running member ``k`` alone, in its current state and with its generator."""
        solo = copy.copy(self)
        solo._keep(self.members == k)
        solo.members = np.zeros(1, dtype=np.int64)
        for name in self._PER_MEMBER:
            setattr(solo, name, getattr(self, name)[[k]])
        return solo

    def _keep(self, rows: np.ndarray) -> None:
        """Keep the stacked state of the rows a boolean mask selects."""
        for name in self._STATE:
            value = getattr(self, name)
            setattr(self, name, list(itertools.compress(value, rows))
                    if isinstance(value, list) else value[rows])

    def _evaluate(self, evaluate: BudgetedObjective, X: np.ndarray) -> Optional[np.ndarray]:
        """Fitness of the (S, n, d) samples from one batch call, as (S, n).

        When the budget grants only a prefix, each member keeps the best of
        its granted rows, every member stops with reason "budget" and None is
        returned.
        """
        S, n, d = X.shape
        fs = evaluate.batch(X.reshape(-1, d))
        if len(fs) == S * n:
            if S == len(self.evaluations):  # every member runs
                self.evaluations += n
            else:
                self.evaluations[self.members] += n
            return fs.reshape(S, n)
        granted = np.clip(len(fs) - n * np.arange(S), 0, n)
        padded = np.full(S * n, math.inf)
        padded[:len(fs)] = fs
        # ungranted rows read +inf, so they never improve a best
        self._record_best(X, padded.reshape(S, n), np.arange(S))
        self.evaluations[self.members] += granted
        self._codes[self.members] = _CODE["budget"]
        return None

    def _record_best(self, X: np.ndarray, fs: np.ndarray, rows: np.ndarray) -> tuple:
        """Track each member's all-time best; ``rows`` is ``arange(S)``.

        Returns which members improved it, how many and, if any did, each
        member's best sample of this generation.
        """
        i = fs.argmin(axis=1)
        f = fs[rows, i]
        improved = f < self.best_f
        count = np.count_nonzero(improved)
        if not count:
            return improved, 0, None
        x = X[rows, i]
        np.copyto(self.best_x, x, where=improved[:, None])
        np.copyto(self.best_f, f, where=improved)
        return improved, count, x

    def _first_reason(self, criteria) -> Optional[np.ndarray]:
        """Stop code per running member: its own, else the first criterion's that fires.

        ``criteria`` holds (reason, hits or None) pairs. None when no member stops.
        """
        codes = self._codes[self.members]
        for reason, hit in criteria:
            if hit is not None and np.count_nonzero(hit):
                codes[(codes == 0) & hit] = _CODE[reason]
        return codes if np.count_nonzero(codes) else None

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        """One generation of every running member, with one batch evaluation."""
        raise NotImplementedError

    def run(self, evaluate: BudgetedObjective, domain: SearchDomain, tol: float,
            limit: Optional[int] = None) -> tuple:
        """Run generations until every member has stopped; returns ``best_ever``.

        With ``limit``, the group instead stops before a generation that would
        take its evaluations past ``limit``. Its running members are then
        paused: their ``terminated_reason`` stays None, and :meth:`member`
        continues one of them alone.
        """
        while True:
            codes = self._stop_codes(tol)
            if codes is not None:
                stopped = codes != 0
                gone = self.members[stopped]
                self._codes[gone] = codes[stopped]
                self._ever_x[gone], self._ever_f[gone] = self.best_x[stopped], self.best_f[stopped]
                self._keep(~stopped)
            running = len(self.members)
            if running == 0 or (limit is not None and np.add.reduce(self.evaluations)
                                + running * self.samples > limit):
                return self.best_ever
            self.run_generation(evaluate, domain)


class CmsaSearcher(CoreSearcher):
    """Evolution strategy with self-adaptive step sizes and covariance shaping.

    Per generation: each offspring draws its own step size and a direction
    from the shape matrix, the best-ever solution replaces the worst offspring,
    and mean, step size and shape matrix are re-estimated from the selected
    half of the population.
    """

    kind = SearcherKind.CMSA
    _STATE = CoreSearcher._STATE + ("recent", "sigma", "shape")

    def __init__(self, mean: np.ndarray, covariance: np.ndarray, population_size: int,
                 **kwargs):
        super().__init__(mean, population_size, **kwargs)
        d = self.dimension
        sigma2 = float(np.add.reduce(np.diag(covariance))) / d
        self.sigma = np.array([math.sqrt(sigma2)])
        self.shape = (covariance / sigma2)[None]
        # best fitness after each of the last window+1 generations, as a ring
        self.recent = np.zeros((1, self.window + 1))
        self.tau_sigma = 1.0 / math.sqrt(2.0 * d)
        self.mu_sel = max(1, self.population_size // 2)
        self.tau_c = 1.0 + d * (d + 1) / (2.0 * self.mu_sel)

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        S, lam, d = len(self.members), self.population_size, self.dimension
        # per member, its lam step-size draws, then its (lam, d) directions
        draws = np.empty((S, lam * (d + 1)))
        for rng, row in zip(self.rngs, draws):
            rng.standard_normal(out=row)
        sigmas = self.sigma[:, None] * np.exp(self.tau_sigma * draws[:, :lam])
        Z = draws[:, lam:].reshape(S, lam, d) @ _sqrt_factor(self.shape).transpose(0, 2, 1)
        X = domain.clip(self.mean[:, None, :] + sigmas[:, :, None] * Z)
        fs = self._evaluate(evaluate, X)
        if fs is None:
            return

        rows = np.arange(S)
        worst = fs.argmax(axis=1)  # elitism: the all-time best replaces the worst offspring
        X[rows, worst] = self.best_x
        fs[rows, worst] = self.best_f
        sigmas[rows, worst] = self.sigma
        self._record_best(X, fs, rows)

        selected = (rows[:, None], fs.argsort(axis=1, kind="stable")[:, :self.mu_sel])
        Xs, sigmas_s = X[selected], sigmas[selected]
        Zs = (Xs - self.mean[:, None, :]) / sigmas_s[:, :, None]  # post-repair directions
        rank_mu = Zs.transpose(0, 2, 1) @ Zs / self.mu_sel
        shape = (1.0 - 1.0 / self.tau_c) * self.shape + (1.0 / self.tau_c) * rank_mu
        self.shape = 0.5 * (shape + shape.transpose(0, 2, 1))
        self.mean = _mean(Xs)
        self.sigma = _mean(sigmas_s)
        self.recent[:, self.generation % (self.window + 1)] = self.best_f
        self.generation += 1

    def _stop_codes(self, tol: float) -> Optional[np.ndarray]:
        g, span = self.generation, self.window + 1
        stagnant = None
        if g > self.window:  # equal ends, -inf ones too, are no improvement
            old, new = self.recent[:, g % span], self.recent[:, (g - 1) % span]
            stagnant = np.subtract(old, new, out=np.zeros(len(old)), where=old != new) < tol
        # max commutes with the monotone sqrt and the scaling by sigma >= 0
        diag_max = np.maximum.reduce(self.shape.diagonal(0, 1, 2), 1)
        min_std = self.sigma * np.sqrt(np.maximum(diag_max, 0.0)) < 1e-15
        w = np.linalg.eigvalsh(self.shape)
        ill = w[:, 0] <= 0.0
        if np.count_nonzero(ill):
            ill |= np.divide(w[:, -1], w[:, 0], out=np.zeros(len(w)), where=~ill) > 1e14
        else:  # the same ratio, with no zero to guard against
            ill = w[:, -1] / w[:, 0] > 1e14
        return self._first_reason((("no-improvement", stagnant), ("min-std", min_std),
                                   ("ill-conditioned", ill)))


class EdaSearcher(CoreSearcher):
    """Estimation-of-distribution searcher (AMaLGaM family).

    Per generation: sample from N(mean, c^2 Sigma) with an anticipated mean
    shift on part of the sample and the all-time best retained as population
    member, truncation-select, refit the Gaussian by maximum likelihood
    (diagonal-only for the univariate kinds, smoothed for the incremental
    kinds) and adapt the distribution multiplier c.
    """

    _STATE = CoreSearcher._STATE + ("covariance", "multiplier", "mean_shift",
                                    "no_improvement_streak", "population_std", "fitness_std")

    def __init__(self, mean: np.ndarray, covariance: np.ndarray, population_size: int,
                 kind: SearcherKind, **kwargs):
        if kind is SearcherKind.CMSA:
            raise ValueError("EdaSearcher covers the AMaLGaM variants only")
        super().__init__(mean, population_size, **kwargs)
        self.kind = kind
        n, d = self.population_size, self.dimension
        # elitism: the all-time best stays in the population, n-1 fresh samples
        self.samples = n - 1
        cov = np.asarray(covariance, dtype=float)
        self.covariance = (np.diag(np.diag(cov)) if kind.univariate else cov.copy())[None]
        self.multiplier = np.ones(1)
        self.mean_shift = np.zeros((1, d))
        self.no_improvement_streak = np.zeros(1, dtype=np.int64)
        # NaN until the first generation: no stop criterion fires on it
        self.population_std = np.full((1, d), math.nan)
        self.fitness_std = np.full(1, math.nan)
        self.n_ams = int(0.5 * kind.tau * n)  # samples that get the anticipated mean shift
        self.n_sel = max(1, int(kind.tau * n))
        self.patience = 25 + d
        self.eye = np.eye(d)

    def _mahalanobis_sq(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Squared distances of x under each member's sampling model, at ``rows`` only."""
        out = np.zeros(len(x))
        delta = x[rows] - self.mean[rows]
        # Python's float power, as a lone searcher squares its multiplier
        scale = np.array([m ** 2 for m in self.multiplier[rows].tolist()])
        if self.kind.univariate:
            var = np.maximum(self.covariance[rows].diagonal(0, 1, 2), 1e-300) * scale[:, None]
            out[rows] = np.add.reduce(delta * delta / var, 1)
        else:
            out[rows] = _quadratic_form(self.covariance[rows] * scale[:, None, None], delta)
        return out

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        S, d = len(self.members), self.dimension
        noise = np.empty((S, self.samples, d))
        for rng, block in zip(self.rngs, noise):
            rng.standard_normal(out=block)
        multiplier = self.multiplier[:, None, None]
        if self.kind.univariate:
            std = np.sqrt(np.maximum(self.covariance.diagonal(0, 1, 2), 0.0))[:, None, :]
            step = multiplier * noise * std
        else:
            step = multiplier * noise @ _sqrt_factor(self.covariance).transpose(0, 2, 1)
        X = self.mean[:, None, :] + step
        if self.n_ams > 0:
            X[:, :self.n_ams] += 2.0 * multiplier * self.mean_shift[:, None, :]
        X = domain.clip(X)
        fs = self._evaluate(evaluate, X)
        if fs is None:
            return
        X = np.concatenate([X, self.best_x[:, None, :]], axis=1)
        fs = np.concatenate([fs, self.best_f[:, None]], axis=1)

        rows = np.arange(S)
        improved, count, gen_best = self._record_best(X, fs, rows)
        if count:
            maha_sq = self._mahalanobis_sq(gen_best, improved)

        Xs = X[rows[:, None], fs.argsort(axis=1, kind="stable")[:, :self.n_sel]]
        previous_mean = self.mean
        self.mean = _mean(Xs)
        self.mean_shift = self.mean - previous_mean
        deviations = Xs - self.mean[:, None, :]
        fitted = _mean(deviations ** 2)[:, :, None] * self.eye
        if not self.kind.univariate:
            full = deviations.transpose(0, 2, 1) @ deviations / self.n_sel
            usable = _usable(full)
            fitted[usable] = full[usable]
        usable = _usable(fitted)
        if np.count_nonzero(usable) < S:
            # a degenerate member stops; its rows are dropped before the next generation
            self._codes[self.members[~usable]] = _CODE["degenerate"]
        if self.kind.incremental:
            self.covariance = (1.0 - MEMORY_ETA) * self.covariance + MEMORY_ETA * fitted
        else:
            self.covariance = fitted

        multiplier = self.multiplier
        self.no_improvement_streak = np.where(improved, 0, self.no_improvement_streak + 1)
        if count:
            grown = np.maximum(multiplier, 1.0)
            # grow further where the improvement lies outside the unit Mahalanobis ball
            grown = np.where(maha_sq > 1.0,
                             np.minimum(grown / MULTIPLIER_DECAY, MULTIPLIER_MAX), grown)
        if count < S:
            # without improvement: shrink, or hold at 1 until the stagnation stretch matures
            shrink = (multiplier > 1.0) | (self.no_improvement_streak >= self.patience)
            shrunk = np.maximum(multiplier * MULTIPLIER_DECAY, MULTIPLIER_MIN)
            held = np.where(shrink, shrunk, 1.0)
        self.multiplier = (grown if count == S else held if not count
                           else np.where(improved, grown, held))

        self.population_std = _std(X)
        self.fitness_std = _std(fs)
        self.generation += 1

    def _stop_codes(self, tol: float) -> Optional[np.ndarray]:
        return self._first_reason(
            (("population-std", np.maximum.reduce(self.population_std, 1) < 1e-12),
             ("fitness-std", self.fitness_std < 1e-12)))


def init_from_cluster(positions: np.ndarray, fitness: np.ndarray, eel: float,
                      kind: SearcherKind, population_size: int, *,
                      rng: np.random.Generator) -> CoreSearcher:
    """Build a searcher (a group of one) from a cluster's rows, best first: its
    (m, d) ``positions`` and m ``fitness`` values.

    The mean is the cluster mean. The covariance is the sample covariance for
    clusters of at least d+1 solutions, its diagonal only for smaller ones,
    and (0.01 * eel)^2 times the identity for singletons (also used when all
    members coincide), so fresh samples land nearer than the neighbours that
    founded the cluster. Row 0, the cluster's founder, seeds the best so far.
    """
    m, d = positions.shape
    mean = np.add.reduce(positions, 0) / m
    tiny = (0.01 * eel) ** 2
    if m == 1:
        cov = tiny * np.eye(d)
    else:
        deviations = positions - mean
        if m >= d + 1:
            cov = deviations.T @ deviations / (m - 1)
        else:
            cov = np.diag((deviations ** 2).sum(axis=0) / (m - 1))
        if not np.isfinite(cov).all() or cov.trace() <= 0.0:
            cov = tiny * np.eye(d)
    start = {"best_x": positions[0], "best_f": fitness[0], "rng": rng}
    if kind is SearcherKind.CMSA:
        return CmsaSearcher(mean, cov, population_size, **start)
    return EdaSearcher(mean, cov, population_size, kind, **start)
