"""Gaussian core searchers: CMSA and AMaLGaM-style EDA variants.

Each searcher optimizes one niche from a cluster-derived Gaussian
(mean/covariance/population size) until its termination criteria or the
shared evaluation budget stop it, and reports the best solution it saw.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .hillvalley import Cluster, Solution
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


@dataclass(frozen=True)
class SearcherConstants:
    """Tunable searcher constants (defaults match the shipped configuration).

    ``tau_sigma``/``tau_c`` default to the dimension-dependent formulas
    1/sqrt(2d) and 1 + d(d+1)/(2*mu_sel) when left as None.
    """

    tau_sigma: Optional[float] = None
    tau_c: Optional[float] = None
    memory_eta: float = 0.7            # covariance smoothing of the i* variants
    multiplier_decay: float = 0.9
    mahalanobis_threshold: float = 1.0
    multiplier_min: float = 1e-4
    multiplier_max: float = 1e4
    ams_fraction: float = 0.5          # of tau * N_c samples get the mean shift
    stagnation_patience: Optional[int] = None  # None -> 25 + d generations


DEFAULT_CONSTANTS = SearcherConstants()


@dataclass
class GaussianInit:
    """Initial sampling model for one core searcher."""

    mean: np.ndarray
    covariance: np.ndarray
    population_size: int


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
    diag = np.diagonal(cov, axis1=1, axis2=2)
    return (np.isfinite(cov).all(axis=(1, 2)) & (diag >= 0).all(axis=1)
            & (diag.max(axis=1) > 0))


class CoreSearcher:
    """Shared state and control loop of the Gaussian searchers.

    A searcher is a group of members, each optimizing its own niche, stepped
    in lockstep. Each member draws from its own generator, in the order it
    would alone, and otherwise shares stacked arithmetic with the others, so
    every member follows the trajectory it would follow alone. A searcher
    built from one initial model is a group of one; :meth:`stack` joins
    fresh ones.

    Results are indexed by member: ``best_ever`` (a list of solutions),
    ``terminated_reason`` (None while running) and ``evaluations``. The
    sampling state of the members still stepping is stacked along axis 0,
    in member order; ``members`` gives each row's member index.
    """

    kind: SearcherKind
    #: Attributes stacked along the member axis; rows go when members stop.
    _STATE = ("members", "rngs", "has_best", "best_f", "best_x", "recent")

    def __init__(self, init: GaussianInit, *, rng: Optional[np.random.Generator] = None,
                 constants: SearcherConstants = DEFAULT_CONSTANTS,
                 founder: Optional[Solution] = None):
        self.dimension = len(init.mean)
        self.population_size = init.population_size
        self.constants = constants
        self.generation = 0
        self.window = 10 + (30 * self.dimension) // self.population_size
        self.best_ever = [founder]
        self.terminated_reason = np.full(1, None, dtype=object)
        self.evaluations = np.zeros(1, dtype=np.int64)
        self.members = np.zeros(1, dtype=np.int64)
        self.rngs = [rng if rng is not None else np.random.default_rng()]
        self.has_best = np.array([founder is not None])
        self.best_f = np.array([founder.fitness if founder is not None else math.inf])
        self.best_x = np.zeros((1, self.dimension))
        if founder is not None:
            self.best_x[0] = founder.position
        # best fitness after each of the last window+1 generations, as a ring
        self.recent = np.zeros((1, self.window + 1))

    @staticmethod
    def stack(searchers: Sequence[CoreSearcher]) -> CoreSearcher:
        """Join fresh searchers of one kind, dimension and population size.

        Members keep their order, generators and founders. Either all of them
        have a founder or none has.
        """
        if len({bool(s.has_best.all()) for s in searchers}) > 1:
            raise ValueError("either every member of a group has a founder or none has")
        group = copy.copy(searchers[0])
        for name in group._STATE + ("best_ever", "terminated_reason", "evaluations"):
            parts = [getattr(s, name) for s in searchers]
            setattr(group, name, list(itertools.chain.from_iterable(parts))
                    if isinstance(parts[0], list) else np.concatenate(parts))
        group.members = np.arange(len(searchers))
        return group

    def member(self, k: int) -> CoreSearcher:
        """Running member ``k`` alone, in its current state and with its generator."""
        solo = copy.copy(self)
        solo._keep(self.members == k)
        solo.members = np.zeros(1, dtype=np.int64)
        solo.best_ever = [self.best_ever[k]]
        solo.terminated_reason = self.terminated_reason[[k]]
        solo.evaluations = self.evaluations[[k]]
        return solo

    def _keep(self, rows: np.ndarray) -> None:
        """Keep the stacked state of the rows a boolean mask selects."""
        for name in self._STATE:
            value = getattr(self, name)
            setattr(self, name, list(itertools.compress(value, rows))
                    if isinstance(value, list) else value[rows])

    def _rows(self) -> int:
        """Samples each member evaluates per generation."""
        return self.population_size

    def _evaluate(self, evaluate: BudgetedObjective, X: np.ndarray) -> Optional[np.ndarray]:
        """Fitness of the (S, n, d) samples from one batch call, as (S, n).

        When the budget grants only a prefix, each member keeps the best of
        its granted rows, every member stops with reason "budget" and None is
        returned.
        """
        S, n, d = X.shape
        fs = evaluate.batch(X.reshape(-1, d))
        if len(fs) == S * n:
            self.evaluations[self.members] += n
            return fs.reshape(S, n)
        granted = np.clip(len(fs) - n * np.arange(S), 0, n)
        padded = np.full(S * n, math.inf)
        padded[:len(fs)] = fs
        self._record_best(X, padded.reshape(S, n), granted > 0)
        self.evaluations[self.members] += granted
        self.terminated_reason[self.members] = "budget"
        return None

    def _record_best(self, X: np.ndarray, fs: np.ndarray, evaluated=True) -> np.ndarray:
        """Track each member's all-time best; returns which members improved it."""
        i = fs.argmin(axis=1)
        f = fs[np.arange(len(fs)), i]
        improved = (~self.has_best | (f < self.best_f)) & evaluated
        rows = np.flatnonzero(improved)
        self.best_x[rows] = X[rows, i[rows]]
        self.best_f[rows] = f[rows]
        self.has_best[rows] = True
        for m, x, fitness in zip(self.members[rows].tolist(), self.best_x[rows],
                                 f[rows].tolist()):
            self.best_ever[m] = Solution(x, fitness)
        return improved

    def _end_generation(self) -> None:
        self.recent[:, self.generation % (self.window + 1)] = self.best_f
        self.generation += 1

    def _stagnant(self, tol: float) -> np.ndarray:
        """Members whose best improved by less than ``tol`` over the window."""
        g = self.generation
        if g <= self.window:
            return np.zeros(len(self.members), dtype=bool)
        span = self.window + 1
        return self.recent[:, g % span] - self.recent[:, (g - 1) % span] < tol

    def _first_reason(self, criteria) -> np.ndarray:
        """Per running member: its stop reason, else the first criterion that fires."""
        reasons = self.terminated_reason[self.members]
        for name, hit in criteria:
            reasons[np.equal(reasons, None) & hit] = name
        return reasons

    def check_termination(self, tol: float) -> np.ndarray:
        """Stop reason per running member (None for members that go on)."""
        raise NotImplementedError

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        """One generation of every running member, with one batch evaluation."""
        raise NotImplementedError

    def run(self, evaluate: BudgetedObjective, domain: SearchDomain, tol: float = 1e-5,
            limit: Optional[int] = None) -> list:
        """Run generations until every member has stopped; returns ``best_ever``.

        With ``limit``, the group instead stops before a generation that would
        take its evaluations past ``limit``. Its running members are then
        paused: their ``terminated_reason`` stays None, and :meth:`member`
        continues one of them alone.
        """
        while True:
            reasons = self.check_termination(tol)
            stopped = np.not_equal(reasons, None)
            if stopped.any():
                self.terminated_reason[self.members[stopped]] = reasons[stopped]
                self._keep(~stopped)
            running = len(self.members)
            if running == 0 or (limit is not None and self.evaluations.sum()
                                + running * self._rows() > limit):
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
    _STATE = CoreSearcher._STATE + ("mean", "sigma", "shape")

    def __init__(self, init: GaussianInit, **kwargs):
        super().__init__(init, **kwargs)
        self.mean = np.array(init.mean, dtype=float, ndmin=2)
        sigma2 = float(np.mean(np.diag(init.covariance)))
        self.sigma = np.array([math.sqrt(sigma2)])
        self.shape = (init.covariance / sigma2)[None]

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        d = self.dimension
        lam = self.population_size
        tau_sigma = self.constants.tau_sigma
        if tau_sigma is None:
            tau_sigma = 1.0 / math.sqrt(2.0 * d)

        steps = np.empty((len(self.members), lam))
        noise = np.empty((len(self.members), lam, d))
        for rng, step, directions in zip(self.rngs, steps, noise):
            rng.standard_normal(out=step)
            rng.standard_normal(out=directions)
        sigmas = self.sigma[:, None] * np.exp(tau_sigma * steps)
        Z = noise @ _sqrt_factor(self.shape).transpose(0, 2, 1)
        X = domain.clip(self.mean[:, None, :] + sigmas[:, :, None] * Z)
        fs = self._evaluate(evaluate, X)
        if fs is None:
            return

        # elitism: the all-time best replaces the worst offspring
        rows = np.flatnonzero(self.has_best)
        worst = fs[rows].argmax(axis=1)
        X[rows, worst] = self.best_x[rows]
        fs[rows, worst] = self.best_f[rows]
        sigmas[rows, worst] = self.sigma[rows]

        self._record_best(X, fs)
        Z = (X - self.mean[:, None, :]) / sigmas[:, :, None]  # post-repair directions

        mu_sel = max(1, lam // 2)
        selected = (np.arange(len(fs))[:, None],
                    np.argsort(fs, axis=1, kind="stable")[:, :mu_sel])
        tau_c = self.constants.tau_c
        if tau_c is None:
            tau_c = 1.0 + d * (d + 1) / (2.0 * mu_sel)
        Zs = Z[selected]
        rank_mu = Zs.transpose(0, 2, 1) @ Zs / mu_sel
        shape = (1.0 - 1.0 / tau_c) * self.shape + (1.0 / tau_c) * rank_mu
        self.shape = 0.5 * (shape + shape.transpose(0, 2, 1))
        self.mean = X[selected].mean(axis=1)
        self.sigma = sigmas[selected].mean(axis=1)
        self._end_generation()

    def check_termination(self, tol: float) -> np.ndarray:
        diag = np.diagonal(self.shape, axis1=1, axis2=2)
        model_std = self.sigma[:, None] * np.sqrt(np.clip(diag, 0.0, None))
        w = np.linalg.eigvalsh(self.shape)
        ill = w[:, 0] <= 0.0
        ill |= np.divide(w[:, -1], w[:, 0], out=np.zeros(len(w)), where=~ill) > 1e14
        return self._first_reason((("no-improvement", self._stagnant(tol)),
                                   ("min-std", model_std.max(axis=1) < 1e-15),
                                   ("ill-conditioned", ill)))


class EdaSearcher(CoreSearcher):
    """Estimation-of-distribution searcher (AMaLGaM family).

    Per generation: sample from N(mean, c^2 Sigma) with an anticipated mean
    shift on part of the sample and the all-time best retained as population
    member, truncation-select, refit the Gaussian by maximum likelihood
    (diagonal-only for the univariate kinds, smoothed for the incremental
    kinds) and adapt the distribution multiplier c.
    """

    _STATE = CoreSearcher._STATE + ("mean", "covariance", "multiplier", "mean_shift",
                                    "no_improvement_streak", "population_std",
                                    "fitness_std")

    def __init__(self, init: GaussianInit, kind: SearcherKind, **kwargs):
        if kind is SearcherKind.CMSA:
            raise ValueError("EdaSearcher covers the AMaLGaM variants only")
        super().__init__(init, **kwargs)
        self.kind = kind
        self.mean = np.array(init.mean, dtype=float, ndmin=2)
        cov = np.asarray(init.covariance, dtype=float)
        self.covariance = (np.diag(np.diag(cov)) if kind.univariate else cov.copy())[None]
        self.multiplier = np.ones(1)
        self.mean_shift = np.zeros((1, self.dimension))
        self.no_improvement_streak = np.zeros(1, dtype=np.int64)
        # NaN until the first generation: no stop criterion fires on it
        self.population_std = np.full((1, self.dimension), math.nan)
        self.fitness_std = np.full(1, math.nan)

    def _rows(self) -> int:
        # elitism: the all-time best stays in the population, n-1 fresh samples
        return self.population_size - int(self.has_best.all())

    def _mahalanobis_sq(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Squared distances of x under each member's sampling model, at ``rows`` only."""
        out = np.zeros(len(x))
        rows = np.flatnonzero(rows)
        if not rows.size:
            return out
        delta = x[rows] - self.mean[rows]
        # Python's float power, as a lone searcher squares its multiplier
        scale = np.array([m ** 2 for m in self.multiplier[rows].tolist()])
        if self.kind.univariate:
            diag = np.diagonal(self.covariance[rows], axis1=1, axis2=2)
            var = np.clip(diag, 1e-300, None) * scale[:, None]
            out[rows] = (delta * delta / var).sum(axis=1)
        else:
            out[rows] = _quadratic_form(self.covariance[rows] * scale[:, None, None], delta)
        return out

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        c = self.constants
        n = self.population_size
        tau = self.kind.tau

        fresh = self._rows()
        noise = np.empty((len(self.members), fresh, self.dimension))
        for rng, rows in zip(self.rngs, noise):
            rng.standard_normal(out=rows)
        multiplier = self.multiplier[:, None, None]
        if self.kind.univariate:
            diag = np.diagonal(self.covariance, axis1=1, axis2=2)
            std = np.sqrt(np.clip(diag, 0.0, None))[:, None, :]
            X = self.mean[:, None, :] + multiplier * noise * std
        else:
            L = _sqrt_factor(self.covariance)
            X = self.mean[:, None, :] + multiplier * noise @ L.transpose(0, 2, 1)
        n_ams = int(c.ams_fraction * tau * n)
        if n_ams > 0:
            X[:, :n_ams] += ((2.0 * self.multiplier)[:, None] * self.mean_shift)[:, None, :]
        X = domain.clip(X)
        fs = self._evaluate(evaluate, X)
        if fs is None:
            return
        if fresh < n:
            X = np.concatenate([X, self.best_x[:, None, :]], axis=1)
            fs = np.concatenate([fs, self.best_f[:, None]], axis=1)

        gen_best = fs.argmin(axis=1)
        improved = self._record_best(X, fs)
        maha_sq = self._mahalanobis_sq(X[np.arange(len(X)), gen_best], improved)

        n_sel = max(1, int(tau * n))
        order = np.argsort(fs, axis=1, kind="stable")
        Xs = X[np.arange(len(fs))[:, None], order[:, :n_sel]]
        previous_mean = self.mean
        self.mean = Xs.mean(axis=1)
        self.mean_shift = self.mean - previous_mean
        deviations = Xs - self.mean[:, None, :]
        fitted = (deviations ** 2).mean(axis=1)[:, :, None] * np.eye(self.dimension)
        if not self.kind.univariate:
            full = deviations.transpose(0, 2, 1) @ deviations / n_sel
            usable = _usable(full)
            fitted[usable] = full[usable]
        # a degenerate member stops; its rows are dropped before the next generation
        self.terminated_reason[self.members[~_usable(fitted)]] = "degenerate"
        if self.kind.incremental:
            eta = c.memory_eta
            self.covariance = (1.0 - eta) * self.covariance + eta * fitted
        else:
            self.covariance = fitted

        patience = c.stagnation_patience
        if patience is None:
            patience = 25 + self.dimension
        multiplier = self.multiplier
        self.no_improvement_streak = np.where(improved, 0, self.no_improvement_streak + 1)
        grown = np.maximum(multiplier, 1.0)
        grown = np.where(maha_sq > c.mahalanobis_threshold ** 2,
                         np.minimum(grown / c.multiplier_decay, c.multiplier_max), grown)
        # without improvement: shrink, or hold at 1 until the stagnation stretch matures
        shrink = (multiplier > 1.0) | (self.no_improvement_streak >= patience)
        shrunk = np.maximum(multiplier * c.multiplier_decay, c.multiplier_min)
        held = np.where(shrink, shrunk, 1.0)
        self.multiplier = np.where(improved, grown, held)

        self.population_std = X.std(axis=1)
        self.fitness_std = fs.std(axis=1)
        self._end_generation()

    def check_termination(self, tol: float) -> np.ndarray:
        return self._first_reason(
            (("population-std", self.population_std.max(axis=1) < 1e-12),
             ("fitness-std", self.fitness_std < 1e-12)))


def init_from_cluster(cluster: Cluster, d: int, eel: float, kind: SearcherKind,
                      population_size: int, *,
                      rng: Optional[np.random.Generator] = None,
                      constants: SearcherConstants = DEFAULT_CONSTANTS) -> CoreSearcher:
    """Build a searcher (a group of one) from a cluster.

    The mean is the cluster mean. The covariance is the sample covariance for
    clusters of at least d+1 solutions, its diagonal only for smaller ones,
    and (0.01 * eel)^2 times the identity for singletons (also used when all
    members coincide), so fresh samples land nearer than the neighbours that
    founded the cluster. The cluster founder seeds the best-ever solution.
    """
    positions = cluster.positions()
    m = len(positions)
    mean = positions.mean(axis=0)
    tiny = (0.01 * eel) ** 2
    if m == 1:
        cov = tiny * np.eye(d)
    else:
        deviations = positions - mean
        if m >= d + 1:
            cov = deviations.T @ deviations / (m - 1)
        else:
            cov = np.diag((deviations ** 2).sum(axis=0) / (m - 1))
        if not np.isfinite(cov).all() or np.trace(cov) <= 0.0:
            cov = tiny * np.eye(d)
    init = GaussianInit(mean=mean, covariance=cov, population_size=population_size)
    founder = cluster.founder
    if kind is SearcherKind.CMSA:
        return CmsaSearcher(init, rng=rng, constants=constants, founder=founder)
    return EdaSearcher(init, kind, rng=rng, constants=constants, founder=founder)
