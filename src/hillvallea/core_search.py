"""Gaussian core searchers: CMSA and AMaLGaM-style EDA variants.

Each searcher optimizes one niche from a cluster-derived Gaussian
(mean/covariance/population size) until its termination criteria or the
shared evaluation budget stop it, and reports the best solution it saw.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

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


def _sqrt_factor(matrix: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = matrix; falls back to a clipped eigen square root."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(matrix)
        return v * np.sqrt(np.clip(w, 0.0, None))


class CoreSearcher:
    """Shared state and control loop of the Gaussian searchers."""

    kind: SearcherKind

    def __init__(self, init: GaussianInit, *, rng: Optional[np.random.Generator] = None,
                 constants: SearcherConstants = DEFAULT_CONSTANTS,
                 founder: Optional[Solution] = None):
        self.dimension = len(init.mean)
        self.population_size = init.population_size
        self.rng = rng if rng is not None else np.random.default_rng()
        self.constants = constants
        self.generation = 0
        self.best_ever = founder
        self.terminated_reason: Optional[str] = None
        window = 10 + (30 * self.dimension) // self.population_size
        self.recent_best: deque = deque(maxlen=window + 1)

    def _record_best(self, X: np.ndarray, fs: np.ndarray) -> bool:
        """Track the all-time best; returns whether this generation improved it."""
        i = int(np.argmin(fs))
        if self.best_ever is None or fs[i] < self.best_ever.fitness:
            self.best_ever = Solution(X[i].copy(), float(fs[i]))
            return True
        return False

    def check_termination(self, tol: float) -> Optional[str]:
        """Reason string when the searcher should stop, else None."""
        raise NotImplementedError

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        raise NotImplementedError

    def run(self, evaluate: BudgetedObjective, domain: SearchDomain, tol: float = 1e-5,
            on_generation: Optional[Callable[[], None]] = None) -> Solution:
        """Run generations until a termination criterion fires; returns the best."""
        while True:
            reason = self.check_termination(tol)
            if reason is not None:
                self.terminated_reason = reason
                break
            self.run_generation(evaluate, domain)
            if on_generation is not None:
                on_generation()
            if self.terminated_reason is not None:
                break
        return self.best_ever


class CmsaSearcher(CoreSearcher):
    """Evolution strategy with self-adaptive step sizes and covariance shaping.

    Per generation: each offspring draws its own step size and a direction
    from the shape matrix, the best-ever solution replaces the worst offspring,
    and mean, step size and shape matrix are re-estimated from the selected
    half of the population.
    """

    kind = SearcherKind.CMSA

    def __init__(self, init: GaussianInit, **kwargs):
        super().__init__(init, **kwargs)
        self.mean = np.asarray(init.mean, dtype=float).copy()
        sigma2 = float(np.mean(np.diag(init.covariance)))
        self.sigma = math.sqrt(sigma2)
        self.shape = init.covariance / sigma2

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        d = self.dimension
        lam = self.population_size
        tau_sigma = self.constants.tau_sigma
        if tau_sigma is None:
            tau_sigma = 1.0 / math.sqrt(2.0 * d)

        sigmas = self.sigma * np.exp(tau_sigma * self.rng.standard_normal(lam))
        Z = self.rng.standard_normal((lam, d)) @ _sqrt_factor(self.shape).T
        X = domain.clip(self.mean + sigmas[:, None] * Z)
        fs = evaluate.batch(X)
        if len(fs) < lam:
            if len(fs) > 0:
                self._record_best(X[:len(fs)], fs)
            self.terminated_reason = "budget"
            return

        # elitism: the all-time best replaces the worst offspring
        if self.best_ever is not None:
            worst = int(np.argmax(fs))
            X[worst] = self.best_ever.position
            fs[worst] = self.best_ever.fitness
            sigmas[worst] = self.sigma

        self._record_best(X, fs)
        Z = (X - self.mean) / sigmas[:, None]  # post-repair directions

        mu_sel = max(1, lam // 2)
        selected = np.argsort(fs, kind="stable")[:mu_sel]
        tau_c = self.constants.tau_c
        if tau_c is None:
            tau_c = 1.0 + d * (d + 1) / (2.0 * mu_sel)
        Zs = Z[selected]
        rank_mu = Zs.T @ Zs / mu_sel
        self.shape = (1.0 - 1.0 / tau_c) * self.shape + (1.0 / tau_c) * rank_mu
        self.shape = 0.5 * (self.shape + self.shape.T)
        self.mean = X[selected].mean(axis=0)
        self.sigma = float(sigmas[selected].mean())
        self.generation += 1
        self.recent_best.append(self.best_ever.fitness)

    def check_termination(self, tol: float) -> Optional[str]:
        if self.terminated_reason is not None:
            return self.terminated_reason
        if len(self.recent_best) == self.recent_best.maxlen:
            if self.recent_best[0] - self.recent_best[-1] < tol:
                return "no-improvement"
        model_std = self.sigma * np.sqrt(np.clip(np.diag(self.shape), 0.0, None))
        if model_std.max() < 1e-15:
            return "min-std"
        w = np.linalg.eigvalsh(self.shape)
        if w[0] <= 0.0 or w[-1] / w[0] > 1e14:
            return "ill-conditioned"
        return None


class EdaSearcher(CoreSearcher):
    """Estimation-of-distribution searcher (AMaLGaM family).

    Per generation: sample from N(mean, c^2 Sigma) with an anticipated mean
    shift on part of the sample and the all-time best retained as population
    member, truncation-select, refit the Gaussian by maximum likelihood
    (diagonal-only for the univariate kinds, smoothed for the incremental
    kinds) and adapt the distribution multiplier c.
    """

    def __init__(self, init: GaussianInit, kind: SearcherKind, **kwargs):
        if kind is SearcherKind.CMSA:
            raise ValueError("EdaSearcher covers the AMaLGaM variants only")
        super().__init__(init, **kwargs)
        self.kind = kind
        self.mean = np.asarray(init.mean, dtype=float).copy()
        cov = np.asarray(init.covariance, dtype=float)
        self.covariance = np.diag(np.diag(cov)) if kind.univariate else cov.copy()
        self.multiplier = 1.0
        self.mean_shift = np.zeros(self.dimension)
        self.no_improvement_streak = 0
        self.population_std = None
        self.fitness_std = None

    def _sample(self, n: int) -> np.ndarray:
        noise = self.rng.standard_normal((n, self.dimension))
        if self.kind.univariate:
            std = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
            return self.mean + self.multiplier * noise * std
        return self.mean + self.multiplier * noise @ _sqrt_factor(self.covariance).T

    def _mahalanobis_sq(self, x: np.ndarray) -> float:
        delta = x - self.mean
        scale = self.multiplier ** 2
        if self.kind.univariate:
            var = np.clip(np.diag(self.covariance), 1e-300, None) * scale
            return float(np.sum(delta * delta / var))
        try:
            y = np.linalg.solve(self.covariance * scale, delta)
        except np.linalg.LinAlgError:
            return math.inf
        return float(delta @ y)

    def run_generation(self, evaluate: BudgetedObjective, domain: SearchDomain) -> None:
        c = self.constants
        n = self.population_size
        tau = self.kind.tau

        # elitism: the all-time best stays in the population, n-1 fresh samples
        fresh = n - 1 if self.best_ever is not None else n
        X = self._sample(fresh)
        n_ams = int(c.ams_fraction * tau * n)
        if n_ams > 0:
            X[:n_ams] += 2.0 * self.multiplier * self.mean_shift
        X = domain.clip(X)
        fs = evaluate.batch(X)
        if len(fs) < fresh:
            if len(fs) > 0:
                self._record_best(X[:len(fs)], fs)
            self.terminated_reason = "budget"
            return
        if self.best_ever is not None:
            X = np.vstack([X, self.best_ever.position])
            fs = np.append(fs, self.best_ever.fitness)

        gen_best = int(np.argmin(fs))
        improved = self.best_ever is None or fs[gen_best] < self.best_ever.fitness
        maha_sq = self._mahalanobis_sq(X[gen_best]) if improved else 0.0
        self._record_best(X, fs)

        n_sel = max(1, int(tau * n))
        selected = np.argsort(fs, kind="stable")[:n_sel]
        previous_mean = self.mean
        self.mean = X[selected].mean(axis=0)
        self.mean_shift = self.mean - previous_mean
        deviations = X[selected] - self.mean
        if self.kind.univariate:
            fitted = np.diag((deviations ** 2).mean(axis=0))
        else:
            fitted = deviations.T @ deviations / n_sel
            if not self._usable(fitted):
                fitted = np.diag((deviations ** 2).mean(axis=0))
        if not self._usable(fitted):
            self.terminated_reason = "degenerate"
            return
        if self.kind.incremental:
            eta = c.memory_eta
            self.covariance = (1.0 - eta) * self.covariance + eta * fitted
        else:
            self.covariance = fitted

        patience = c.stagnation_patience
        if patience is None:
            patience = 25 + self.dimension
        if improved:
            self.no_improvement_streak = 0
            self.multiplier = max(self.multiplier, 1.0)
            if maha_sq > c.mahalanobis_threshold ** 2:
                self.multiplier = min(self.multiplier / c.multiplier_decay,
                                      c.multiplier_max)
        else:
            self.no_improvement_streak += 1
            if self.multiplier > 1.0 or self.no_improvement_streak >= patience:
                self.multiplier = max(self.multiplier * c.multiplier_decay,
                                      c.multiplier_min)
            elif self.multiplier < 1.0:
                # hold at 1 until the stagnation stretch matures
                self.multiplier = 1.0

        self.population_std = X.std(axis=0)
        self.fitness_std = float(fs.std())
        self.generation += 1
        self.recent_best.append(self.best_ever.fitness)

    @staticmethod
    def _usable(cov: np.ndarray) -> bool:
        diag = np.diag(cov)
        return bool(np.all(np.isfinite(cov)) and np.all(diag >= 0) and diag.max() > 0)

    def check_termination(self, tol: float) -> Optional[str]:
        if self.terminated_reason is not None:
            return self.terminated_reason
        if self.population_std is not None and self.population_std.max() < 1e-12:
            return "population-std"
        if self.fitness_std is not None and self.fitness_std < 1e-12:
            return "fitness-std"
        return None


def init_from_cluster(cluster: Cluster, d: int, eel: float, kind: SearcherKind,
                      population_size: int, *,
                      rng: Optional[np.random.Generator] = None,
                      constants: SearcherConstants = DEFAULT_CONSTANTS) -> CoreSearcher:
    """Build a searcher from a cluster.

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
