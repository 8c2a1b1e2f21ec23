"""Shared test utilities: tiny objectives, counters and grid oracles."""

from __future__ import annotations

import numpy as np

from hillvallea import BenchmarkProblem, SearchDomain
from hillvallea.problems import BudgetedObjective, EvaluationCounter


def row_loop(fn):
    """The batch objective of ``fn`` (point -> fitness): one call per row."""
    return lambda X: np.array([fn(x) for x in X])


class RecordingObjective:
    """Objective function that logs every point it evaluates."""

    def __init__(self, fn):
        self.fn = fn
        self.points = []

    def __call__(self, x):
        self.points.append(np.array(x, dtype=float))
        return float(self.fn(x))

    @property
    def count(self):
        return len(self.points)


def budgeted_fn(fn, budget: int = 10 ** 6, phase: str = "clustering",
                domain: SearchDomain = SearchDomain(np.full(1, -1.0), np.full(1, 1.0))
                ) -> BudgetedObjective:
    """``fn`` (point -> fitness) as the optimizer evaluates it: in batches, on its own
    counter of ``budget`` evaluations (``.counter``), charged to ``phase``, on a problem
    over ``domain``.

    ``fn`` sees every evaluated row, also look-ahead rows that are never charged. Only
    core searchers read the box, and they clip their samples to it; the default box
    serves the hill-valley tests, which ignore it."""
    problem = BenchmarkProblem(domain, row_loop(fn), budget, name="test_function")
    return BudgetedObjective(problem, EvaluationCounter(budget), phase)


def selection(fn, points) -> tuple:
    """``points`` and their fitnesses under ``fn`` (point -> fitness), sorted best first
    (stable), as (n, d) and (n,) arrays."""
    X = np.array(points, dtype=float).reshape(len(points), -1)
    fitness = np.array([fn(x) for x in X], dtype=float)
    order = np.argsort(fitness, kind="stable")
    return X[order], fitness[order]


class RecordingObserver:
    """``run_hillvallea`` observer that logs (evaluations used, archive size) per call."""

    def __init__(self):
        self.calls = []

    def __call__(self, counter, archive):
        self.calls.append((counter.used, len(archive)))


def double_well(x) -> float:
    t = x[0]
    return float((t * t - 1.0) ** 2)


def sphere(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(x @ x)


def ripple(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.sin(3.0 * x) ** 2 + 0.1 * x * x))


def make_ripple_problem(d: int, budget: int = 10 ** 6) -> BenchmarkProblem:
    """Many local minima on [-2, 2]^d, the global one at the origin."""
    domain = SearchDomain(np.full(d, -2.0), np.full(d, 2.0))
    return BenchmarkProblem(
        domain, lambda X: np.sum(np.sin(3.0 * X) ** 2 + 0.1 * X * X, axis=1), budget,
        name=f"ripple_{d}d")


def make_sphere_problem(d: int = 2, half_width: float = 5.0,
                        budget: int = 10 ** 6) -> BenchmarkProblem:
    domain = SearchDomain(np.full(d, -half_width), np.full(d, half_width))
    return BenchmarkProblem(
        domain, lambda X: np.einsum("ij,ij->i", X, X), budget, name=f"sphere_{d}d",
        known_global_optima=np.zeros((1, d)), niche_radius=1.0)


def budgeted(problem: BenchmarkProblem, budget: int, phase: str = "local_opt", used: int = 0):
    """``problem``'s objective on a counter of ``budget`` of which ``used`` is spent."""
    counter = EvaluationCounter(budget)
    counter.take("init", used)
    return BudgetedObjective(problem, counter, phase), counter


def grid_minimum(problem: BenchmarkProblem, per_dim: int) -> float:
    """Exhaustive minimum over a regular grid, chunked to bound memory."""
    domain = problem.domain
    d = domain.dimension
    axes = [np.linspace(domain.lower[i], domain.upper[i], per_dim) for i in range(d)]
    if d == 1:
        return float(problem.objective(axes[0][:, None]).min())
    assert d == 2, "grid oracle supports d <= 2"
    best = np.inf
    rows_per_chunk = max(1, 10 ** 6 // per_dim)
    for start in range(0, per_dim, rows_per_chunk):
        xs = axes[0][start:start + rows_per_chunk]
        grid = np.stack(np.meshgrid(xs, axes[1], indexing="ij"), axis=-1)
        vals = problem.objective(grid.reshape(-1, 2))
        best = min(best, float(vals.min()))
    return best
