"""Independent checker for hillvallea runs on niching-suite problems 1-10.

Everything here is written from the suite's definition (Li, Engelbrecht &
Epitropakis 2013, "Benchmark functions for CEC'2013 special session and
competition on niching methods for multimodal function optimization"), not
from ``hillvallea.problems``: closed forms in the suite's maximisation form,
published optimum values, the accuracy level, niche radii, budgets and
numbers of global optima, and the suite's seed-and-radius rule that counts
found optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Tightest accuracy level of the suite.
ACCURACY = 1e-5


def _trap(X):
    x = X[:, 0]
    return np.select(
        [x < 2.5, x < 5.0, x < 7.5, x < 12.5, x < 17.5, x < 22.5, x < 27.5],
        [80.0 * (2.5 - x), 64.0 * (x - 2.5), 64.0 * (7.5 - x), 28.0 * (x - 7.5),
         28.0 * (17.5 - x), 32.0 * (x - 17.5), 32.0 * (27.5 - x)],
        80.0 * (x - 27.5))


def _equal_maxima(X):
    return np.sin(5.0 * np.pi * X[:, 0]) ** 6


def _uneven_decreasing_maxima(X):
    x = X[:, 0]
    return (np.exp(-2.0 * np.log(2.0) * ((x - 0.08) / 0.854) ** 2)
            * np.sin(5.0 * np.pi * (x ** 0.75 - 0.05)) ** 6)


def _himmelblau(X):
    x, y = X[:, 0], X[:, 1]
    return 200.0 - (x ** 2 + y - 11.0) ** 2 - (x + y ** 2 - 7.0) ** 2


def _six_hump_camel_back(X):
    x, y = X[:, 0], X[:, 1]
    return -((4.0 - 2.1 * x ** 2 + x ** 4 / 3.0) * x ** 2 + x * y
             + (4.0 * y ** 2 - 4.0) * y ** 2)


def _shubert(X):
    j = np.arange(1, 6)
    sums = (j * np.cos((j + 1) * X[:, :, None] + j)).sum(axis=2)
    return -np.prod(sums, axis=1)


def _vincent(X):
    return np.mean(np.sin(10.0 * np.log(X)), axis=1)


def _modified_rastrigin(X):
    k = np.array([3.0, 4.0])
    return -np.sum(10.0 + 9.0 * np.cos(2.0 * np.pi * k * X), axis=1)


@dataclass(frozen=True)
class SuiteProblem:
    """One suite problem as published, maximisation form."""

    fid: int
    f: Callable[[np.ndarray], np.ndarray]   # (n, d) -> (n,)
    lower: tuple
    upper: tuple
    optimum: float
    n_optima: int
    radius: float
    budget: int

    def value(self, X) -> np.ndarray:
        return self.f(np.atleast_2d(np.asarray(X, dtype=float)))


SUITE = {p.fid: p for p in (
    SuiteProblem(1, _trap, (0.0,), (30.0,), 200.0, 2, 0.01, 50_000),
    SuiteProblem(2, _equal_maxima, (0.0,), (1.0,), 1.0, 5, 0.01, 50_000),
    SuiteProblem(3, _uneven_decreasing_maxima, (0.0,), (1.0,), 1.0, 1, 0.01, 50_000),
    SuiteProblem(4, _himmelblau, (-6.0, -6.0), (6.0, 6.0), 200.0, 4, 0.01, 50_000),
    SuiteProblem(5, _six_hump_camel_back, (-1.9, -1.1), (1.9, 1.1), 1.031628453,
                 2, 0.5, 50_000),
    SuiteProblem(6, _shubert, (-10.0,) * 2, (10.0,) * 2, 186.7309088, 18, 0.5, 200_000),
    SuiteProblem(7, _vincent, (0.25,) * 2, (10.0,) * 2, 1.0, 36, 0.2, 200_000),
    SuiteProblem(8, _shubert, (-10.0,) * 3, (10.0,) * 3, 2709.093505, 81, 0.5, 400_000),
    SuiteProblem(9, _vincent, (0.25,) * 3, (10.0,) * 3, 1.0, 216, 0.2, 400_000),
    SuiteProblem(10, _modified_rastrigin, (0.0, 0.0), (1.0, 1.0), -2.0, 12, 0.01, 200_000),
)}


def count_found(problem: SuiteProblem, positions, accuracy: float = ACCURACY) -> int:
    """Global optima found by a set of solutions, by the suite's rule.

    Solutions are taken best first. Each one farther than the niche radius
    from every seed taken so far becomes a seed; seeds within ``accuracy`` of
    the optimum value count, up to the number of global optima.
    """
    X = np.atleast_2d(np.asarray(positions, dtype=float))
    if X.size == 0:
        return 0
    values = problem.value(X)
    order = np.argsort(-values, kind="stable")
    seeds: list = []
    found = 0
    for i in order:
        if any(np.linalg.norm(X[i] - s) <= problem.radius for s in seeds):
            continue
        seeds.append(X[i])
        if abs(values[i] - problem.optimum) <= accuracy:
            found += 1
            if found == problem.n_optima:
                break
    return found


def _fitness_matches(fitness: np.ndarray, expected: np.ndarray) -> bool:
    return bool(np.all(np.abs(fitness - expected) <= 1e-9 * np.maximum(1.0, np.abs(expected))))


@dataclass
class RunCheck:
    """Outcome of the checks on one run.

    ``reasons`` names each failed check. ``known_fault`` is set when the
    failures are exactly those of the six-hump camel back scale fault (the
    program's problem 5 is the suite's function times 4, so its fitness and
    its accuracy comparisons are four times off).
    """

    reasons: list
    known_fault: bool = False
    suite_found: int = 0

    @property
    def ok(self) -> bool:
        return not self.reasons


def check_run(fid: int, evaluations_used: int, phase_used: dict, positions,
              fitnesses, reported_found: int) -> RunCheck:
    """Check one run's output against the suite definition of problem ``fid``."""
    problem = SUITE[fid]
    X = np.asarray(positions, dtype=float).reshape(-1, len(problem.lower))
    fitness = np.asarray(fitnesses, dtype=float)
    reasons = []
    if evaluations_used != problem.budget:
        reasons.append("budget")
    if sum(phase_used.values()) != evaluations_used:
        reasons.append("phase-sum")
    if not np.all((X >= problem.lower) & (X <= problem.upper)):
        reasons.append("box")
    minimised = -problem.value(X) if len(X) else np.empty(0)
    if not _fitness_matches(fitness, minimised):
        reasons.append("fitness")
    suite_found = count_found(problem, X)
    if reported_found != suite_found:
        reasons.append("found")
    known = (fid == 5 and len(X) > 0 and _fitness_matches(fitness, 4.0 * minimised)
             and set(reasons) <= {"fitness", "found"})
    return RunCheck(reasons, known, suite_found)
