"""Peak-ratio scoring by the niching suite's seed-and-radius rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hillvalley import Solution
from .problems import BenchmarkProblem


@dataclass
class PeakRatioReport:
    """Fraction of known global optima found by reported solutions."""

    found: int
    total: int
    ratio: float


def peak_ratio(reported: Sequence[Solution], problem: BenchmarkProblem,
               epsilon: float = 1e-5) -> PeakRatioReport:
    """Count the global optima that reported solutions find, as the suite does.

    Solutions are taken best first (a stable sort on fitness). Each one farther
    than the niche radius from every seed taken so far becomes a seed; seeds
    within ``epsilon`` of the optimal fitness count, up to the number of known
    optima. A problem without known optima or without a niche radius raises
    ``ValueError``.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if problem.known_global_optima is None or len(problem.known_global_optima) == 0:
        raise ValueError(f"problem {problem.name!r} has no known global optima to score against")
    if problem.niche_radius is None:
        raise ValueError(f"problem {problem.name!r} has no niche radius to score with")
    total = len(problem.known_global_optima)
    best = problem.optimal_fitness
    ordered = sorted(reported, key=lambda s: s.fitness)
    seeds = np.empty((len(ordered), problem.dimension))
    n_seeds = found = 0
    for sol in ordered:
        if (np.linalg.norm(seeds[:n_seeds] - sol.position, axis=1) <= problem.niche_radius).any():
            continue
        seeds[n_seeds] = sol.position
        n_seeds += 1
        if abs(sol.fitness - best) <= epsilon:
            found += 1
            if found == total:
                break
    return PeakRatioReport(found=found, total=total, ratio=found / total)
