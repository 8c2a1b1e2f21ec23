"""Peak-ratio scoring against ground-truth optima."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hillvalley import Solution
from .problems import BenchmarkProblem


@dataclass
class PeakRatioReport:
    """Fraction of known global optima matched by reported solutions."""

    found: int
    total: int
    ratio: float


def peak_ratio(reported: Sequence[Solution], problem: BenchmarkProblem,
               epsilon: float = 1e-5) -> PeakRatioReport:
    """Score reported solutions against the problem's known optima.

    A known optimum counts as found when a reported solution lies within the
    niche radius of it and within ``epsilon`` of the optimal fitness. Matching
    is injective and greedy: reported solutions are walked best-fitness-first
    and each claims its nearest still-unclaimed qualifying optimum.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    optima = problem.known_global_optima
    total = len(optima)
    if total == 0:
        raise ValueError(f"problem {problem.name!r} has no known global optima to score against")
    positions = np.array([o.position for o in optima])
    fitnesses = np.array([o.fitness for o in optima])
    unmatched = np.ones(total, dtype=bool)
    for sol in sorted(reported, key=lambda s: s.fitness):
        dist = np.linalg.norm(positions - sol.position, axis=1)
        ok = (unmatched & (dist <= problem.niche_radius)
              & (np.abs(fitnesses - sol.fitness) <= epsilon))
        if ok.any():
            unmatched[np.argmin(np.where(ok, dist, np.inf))] = False
    found = total - int(unmatched.sum())
    return PeakRatioReport(found=found, total=total, ratio=found / total)

