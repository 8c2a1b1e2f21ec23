"""Benchmark problems: bounded objectives with known optima and evaluation budgets.

Implements the ten non-composition problems of the classic niching benchmark
suite. All objectives are stored in minimization form (the suite's original
maximization functions are negated at construction); known-optima tables are
derived from the closed forms, refined to double precision, and the niche
radii are the suite's own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

PHASES = ("init", "clustering", "local_opt", "postprocess")

class UnsupportedProblemError(ValueError):
    """Raised for problem ids outside the implemented range."""


@dataclass(frozen=True, eq=False)
class SearchDomain:
    """Axis-aligned box in R^d."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper bounds must be 1-D and of equal length")
        if not np.all(lo < hi):
            raise ValueError("every lower bound must be strictly below its upper bound")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):  # then the bounds are finite too, as lo < hi
                raise ValueError("every bound and every width upper - lower must be finite")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Repair a point (or an (n, d) batch) onto the box, coordinate-wise."""
        return x.clip(self.lower, self.upper)


@dataclass
class EvaluationCounter:
    """Tracks spent function evaluations, split per algorithm phase."""

    budget: int
    used: int = 0
    phase_used: dict = field(default_factory=lambda: {p: 0 for p in PHASES})
    rows: int = 0  # rows passed to the objective, charged or not (trials count here too)

    @property
    def remaining(self) -> int:
        return self.budget - self.used

    @property
    def exhausted(self) -> bool:
        return self.used >= self.budget

    def take(self, phase: str, n: int = 1) -> int:
        """Reserve up to ``n`` evaluations for ``phase``; returns the granted count."""
        grant = min(n, self.budget - self.used)
        if grant > 0:
            self.used += grant
            self.phase_used[phase] = self.phase_used.get(phase, 0) + grant
        return max(grant, 0)


@dataclass
class BenchmarkProblem:
    """A bounded box, an objective and an evaluation budget.

    ``objective`` maps an (n, d) array to n minimization fitnesses, and every
    phase evaluates through it, every hill-valley test point included.
    ``known_global_optima``, a (k, d) array of positions, and ``niche_radius``
    serve scoring only.
    """

    domain: SearchDomain
    objective: Callable[[np.ndarray], np.ndarray]
    budget: int
    id: int = 0
    name: str = "custom"
    known_global_optima: Optional[np.ndarray] = None
    niche_radius: Optional[float] = None

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def optimal_fitness(self) -> float:
        """The objective's minimum over the known global optima."""
        return float(self.objective(np.asarray(self.known_global_optima, dtype=float)).min())


class BudgetedObjective:
    """Objective bound to a counter and a phase tag.

    ``batch`` evaluates as many rows of an (n, d) array as the budget allows,
    with the problem's ``objective``, which must return one fitness per row.
    A NaN fitness reads as +inf, worse than any number, so that every sort
    and comparison downstream sees one total order.
    """

    __slots__ = ("problem", "counter", "phase", "charged")

    def __init__(self, problem: BenchmarkProblem, counter: EvaluationCounter, phase: str,
                 charged: bool = True):
        self.problem = problem
        self.counter = counter
        self.phase = phase
        self.charged = charged  # a trial's rows take nothing from the budget

    def batch(self, X: np.ndarray) -> np.ndarray:
        grant = self.counter.take(self.phase, len(X)) if self.charged else len(X)
        if grant == 0:
            return np.empty(0)
        self.counter.rows += grant
        fs = self.problem.objective(X[:grant])
        if not (isinstance(fs, np.ndarray) and fs.shape == (grant,)):
            raise ValueError(f"objective of problem {self.problem.name!r} returned "
                             f"{type(fs).__name__} of shape {np.shape(fs)} for {grant} rows; "
                             f"expected an ndarray of shape ({grant},)")
        nan = np.isnan(fs)
        return np.where(nan, np.inf, fs) if nan.any() else fs

    def trial(self) -> BudgetedObjective:
        """This objective uncharged, for work charged later; its rows still count in
        ``counter.rows``, and the caller bounds them."""
        return BudgetedObjective(self.problem, self.counter, self.phase, charged=False)

    @property
    def exhausted(self) -> bool:
        return self.counter.exhausted


# ---------------------------------------------------------------------------
# Closed forms over an (n, d) array, in minimization form. Each works row by
# row: a row's value does not depend on the rows beside it.
# ---------------------------------------------------------------------------


# segment s of the trap ends at _TRAP_BREAKS[s]; its value is slope * (t - base)
_TRAP_BREAKS = np.array([2.5, 5.0, 7.5, 12.5, 17.5, 22.5, 27.5])
_TRAP_SLOPE = np.array([-80.0, 64.0, -64.0, 28.0, -28.0, 32.0, -32.0, 80.0])
_TRAP_BASE = np.array([2.5, 2.5, 7.5, 7.5, 17.5, 17.5, 27.5, 27.5])


def _five_uneven_peak_trap(X: np.ndarray) -> np.ndarray:
    t = X[:, 0]
    s = np.searchsorted(_TRAP_BREAKS, t, side="right")
    return -(_TRAP_SLOPE[s] * (t - _TRAP_BASE[s]))  # c * (b - t) == -c * (t - b) exactly


def _equal_maxima(X: np.ndarray) -> np.ndarray:
    return -np.sin(5.0 * np.pi * X[:, 0]) ** 6


_LN2_2 = 2.0 * math.log(2.0)


def _uneven_decreasing_maxima(X: np.ndarray) -> np.ndarray:
    t = X[:, 0]
    env = np.exp(-_LN2_2 * ((t - 0.08) / 0.854) ** 2)
    return -env * np.sin(5.0 * np.pi * (t ** 0.75 - 0.05)) ** 6


def _himmelblau(X: np.ndarray) -> np.ndarray:
    a, b = X[:, 0], X[:, 1]
    return -(200.0 - (a * a + b - 11.0) ** 2 - (a + b * b - 7.0) ** 2)


def _six_hump_camel_back(X: np.ndarray) -> np.ndarray:
    a, b = X[:, 0], X[:, 1]
    a2 = a * a
    b2 = b * b
    return (4.0 - 2.1 * a2 + a2 * a2 / 3.0) * a2 + a * b + (4.0 * b2 - 4.0) * b2


_SHUBERT_J = np.arange(1.0, 6.0)
_SHUBERT_J1 = _SHUBERT_J + 1.0


def _shubert(X: np.ndarray) -> np.ndarray:
    # the terms are summed, and the factors multiplied, in coordinate order
    T = _SHUBERT_J * np.cos(X[:, :, None] * _SHUBERT_J1 + _SHUBERT_J)
    factors = T[..., 0] + T[..., 1] + T[..., 2] + T[..., 3] + T[..., 4]
    prod = factors[:, 0]
    for i in range(1, X.shape[1]):
        prod = prod * factors[:, i]
    return prod


def _vincent(X: np.ndarray) -> np.ndarray:
    return -(np.add.reduce(np.sin(10.0 * np.log(X)), 1) / X.shape[1])  # np.mean's steps


_RASTRIGIN_K = np.array([3.0, 4.0])


def _modified_rastrigin(X: np.ndarray) -> np.ndarray:
    return (10.0 + 9.0 * np.cos(2.0 * np.pi * _RASTRIGIN_K * X)).sum(axis=1)


# ---------------------------------------------------------------------------
# Ground-truth optimum positions. Non-analytic positions are tabulated
# constants at double precision; nothing refines them at run time.
# ---------------------------------------------------------------------------

_TRAP_OPTIMA = ((0.0,), (30.0,))
_EQUAL_MAXIMA_OPTIMA = tuple((t,) for t in (0.1, 0.3, 0.5, 0.7, 0.9))
_UNEVEN_MAXIMUM = ((0.07969977961192959,),)
_HIMMELBLAU_OPTIMA = (
    (3.0, 2.0),
    (-2.805118086952745, 3.1313125182505734),
    (-3.779310253377747, -3.283185991286169),
    (3.5844283403304917, -1.8481265269644034),
)
_CAMEL_OPTIMA = (
    (0.08984201310031807, -0.7126564030207396),
    (-0.08984201310031807, 0.7126564030207396),
)
# 1-D factor of the Shubert product: troughs reach -12.8709, crests +14.5080;
# the d-dim product is minimal with exactly one coordinate at a trough.
_SHUBERT_TROUGHS = (-7.708313735499347, -1.425128428319761, 4.858056878859825)
_SHUBERT_CRESTS = (-7.0835064076515595, -0.8003211004719731, 5.482864206707613)
# sin(10 ln x) = 1 exactly at x = exp((pi/2 + 2 pi m)/10), six of which fall
# inside [0.25, 10].
_VINCENT_AXIS = tuple(math.exp((math.pi / 2.0 + 2.0 * math.pi * m) / 10.0)
                      for m in range(-2, 4))
_RASTRIGIN_AXES = ((1.0 / 6.0, 3.0 / 6.0, 5.0 / 6.0),
                   (1.0 / 8.0, 3.0 / 8.0, 5.0 / 8.0, 7.0 / 8.0))


def _shubert_optima(d: int):
    """One coordinate at a trough, the rest at crests: 18 (d=2) / 81 (d=3) points."""
    points = []
    for trough_axis in range(d):
        for trough in _SHUBERT_TROUGHS:
            for crests in itertools.product(_SHUBERT_CRESTS, repeat=d - 1):
                p = list(crests)
                p.insert(trough_axis, trough)
                points.append(tuple(p))
    return tuple(points)


#: id -> (name, budget in evaluations, lower bounds, upper bounds, closed form,
#: optimum positions, the suite's niche radius)
_SPECS = {
    1: ("five_uneven_peak_trap", 50_000, [0.0], [30.0], _five_uneven_peak_trap,
        _TRAP_OPTIMA, 0.01),
    2: ("equal_maxima", 50_000, [0.0], [1.0], _equal_maxima, _EQUAL_MAXIMA_OPTIMA, 0.01),
    3: ("uneven_decreasing_maxima", 50_000, [0.0], [1.0], _uneven_decreasing_maxima,
        _UNEVEN_MAXIMUM, 0.01),
    4: ("himmelblau", 50_000, [-6.0] * 2, [6.0] * 2, _himmelblau, _HIMMELBLAU_OPTIMA, 0.01),
    5: ("six_hump_camel_back", 50_000, [-1.9, -1.1], [1.9, 1.1], _six_hump_camel_back,
        _CAMEL_OPTIMA, 0.5),
    6: ("shubert_2d", 200_000, [-10.0] * 2, [10.0] * 2, _shubert, _shubert_optima(2), 0.5),
    7: ("vincent_2d", 200_000, [0.25] * 2, [10.0] * 2, _vincent,
        tuple(itertools.product(_VINCENT_AXIS, repeat=2)), 0.2),
    8: ("shubert_3d", 400_000, [-10.0] * 3, [10.0] * 3, _shubert, _shubert_optima(3), 0.5),
    9: ("vincent_3d", 400_000, [0.25] * 3, [10.0] * 3, _vincent,
        tuple(itertools.product(_VINCENT_AXIS, repeat=3)), 0.2),
    10: ("modified_rastrigin_2d", 200_000, [0.0] * 2, [1.0] * 2, _modified_rastrigin,
         tuple(itertools.product(*_RASTRIGIN_AXES)), 0.01),
}


def make_problem(problem_id: int) -> BenchmarkProblem:
    """Construct benchmark problem 1-10 by id.

    Ids 11-20 are the suite's composition functions, which need external
    rotation/shift data; they are not implemented. Build a
    :class:`BenchmarkProblem` directly to plug in custom objectives.
    """
    if type(problem_id) is not int:
        raise UnsupportedProblemError(f"problem id must be an int, got {problem_id!r}")
    if problem_id in range(11, 21):
        raise UnsupportedProblemError(
            f"problem {problem_id} (composition function) is not implemented; "
            "construct a BenchmarkProblem directly to supply a custom objective")
    if problem_id not in _SPECS:
        raise UnsupportedProblemError(f"unknown problem id {problem_id!r}")
    name, budget, lower, upper, batch, optima, radius = _SPECS[problem_id]
    return BenchmarkProblem(
        id=problem_id, name=name,
        domain=SearchDomain(np.asarray(lower, float), np.asarray(upper, float)),
        objective=batch, known_global_optima=np.asarray(optima, dtype=float), budget=budget,
        niche_radius=radius)


def problem_names() -> dict:
    """Map of problem name -> id for all implemented problems."""
    return {spec[0]: pid for pid, spec in _SPECS.items()}
