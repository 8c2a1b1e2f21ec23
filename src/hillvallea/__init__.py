"""Multi-modal continuous optimization via hill-valley niche clustering.

The toolkit locates all global optima of a bounded black-box objective:
a fitness-aware clustering step partitions a sampled population into
presumed niches, a Gaussian core searcher optimizes each niche, and a
restart scheme with an elitist archive grows the population until the
evaluation budget is spent.
"""

from .core_search import SearcherKind
from .evaluation import PeakRatioReport, peak_ratio
from .hillvalley import Solution
from .optimizer import ElitistArchive, RestartLog, RunResult, run_hillvallea
from .problems import (BenchmarkProblem, SearchDomain, UnsupportedProblemError, make_problem,
                       problem_names)

__all__ = [
    "BenchmarkProblem", "ElitistArchive", "PeakRatioReport", "RestartLog", "RunResult",
    "SearchDomain", "SearcherKind", "Solution", "UnsupportedProblemError", "make_problem",
    "peak_ratio", "problem_names", "run_hillvallea",
]

__version__ = "0.1.0"
