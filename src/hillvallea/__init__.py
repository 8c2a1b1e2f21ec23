"""Multi-modal continuous optimization via hill-valley niche clustering.

The toolkit locates all global optima of a bounded black-box objective:
a fitness-aware clustering step partitions a sampled population into
presumed niches, a Gaussian core searcher optimizes each niche, and a
restart scheme with an elitist archive grows the population until the
evaluation budget is spent.
"""

from .core_search import (CmsaSearcher, CoreSearcher, EdaSearcher, SearcherKind,
                          init_from_cluster, recommended_population_size)
from .evaluation import PeakRatioReport, peak_ratio
from .hillvalley import (Cluster, ClusterSet, Selection, Solution, expected_edge_length,
                         hill_valley_clustering, hill_valley_test, test_point_count)
from .optimizer import (ElitistArchive, RestartLog, RunResult, postprocess, run_hillvallea,
                        truncation_selection, uniform_sample)
from .problems import (BenchmarkProblem, BudgetedObjective, EvaluationCounter,
                       KnownOptimum, SearchDomain, UnsupportedProblemError,
                       make_problem, problem_names)

__all__ = [
    "BenchmarkProblem", "BudgetedObjective", "Cluster", "ClusterSet", "CmsaSearcher",
    "CoreSearcher", "EdaSearcher", "ElitistArchive", "EvaluationCounter", "KnownOptimum",
    "PeakRatioReport", "RestartLog", "RunResult", "SearchDomain", "SearcherKind", "Selection",
    "Solution",
    "UnsupportedProblemError", "expected_edge_length", "hill_valley_clustering",
    "hill_valley_test", "init_from_cluster", "make_problem", "peak_ratio", "postprocess",
    "problem_names", "recommended_population_size", "run_hillvallea", "test_point_count",
    "truncation_selection", "uniform_sample",
]

__version__ = "0.1.0"
