"""The package's public surface: the names a user imports from ``hillvallea``."""

import importlib

import hillvallea

CONTRACT = [
    "BenchmarkProblem", "ElitistArchive", "PeakRatioReport", "RestartLog", "RunResult",
    "SearchDomain", "SearcherKind", "Solution", "UnsupportedProblemError", "make_problem",
    "peak_ratio", "problem_names", "run_hillvallea",
]

# internals that tests and tools import from their own modules
INTERNALS = {
    "core_search": ["CmsaSearcher", "CoreSearcher", "EdaSearcher", "init_from_cluster",
                    "recommended_population_size"],
    "hillvalley": ["expected_edge_length", "hill_valley_clustering", "hill_valley_test",
                   "test_point_count"],
    "optimizer": ["postprocess", "truncation_selection", "uniform_sample"],
    "problems": ["BudgetedObjective", "EvaluationCounter"],
}


def test_package_exports_exactly_the_user_contract():
    assert sorted(hillvallea.__all__) == CONTRACT
    for name in CONTRACT:
        assert getattr(hillvallea, name) is not None
    for module, names in INTERNALS.items():
        owner = importlib.import_module(f"hillvallea.{module}")
        for name in names:
            assert name not in hillvallea.__all__
            assert getattr(owner, name) is not None
