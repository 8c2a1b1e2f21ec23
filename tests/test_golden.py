"""Fixed-seed golden runs: every archive bit must match the recorded result.

Recorded with numpy 2.4.6 and scipy 1.17.1 on Python 3.11. Another numpy or
scipy build may round differently in the last bit; re-record only when the
change in outputs is explained. To re-record, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import json
from pathlib import Path

import pytest

from hillvallea import InjectionMode, OptimizerConfig, SearcherKind, make_problem, run_hillvallea

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

# (problem id, searcher kind, budget, injection, seed)
RUNS = [
    (1, "amu", 5_000, "only_global", 0),
    (4, "cmsa", 10_000, "only_global", 1),
    (7, "amu", 10_000, "only_global", 2),
    (6, "cmsa", 10_000, "all_optima", 3),
]


def _key(run) -> str:
    pid, kind, budget, injection, seed = run
    return f"p{pid}-{kind}-{budget}-{injection}-s{seed}"


def _solutions(solutions) -> list:
    return [{"position": [float(v).hex() for v in s.position],
             "fitness": float(s.fitness).hex()} for s in solutions]


def snapshot(run) -> dict:
    pid, kind, budget, injection, seed = run
    config = OptimizerConfig(budget=budget, injection=InjectionMode(injection))
    result = run_hillvallea(make_problem(pid), SearcherKind(kind), config, seed=seed)
    return {
        "evaluations_used": result.evaluations_used,
        "phase_used": result.phase_used,
        "restarts": result.restarts,
        "verified": result.archive.verified,
        "archive": _solutions(result.archive),
        "side_archive": _solutions(result.side_archive),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("run", RUNS, ids=_key)
def test_fixed_seed_run_matches_golden(run, golden):
    assert snapshot(run) == golden[_key(run)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({_key(r): snapshot(r) for r in RUNS}, indent=1) + "\n")
