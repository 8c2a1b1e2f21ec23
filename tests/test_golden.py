"""Fixed-seed golden runs: every archive bit must match the recorded result.

A small CLI sweep is recorded too: its records (without wall times, with
their traces) and aggregates must match at ``--jobs 1`` and ``--jobs 2``.

Recorded with numpy 2.4.6 on Python 3.11. Another numpy build may round
differently in the last bit; re-record only when the change in outputs is
explained. To re-record, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from hillvallea import SearcherKind, make_problem, run_hillvallea
from hillvallea.cli import main
from helpers import RecordingObserver

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")
SWEEP_PATH = Path(__file__).with_name("golden_sweep.json")

# per-problem aggregates over unequal peak ratios (P4: 0.5 and 0.75)
SWEEP_ARGS = ["--problems", "2,4", "--reps", "2", "--seed", "3", "--budget", "1000",
              "--trace", "250"]

# (problem id, searcher kind, budget, injection, seed[, trace spacing]); the
# injection is "only_global" (elites injected) or "none"
RUNS = [
    (1, "amu", 5_000, "only_global", 0),
    (4, "cmsa", 10_000, "only_global", 1),
    (7, "amu", 10_000, "only_global", 2),
    (6, "cmsa", 10_000, "only_global", 3),
    # full-covariance kinds at d=2 and d=3 (stacked cholesky and solve)
    (4, "am", 5_000, "only_global", 0),
    (8, "am", 8_000, "only_global", 1),
    (10, "iam", 5_000, "only_global", 2),
    (9, "iam", 8_000, "only_global", 0),
    # the budget ends inside local optimisation: in the last restart the
    # third (IAMU, of ten) and fourth (CMSA, of nine) searchers are cut, and the
    # searchers after them keep their founders
    (6, "iamu", 6_000, "only_global", 0),
    (6, "cmsa", 4_000, "only_global", 0),
    (7, "amu", 5_000, "only_global", 1, 250),
    # selections past the nearest-better search's 128-row head, so its grid
    # search runs: up to 1,435 rows at d=1 and 5,738 rows at d=2 (two passes)
    (2, "amu", 20_000, "only_global", 0),
    (10, "amu", 60_000, "only_global", 0),
    # the budget ends inside a clustering sweep (d = 1, 2 and P4, whose cut
    # sweep leaves 58 clusters that keep their founders)
    (2, "amu", 3_500, "only_global", 0),
    (10, "cmsa", 5_250, "only_global", 0),
    (4, "amu", 3_750, "only_global", 0),
    # the budget ends inside an archive merge: P7 CMSA cuts a distinctness
    # test, P7 AMU appends its last two candidates untested
    (7, "amu", 3_750, "only_global", 0),
    (7, "cmsa", 2_250, "only_global", 0),
    # d = 3, the budget ends inside the second restart's lockstep run: 4 of
    # 12 CMSA and 6 of 9 AMU members are still running when it pauses
    (8, "cmsa", 21_000, "only_global", 0),
    (8, "amu", 19_000, "only_global", 0),
    # injected elites found clusters that also hold sampled rows (restarts 2-5)
    (5, "amu", 5_000, "only_global", 0),
    # the budget ends inside clustering a selection of 11,473 rows
    (10, "amu", 90_000, "only_global", 0),
]


def _key(run) -> str:
    pid, kind, budget, injection, seed, *every = run
    return f"p{pid}-{kind}-{budget}-{injection}-s{seed}" + "".join(f"-t{e}" for e in every)


def _solutions(solutions) -> list:
    return [{"position": [float(v).hex() for v in s.position],
             "fitness": float(s.fitness).hex()} for s in solutions]


def _size_trace(calls, every: int, result) -> list:
    """(k·every, archive size) rows as ``--trace`` writes them; the run's own size is last."""
    rows = []
    for used, size in calls:
        rows += [(k * every, size) for k in range(len(rows) + 1, used // every + 1)]
    return [row for row in rows if row[0] != result.evaluations_used] + [
        (result.evaluations_used, len(result.archive))]


def snapshot(run) -> dict:
    pid, kind, budget, injection, seed, *every = run
    seen = RecordingObserver()
    result = run_hillvallea(replace(make_problem(pid), budget=budget), SearcherKind(kind), seed,
                            inject=injection == "only_global", observe=seen)
    out = {
        "evaluations_used": result.evaluations_used,
        "phase_used": result.phase_used,
        "restarts": result.restarts,
        "verified": result.archive.verified,
        "archive": _solutions(result.archive),
    }
    if every:
        out["trace"] = [[evals, float(value).hex()]
                        for evals, value in _size_trace(seen.calls, every[0], result)]
    return out


def sweep_snapshot(directory, jobs: int) -> dict:
    out = Path(directory) / "sweep.json"
    assert main(SWEEP_ARGS + ["--jobs", str(jobs), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    for record in blob["runs"]:
        del record["wall_time_ms"]
    return blob


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("run", RUNS, ids=_key)
def test_fixed_seed_run_matches_golden(run, golden):
    assert snapshot(run) == golden[_key(run)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_sweep_matches_golden(jobs, tmp_path):
    assert sweep_snapshot(tmp_path, jobs) == json.loads(SWEEP_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({_key(r): snapshot(r) for r in RUNS}, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as directory:
        SWEEP_PATH.write_text(json.dumps(sweep_snapshot(directory, 2), indent=1) + "\n")
