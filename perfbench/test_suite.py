"""Self-tests of the benchmark's independent checker.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

from suite import ACCURACY, SUITE, check_run, count_found

VINCENT_AXIS = [math.exp((math.pi / 2.0 + 2.0 * math.pi * m) / 10.0) for m in range(-2, 4)]

# (problem, a published optimum position); each must give the published value
PUBLISHED_OPTIMA = [
    (1, (0.0,)),
    (1, (30.0,)),
    (2, (0.1,)),
    (2, (0.9,)),
    (3, (0.15 ** (4.0 / 3.0),)),
    (4, (3.0, 2.0)),
    (4, (-2.805118, 3.131312)),
    (5, (0.089842, -0.712656)),
    (5, (-0.089842, 0.712656)),
    (6, (-7.08350641, 4.85805688)),
    (7, (VINCENT_AXIS[0], VINCENT_AXIS[5])),
    (8, (-7.08350641, -7.08350641, 4.85805688)),
    (9, (VINCENT_AXIS[1], VINCENT_AXIS[2], VINCENT_AXIS[4])),
    (10, (1.0 / 6.0, 1.0 / 8.0)),
]


@pytest.mark.parametrize("fid,position", PUBLISHED_OPTIMA)
def test_published_optimum_value(fid, position):
    problem = SUITE[fid]
    value = float(problem.value(position)[0])
    assert value == pytest.approx(problem.optimum, abs=1e-6)
    assert np.all(np.asarray(position) >= problem.lower)
    assert np.all(np.asarray(position) <= problem.upper)


def test_exact_optima():
    assert SUITE[4].value((3.0, 2.0))[0] == 200.0
    assert SUITE[1].value((0.0,))[0] == 200.0
    for x in VINCENT_AXIS:
        assert SUITE[7].value((x, x))[0] == pytest.approx(1.0, abs=1e-15)


def test_suite_table():
    counts = {1: 2, 2: 5, 3: 1, 4: 4, 5: 2, 6: 18, 7: 36, 8: 81, 9: 216, 10: 12}
    budgets = {1: 50_000, 2: 50_000, 3: 50_000, 4: 50_000, 5: 50_000,
               6: 200_000, 7: 200_000, 8: 400_000, 9: 400_000, 10: 200_000}
    assert {fid: p.n_optima for fid, p in SUITE.items()} == counts
    assert {fid: p.budget for fid, p in SUITE.items()} == budgets


def test_two_points_within_one_radius_count_once():
    problem = SUITE[4]
    close = (3.0 + 1e-4, 2.0)
    assert abs(problem.value(close)[0] - problem.optimum) <= ACCURACY
    assert count_found(problem, [(3.0, 2.0), close]) == 1
    assert count_found(problem, [(3.0, 2.0), (-2.805118086952745, 3.1313125182505734)]) == 2


def test_inaccurate_seed_blocks_nothing_better():
    problem = SUITE[2]
    # the accurate point is taken first and the worse one within the radius is not a seed
    assert count_found(problem, [(0.1 + 0.004,), (0.1,)]) == 1
    assert count_found(problem, [(0.1 + 0.004,)]) == 0
    assert count_found(problem, np.empty((0, 1))) == 0


def test_check_run_flags_each_fault():
    optima = [(3.0, 2.0), (-2.805118086952745, 3.1313125182505734)]
    fitness = [-200.0, -float(SUITE[4].value(optima[1])[0])]
    phases = {"init": 30_000, "local_opt": 20_000}
    assert check_run(4, 50_000, phases, optima, fitness, 2).ok
    assert check_run(4, 49_999, phases, optima, fitness, 2).reasons == ["budget", "phase-sum"]
    assert check_run(4, 50_000, phases, optima, [-200.0, -199.0], 2).reasons == ["fitness"]
    assert check_run(4, 50_000, phases, [(7.0, 2.0), optima[1]], fitness, 1).reasons[0] == "box"
    assert check_run(4, 50_000, phases, optima, fitness, 1).reasons == ["found"]


def test_known_fault_is_the_camel_scale_only():
    x = [(0.08984201310031807, -0.7126564030207396)]
    suite_min = -float(SUITE[5].value(x)[0])
    phases = {"init": 50_000}
    scaled = check_run(5, 50_000, phases, x, [4.0 * suite_min], 1)
    assert scaled.reasons == ["fitness"] and scaled.known_fault
    assert check_run(5, 50_000, phases, x, [suite_min], 1).ok
    other = check_run(5, 50_000, phases, x, [2.0 * suite_min], 1)
    assert other.reasons == ["fitness"] and not other.known_fault
