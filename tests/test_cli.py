"""Command-line harness: sweeps, aggregates, the output document, error paths."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hillvallea import cli, make_problem
from hillvallea.cli import (RunConfig, config_from_args, build_parser, execute_sweep, main,
                            parse_problem_spec, write_outputs)

RECORD_KEYS = ("problem_id", "kind", "seed", "evaluations_used", "peak_ratio", "n_elites",
               "restarts", "phase_init", "phase_hvc", "phase_lopt", "wall_time_ms",
               "verified", "n_unverified", "stop_budget", "stop_no_improvement",
               "stop_min_std", "stop_ill_conditioned", "stop_population_std",
               "stop_fitness_std", "stop_degenerate")


def _tiny_config(tmp_path, **overrides):
    settings = dict(problems=(2, 3), reps=2, seed=5, budget=600,
                    out=str(tmp_path / "results.json"))
    settings.update(overrides)
    return RunConfig(**settings)


def test_parse_problem_spec():
    assert parse_problem_spec("1-5,10") == (1, 2, 3, 4, 5, 10)
    assert parse_problem_spec("himmelblau,vincent_3d") == (4, 9)
    assert parse_problem_spec("7") == (7,)
    with pytest.raises(ValueError):
        parse_problem_spec("nonexistent_problem")
    with pytest.raises(ValueError):
        parse_problem_spec("")
    assert parse_problem_spec("3-3,equal_maxima") == (3, 2)
    # a range is lo-hi with integers lo <= hi, and no id may repeat; the error names the token
    for spec, token in (("1,5-3", "5-3"), ("1--2", "1--2"), ("-1", "-1"), ("2-", "2-"),
                        ("2,2", "2"), ("1-3,2", "2"), ("equal_maxima,2", "2"),
                        ("2,1-3", "1-3")):
        with pytest.raises(ValueError, match=repr(token)):
            parse_problem_spec(spec)


def test_execute_sweep_counts_and_seeds(tmp_path):
    data = execute_sweep(_tiny_config(tmp_path))
    assert len(data.records) == 4   # 2 problems x 2 reps
    assert len(data.aggregates) == 2
    assert [r["seed"] for r in data.records] == [5, 6, 5, 6]
    for record in data.records:
        assert tuple(record) == RECORD_KEYS  # no trace unless --trace
        assert record["evaluations_used"] <= 600


def test_aggregates_summarise_their_records(tmp_path):
    data = execute_sweep(_tiny_config(tmp_path, problems=(2, 4), budget=1000, seed=3))
    for agg in data.aggregates:
        rows = [r for r in data.records if r["problem_id"] == agg["problem_id"]]
        ratios = [r["peak_ratio"] for r in rows]
        assert agg["runs"] == len(rows) == 2
        assert agg["mean_peak_ratio"] == pytest.approx(np.mean(ratios))
        assert agg["min_peak_ratio"] == min(ratios)
        assert agg["max_peak_ratio"] == max(ratios)
        assert agg["mean_evaluations"] == pytest.approx(
            np.mean([r["evaluations_used"] for r in rows]))
        for phase in ("phase_init", "phase_hvc", "phase_lopt"):
            assert agg["mean_" + phase] == pytest.approx(np.mean([r[phase] for r in rows]))
    # P4 at seed 3 and 4 finds 2 and 3 of its 4 optima
    p4 = data.aggregates[1]
    assert (p4["min_peak_ratio"], p4["mean_peak_ratio"], p4["max_peak_ratio"]) == (
        0.5, 0.625, 0.75)


def test_single_run_aggregate_is_that_run(tmp_path):
    data = execute_sweep(_tiny_config(tmp_path, problems=(4,), reps=1))
    (record,), (agg,) = data.records, data.aggregates
    assert agg["runs"] == 1
    assert agg["mean_peak_ratio"] == agg["min_peak_ratio"] == agg["max_peak_ratio"] == (
        record["peak_ratio"])
    assert agg["mean_evaluations"] == record["evaluations_used"]
    assert agg["mean_phase_lopt"] == record["phase_lopt"]


def _without_wall_times(records) -> list:
    return [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in records]


def test_sweep_writes_one_document(tmp_path, capsys):
    config = _tiny_config(tmp_path, trace=200)
    assert main(["--problems", "2-3", "--reps", "2", "--seed", "5", "--budget", "600",
                 "--trace", "200", "--out", config.out]) == 0
    assert capsys.readouterr().out == f"wrote {config.out}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "results.json"]
    blob = json.loads((tmp_path / "results.json").read_text())
    data = execute_sweep(config)
    assert set(blob) == {"runs", "aggregates"}
    assert _without_wall_times(blob["runs"]) == _without_wall_times(data.records)
    assert blob["aggregates"] == data.aggregates
    for record in blob["runs"]:
        assert tuple(record) == (*RECORD_KEYS, "trace")
        assert [row[0] for row in record["trace"]] == [200, 400, 600]


def test_rerun_reproduces_numeric_fields(tmp_path):
    config = _tiny_config(tmp_path)
    first = execute_sweep(config)
    second = execute_sweep(config)
    assert _without_wall_times(first.records) == _without_wall_times(second.records)


def test_parallel_jobs_do_not_change_results(tmp_path):
    runs = []
    for jobs in (1, 2):
        config = _tiny_config(tmp_path, jobs=jobs, trace=100, out=str(tmp_path / f"{jobs}.json"),
                              inject=True)
        write_outputs(execute_sweep(config), config)
        runs.append(json.loads(Path(config.out).read_text())["runs"])
    serial, parallel = runs
    assert len(serial) == 4
    assert all(len(record["trace"]) > 1 for record in serial)
    assert _without_wall_times(serial) == _without_wall_times(parallel)


def test_pool_has_no_more_workers_than_runs(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records ``max_workers``, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    for jobs, reps in ((8, 3), (2, 3)):
        data = execute_sweep(_tiny_config(tmp_path, problems=(2,), reps=reps, budget=300,
                                          jobs=jobs))
        assert len(data.records) == reps
    assert sizes == [3, 2]


def test_trace_file_spacing(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["--problems", "4", "--reps", "1", "--seed", "0", "--budget", "3000",
               "--trace", "500", "--out", str(out)])
    assert rc == 0
    (record,) = json.loads(out.read_text())["runs"]
    evals = [e for e, _ in record["trace"]]
    assert evals
    assert all(b - a <= 500 for a, b in zip(evals, evals[1:]))


def test_trace_spacing_and_metric(tmp_path):
    out = tmp_path / "t.json"
    assert main(["--problems", "2", "--seed", "13", "--budget", "20000",
                 "--trace", "1000", "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())["runs"]
    evals = [e for e, _ in record["trace"]]
    assert evals == sorted(evals)
    assert all(b - a <= 1000 for a, b in zip(evals, evals[1:]))
    assert record["trace"][-1] == [record["evaluations_used"], record["peak_ratio"]]
    assert record["peak_ratio"] == 1.0


def test_trace_ends_at_each_runs_record(tmp_path):
    # the budget ends inside core search of P4 seeds 3 and 4; the last row
    # still counts the elites that restart's postprocess adds
    out = tmp_path / "s.json"
    assert main(["--problems", "2,4", "--reps", "2", "--seed", "3", "--budget", "1000",
                 "--trace", "250", "--out", str(out)]) == 0
    records = json.loads(out.read_text())["runs"]
    for record in records:
        assert [e for e, _ in record["trace"]] == [250, 500, 750, 1000]
        assert record["trace"][-1] == [record["evaluations_used"], record["peak_ratio"]]
    assert [r["peak_ratio"] for r in records if r["problem_id"] == 4] == [0.5, 0.75]


def test_unknown_problem_exits_nonzero(capsys):
    assert main(["--problems", "99"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_problems_exits_nonzero(capsys):
    assert main([]) == 2
    assert "error" in capsys.readouterr().err


def test_conflicting_budget_flags_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--problems", "2", "--budget", "10",
                           "--budget-multiplier", "2.0"])


def test_budget_multiplier_scales(tmp_path):
    config = _tiny_config(tmp_path, budget=None, budget_multiplier=0.01,
                          problems=(2,), reps=1)
    data = execute_sweep(config)
    assert data.records[0]["evaluations_used"] == 500  # 50000 * 0.01


def test_injection_flag_mapping():
    parser = build_parser()
    args = parser.parse_args(["--problems", "2", "--injection", "global"])
    assert config_from_args(args).inject is True
    args = parser.parse_args(["--problems", "2", "--injection", "none"])
    assert config_from_args(args).inject is False
    # unset flags leave RunConfig's defaults, the only ones
    args = parser.parse_args(["--problems", "2"])
    assert config_from_args(args) == RunConfig(problems=(2,))


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(problems=(1,), reps=0)
    with pytest.raises(ValueError):
        RunConfig(problems=(1,), budget=5, budget_multiplier=2.0)
    nan, inf = float("nan"), float("inf")
    for bad in ({"budget": 0}, {"budget": -5}, {"epsilon": 0.0}, {"epsilon": nan},
                {"trace": -5}, {"budget_multiplier": 0.0},
                {"budget_multiplier": nan}, {"budget_multiplier": inf},
                {"budget_multiplier": 1e-9}, {"jobs": 0}, {"jobs": -1}, {"seed": -1},
                {"out": str(tmp_path / "missing" / "r.json")}):
        with pytest.raises(ValueError):
            RunConfig(problems=(1,), **bad)
    # P2's budget of 50,000 rounds to 0 under this multiplier; P6's 200,000 does not
    with pytest.raises(ValueError):
        RunConfig(problems=(6, 2), budget_multiplier=5e-6)
    assert RunConfig(problems=(6,), budget_multiplier=5e-6).budget_for(make_problem(6)) == 1
    assert RunConfig(problems=(6,), budget=7).budget_for(make_problem(6)) == 7
    assert RunConfig(problems=(6,)).budget_for(make_problem(6)) == make_problem(6).budget
    assert RunConfig(problems=(1,), trace=0).trace == 0  # 0: no trace
    # the output's directory must exist, and the output must not be a directory
    (tmp_path / "file").write_text("")
    for bad_out in (tmp_path / "file" / "r.json", tmp_path, ""):
        with pytest.raises(ValueError):
            RunConfig(problems=(1,), out=str(bad_out))
    RunConfig(problems=(1,), out=str(tmp_path / "r.json"))
    with pytest.raises(ValueError):
        RunConfig(problems=(2, 2))


@pytest.mark.parametrize("bad", [{"budget": 600.0}, {"budget": True}, {"reps": 1.5},
                                 {"reps": None}, {"jobs": 2.5}, {"trace": 2.5},
                                 {"seed": True}, {"problems": (42,)}, {"problems": (12,)}])
def test_run_config_rejects_non_integer_counts_and_unknown_problems(bad):
    # each of these would otherwise fail only inside a run, or in a worker under --jobs
    with pytest.raises(ValueError):
        RunConfig(**{"problems": (2,), **bad})


@pytest.mark.parametrize("bad", [{"kind": "amu"}, {"inject": "no"}, {"inject": 1},
                                 {"epsilon": True}, {"epsilon": "0.1"}, {"epsilon": math.inf},
                                 {"budget_multiplier": True}, {"budget_multiplier": "2"}])
def test_run_config_rejects_mistyped_settings(bad):
    # each would otherwise fail inside every run, or run with settings other than those given
    with pytest.raises(ValueError):
        RunConfig(**{"problems": (2,), **bad})


@pytest.mark.parametrize("flags", [["--budget", "-5"], ["--budget", "0"],
                                   ["--epsilon", "0"], ["--trace", "-5"],
                                   ["--budget-multiplier", "1e-9"],
                                   ["--budget-multiplier", "nan"],
                                   ["--budget-multiplier", "inf"],
                                   ["--epsilon", "nan"], ["--reps", "0"],
                                   ["--out", "missing/r.json"],
                                   ["--jobs", "0"], ["--seed", "-1"],
                                   ["--problems", "1,5-3"], ["--problems", "1--2"],
                                   ["--problems", "-1"], ["--problems", "2-"],
                                   ["--problems", "2,2"], ["--problems", "1-3,2"],
                                   ["--problems", "equal_maxima,2"], ["--epsilon", "inf"]])
def test_invalid_values_exit_with_usage_error(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --out resolves in tmp_path
    assert main(["--problems", "2", "--out", str(tmp_path / "r.json"), *flags]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "r.json").exists()
    assert list(tmp_path.iterdir()) == []


# options and option values the parser does not know
@pytest.mark.parametrize("flags", [["--injection", "all"], ["--tol", "1e-5"],
                                   ["--format", "csv"]])
def test_unknown_options_exit_with_usage_error_before_any_run(flags, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["--problems", "2", "--out", str(tmp_path / "r.json"), *flags])
    assert exit_info.value.code == 2
    assert not (tmp_path / "r.json").exists()
