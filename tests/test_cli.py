"""Command-line harness: sweeps, aggregates, output formats, error paths."""

import csv
import json

import numpy as np
import pytest

from hillvallea import InjectionMode, cli, make_problem
from hillvallea.cli import (RECORD_FIELDS, RunConfig, config_from_args,
                            build_parser, execute_sweep, main,
                            parse_problem_spec, write_outputs)


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


def test_execute_sweep_counts_and_seeds(tmp_path):
    data = execute_sweep(_tiny_config(tmp_path))
    assert len(data.records) == 4   # 2 problems x 2 reps
    assert len(data.aggregates) == 2
    assert [r["seed"] for r in data.records] == [5, 6, 5, 6]
    for record in data.records:
        assert tuple(record) == RECORD_FIELDS
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


def test_json_and_csv_outputs_match(tmp_path):
    cfg_json = _tiny_config(tmp_path, out=str(tmp_path / "r.json"), format="json")
    cfg_csv = _tiny_config(tmp_path, out=str(tmp_path / "r.csv"), format="csv")
    rc = main(["--problems", "2-3", "--reps", "2", "--seed", "5", "--budget", "600",
               "--out", cfg_json.out, "--format", "json"])
    assert rc == 0
    rc = main(["--problems", "2-3", "--reps", "2", "--seed", "5", "--budget", "600",
               "--out", cfg_csv.out, "--format", "csv"])
    assert rc == 0

    with open(cfg_json.out) as fh:
        blob = json.load(fh)
    with open(cfg_csv.out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(blob["runs"]) == len(rows) == 4
    for jrec, crow in zip(blob["runs"], rows):
        for field in RECORD_FIELDS:
            if field == "wall_time_ms":
                continue
            assert str(jrec[field]) == crow[field], field
    agg_rows = list(csv.DictReader(open(tmp_path / "r.aggregates.csv")))
    assert len(blob["aggregates"]) == len(agg_rows) == 2
    for jagg, cagg in zip(blob["aggregates"], agg_rows):
        for key, value in jagg.items():
            assert str(value) == cagg[key], key


def test_rerun_reproduces_numeric_fields(tmp_path):
    config = _tiny_config(tmp_path)
    first = execute_sweep(config)
    second = execute_sweep(config)
    for a, b in zip(first.records, second.records):
        for field in RECORD_FIELDS:
            if field != "wall_time_ms":
                assert a[field] == b[field]


def test_parallel_jobs_do_not_change_results(tmp_path):
    runs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.csv"
        config = _tiny_config(tmp_path, jobs=jobs, trace=100, format="csv", out=str(out),
                              injection=InjectionMode.ALL_OPTIMA)
        data = execute_sweep(config)
        write_outputs(data, config)
        traces = (tmp_path / f"jobs{jobs}.traces.csv").read_text()
        runs.append((data.records, traces))
    (serial, serial_traces), (parallel, parallel_traces) = runs
    assert serial_traces == parallel_traces
    assert len(serial_traces.splitlines()) > 1
    assert any(record["side_size"] for record in serial)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        for field in RECORD_FIELDS:
            if field != "wall_time_ms":
                assert a[field] == b[field]


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
    rows = list(csv.DictReader(open(tmp_path / "t.traces.csv")))
    assert rows
    evals = [int(r["evaluations"]) for r in rows]
    assert all(b - a <= 500 for a, b in zip(evals, evals[1:]))
    assert {r["problem_id"] for r in rows} == {"4"}


def test_trace_spacing_and_metric(tmp_path):
    out = tmp_path / "t.json"
    assert main(["--problems", "2", "--seed", "13", "--budget", "20000",
                 "--trace", "1000", "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())["runs"]
    rows = list(csv.DictReader(open(tmp_path / "t.traces.csv")))
    evals = [int(r["evaluations"]) for r in rows]
    assert evals == sorted(evals)
    assert all(b - a <= 1000 for a, b in zip(evals, evals[1:]))
    assert evals[-1] == record["evaluations_used"]
    assert float(rows[-1]["peak_ratio"]) == record["peak_ratio"] == 1.0


def test_trace_ends_at_each_runs_record(tmp_path):
    # the budget ends inside core search of P4 seeds 3 and 4; the last row
    # still counts the elites that restart's postprocess adds
    out = tmp_path / "s.json"
    assert main(["--problems", "2,4", "--reps", "2", "--seed", "3", "--budget", "1000",
                 "--trace", "250", "--injection", "all", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "s.traces.csv")))
    records = json.loads(out.read_text())["runs"]
    for record in records:
        run = [r for r in rows
               if (int(r["problem_id"]), int(r["seed"])) == (record["problem_id"],
                                                              record["seed"])]
        assert [int(r["evaluations"]) for r in run] == [250, 500, 750, 1000]
        assert (int(run[-1]["evaluations"]), float(run[-1]["peak_ratio"])) == (
            record["evaluations_used"], record["peak_ratio"])
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


def test_injection_flag_mapping(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["--problems", "2", "--injection", "all"])
    assert config_from_args(args).injection.value == "all_optima"
    args = parser.parse_args(["--problems", "2", "--injection", "none"])
    assert config_from_args(args).injection.value == "none"


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(problems=(1,), reps=0)
    with pytest.raises(ValueError):
        RunConfig(problems=(1,), budget=5, budget_multiplier=2.0)
    with pytest.raises(ValueError):
        RunConfig(problems=(1,), format="yaml")
    nan, inf = float("nan"), float("inf")
    for bad in ({"budget": 0}, {"budget": -5}, {"epsilon": 0.0}, {"epsilon": nan},
                {"trace": -5}, {"tol": -1.0}, {"tol": nan}, {"budget_multiplier": 0.0},
                {"budget_multiplier": nan}, {"budget_multiplier": inf},
                {"budget_multiplier": 1e-9}, {"jobs": 0}, {"jobs": -1}, {"seed": -1}):
        with pytest.raises(ValueError):
            RunConfig(problems=(1,), **bad)
    # P2's budget of 50,000 rounds to 0 under this multiplier; P6's 200,000 does not
    with pytest.raises(ValueError):
        RunConfig(problems=(6, 2), budget_multiplier=5e-6)
    assert RunConfig(problems=(6,), budget_multiplier=5e-6).budget_for(make_problem(6)) == 1
    assert RunConfig(problems=(1,), trace=0).trace == 0  # 0: no trace
    assert RunConfig(problems=(1,), tol=0.0).tol == 0.0


@pytest.mark.parametrize("flags", [["--budget", "-5"], ["--budget", "0"],
                                   ["--epsilon", "0"], ["--trace", "-5"],
                                   ["--budget-multiplier", "1e-9"],
                                   ["--budget-multiplier", "nan"],
                                   ["--budget-multiplier", "inf"],
                                   ["--epsilon", "nan"], ["--tol", "-1"], ["--tol", "nan"],
                                   ["--jobs", "0"], ["--seed", "-1"]])
def test_invalid_values_exit_with_usage_error(flags, tmp_path, capsys):
    assert main(["--problems", "2", "--out", str(tmp_path / "r.json"), *flags]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "r.json").exists()
