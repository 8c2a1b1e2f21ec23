"""Command-line harness: sweeps, output formats, config files, error paths."""

import csv
import json

import pytest

from hillvallea import InjectionMode
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


def test_config_file_round_trip(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(
        "# tiny smoke sweep\n"
        "problems = 2\n"
        "algo = iamu\n"
        "reps = 2\n"
        "seed = 11\n"
        "budget = 400\n"
        "injection = none\n"
        "format = json\n"
        f"out = {tmp_path / 'c.json'}\n"
        "memory_eta = 0.6\n")
    parser = build_parser()
    args = parser.parse_args(["--config", str(cfg_file)])
    config = config_from_args(args)
    assert config.problems == (2,)
    assert config.kind.value == "iamu"
    assert config.reps == 2 and config.seed == 11 and config.budget == 400
    assert config.injection.value == "none"
    assert config.constants.memory_eta == 0.6


def test_cli_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("problems = 2\nreps = 4\nseed = 1\n")
    parser = build_parser()
    args = parser.parse_args(["--config", str(cfg_file), "--reps", "2"])
    config = config_from_args(args)
    assert config.reps == 2 and config.problems == (2,)


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
