"""Command-line harness: repetition sweeps over problems, with JSON/CSV output.

Each run record carries the peak ratio, archive size, restart count,
per-phase budget fractions, whether the archive was verified and why its core
searchers stopped; per-problem aggregates and optional convergence traces are
written alongside.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .core_search import DEFAULT_CONSTANTS, STOP_REASONS, SearcherConstants, SearcherKind
from .evaluation import aggregate, peak_ratio
from .optimizer import InjectionMode, OptimizerConfig, run_hillvallea
from .problems import make_problem, problem_names

_STOP_FIELDS = {reason: "stop_" + reason.replace("-", "_") for reason in STOP_REASONS}
RECORD_FIELDS = ("problem_id", "kind", "seed", "evaluations_used", "peak_ratio",
                 "n_elites", "restarts", "phase_init", "phase_hvc", "phase_lopt",
                 "wall_time_ms", "verified", "n_unverified", *_STOP_FIELDS.values())
AGGREGATE_FIELDS = ("problem_id", "kind", "runs", "mean_peak_ratio",
                    "min_peak_ratio", "max_peak_ratio", "mean_evaluations",
                    "mean_phase_init", "mean_phase_hvc", "mean_phase_lopt")
TRACE_FIELDS = ("problem_id", "kind", "seed", "evaluations", "peak_ratio")

_INJECTION_FLAGS = {"all": InjectionMode.ALL_OPTIMA,
                    "global": InjectionMode.ONLY_GLOBAL,
                    "none": InjectionMode.NONE}


@dataclass(frozen=True)
class RunConfig:
    """One sweep: problems x repetitions for a single searcher kind."""

    problems: tuple
    kind: SearcherKind = SearcherKind.AMU
    reps: int = 1
    seed: int = 0
    budget: Optional[int] = None
    budget_multiplier: Optional[float] = None
    tol: float = 1e-5
    epsilon: float = 1e-5
    injection: InjectionMode = InjectionMode.ONLY_GLOBAL
    trace: Optional[int] = None
    out: str = "results.json"
    format: str = "json"
    jobs: int = 1
    constants: SearcherConstants = DEFAULT_CONSTANTS

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.budget_multiplier is not None and self.budget_multiplier <= 0:
            raise ValueError("budget multiplier must be positive")
        if self.budget is not None and self.budget_multiplier is not None:
            raise ValueError("give either a budget override or a multiplier, not both")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.format!r}")


def parse_problem_spec(spec: str) -> tuple:
    """Parse '1-5,10' or comma-separated problem names into a tuple of ids."""
    names = problem_names()
    ids = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token and not token.lstrip("-").isalpha():
            lo, _, hi = token.partition("-")
            ids.extend(range(int(lo), int(hi) + 1))
        elif token.lstrip("+-").isdigit():
            ids.append(int(token))
        elif token in names:
            ids.append(names[token])
        else:
            raise ValueError(f"unknown problem {token!r}")
    if not ids:
        raise ValueError("no problems selected")
    for pid in ids:
        make_problem(pid)  # rejects unknown and unsupported ids up front
    return tuple(ids)


def _execute_task(sweep: RunConfig, problem_id: int, seed: int):
    """Run one repetition; returns (record, trace rows, run result, report)."""
    problem = make_problem(problem_id)
    budget = sweep.budget
    if budget is None and sweep.budget_multiplier is not None:
        budget = int(round(problem.budget * sweep.budget_multiplier))
    config = OptimizerConfig(tol=sweep.tol, injection=sweep.injection, budget=budget,
                             trace_every=sweep.trace, constants=sweep.constants)
    metric = None
    if sweep.trace:
        metric = lambda archive: peak_ratio(
            list(archive), problem, sweep.epsilon).ratio
    start = time.perf_counter()
    result = run_hillvallea(problem, sweep.kind, config, seed=seed,
                            trace_metric=metric)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    report = peak_ratio(list(result.archive), problem, sweep.epsilon)
    fractions = result.phase_fractions
    record = {
        "problem_id": problem_id,
        "kind": sweep.kind.value,
        "seed": seed,
        "evaluations_used": result.evaluations_used,
        "peak_ratio": report.ratio,
        "n_elites": len(result.archive),
        "restarts": result.restarts,
        "phase_init": fractions.get("init", 0.0),
        "phase_hvc": fractions.get("clustering", 0.0),
        "phase_lopt": fractions.get("local_opt", 0.0),
        "wall_time_ms": elapsed_ms,
        "verified": result.archive.verified,
        "n_unverified": result.archive.n_unverified,
    }
    for reason, name in _STOP_FIELDS.items():
        record[name] = result.stop_reasons.get(reason, 0)
    trace_rows = [
        {"problem_id": problem_id, "kind": sweep.kind.value, "seed": seed,
         "evaluations": evals, "peak_ratio": value}
        for evals, value in result.trace
    ]
    return record, trace_rows, result, report


@dataclass
class SweepData:
    records: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def execute_sweep(config: RunConfig) -> SweepData:
    """Run all (problem, repetition) pairs of a sweep; seeds are seed + rep."""
    pids = [pid for pid in config.problems for _ in range(config.reps)]
    seeds = [config.seed + rep for _ in config.problems for rep in range(config.reps)]
    configs = [config] * len(pids)
    if config.jobs > 1 and len(pids) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(_execute_task, configs, pids, seeds))
    else:
        outcomes = list(map(_execute_task, configs, pids, seeds))

    data = SweepData()
    by_problem: dict = {}
    for record, trace_rows, result, report in outcomes:
        data.records.append(record)
        data.traces.extend(trace_rows)
        by_problem.setdefault(record["problem_id"], []).append((result, report))
    for pid in config.problems:
        summary = aggregate(by_problem[pid])
        data.aggregates.append({
            "problem_id": pid,
            "kind": config.kind.value,
            "runs": summary.runs,
            "mean_peak_ratio": summary.mean_ratio,
            "min_peak_ratio": summary.min_ratio,
            "max_peak_ratio": summary.max_ratio,
            "mean_evaluations": summary.mean_evaluations,
            "mean_phase_init": summary.mean_phase_fractions.get("init", 0.0),
            "mean_phase_hvc": summary.mean_phase_fractions.get("clustering", 0.0),
            "mean_phase_lopt": summary.mean_phase_fractions.get("local_opt", 0.0),
        })
    return data


def _write_csv(path: Path, rows: Sequence[dict], columns: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


def write_outputs(data: SweepData, config: RunConfig) -> list:
    """Persist records (and aggregates/traces); returns the files written."""
    out = Path(config.out)
    written = [out]
    if config.format == "json":
        with open(out, "w") as fh:
            json.dump({"runs": data.records, "aggregates": data.aggregates}, fh,
                      indent=1)
            fh.write("\n")
    else:
        _write_csv(out, data.records, RECORD_FIELDS)
        agg_path = out.with_suffix("").with_name(out.stem + ".aggregates.csv")
        _write_csv(agg_path, data.aggregates, AGGREGATE_FIELDS)
        written.append(agg_path)
    if config.trace:
        trace_path = out.with_suffix("").with_name(out.stem + ".traces.csv")
        _write_csv(trace_path, data.traces, TRACE_FIELDS)
        written.append(trace_path)
    return written


def run_sweep(config: RunConfig) -> int:
    """Execute a sweep and write its outputs; returns the process exit status."""
    data = execute_sweep(config)
    files = write_outputs(data, config)
    for f in files:
        print(f"wrote {f}")
    return 0


# --- flag and config-file handling -----------------------------------------

_CONSTANT_KEYS = {f.name for f in fields(SearcherConstants)}
_INT_KEYS = {"reps", "seed", "budget", "trace", "jobs"}
_FLOAT_KEYS = {"budget_multiplier", "tol", "epsilon"}


def load_config_file(path) -> dict:
    """Read a key=value file mirroring the CLI flags plus searcher constants."""
    overrides: dict = {}
    constants: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in _CONSTANT_KEYS:
            constants[key] = None if value.lower() == "none" else (
                int(value) if key == "stagnation_patience" else float(value))
        elif key in _INT_KEYS:
            overrides[key] = int(value)
        elif key in _FLOAT_KEYS:
            overrides[key] = float(value)
        elif key in ("problems", "algo", "injection", "out", "format"):
            overrides[key] = value
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if constants:
        overrides["constants"] = constants
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hillvallea",
        description="Multi-modal optimization benchmark sweeps")
    parser.add_argument("--problems", help="ids, ranges or names, e.g. 1-5,10")
    parser.add_argument("--algo", choices=[k.value for k in SearcherKind],
                        help="core search algorithm (default amu)")
    parser.add_argument("--reps", type=int, help="repetitions per problem")
    parser.add_argument("--seed", type=int, help="base seed; run r uses seed+r")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--budget", type=int, help="override the benchmark budget")
    group.add_argument("--budget-multiplier", type=float,
                       help="scale the benchmark budget")
    parser.add_argument("--tol", type=float, help="optimum fitness tolerance")
    parser.add_argument("--epsilon", type=float, help="peak-ratio accuracy")
    parser.add_argument("--injection", choices=sorted(_INJECTION_FLAGS),
                        help="optima injected on restarts (default global)")
    parser.add_argument("--trace", type=int, metavar="N",
                        help="trace peak ratio every N evaluations")
    parser.add_argument("--out", help="output path (default results.json)")
    parser.add_argument("--format", choices=["json", "csv"], help="output format")
    parser.add_argument("--jobs", type=int, help="parallel repetitions")
    parser.add_argument("--config", help="key=value file mirroring the flags")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    if args.config:
        settings.update(load_config_file(args.config))
    for key in ("problems", "reps", "seed", "budget", "budget_multiplier", "tol",
                "epsilon", "trace", "out", "format", "jobs"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if args.algo:
        settings["algo"] = args.algo
    if args.injection:
        settings["injection"] = args.injection

    if "problems" not in settings:
        raise ValueError("no problems given (use --problems or a config file)")
    constants = settings.pop("constants", None)
    kwargs = {
        "problems": parse_problem_spec(str(settings.pop("problems"))),
        "kind": SearcherKind(settings.pop("algo", "amu")),
        "injection": _INJECTION_FLAGS[settings.pop("injection", "global")],
    }
    if constants:
        kwargs["constants"] = replace(DEFAULT_CONSTANTS, **constants)
    kwargs.update(settings)
    return RunConfig(**kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_sweep(config)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
