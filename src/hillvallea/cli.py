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
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core_search import STOP_REASONS, SearcherKind
from .evaluation import peak_ratio
from .optimizer import ElitistArchive, InjectionMode, OptimizerConfig, run_hillvallea
from .problems import BenchmarkProblem, EvaluationCounter, make_problem, problem_names

_STOP_FIELDS = {reason: "stop_" + reason.replace("-", "_") for reason in STOP_REASONS}
RECORD_FIELDS = ("problem_id", "kind", "seed", "evaluations_used", "peak_ratio",
                 "n_elites", "restarts", "phase_init", "phase_hvc", "phase_lopt",
                 "wall_time_ms", "verified", "n_unverified", "side_size", "side_unverified",
                 *_STOP_FIELDS.values())
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

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        if (self.trace or 0) < 0:
            raise ValueError("trace spacing must be >= 0")
        if self.budget is not None and self.budget_multiplier is not None:
            raise ValueError("give either a budget override or a multiplier, not both")
        if self.budget_multiplier is not None:
            if not 0 < self.budget_multiplier < math.inf:
                raise ValueError("budget multiplier must be positive and finite")
            if any(self.budget_for(make_problem(pid)) == 0 for pid in self.problems):
                raise ValueError("budget multiplier rounds a problem's budget to 0")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.format!r}")

    def budget_for(self, problem: BenchmarkProblem) -> Optional[int]:
        """The budget override of one run on ``problem`` (None: its own budget)."""
        if self.budget_multiplier is None:
            return self.budget
        return int(round(problem.budget * self.budget_multiplier))


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


class _PeakRatioTrace:
    """Run observer: a (k·every, peak ratio) row once k·every evaluations are used."""

    def __init__(self, every: int, problem: BenchmarkProblem, epsilon: float):
        self.every, self.problem, self.epsilon = every, problem, epsilon
        self.rows: list = []

    def __call__(self, counter: EvaluationCounter, archive: ElitistArchive) -> None:
        first, last = len(self.rows) + 1, counter.used // self.every
        if last >= first:
            ratio = peak_ratio(list(archive), self.problem, self.epsilon).ratio
            self.rows += [(k * self.every, ratio) for k in range(first, last + 1)]


def _execute_task(sweep: RunConfig, problem_id: int, seed: int):
    """Run one repetition; returns its record and its trace rows."""
    problem = make_problem(problem_id)
    config = OptimizerConfig(tol=sweep.tol, injection=sweep.injection,
                             budget=sweep.budget_for(problem))
    trace = _PeakRatioTrace(sweep.trace, problem, sweep.epsilon) if sweep.trace else None
    start = time.perf_counter()
    result = run_hillvallea(problem, sweep.kind, config, seed=seed, observe=trace)
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
        "side_size": len(result.side_archive),
        "side_unverified": result.side_unverified,
    }
    for reason, name in _STOP_FIELDS.items():
        record[name] = result.stop_reasons.get(reason, 0)
    rows = []
    if trace is not None:
        # the last row is the run's own result; it replaces a milestone at that count
        rows = [row for row in trace.rows if row[0] != result.evaluations_used]
        rows.append((result.evaluations_used, report.ratio))
    trace_rows = [
        {"problem_id": problem_id, "kind": sweep.kind.value, "seed": seed,
         "evaluations": evals, "peak_ratio": value}
        for evals, value in rows
    ]
    return record, trace_rows


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
        # no more workers than runs: under fork, every worker starts at the first submit
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(pids))) as pool:
            outcomes = list(pool.map(_execute_task, configs, pids, seeds))
    else:
        outcomes = list(map(_execute_task, configs, pids, seeds))

    data = SweepData()
    for record, trace_rows in outcomes:
        data.records.append(record)
        data.traces.extend(trace_rows)
    for pid in config.problems:
        rows = [r for r in data.records if r["problem_id"] == pid]
        ratios = [r["peak_ratio"] for r in rows]
        data.aggregates.append({
            "problem_id": pid,
            "kind": config.kind.value,
            "runs": len(rows),
            "mean_peak_ratio": float(np.mean(ratios)),
            "min_peak_ratio": min(ratios),
            "max_peak_ratio": max(ratios),
            **{"mean_" + key.removesuffix("_used"): float(np.mean([r[key] for r in rows]))
               for key in ("evaluations_used", "phase_init", "phase_hvc", "phase_lopt")},
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
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.problems is None:
        raise ValueError("no problems given (use --problems)")
    settings = {key: getattr(args, key)
                for key in ("reps", "seed", "budget", "budget_multiplier", "tol",
                            "epsilon", "trace", "out", "format", "jobs")
                if getattr(args, key) is not None}
    return RunConfig(problems=parse_problem_spec(args.problems),
                     kind=SearcherKind(args.algo or "amu"),
                     injection=_INJECTION_FLAGS[args.injection or "global"], **settings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_sweep(config)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
