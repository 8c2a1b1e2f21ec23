"""Command-line harness: repetition sweeps over problems, written as one JSON document.

The document is ``{"runs": [...], "aggregates": [...]}``. Each run record
carries the peak ratio, archive size, restart count, per-phase budget
fractions, whether the archive was verified and why its core searchers
stopped; with ``--trace N`` it also carries its convergence trace. Each
aggregate summarises one problem's runs.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core_search import STOP_REASONS, SearcherKind
from .evaluation import peak_ratio
from .optimizer import ElitistArchive, run_hillvallea
from .problems import BenchmarkProblem, EvaluationCounter, make_problem, problem_names

_STOP_FIELDS = {reason: "stop_" + reason.replace("-", "_") for reason in STOP_REASONS}


@dataclass(frozen=True)
class RunConfig:
    """One sweep: problems x repetitions for a single searcher kind."""

    problems: tuple
    kind: SearcherKind = SearcherKind.AMU
    reps: int = 1
    seed: int = 0
    budget: Optional[int] = None
    budget_multiplier: Optional[float] = None
    inject: bool = True
    trace: Optional[int] = None
    out: str = "results.json"
    jobs: int = 1

    def __post_init__(self):
        for name in ("reps", "seed", "jobs", "budget", "trace"):
            value = getattr(self, name)
            if type(value) is not int and not (value is None and name in ("budget", "trace")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        value = self.budget_multiplier
        if value is not None and (type(value) is bool or not isinstance(value, numbers.Real)):
            raise ValueError(f"budget_multiplier must be a real number, got {value!r}")
        if not isinstance(self.kind, SearcherKind):
            raise ValueError(f"kind must be a SearcherKind, got {self.kind!r}")
        if type(self.inject) is not bool:
            raise ValueError(f"inject must be a bool, got {self.inject!r}")
        if not self.problems:
            raise ValueError("no problems selected")
        if len(set(self.problems)) < len(self.problems):
            raise ValueError(f"problem ids must be distinct, got {self.problems}")
        problems = [make_problem(pid) for pid in self.problems]  # rejects unknown ids
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")
        if (self.trace or 0) < 0:
            raise ValueError("trace spacing must be >= 0")
        if self.budget is not None and self.budget_multiplier is not None:
            raise ValueError("give either a budget override or a multiplier, not both")
        if self.budget_multiplier is not None:
            if not 0 < self.budget_multiplier < math.inf:
                raise ValueError("budget multiplier must be positive and finite")
            if any(self.budget_for(problem) == 0 for problem in problems):
                raise ValueError("budget multiplier rounds a problem's budget to 0")
        if Path(self.out).is_dir() or not Path(self.out).parent.is_dir():
            raise ValueError(f"output path {self.out!r} is not a file in an existing directory")

    def budget_for(self, problem: BenchmarkProblem) -> int:
        """The budget of one run on ``problem``."""
        if self.budget_multiplier is not None:
            return int(round(problem.budget * self.budget_multiplier))
        return problem.budget if self.budget is None else self.budget


def parse_problem_spec(spec: str) -> tuple:
    """Parse '1-5,10' or problem names into distinct ids; a range is lo-hi with lo <= hi."""
    names = problem_names()
    ids = []
    for token in filter(None, map(str.strip, spec.split(","))):
        lo, dash, hi = token.partition("-")
        if token in names:
            new = [names[token]]
        elif token.removeprefix("+").isdecimal():
            new = [int(token)]
        elif dash and lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi):
            new = range(int(lo), int(hi) + 1)
        else:
            raise ValueError(f"unknown problem or invalid range {token!r}")
        for pid in new:
            if pid in ids:
                raise ValueError(f"problem {pid} repeated by {token!r}")
            ids.append(pid)
    if not ids:
        raise ValueError("no problems selected")
    return tuple(ids)


class _PeakRatioTrace:
    """Run observer: a (k·every, peak ratio) row once k·every evaluations are used."""

    def __init__(self, every: int, problem: BenchmarkProblem):
        self.every, self.problem = every, problem
        self.rows: list = []

    def __call__(self, counter: EvaluationCounter, archive: ElitistArchive) -> None:
        first, last = len(self.rows) + 1, counter.used // self.every
        if last >= first:
            ratio = peak_ratio(list(archive), self.problem).ratio
            self.rows += [[k * self.every, ratio] for k in range(first, last + 1)]


def _execute_task(sweep: RunConfig, problem_id: int, seed: int):
    """Run one repetition; returns its record, with its trace rows under ``trace``
    when the sweep traces."""
    problem = make_problem(problem_id)
    problem = replace(problem, budget=sweep.budget_for(problem))
    trace = _PeakRatioTrace(sweep.trace, problem) if sweep.trace else None
    start = time.perf_counter()
    result = run_hillvallea(problem, sweep.kind, seed, inject=sweep.inject, observe=trace)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    report = peak_ratio(list(result.archive), problem)
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
    if trace is not None:
        # the last row is the run's own result; it replaces a milestone at that count
        record["trace"] = [row for row in trace.rows if row[0] != result.evaluations_used]
        record["trace"].append([result.evaluations_used, report.ratio])
    return record


def execute_sweep(config: RunConfig) -> dict:
    """Run all (problem, repetition) pairs of a sweep, seeds seed + rep; returns the
    sweep's document, its run records and per-problem aggregates."""
    pids = [pid for pid in config.problems for _ in range(config.reps)]
    seeds = [config.seed + rep for _ in config.problems for rep in range(config.reps)]
    configs = [config] * len(pids)
    if config.jobs > 1 and len(pids) > 1:
        # no more workers than runs: under fork, every worker starts at the first submit
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(pids))) as pool:
            records = list(pool.map(_execute_task, configs, pids, seeds))
    else:
        records = list(map(_execute_task, configs, pids, seeds))

    aggregates = []
    for pid in config.problems:
        rows = [r for r in records if r["problem_id"] == pid]
        ratios = [r["peak_ratio"] for r in rows]
        aggregates.append({
            "problem_id": pid,
            "kind": config.kind.value,
            "runs": len(rows),
            "mean_peak_ratio": float(np.mean(ratios)),
            "min_peak_ratio": min(ratios),
            "max_peak_ratio": max(ratios),
            **{"mean_" + key.removesuffix("_used"): float(np.mean([r[key] for r in rows]))
               for key in ("evaluations_used", "phase_init", "phase_hvc", "phase_lopt")},
        })
    return {"runs": records, "aggregates": aggregates}


def write_outputs(document: dict, config: RunConfig) -> Path:
    """Write a sweep's document as JSON to ``config.out``; returns its path."""
    out = Path(config.out)
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    return out


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
    parser.add_argument("--injection", choices=["global", "none"],
                        help="optima injected on restarts (default global)")
    parser.add_argument("--trace", type=int, metavar="N",
                        help="trace peak ratio every N evaluations")
    parser.add_argument("--out", help="output path (default results.json)")
    parser.add_argument("--jobs", type=int, help="parallel repetitions")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.problems is None:
        raise ValueError("no problems given (use --problems)")
    settings = {key: getattr(args, key)
                for key in ("reps", "seed", "budget", "budget_multiplier", "trace", "out",
                            "jobs")
                if getattr(args, key) is not None}
    if args.algo is not None:
        settings["kind"] = SearcherKind(args.algo)
    if args.injection is not None:
        settings["inject"] = args.injection == "global"
    return RunConfig(problems=parse_problem_spec(args.problems), **settings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"wrote {write_outputs(execute_sweep(config), config)}")
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
