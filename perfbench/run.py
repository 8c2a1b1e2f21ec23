"""Benchmark of hillvallea on the niching suite, with independently checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload local-opt --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the workload until ``--seconds`` have passed,
checks every optimizer run's output with the independent checker in
``suite.py`` and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Optimizer seeds are fixed, so every round does the same work and finds the
same optima; ``--seed`` only orders the runs within each round of the library
workloads. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from suite import ACCURACY, SUITE, check_run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Library workloads: (problem id, searcher kind, optimizer seed) per run.
LIBRARY = {
    "local-opt": ((6, "amu", 0), (6, "cmsa", 0), (8, "amu", 0), (8, "cmsa", 0)),
    "many-niches": ((9, "amu", 0), (9, "cmsa", 0), (7, "amu", 0), (7, "cmsa", 0)),
}
#: The sampling-sweep workload: one CLI sweep, runs seeded 0..SWEEP_REPS-1.
SWEEP_PROBLEMS = (1, 2, 3, 4, 5, 10)
SWEEP_REPS = 2
SWEEP_ARGV = ("--problems", "1-5,10", "--algo", "amu", "--reps", str(SWEEP_REPS),
              "--seed", "0", "--jobs", "2")
#: Record fields a library re-run of the same (problem, seed) must reproduce.
SWEEP_FIELDS = ("evaluations_used", "peak_ratio", "n_elites", "restarts",
                "phase_init", "phase_hvc", "phase_lopt")
WORKLOADS = (*LIBRARY, "sampling-sweep")

SETUP_REPEATS = 5
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hillvallea
problems = [hillvallea.make_problem(int(p)) for p in sys.argv[2].split(",")]
print(time.perf_counter() - t0)
"""


def import_package():
    """Import hillvallea from this checkout's ``src``, and from nowhere else."""
    if not (SRC / "hillvallea" / "__init__.py").is_file():
        sys.exit(f"error: no hillvallea package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hillvallea
    if Path(hillvallea.__file__).resolve().parent != (SRC / "hillvallea").resolve():
        sys.exit(f"error: imported hillvallea from {hillvallea.__file__}, not {SRC}")
    return hillvallea


def workload_problems(workload: str) -> tuple:
    if workload in LIBRARY:
        return tuple(dict.fromkeys(pid for pid, _, _ in LIBRARY[workload]))
    return SWEEP_PROBLEMS


def measure_setup(pids) -> float:
    """Median time to import hillvallea and build ``pids`` in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), ",".join(map(str, pids))],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT)
        times.append(float(done.stdout))
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak resident memory of this process and of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Tally:
    """Runs attempted and failed; failures other than the known fault."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []

    def add(self, label: str, reasons: list, known_fault: bool) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(f"{label}: {','.join(reasons)}")


# --- library workloads --------------------------------------------------------

def library_round(hv, problems: dict, runs: tuple, order) -> tuple:
    """Run one round; returns (wall seconds, [(run, result, report)])."""
    wall = 0.0
    outcomes = []
    for i in order:
        pid, kind, seed = runs[i]
        problem = problems[pid]
        t0 = perf_counter()
        result = hv.run_hillvallea(problem, hv.SearcherKind(kind), seed=seed)
        report = hv.peak_ratio(list(result.archive), problem, ACCURACY)
        wall += perf_counter() - t0
        outcomes.append((runs[i], result, report))
    return wall, outcomes


def check_result(pid: int, result, report):
    return check_run(pid, result.evaluations_used, result.phase_used,
                     [s.position for s in result.archive],
                     [s.fitness for s in result.archive], report.found)


def check_library(rounds: list, tally: Tally) -> tuple:
    """Check every run of every round; returns (found per round, run lines)."""
    found = []
    lines = []
    for index, outcomes in enumerate(rounds):
        total = 0
        for (pid, kind, seed), result, report in outcomes:
            check = check_result(pid, result, report)
            label = f"P{pid} {kind} seed {seed}"
            tally.add(label, check.reasons, check.known_fault)
            total += report.found
            if index == 0:
                lines.append(f"{label}: found {report.found}/{SUITE[pid].n_optima}, "
                             f"n_elites {len(result.archive)}, "
                             f"verified {result.archive.verified}, "
                             f"failed checks {check.reasons or 'none'}")
        found.append(total)
    return found, lines


# --- sampling-sweep workload ----------------------------------------------------

def sweep_round(cli, workdir: Path, index: int) -> tuple:
    """Run the CLI sweep once; returns (wall seconds, parsed JSON output)."""
    out = workdir / f"round-{index}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        status = cli.main([*SWEEP_ARGV, "--out", str(out)])
        wall = perf_counter() - t0
    data = {"runs": [], "aggregates": []}
    if status == 0:
        data = json.loads(out.read_text())
        out.unlink()
    return wall, data


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def aggregate_matches(agg: dict, records: list) -> bool:
    """An aggregate holds the count, means and extremes of its records."""
    if not records:
        return False
    n = len(records)

    def mean(key):
        return sum(r[key] for r in records) / n

    ratios = [r["peak_ratio"] for r in records]
    return (agg["runs"] == n and agg["kind"] == "amu"
            and _close(agg["mean_peak_ratio"], mean("peak_ratio"))
            and agg["min_peak_ratio"] == min(ratios)
            and agg["max_peak_ratio"] == max(ratios)
            and _close(agg["mean_evaluations"], mean("evaluations_used"))
            and all(_close(agg[f"mean_{p}"], mean(p))
                    for p in ("phase_init", "phase_hvc", "phase_lopt")))


def rerun_sweep(hv) -> dict:
    """Re-run every (problem, seed) of the sweep through the library."""
    reference = {}
    for pid in SWEEP_PROBLEMS:
        problem = hv.make_problem(pid)
        for seed in range(SWEEP_REPS):
            result = hv.run_hillvallea(problem, hv.SearcherKind.AMU, seed=seed)
            report = hv.peak_ratio(list(result.archive), problem, ACCURACY)
            fractions = result.phase_fractions
            expected = {
                "evaluations_used": result.evaluations_used,
                "peak_ratio": report.ratio,
                "n_elites": len(result.archive),
                "restarts": result.restarts,
                "phase_init": fractions.get("init", 0.0),
                "phase_hvc": fractions.get("clustering", 0.0),
                "phase_lopt": fractions.get("local_opt", 0.0),
            }
            reference[pid, seed] = (expected, check_result(pid, result, report),
                                    result.archive.verified)
    return reference


def check_sweep(hv, rounds: list, tally: Tally) -> tuple:
    """Check every record of every sweep round; returns (found per round, lines)."""
    reference = rerun_sweep(hv)
    found = []
    lines = []
    for index, data in enumerate(rounds):
        by_key: dict = {}
        for rec in data["runs"]:
            by_key.setdefault((rec["problem_id"], rec["seed"]), []).append(rec)
        for key in set(by_key) - set(reference):
            tally.unexpected.append(f"unexpected record for P{key[0]} seed {key[1]}")
        aggregates: dict = {}
        for agg in data["aggregates"]:
            aggregates.setdefault(agg["problem_id"], []).append(agg)
        total = 0
        for pid in SWEEP_PROBLEMS:
            records = [r for seed in range(SWEEP_REPS) for r in by_key.get((pid, seed), [])]
            aggs = aggregates.get(pid, [])
            agg_ok = len(aggs) == 1 and aggregate_matches(aggs[0], records)
            for seed in range(SWEEP_REPS):
                expected, check, verified = reference[pid, seed]
                recs = by_key.get((pid, seed), [])
                reasons = [] if agg_ok else ["aggregate"]
                if len(recs) != 1:
                    reasons.append("records")
                else:
                    rec = recs[0]
                    total += round(rec["peak_ratio"] * SUITE[pid].n_optima)
                    if rec["kind"] != "amu":
                        reasons.append("kind")
                    if rec["evaluations_used"] != SUITE[pid].budget:
                        reasons.append("budget")
                    if any(rec[f] != expected[f] for f in SWEEP_FIELDS):
                        reasons.append("rerun")
                reasons += check.reasons
                known = check.known_fault and set(reasons) <= set(check.reasons)
                label = f"P{pid} amu seed {seed}"
                tally.add(label, reasons, known)
                if index == 0:
                    lines.append(f"{label}: found {check.suite_found}/{SUITE[pid].n_optima}, "
                                 f"n_elites {expected['n_elites']}, verified {verified}, "
                                 f"failed checks {reasons or 'none'}")
        found.append(total)
    return found, lines


# --- driver -------------------------------------------------------------------

def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "hillvalley.tests_joined" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hv = import_package()
    from hillvallea import cli
    pids = workload_problems(args.workload)
    problems = {pid: hv.make_problem(pid) for pid in pids}
    rng = np.random.default_rng(args.seed)
    tracer = undo = None
    if args.trace:
        tracer = spans.Tracer()
        undo = spans.install(tracer)

    OUT.mkdir(exist_ok=True)
    walls, payloads, layers = [], [], []
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        while True:
            if tracer is not None:
                tracer.reset()
            if args.workload in LIBRARY:
                runs = LIBRARY[args.workload]
                wall, payload = library_round(hv, problems, runs,
                                              rng.permutation(len(runs)))
            else:
                wall, payload = sweep_round(cli, Path(workdir), len(walls))
            walls.append(wall)
            payloads.append(payload)
            if tracer is not None:
                if args.workload not in LIBRARY:
                    tracer.add("cli.runs_s",
                               sum(r["wall_time_ms"] for r in payload["runs"]) / 1e3)
                layers.append(spans.layer_metrics(tracer))
            if perf_counter() - start >= args.seconds:
                break
    rss = peak_rss_mib()
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.csv")
        undo()

    tally = Tally()
    if args.workload in LIBRARY:
        found, lines = check_library(payloads, tally)
    else:
        found, lines = check_sweep(hv, payloads, tally)
    for line in lines:
        print(line)
    for line in tally.unexpected:
        print(f"CHECK FAILED {line}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": layer_unit(name)}
                   for name in layers[0]}
        metrics["trace.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "optima_found": {"value": statistics.median(found), "unit": "count"},
            "setup_s": {"value": measure_setup(pids), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    print(f"rounds {len(walls)}, round wall s {[round(w, 3) for w in walls]}")
    print(json.dumps({"correct": not tally.unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
