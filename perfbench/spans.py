"""Spans and counts recorded around hillvallea's public functions, from outside.

``install`` replaces each traced function, in every module that binds it,
with a wrapper that records a span (name, start, end, parent) in memory.
Objective calls through ``BudgetedObjective`` are leaves: they are counted
and timed, and their time is charged to the enclosing span, but they are not
stored one by one (a many-niches round makes several hundred thousand).
A span's self time is its duration minus the union of its child spans and
minus the leaf time charged to it. The package source is not changed.
"""

from __future__ import annotations

import csv
import functools
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

#: Every termination reason a searcher can report.
STOP_REASONS = ("budget", "no-improvement", "min-std", "ill-conditioned",
                "population-std", "fitness-std", "degenerate", "generation-limit")

# The tracer the wrappers of this process report to. Worker processes of a
# traced sweep find it here (inherited over fork, installed anew otherwise).
_ACTIVE = None


class Tracer:
    """In-memory span log and counters of one traced round."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.leaf: list = []
        self.stack: list = []
        self.counts: dict = {}

    def add(self, key: str, value=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.leaf.append(0.0)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def table(self) -> tuple:
        return (self.names, self.starts, self.ends, self.parents, self.leaf, self.counts)

    def merge(self, table: tuple, parent: int) -> None:
        """Append spans recorded by a worker process under span ``parent``."""
        names, starts, ends, parents, leaf, counts = table
        offset = len(self.names)
        self.names.extend(names)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.parents.extend(p + offset if p >= 0 else parent for p in parents)
        self.leaf.extend(leaf)
        for key, value in counts.items():
            self.add(key, value)

    def self_times(self) -> list:
        n = len(self.names)
        children: list = [[] for _ in range(n)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append((self.starts[i], self.ends[i]))
        out = []
        for i in range(n):
            covered = 0.0
            reach = -float("inf")
            # worker spans under one parent overlap in time: take their union
            for start, end in sorted(children[i]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(self.ends[i] - self.starts[i] - covered - self.leaf[i])
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "leaf_s"))
            t0 = min(self.starts, default=0.0)
            for i, name in enumerate(self.names):
                writer.writerow((i, name, f"{self.starts[i] - t0:.9f}",
                                 f"{self.ends[i] - t0:.9f}", self.parents[i],
                                 f"{self.leaf[i]:.9f}"))


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _leaf(tracer: Tracer, key: str, fn, rows: bool):
    calls, seconds, row_key = key + "_calls", key + "_s", key + "_rows"

    @functools.wraps(fn)
    def wrapper(self, x):
        t0 = perf_counter()
        result = fn(self, x)
        dt = perf_counter() - t0
        counts = tracer.counts
        counts[calls] = counts.get(calls, 0) + 1
        counts[seconds] = counts.get(seconds, 0.0) + dt
        if rows:
            counts[row_key] = counts.get(row_key, 0) + len(result)
        if tracer.stack:
            tracer.leaf[tracer.stack[-1]] += dt
        return result
    return wrapper


def _after_test(tracer, args, result):
    same, spent = result
    tracer.add("hillvalley.tests")
    tracer.add("hillvalley.test_evals", spent)
    tracer.add("hillvalley.joins", int(same))


def _after_archive_test(tracer, args, result):
    tracer.add("optimizer.archive_tests")


def _after_searcher(tracer, args, result):
    tracer.add(f"core_search.stop.{args[0].terminated_reason}")


def _after_run(tracer, args, result):
    tracer.add("optimizer.restarts", result.restarts)
    tracer.add("optimizer.candidates", sum(log.n_searchers for log in result.per_restart_log))
    tracer.add("optimizer.unverified_archives", int(not result.archive.verified))


def _after_peak_ratio(tracer, args, result):
    tracer.add("evaluation.reported", len(args[0]))
    tracer.add("evaluation.found", result.found)


class _TracedPool(ProcessPoolExecutor):
    """The CLI's process pool, with each task traced in its worker."""

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        parent = _ACTIVE.stack[-1] if _ACTIVE.stack else -1
        futures = [self.submit(_traced_task, fn, *args) for args in zip(*iterables)]
        return self._merged(futures, parent)

    @staticmethod
    def _merged(futures, parent):
        for future in futures:
            outcome, table = future.result()
            _ACTIVE.merge(table, parent)
            yield outcome


def _traced_task(fn, *args):
    if _ACTIVE is None:
        install(Tracer())
    tracer = _ACTIVE
    tracer.reset()
    i = tracer.open("cli.task")
    try:
        outcome = fn(*args)
    finally:
        tracer.close(i)
    return outcome, tracer.table()


def install(tracer: Tracer):
    """Wrap hillvallea's traced functions to report to ``tracer``; returns an undo function."""
    global _ACTIVE
    import hillvallea
    from hillvallea import cli, core_search, evaluation, hillvalley, optimizer, problems

    saved = []

    def patch(owners, attr, wrapper):
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    bo = problems.BudgetedObjective
    patch([bo], "__call__", _leaf(tracer, "problems.scalar", bo.__call__, rows=False))
    patch([bo], "batch", _leaf(tracer, "problems.batch", bo.batch, rows=True))
    patch([hillvalley], "_nearest_better",
          _span(tracer, "hillvalley.nearest_better", hillvalley._nearest_better))
    patch([hillvalley], "hill_valley_test",
          _span(tracer, "hillvalley.test", hillvalley.hill_valley_test, _after_test))
    patch([optimizer], "hill_valley_test",
          _span(tracer, "optimizer.archive_test", optimizer.hill_valley_test,
                _after_archive_test))
    patch([optimizer], "hill_valley_clustering",
          _span(tracer, "hillvalley.clustering", optimizer.hill_valley_clustering))
    patch([optimizer], "uniform_sample",
          _span(tracer, "optimizer.sample", optimizer.uniform_sample))
    patch([optimizer], "truncation_selection",
          _span(tracer, "optimizer.selection", optimizer.truncation_selection))
    patch([optimizer], "postprocess",
          _span(tracer, "optimizer.postprocess", optimizer.postprocess))
    patch([optimizer], "init_from_cluster",
          _span(tracer, "core_search.init", optimizer.init_from_cluster))
    patch([core_search.CoreSearcher], "run",
          _span(tracer, "core_search.run", core_search.CoreSearcher.run, _after_searcher))
    for cls in (core_search.CmsaSearcher, core_search.EdaSearcher):
        patch([cls], "run_generation",
              _span(tracer, "core_search.generation", cls.run_generation))
    patch([hillvallea, optimizer, cli], "run_hillvallea",
          _span(tracer, "optimizer.run", optimizer.run_hillvallea, _after_run))
    patch([hillvallea, evaluation, cli], "peak_ratio",
          _span(tracer, "evaluation.peak_ratio", evaluation.peak_ratio, _after_peak_ratio))
    patch([cli], "execute_sweep", _span(tracer, "cli.sweep", cli.execute_sweep))
    patch([cli], "write_outputs", _span(tracer, "cli.write", cli.write_outputs))
    patch([cli], "ProcessPoolExecutor", _TracedPool)
    _ACTIVE = tracer

    def undo():
        global _ACTIVE
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        _ACTIVE = None

    return undo


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round."""
    total: dict = {}
    own: dict = {}
    spans: dict = {}
    for name, start, end, self_s in zip(tracer.names, tracer.starts, tracer.ends,
                                        tracer.self_times()):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        spans[name] = spans.get(name, 0) + 1
    c = tracer.counts

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    tests = c.get("hillvalley.tests", 0)
    metrics = {
        "problems.scalar_calls": c.get("problems.scalar_calls", 0),
        "problems.scalar_s": c.get("problems.scalar_s", 0.0),
        "problems.batch_calls": c.get("problems.batch_calls", 0),
        "problems.batch_rows": c.get("problems.batch_rows", 0),
        "problems.batch_s": c.get("problems.batch_s", 0.0),
        "hillvalley.clustering_s": total.get("hillvalley.clustering", 0.0),
        "hillvalley.clustering_self_s": own.get("hillvalley.clustering", 0.0),
        "hillvalley.nearest_better_s": total.get("hillvalley.nearest_better", 0.0),
        "hillvalley.tests": tests,
        "hillvalley.test_evals": c.get("hillvalley.test_evals", 0),
        "hillvalley.tests_joined": c.get("hillvalley.joins", 0) / tests if tests else 0.0,
        "core_search.searchers": spans.get("core_search.run", 0),
        "core_search.generations": spans.get("core_search.generation", 0),
        "core_search.run_s": total.get("core_search.run", 0.0),
        "core_search.self_s": layer_self("core_search"),
        "core_search.init_s": total.get("core_search.init", 0.0),
    }
    for reason in STOP_REASONS:
        metrics[f"core_search.stop.{reason}"] = c.get(f"core_search.stop.{reason}", 0)
    metrics.update({
        "optimizer.restarts": c.get("optimizer.restarts", 0),
        "optimizer.sample_s": total.get("optimizer.sample", 0.0),
        "optimizer.selection_s": total.get("optimizer.selection", 0.0),
        "optimizer.postprocess_s": total.get("optimizer.postprocess", 0.0),
        "optimizer.archive_tests": c.get("optimizer.archive_tests", 0),
        "optimizer.self_s": layer_self("optimizer"),
        "optimizer.founder_only": (c.get("optimizer.candidates", 0)
                                   - spans.get("core_search.init", 0)),
        "optimizer.unverified_archives": c.get("optimizer.unverified_archives", 0),
        "optimizer.unmatched_elites": (c.get("evaluation.reported", 0)
                                       - c.get("evaluation.found", 0)),
        "evaluation.peak_ratio_s": total.get("evaluation.peak_ratio", 0.0),
        "cli.sweep_s": total.get("cli.sweep", 0.0),
        "cli.runs_s": c.get("cli.runs_s", 0.0),
        "cli.write_s": total.get("cli.write", 0.0),
        "trace.spans": len(tracer.names),
    })
    return metrics

