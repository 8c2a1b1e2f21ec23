"""The package needs numpy only: scipy is neither imported nor needed.

Each check runs a fresh interpreter on this checkout's ``src``, so that no
module a test imported (the tests use scipy as a reference) can hide an
import of scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = _python("""
        import sys
        import hillvallea
        print("scipy" in sys.modules, hillvallea.__file__)
    """)
    flag, path = out.split()
    assert flag == "False" and Path(path).resolve().is_relative_to(SRC.resolve())


def test_runs_and_sweeps_with_scipy_blocked(tmp_path):
    # P10 at this budget selects up to a few hundred rows, past the
    # nearest-better head, so the grid search runs too
    out = tmp_path / "sweep.json"
    _python(f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from dataclasses import replace
        import hillvallea
        from hillvallea import hillvalley
        from hillvallea.cli import main

        rows = []
        search = hillvalley._nearest_better

        def recording(positions, k, chunk=128):
            rows.append(len(positions))
            return search(positions, k, chunk)

        hillvalley._nearest_better = recording
        problem = replace(hillvallea.make_problem(10), budget=10000)
        result = hillvallea.run_hillvallea(problem, hillvallea.SearcherKind.AMU, seed=0)
        assert result.evaluations_used == 10000 and len(result.archive) > 0
        assert max(rows) > 128, rows
        sys.exit(main(["--problems", "2,10", "--reps", "1", "--budget-multiplier", "0.05",
                       "--jobs", "2", "--out", {str(out)!r}]))
    """)
    runs = json.loads(out.read_text())["runs"]
    assert sorted(r["problem_id"] for r in runs) == [2, 10]
