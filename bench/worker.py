"""One benchmark pass in a fresh process: import fcl, run a job list, report.

Protocol with run.py: after ``import fcl`` and ``fcl.cli`` the worker prints
``ready`` on stdout (the parent's set-up clock stops there), reads the job
list as JSON from stdin, runs the jobs in order and prints one JSON result
line.  With a spans path as its argument it installs the tracer after set-up
and writes the spans there when the jobs are done.

    python3 bench/worker.py [SPANS_PATH] < jobs.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import fcl  # noqa: E402
import fcl.cli  # noqa: E402

import tracer  # noqa: E402


def _tuples(x):
    return tuple(_tuples(v) for v in x) if isinstance(x, list) else x


def _render_lib(result) -> str:
    if isinstance(result, bool):
        return str(result)
    if isinstance(result, (list, tuple)):  # a matrix of LaurentPoly in v
        return "\n".join(" ".join(e.to_text("v") for e in row) for row in result)
    return result.to_text()


def run_job(job: dict, mods) -> str:
    """The job's output text; raises if the job fails."""
    if job["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods["cli"].dispatch(job["argv"])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    layer, name = job["call"].split(".")
    fn = getattr(mods[layer], name)  # looked up per call, so traced runs see the wrapper
    return _render_lib(fn(*_tuples(job["args"])))


def main() -> None:
    if Path(fcl.__file__).resolve().parent != SRC / "fcl":
        sys.exit(f"imported fcl from {fcl.__file__}, not from {SRC}")
    print("ready", flush=True)
    jobs = json.load(sys.stdin)
    mods = tracer.modules()
    caches = tracer.lru_caches(mods)
    spans_path = sys.argv[1] if len(sys.argv) > 1 else None
    trace = tracer.Tracer() if spans_path else None
    if trace:
        trace.install()

    results = []
    t_run = perf_counter()
    for k, job in enumerate(jobs):
        if trace:
            trace.job = k
        t0 = perf_counter()
        try:
            text = run_job(job, mods)
            error = None
        except Exception:  # a failing job is recorded and the pass goes on
            text, error = "", traceback.format_exc(limit=3)
        seconds = perf_counter() - t0
        results.append({"seconds": seconds, "error": error,
                        "sha256": hashlib.sha256(text.encode()).hexdigest()})
    run_s = perf_counter() - t_run

    report = {
        "run_s": run_s,
        "jobs": results,
        "caches": [[layer, name, *fn.cache_info()[:2]] for layer, name, fn in caches],
        "straighten_entries": len(mods["specht"]._STRAIGHTEN_CACHE),
    }
    if trace:
        report["spans"] = trace.write(spans_path)
        report["calls"] = dict(trace.calls)
        report["counters"] = dict(trace.counters)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
