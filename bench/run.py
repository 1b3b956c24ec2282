"""fcl benchmark.

    python3 bench/run.py --workload canonical|specht|series --seed N \
        --seconds S --trace 0|1

    # every end-to-end metric of every workload
    for w in canonical specht series; do
        python3 bench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done

Run from the root of a checkout.  It draws a job list from the
workload's pool with the seed (jobs.py), then runs passes until the time is
used, at least MIN_PASSES of them.  Each pass starts one fresh worker process
(worker.py), so fcl's caches start cold as in every ``fcl`` invocation, and
runs the job list there, one job after another (a closed loop with one
client).  It starts no other process or thread.

Every job's output is checked against the SHA-256 digest pinned in
digests.json; a job that raises, exits non-zero or prints other output
fails.  The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import jobs as joblib
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
DEADLINE_S = 170  # every run must end within 180 s


class PassError(RuntimeError):
    """A worker did not start or did not finish its job list."""


def run_pass(jobs: list[dict], spans_path: Path | None = None, timeout: float = DEADLINE_S) -> dict:
    """Run the job list in a fresh worker; its report plus ``setup_s``."""
    argv = [sys.executable, str(WORKER)] + ([str(spans_path)] if spans_path else [])
    env = dict(os.environ, PYTHONHASHSEED="0")  # the same str hashes in every pass
    t0 = perf_counter()
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            if ready.strip() != "ready":
                raise PassError("worker failed to import fcl from src/")
            out, _ = proc.communicate(json.dumps(jobs), timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise PassError(f"worker exited with code {proc.returncode}")
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = setup_s
    return report


def check(jobs: list[dict], report: dict, digests: dict[str, str]) -> list[str]:
    """Failure messages for the pass's jobs; the empty list when all passed."""
    failures = []
    for job, res in zip(jobs, report["jobs"]):
        key = joblib.job_key(job)
        if res["error"]:
            failures.append(f"{key}: {res['error'].strip().splitlines()[-1]}")
        elif res["sha256"] != digests.get(key):
            failures.append(f"{key}: output digest mismatch")
    return failures


def tail(times: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest whole percentile with >= 10 samples beyond it."""
    xs = sorted(times)
    if len(xs) <= 10:
        return xs[-1], 100
    p = math.floor(100 * (len(xs) - 10) / len(xs))
    return xs[max(0, math.ceil(p * len(xs) / 100) - 1)], p


def measure(jobs, digests, seconds: float, trace: bool, min_passes: int = MIN_PASSES):
    """Run passes for ``seconds``; returns (untraced, traced, failures).

    With ``trace`` each round is an untraced pass followed by a traced one,
    and one round is the minimum.  A round starts only while the elapsed
    time plus the mean round time still fits in ``seconds``, or while fewer
    than ``min_passes`` rounds ran; never when it would pass DEADLINE_S.
    """
    if trace:
        min_passes = 1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / "spans.bin"
    plain, traced, failures = [], [], []
    run_pass([])  # warm-up: compiles fcl's bytecode and reads its files once, untimed
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        rounds = len(plain)
        limit = seconds if rounds >= min_passes else DEADLINE_S
        if rounds and elapsed + elapsed / rounds > limit:
            break
        left = DEADLINE_S - elapsed
        for into, path in ((plain, None), (traced, spans_path))[: 1 + trace]:
            report = run_pass(jobs, path, timeout=left)
            if path:
                report["self_s"] = tracer.self_times(*tracer.read_spans(path))
            failures += check(jobs, report, digests)
            into.append(report)
    return plain, traced, failures


def end_to_end(plain: list[dict], attempted: int, failed: int) -> dict:
    times = [j["seconds"] for p in plain for j in p["jobs"]]
    tail_s, pct = tail(times)
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"# passes {len(plain)}, jobs {len(times)}; job_tail_s is p{pct} of {len(times)} jobs; "
          f"failed_ratio {failed / attempted:.4f}")
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
        "run_s": (statistics.median(p["run_s"] for p in plain), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "job_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    last = traced[-1]
    calls, counters = last["calls"], last["counters"]
    out = {}
    for layer in tracer.LAYERS:
        n = sum(c for qualname, c in calls.items() if qualname.startswith(layer + "."))
        out[f"{layer}.calls"] = (n, "count")
        out[f"{layer}.self_s"] = (statistics.median(t["self_s"][layer] for t in traced), "s")

    def method_calls(cls: str) -> int:
        return sum(calls.get(f"qseries.{cls}.{m}", 0) for m in tracer.ARITHMETIC[cls])

    hits: dict[str, list[int]] = {}
    for layer, _, h, m in last["caches"]:
        acc = hits.setdefault(layer, [0, 0])
        acc[0] += h
        acc[1] += m
    for layer, (h, m) in sorted(hits.items()):
        out[f"{layer}.cache_hit_ratio"] = (_ratio(h, h + m), "ratio")
    out.update({
        "qseries.laurent_ops": (method_calls("LaurentPoly"), "count"),
        "qseries.series_ops": (method_calls("TruncatedSeries"), "count"),
        "partitions.node_lists_calls": (calls.get("partitions.node_lists", 0), "count"),
        "fock.terms_out": (counters.get("fock.terms_out", 0), "count"),
        "canonical.columns": (counters.get("canonical.columns", 0), "count"),
        "specht.basis_dim": (counters.get("specht.basis_dim", 0), "count"),
        "specht.matrix_nonzeros": (counters.get("specht.matrix_nonzeros", 0), "count"),
        "specht.nonzero_ratio": (_ratio(counters.get("specht.matrix_nonzeros", 0),
                                        counters.get("specht.dense_entries", 0)), "ratio"),
        "specht.straighten_entries": (last["straighten_entries"], "count"),
        "paths.partitions_visited": (counters.get("paths.partitions_visited", 0), "count"),
        "trace.spans": (last["spans"], "count"),
        "trace.overhead_ratio": (statistics.median(t["run_s"] for t in traced)
                                 / statistics.median(p["run_s"] for p in plain), "ratio"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(joblib.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fcl" / "__init__.py").is_file():
        print(f"error: no fcl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = joblib.job_list(args.workload, args.seed)
    digests = json.loads(DIGESTS.read_text())
    try:
        plain, traced, failures = measure(jobs, digests, args.seconds, bool(args.trace))
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    attempted = len(jobs) * (len(plain) + len(traced))
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, attempted, len(failures))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
