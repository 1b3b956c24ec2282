"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json

import jobs as joblib
import run
import tracer

# cheap jobs that together reach every layer but fock/canonical's heavy work
SMALL = [
    joblib.cli("decomp-matrix", "--n", 2, "--m", 5),
    joblib.cli("specht-matrix", "--shape", "3,2", "--gen", 1),
    joblib.cli("branching", "--n", 3, "--j", 0, "--target", "0,0", "--L", 6, "--source", "paths"),
    joblib.cli("branching", "--n", 3, "--j", 0, "--target", "0,0", "--degree", 4,
               "--source", "crystal"),
    joblib.lib("canonical.js_canonical", [2, 1], 2),
]


SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _digests(jobs):
    report = run.run_pass(jobs)
    return {joblib.job_key(j): r["sha256"] for j, r in zip(jobs, report["jobs"])}


def test_same_seed_gives_byte_identical_list():
    for workload in joblib.WORKLOADS:
        a = json.dumps(joblib.job_list(workload, 11))
        assert a == json.dumps(joblib.job_list(workload, 11))
        assert a != json.dumps(joblib.job_list(workload, 12))


def test_every_seed_draws_the_same_strata_from_the_pool():
    for workload, strata in joblib.WORKLOADS.items():
        for seed in (1, 2, 3):
            keys = sorted(joblib.job_key(j) for j in joblib.job_list(workload, seed))
            drawn = []
            for s in strata:
                units = [u for u in s.units if joblib.job_key(u[0]) in keys]
                assert len(units) == s.pick, (workload, s.name)
                drawn += [joblib.job_key(j) for u in units for j in u]
            assert keys == sorted(drawn)


def test_every_pooled_job_has_a_pinned_digest():
    digests = json.loads(run.DIGESTS.read_text())
    for workload in joblib.WORKLOADS:
        for job in joblib.pooled_jobs(workload):
            assert joblib.job_key(job) in digests


def test_corrupted_digest_makes_the_run_fail():
    digests = _digests(SMALL)
    plain, _, failures = run.measure(SMALL, digests, seconds=0, trace=False, min_passes=1)
    assert failures == [] and len(plain) == 1
    metrics = run.end_to_end(plain, attempted=len(SMALL), failed=0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())

    key = joblib.job_key(SMALL[1])
    digests[key] = "0" * 64
    _, _, failures = run.measure(SMALL, digests, seconds=0, trace=False, min_passes=1)
    assert failures == [f"{key}: output digest mismatch"]


def test_failing_job_is_counted():
    bad = [joblib.cli("decomp-matrix", "--n", 2, "--m", "x")]
    report = run.run_pass(bad)
    assert run.check(bad, report, {}) and report["jobs"][0]["error"]


def test_traced_pass_reports_every_layer():
    digests = _digests(SMALL)
    plain, traced, failures = run.measure(SMALL, digests, seconds=0, trace=True)
    assert failures == [] and len(traced) == 1
    metrics = run.per_layer(plain, traced)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for layer in tracer.LAYERS:
        assert f"{layer}.calls" in metrics and f"{layer}.self_s" in metrics
    for layer in ("qseries", "partitions", "canonical", "crystal", "paths", "specht", "cli"):
        assert metrics[f"{layer}.calls"][0] > 0, layer
    self_total = sum(traced[0]["self_s"].values())
    assert 0 < self_total <= traced[0]["run_s"]
    assert metrics["specht.basis_dim"][0] == 5  # the 5x5 matrix of shape (3,2)
    assert metrics["trace.overhead_ratio"][0] > 0


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert pct == 90 and value == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100)
