"""Pin the SHA-256 digest of every pooled job's output in digests.json.

    python3 bench/pin_digests.py

Runs each workload's whole pool in one worker and records the digests.  Run
it only when a change to fcl's output is intended; the benchmark counts
every job whose output no longer matches as failed.
"""

from __future__ import annotations

import json
import sys

import jobs as joblib
from run import DIGESTS, run_pass


def main() -> int:
    digests = {}
    for workload in joblib.WORKLOADS:
        pool = joblib.pooled_jobs(workload)
        report = run_pass(pool)
        for job, res in zip(pool, report["jobs"]):
            if res["error"]:
                print(f"{joblib.job_key(job)} failed:\n{res['error']}", file=sys.stderr)
                return 1
            digests[joblib.job_key(job)] = res["sha256"]
        print(f"{workload}: {len(pool)} jobs in {report['run_s']:.1f} s")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
