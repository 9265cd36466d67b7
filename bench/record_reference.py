"""Record the reference digests of every case's deterministic output.

    python3 bench/record_reference.py

Runs each workload once (seed 0) and writes bench/reference.json.  Run it
only at a commit whose outputs are known good: the benchmark fails any case
whose output later differs from what is recorded here.  A case that reports
a problem (wrong verdict, residual, golden mismatch) is never recorded.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, RUN_DEADLINE_S, WORKLOADS, child_env, run_pass


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        payload = run_pass(workload, 0, 0, False, child_env(), RUN_DEADLINE_S)
        if payload is None:
            return 1
        bad = [c for c in payload["cases"] if c["problems"]]
        if bad or len(payload["cases"]) != len(WORKLOADS[workload]["cases"]):
            print(f"{workload}: refusing to record, problems: {bad[:3]}", file=sys.stderr)
            return 1
        reference[workload] = {c["key"]: c["digest"] for c in payload["cases"]}
        print(f"{workload}: {len(payload['cases'])} digests, {payload['wall_s']:.2f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
