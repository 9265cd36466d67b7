"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py [--workload lmov_deg3]

Runs bench/run.py three times on one workload with a one-second budget:
1. with one reference digest altered: the run must exit nonzero and report
   correct false with failed > 0, so fail_ratio > 0;
2. with the workload's reference digests removed: the run must exit nonzero
   without printing a result, because an empty case list is never a pass;
3. with the recorded reference: the run must pass, so the gate does not fail
   everything.
Exits 0 when all three behave as stated.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_build" / "selftest"


def run(workload: str, reference: Path) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0", "--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="lmov_deg3")
    workload = parser.parse_args().workload
    recorded = json.loads((BENCH / "reference.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failures = []

    altered = json.loads(json.dumps(recorded))
    first = sorted(altered[workload])[0]
    altered[workload][first] = "0" * 64
    path = SCRATCH / "altered.json"
    path.write_text(json.dumps(altered))
    code, result = run(workload, path)
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        failures.append(f"altered digest of {first!r}: exit {code}, result {result}")

    emptied = dict(recorded, **{workload: {}})
    path = SCRATCH / "empty.json"
    path.write_text(json.dumps(emptied))
    code, result = run(workload, path)
    if code == 0 or result is not None:
        failures.append(f"empty case list: exit {code}, result {result}")

    code, result = run(workload, BENCH / "reference.json")
    if code != 0 or result is None or not result["correct"] or result["failed"] != 0:
        failures.append(f"recorded reference: exit {code}, result {result}")

    for line in failures:
        print(f"SELFTEST FAILED: {line}")
    if not failures:
        print(f"selftest ok: the gate on {workload} fails an altered digest and an "
              "empty case list, and passes the recorded reference")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
