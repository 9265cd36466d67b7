"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --workloads prime_grid --seconds 20
    python3 bench/spread.py --seeds 1-10 --baseline bench/baseline.json

For every workload and end-to-end metric it prints the median over the
seeds, the quartiles from statistics.quantiles(values, n=4), and the
distance between them as a share of the median next to the metric's bound
from BENCHMARK.json.  With --baseline it also makes one traced run per
workload (the first seed) and writes the machine block, the case lists and
the medians of every metric to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, case_key, tail_percentile  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import mpmath
        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "commit": commit,
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="also write a baseline file here")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    baseline = {"machine": machine(), "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, trace=False)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect: {result}")
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "why": WORKLOADS[workload]["why"],
            "cases": [case_key(workload, c) for c in WORKLOADS[workload]["cases"]],
            "tail_percentile": tail_percentile(len(WORKLOADS[workload]["cases"])),
            "end_to_end": {},
        }
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, share = quartile_spread(values)
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name]}
            flag = "" if share < bounds[name] / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"  {workload:17s} {name:12s} median {med:10.5g} {units[name]:3s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {share:6.3f} (bound {bounds[name]}){flag}")
        if args.baseline:
            traced = run_once(workload, seeds[0], args.seconds, trace=True)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    print(f"largest spread as a share of its bound (setup_s excepted): {worst:.3f}")
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
