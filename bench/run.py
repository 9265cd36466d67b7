"""heckelift benchmark: exact verdicts per workload, end to end and per layer.

    python3 bench/run.py --workload prime_grid --seed 1 --seconds 60 --trace 0

Every pass starts a fresh single-threaded interpreter (case_loop.py), so all
in-process caches start cold.  An untraced run makes two passes:

1. a sweep pass runs the workload's fixed case list once in a closed loop,
   in list order, with the memos shared as in `heckelift sweep`.
   peak_rss_mb is its ru_maxrss; the workload's golden probes run after it
   is read.
2. a cold pass runs each case (or each knot's cases, see
   workloads.order_group) in a child forked after set-up, so that it starts
   from cold memos, and repeats them until --seconds is nearly used up.  A case's latency is its fastest repetition: on a shared host
   contention only ever adds time, and the fastest of repetitions spread
   over the whole run barely moves when the host slows down for a while.
   case_ms_p50 and case_ms_tail are the median and the highest percentile
   with ten cases beyond it over those latencies; wall_s is their sum, the
   time from the first case's call to the last case's return of a pass that
   runs every case from cold memos.  The seed draws the numeric spot-check
   points of both passes and the order of the cold pass.

setup_s (interpreter start until heckelift is imported and the case list
built) is the median over both passes and SETUP_PROBES extra start-ups.
--trace 1 alternates untraced and traced sweep passes and reports the
per-layer metrics of tracer.py (medians over the traced passes) plus
trace.overhead, the fastest traced pass's wall time over the fastest
untraced one's.

Every case's deterministic output, in every pass and repetition, is compared
with reference.json; a mismatch, exception, wrong verdict or numeric residual
above 1e-8 fails the case.  The last stdout line is one JSON object with
correct, attempted, failed and metrics; the exit code is 0 only when every
case was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 9
# Seconds of the run kept back from the cold pass for the set-up probes.
PROBE_RESERVE_S = 2.0
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))
from tracer import layer_metric_units  # noqa: E402
from workloads import WORKLOADS, case_key, tail_percentile  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def check_tree(workload: str):
    if not (SRC / "heckelift" / "__init__.py").is_file():
        raise BenchError(f"no heckelift sources under {SRC}")
    if WORKLOADS[workload].get("golden") and not (ROOT / "tests" / "golden").is_dir():
        raise BenchError("tests/golden is missing")


def load_reference(path: Path, workload: str) -> dict[str, str]:
    """Digests of every case and golden probe of the workload."""
    spec = WORKLOADS[workload]
    n_runs = len(spec["cases"]) + len(spec.get("golden", []))
    try:
        digests = json.loads(path.read_text())[workload]
    except (OSError, ValueError, KeyError) as err:
        raise BenchError(f"no reference digests for {workload} in {path}: {err}")
    if not spec["cases"] or len(digests) != n_runs:
        raise BenchError(
            f"{path} holds {len(digests)} digests for {workload}, "
            f"the workload has {n_runs} cases and golden probes"
        )
    return digests


def child_env() -> dict[str, str]:
    """Environment of every pass: no on-disk character cache, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k != "HECKE_CACHE_DIR"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, index: int, trace: bool, env: dict, timeout: float,
             setup_only: bool = False, cold_until: float | None = None) -> dict | None:
    """One fresh interpreter; its JSON payload, or None."""
    cmd = [
        sys.executable, str(BENCH / "case_loop.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
        "--trace", "1" if trace else "0", "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if cold_until is not None:
        cmd += ["--cold-until", repr(cold_until)]
    # A session of its own, so that a timeout also stops the children a
    # cold pass forks.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        print(f"pass {index} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass {index} exited {proc.returncode}: {stderr.strip()}", file=sys.stderr)
        return None
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"pass {index} printed no result", file=sys.stderr)
        return None


def grade(passes: list[dict | None], reference: dict[str, str],
          case_keys: set[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over every case run of every pass.

    A sweep pass must run each case and golden probe exactly once, a cold
    pass each case (and no golden probe) at least once.
    """
    attempted = failed = 0
    problems: list[str] = []
    for index, payload in enumerate(passes):
        if payload is None:
            attempted += len(reference)
            failed += len(reference)
            problems.append(f"pass {index}: no result")
            continue
        cold = payload["mode"] == "cold"
        expected = case_keys if cold else set(reference)
        seen = set()
        for case in payload["cases"]:
            attempted += 1
            key = case["key"]
            why = list(case["problems"])
            if key not in expected or (key in seen and not cold):
                why.append("duplicate or not in the reference case list")
            elif case["digest"] != reference[key]:
                why.append("output differs from the reference digest")
            seen.add(key)
            if why:
                failed += 1
                problems.append(f"pass {index} {key}: {'; '.join(why)}")
        missing = expected - seen
        attempted += len(missing)
        failed += len(missing)
        problems.extend(f"pass {index} {key}: never ran" for key in sorted(missing))
    return attempted, failed, problems


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: pct% of the values are at or below it."""
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def end_to_end(sweep: dict, cold: dict, setups: list[float], tail_pct: int) -> dict[str, float]:
    """Case latencies are each case's fastest cold repetition."""
    by_case: dict[str, list[float]] = {}
    for case in cold["cases"]:
        if case["ms"] is not None:
            by_case.setdefault(case["key"], []).append(case["ms"])
    case_ms = [min(samples) for samples in by_case.values()]
    return {
        "wall_s": sum(case_ms) / 1000.0,
        "case_ms_p50": statistics.median(case_ms),
        "case_ms_tail": percentile(case_ms, tail_pct),
        "peak_rss_mb": sweep["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    med = statistics.median
    out = {name: med(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["trace.overhead"] = min(p["wall_s"] for p in traced) / min(p["wall_s"] for p in untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference digests (default: bench/reference.json)")
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    try:
        check_tree(args.workload)
        reference = load_reference(args.reference, args.workload)
        env = child_env()
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    case_keys = {case_key(args.workload, case) for case in WORKLOADS[args.workload]["cases"]}

    passes: list[dict | None] = []
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if args.trace:
        # Untraced and traced sweep passes alternate while another pass of
        # the slower kind fits in --seconds; at least one of each.
        kinds: list[bool] = []
        while True:
            traced = len(passes) % 2 == 1
            passes.append(run_pass(args.workload, args.seed, len(passes), traced, env,
                                   deadline - time.monotonic()))
            kinds.append(traced)
            if passes[-1] is None:
                break
            longest = max(p["wall_s"] + p["setup_s"] for p in passes)
            if len(passes) >= 2 and time.monotonic() - start + longest > args.seconds:
                break
        traced_ok = [p for p, t in zip(passes, kinds) if t and p is not None]
        untraced_ok = [p for p, t in zip(passes, kinds) if not t and p is not None]
        if traced_ok and untraced_ok:
            metrics = per_layer(traced_ok, untraced_ok)
            units = layer_metric_units()
    else:
        sweep = run_pass(args.workload, args.seed, 0, False, env, deadline - time.monotonic())
        passes.append(sweep)
        cold_until = min(start + args.seconds - PROBE_RESERVE_S, deadline - 30.0)
        cold = None
        if sweep is not None:
            cold = run_pass(args.workload, args.seed, 1, False, env,
                            deadline - time.monotonic(), cold_until=cold_until)
            passes.append(cold)
        if sweep is not None and cold is not None:
            setups = [sweep["setup_s"], cold["setup_s"]]
            for index in range(SETUP_PROBES):
                probe = run_pass(args.workload, args.seed, 2 + index, False, env,
                                 deadline - time.monotonic(), setup_only=True)
                if probe is not None:
                    setups.append(probe["setup_s"])
            metrics = end_to_end(sweep, cold, setups, tail_percentile(len(case_keys)))
            units = END_TO_END_UNITS

    attempted, failed, problems = grade(passes, reference, case_keys)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    n_cases = len(case_keys)
    tail_pct = tail_percentile(n_cases)

    fail_ratio = failed / attempted if attempted else 1.0
    runs = sum(len(p["cases"]) for p in passes if p is not None)
    print(f"{args.workload}: {runs} case runs in {len(passes)} passes over {n_cases} cases, "
          f"seed {args.seed}")
    for name, value in metrics.items():
        note = f"  (p{tail_pct} of {n_cases} cases)" if name == "case_ms_tail" else ""
        print(f"  {name:42s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':42s} {fail_ratio:14.6g} ratio  ({failed} of {attempted} cases)")
    correct = attempted > 0 and failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
