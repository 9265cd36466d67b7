"""One benchmark pass: a fresh interpreter runs the cases of one workload.

run.py starts this script once per pass; it is not meant to be run by hand.
The interpreter is new, so every functools memo and the character memo of
heckelift start empty.  A pass runs in one of two modes:

sweep  every case once, in list order, in a closed loop (one caller; the
       next case starts when the previous one returns), the cases sharing
       the memos as in `heckelift sweep`; then, after the pass's figures
       are taken, the workload's golden probes.
cold   groups of cases (one case, or one knot's cases where a knot's first
       case pays for the rest, see workloads.order_group) one at a time, each
       in a child forked from this interpreter after set-up and before any
       case ran, so each group starts from cold memos, as one `heckelift
       verify` would.  Round 0 runs every group once, in an order drawn from
       the seed; later rounds repeat them until --cold-until, cheap groups
       several times a round and dear ones every few rounds (see
       plan_round), so that each case is sampled across the whole run.

The last stdout line is one JSON object with the set-up time, the wall time
of the case loop, the peak RSS (sweep only), and per case run its latency,
the digest of its deterministic output and any problems.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time
from math import gcd
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
SPANS = ROOT / ".bench_build" / "spans"
NUMERIC_TOLERANCE = 1e-8
# Cold rounds after round 0: a group cheaper than REPEAT_MS runs several
# times a round (at most MAX_REPEATS), one dearer than SPREAD_MS only every
# ceil(ms / SPREAD_MS) rounds, so that a few dear groups do not stretch every
# round and leave the cheap ones with few samples.
REPEAT_MS = 25.0
MAX_REPEATS = 8
SPREAD_MS = 400.0


def _report_body(report) -> dict:
    body = report.to_json_dict()
    del body["millis"]
    return body


def _numeric_draw(seed: int, d: int, m: int, p: int) -> tuple[complex, int]:
    """The (a0, s) spot-check point that `heckelift sweep --seed` draws."""
    rng = random.Random(seed * 1000003 + d * 10007 + m * 101 + p)
    a0 = cmath.exp(2j * cmath.pi * rng.uniform(0.0, 1.0))
    s = rng.choice([k for k in range(1, 2 * p) if gcd(k, 2 * p) == 1])
    return a0, s


class Workload:
    """Case runners; library calls go through module attributes, so a tracer
    that rebinds those attributes sees every call."""

    def __init__(self, name: str, seed: int):
        from heckelift import alexlimit, combinatorics, hecke, lmov, torus, zbasis
        from workloads import GOLDEN_PROBES, LMOV_DEGREE

        self.alexlimit, self.combinatorics, self.hecke = alexlimit, combinatorics, hecke
        self.lmov, self.torus, self.zbasis = lmov, torus, zbasis
        self.lmov_degree = LMOV_DEGREE
        self.seed = seed
        self.goldens = {}
        if name == "prime_grid":
            for d, m, p in GOLDEN_PROBES:
                path = GOLDEN / f"composite_p{p}_T{d}_{m}.json"
                self.goldens[(d, m, p)] = json.loads(path.read_text())
        self.run = getattr(self, name)

    def prime_grid(self, case):
        if case in self.goldens:
            return self.golden_probe(case)
        d, m, p = case
        knot = self.torus.TorusKnot(d, m)
        report = self.hecke.verify_hecke(knot, p)
        problems = []
        if report.verdict:
            a0, s = _numeric_draw(self.seed, d, m, p)
            defect = self.hecke.lifting_defect(knot, p)
            residual = self.zbasis.double_root_residual(defect, p, a0, s)
            if not residual <= NUMERIC_TOLERANCE:
                problems.append(f"numeric residual {residual:.3g}")
        else:
            problems.append("verdict FAIL, expected PASS")
        identity = self.alexlimit.limit_identity_check(knot, p)
        membership = self.alexlimit.limit_membership_verdict(knot, p).passed
        if not identity:
            problems.append("limit identity failed")
        if not membership:
            problems.append("limit membership failed")
        record = {
            "report": _report_body(report),
            "limit_identity": identity,
            "limit_membership": membership,
        }
        return record, problems

    def golden_probe(self, case):
        """A composite order: FAIL with a nonzero witness, as in the golden file."""
        d, m, p = case
        report = self.hecke.verify_hecke(self.torus.TorusKnot(d, m), p)
        body = _report_body(report)
        problems = []
        if report.verdict:
            problems.append("verdict PASS, expected FAIL")
        witness = body["remainder_witness"] or {}
        if all(c == "0" for row in witness.values() for c in row):
            problems.append("no nonzero remainder witness")
        golden = self.goldens[case]
        differ = sorted(key for key in golden if body.get(key) != golden[key])
        if differ:
            problems.append(f"differs from the golden file in {differ}")
        return body, problems

    def lmov_deg3(self, case):
        framing, mu = case
        knot = self.torus.FramedUnknot(framing)
        rep = self.lmov.lmov_verdict(knot, mu, self.lmov_degree)
        record = {
            "pass": rep.passed,
            "min_z_power": rep.min_z_power,
            "z2_fhat": None if rep.z2_fhat is None else rep.z2_fhat.to_json_dict(),
        }
        return record, [] if rep.passed else [f"not integral: {rep.detail}"]


def digest(record) -> str:
    canon = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_case(workload: Workload, case) -> tuple[float, object, str | None]:
    """(latency in ms, output, error) of one case."""
    t = time.perf_counter()
    try:
        out, err = workload.run(case), None
    except Exception as exc:  # noqa: BLE001 - a raising case is a failed case
        out, err = None, f"{type(exc).__name__}: {exc}"
    return (time.perf_counter() - t) * 1000.0, out, err


def case_entry(key: str, ms: float, out, err) -> dict:
    entry = {"key": key, "ms": ms}
    if err is None:
        record, problems = out
        entry.update(digest=digest(record), problems=problems)
    else:
        entry.update(digest=None, problems=[err])
    return entry


def run_forked(workload: Workload, group: list[tuple]) -> list[dict]:
    """Run one group of (case, key) in a forked child, so it starts from this
    process's cold memos; the group's cases run back to back, in list order."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            entries = [case_entry(key, *run_case(workload, case)) for case, key in group]
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(entries))
        except BaseException:  # noqa: BLE001 - the child must never return
            code = 1
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return json.loads(text)
    except ValueError:
        return [{"key": key, "ms": None, "digest": None,
                 "problems": [f"child exited with status {status} and no result"]}
                for _, key in group]


def plan_round(round_index: int, estimates: list[float]) -> list[int]:
    """Group indices to run in one cold round after round 0."""
    plan = []
    for index, ms in enumerate(estimates):
        period = max(1, -int(-ms // SPREAD_MS))
        if (round_index + index) % period == 0:
            repeats = max(1, min(MAX_REPEATS, int(REPEAT_MS // max(ms, 1e-3))))
            plan.extend([index] * repeats)
    return plan


def cold_pass(workload: Workload, groups: list[list[tuple]], seed: str,
              deadline: float) -> list[dict]:
    """Round 0 runs every group once; further rounds run until the deadline."""
    rng = random.Random(seed)
    order = list(range(len(groups)))
    rng.shuffle(order)
    results: list[dict] = []
    estimates = [0.0] * len(groups)
    for index in order:
        entries = run_forked(workload, groups[index])
        results.extend(entries)
        estimates[index] = sum(entry["ms"] or 0.0 for entry in entries)
    round_index = 1
    while True:
        plan = plan_round(round_index, estimates)
        rng.shuffle(plan)
        for index in plan:
            if time.monotonic() + estimates[index] / 1000.0 > deadline:
                return results
            results.extend(run_forked(workload, groups[index]))
        round_index += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cold-until", type=float,
                        help="run cold rounds until this time.monotonic() value")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import heckelift
    from workloads import WORKLOADS, case_key, order_group

    if Path(heckelift.__file__).resolve().parent != (SRC / "heckelift").resolve():
        print(f"heckelift imported from {heckelift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    cases = spec["cases"]
    groups: dict[tuple, list] = {}
    for case in cases:
        groups.setdefault(order_group(args.workload, case), []).append(
            (case, case_key(args.workload, case)))
    workload = Workload(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.cold_until is not None:
        # zbasis imports mpmath on first use; import it once here so that no
        # child pays for it.  Objects that exist before any case are frozen,
        # so collections in a child do not write to (and copy) every page the
        # parent owns.
        import mpmath  # noqa: F401
        gc.collect()
        gc.freeze()
        seed = f"{args.workload}:{args.seed}:{args.pass_index}:cold"
        wall0 = time.monotonic()
        results = cold_pass(workload, list(groups.values()), seed, args.cold_until)
        print(json.dumps({"mode": "cold", "setup_s": setup_s,
                          "wall_s": time.monotonic() - wall0, "cases": results}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    outputs = []
    gc.collect()
    wall0 = time.perf_counter()
    for case in cases:
        frame = tracer.open_case() if tracer else None
        ms, out, err = run_case(workload, case)
        if tracer:
            tracer.close_case(frame)
        outputs.append((case, ms, out, err))
    wall_s = time.perf_counter() - wall0
    payload = {
        "mode": "sweep",
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.uninstall()
        payload["layers"] = tracer.metrics(wall_s)
        tracer.write(SPANS / f"{args.workload}.spans")
    # Golden probes run after every figure above is taken, so they change none.
    for case in spec.get("golden", []):
        outputs.append((case, *run_case(workload, case)))
    payload["cases"] = [case_entry(case_key(args.workload, case), *rest)
                        for case, *rest in outputs]
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
