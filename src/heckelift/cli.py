"""Command line driver: single verification and grid sweeps.

Exit codes: 0 all verdicts as expected, 1 a check failed (a sweep case that
raises counts as failed and the others still run), 2 internal error, 64 usage
error, which includes a verify or sweep case too large to compute.  Sweep reports
are deterministic apart from the millis fields; composite orders are probes
whose expected verdict is FAIL.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import os
import random
import sys
from copy import deepcopy
from math import gcd, lgamma, log, pi, sqrt
from pathlib import Path

from .combinatorics import partition_key, partitions_of
from .hecke import (
    CongruenceReport,
    divisible_family_check,
    is_prime,
    lifting_defect,
    nondivisible_family_check,
    verify_hecke,
)
from .torus import FramedUnknot, TorusKnot
from .zbasis import double_root_residual

NUMERIC_TOLERANCE = 1e-8


class UsageError(ValueError):
    """Command line arguments are semantically invalid."""


class SweepConfig:
    """Grid description for cmd_sweep, JSON round-trippable."""

    # (name, default) per field, in JSON order; list defaults are copied
    FIELDS = (
        ("primes", [2, 3, 5]),
        ("composites", []),
        ("d_values", [1, 2, 3]),
        ("m_values", list(range(1, 8))),
        ("max_pd", 15),
        ("lemmas", False),
        ("lemma_primes", [2, 3]),
        ("lemma_d_max", 3),
        ("lemma_m_max", 5),
        ("alexander", False),
        ("lmov", False),
        ("lmov_knots", [[2, 3], [2, 5]]),
        ("lmov_framings", [-2, -1, 0, 1, 2]),
        ("degree", 3),
        ("seed", 0),
        ("workers", 1),
    )

    def __init__(self, **values):
        for name, default in self.FIELDS:
            setattr(self, name, values.pop(name) if name in values else deepcopy(default))
        if values:
            raise TypeError(f"unknown SweepConfig fields: {sorted(values)}")

    def to_json_dict(self) -> dict:
        return {name: deepcopy(getattr(self, name)) for name, _ in self.FIELDS}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise UsageError("sweep config must be a JSON object")
        known = {name for name, _ in cls.FIELDS}
        extra = set(data) - known
        if extra:
            raise UsageError(f"unknown sweep config keys: {sorted(extra)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self):
        """UsageError on a bad type or range, an oversized case or a run that checks nothing."""
        for name in ("primes", "composites", "d_values", "m_values", "lemma_primes"):
            _check_int_list(name, getattr(self, name), minimum=1)
        _check_int_list("lmov_framings", self.lmov_framings)
        if not isinstance(self.lmov_knots, list):
            raise UsageError("lmov_knots must be a list of [d, m] pairs")
        for pair in self.lmov_knots:
            _check_int_list("lmov_knots entries", pair, minimum=1)
            if len(pair) != 2 or gcd(*pair) != 1:
                raise UsageError(f"lmov_knots entry {pair} is not a coprime [d, m] pair")
        for name in ("lemmas", "alexander", "lmov"):
            if not isinstance(getattr(self, name), bool):
                raise UsageError(f"{name} must be true or false")
        if self.max_pd is not None:
            _check_int("max_pd", self.max_pd, minimum=1)
        for name in ("lemma_d_max", "lemma_m_max", "degree", "workers"):
            _check_int(name, getattr(self, name), minimum=1)
        _check_int("seed", self.seed)
        cases = self.cases()
        if not cases:
            raise UsageError("the sweep grid is empty: no coprime (d, m) with p * d <= max_pd")
        for d, m, p in cases:
            if _too_large(d, m, p):
                raise UsageError(f"case d={d} m={m} p={p} is too large to compute")
        if self.lemmas and not self.lemma_primes:
            raise UsageError("lemmas are enabled but lemma_primes is empty")
        if self.alexander and not any(is_prime(p) or p == 1 for _, _, p in cases):
            raise UsageError("alexander checks are enabled but the grid has no prime order")
        if self.lmov and not (self.lmov_knots or self.lmov_framings):
            raise UsageError("lmov is enabled but lists no knots")
        # a framed unknot is a cable of width 1
        if self.lmov and _lmov_too_large(max([d for d, _ in self.lmov_knots] + [1]), self.degree):
            raise UsageError(f"the LMOV suite at degree {self.degree} is too large to compute")

    def cases(self) -> list[tuple[int, int, int]]:
        out = set()
        for d in self.d_values:
            for m in self.m_values:
                if d < 1 or m < 1 or gcd(d, m) != 1:
                    continue
                for p in list(self.primes) + list(self.composites):
                    if self.max_pd is not None and p * d > self.max_pd:
                        continue
                    out.add((d, m, p))
        return sorted(out)


def _check_int(name: str, value, minimum: int | None = None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {value}")


def _check_int_list(name: str, values, minimum: int | None = None):
    if not isinstance(values, list):
        raise UsageError(f"{name} must be a list of integers, got {values!r}")
    for value in values:
        _check_int(name, value, minimum)


def _isolated_case(task: tuple) -> tuple[dict, list]:
    """_case_worker, with an exception turned into a failed case of its own."""
    try:
        return _case_worker(task)
    except Exception as err:  # noqa: BLE001 - one case must not end the sweep
        import traceback  # here, not at the top: it loads tokenize at every start

        d, m, p = task[:3]
        print(f"heckelift: case d={d} m={m} p={p} raised:", file=sys.stderr)
        traceback.print_exc()
        entry = {
            "case": {"d": d, "m": m, "p": p},
            "error": f"{type(err).__name__}: {err}",
            "as_expected": False,
        }
        return entry, [d, m, p, "true" if is_prime(p) else "false", "ERROR", "", ""]


def _case_worker(task: tuple) -> tuple[dict, list]:
    """Run one (d, m, p) case; returns its plain serializable entry and CSV row."""
    d, m, p, with_alexander, seed = task
    knot = TorusKnot(d, m)
    report = verify_hecke(knot, p)
    expected = is_prime(p) or p == 1
    numeric = None
    if report.verdict:
        rng = random.Random(seed * 1000003 + d * 10007 + m * 101 + p)
        theta = rng.uniform(0.0, 1.0)
        a0 = cmath.exp(2j * cmath.pi * theta)
        s = rng.choice([k for k in range(1, 2 * p) if gcd(k, 2 * p) == 1])
        numeric = double_root_residual(lifting_defect(knot, p), p, a0, s)
    result = {
        "case": report.to_json_dict(),
        "verdict": report.verdict,
        "expected_pass": expected,
        "as_expected": report.verdict == expected,
        "numeric_residual": numeric,
    }
    if with_alexander and (p == 1 or is_prime(p)):
        from .alexlimit import limit_identity_check, limit_membership_verdict

        membership = limit_membership_verdict(knot, p)
        result["alexander"] = {
            "limit_identity": "pass" if limit_identity_check(knot, p) else "fail",
            "limit_membership": "pass" if membership.passed else "fail",
        }
    return result, report.csv_row()


def _run_lemma_suite(cfg: SweepConfig) -> list[dict]:
    out = []
    for p in cfg.lemma_primes:
        for m in range(1, cfg.lemma_m_max + 1):
            for d in range(1, cfg.lemma_d_max + 1):
                if gcd(d, m) != 1:
                    continue
                for nu in partitions_of(d):
                    ok, _ = divisible_family_check(p, m, nu)
                    out.append(
                        {
                            "family": "divisible",
                            "p": p,
                            "m": m,
                            "index": partition_key(nu),
                            "pass": ok,
                        }
                    )
                for mu in partitions_of(p * d):
                    if all(x % p == 0 for x in mu):
                        continue
                    ok, _ = nondivisible_family_check(p, m, mu)
                    out.append(
                        {
                            "family": "nondivisible",
                            "p": p,
                            "m": m,
                            "index": partition_key(mu),
                            "pass": ok,
                        }
                    )
    return out


def _run_lmov_suite(cfg: SweepConfig) -> list[dict]:
    from .lmov import lmov_verdict  # here, not at the top: verify never needs it

    knots: list = [TorusKnot(d, m) for d, m in cfg.lmov_knots]
    knots += [FramedUnknot(t) for t in cfg.lmov_framings]
    out = []
    for knot in knots:
        label = (
            f"T_{knot.d}^{knot.m}"
            if isinstance(knot, TorusKnot)
            else f"U_{knot.framing}"
        )
        for w in range(1, cfg.degree + 1):
            for mu in partitions_of(w):
                rep = lmov_verdict(knot, mu, cfg.degree)
                out.append(
                    {
                        "knot": label,
                        "mu": partition_key(mu),
                        "pass": rep.passed,
                        "min_z_power": rep.min_z_power,
                        "z2_fhat": None
                        if rep.z2_fhat is None
                        else rep.z2_fhat.to_json_dict(),
                    }
                )
    return out


def _check_out(path: str | None):
    """Refuse an --out path that is a directory or lies in none, before any case runs."""
    if path and Path(path).is_dir():
        raise UsageError(f"--out {path} is a directory")
    if path and not Path(path).parent.is_dir():
        raise UsageError(f"--out {path}: no directory {Path(path).parent}")


def _write_output(path: str | None, text: str):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _write_json(path: str | None, payload):
    """payload as indented JSON: streamed into the file at path, so no copy of the text is held."""
    if not path:
        return _write_output(None, json.dumps(payload, indent=2))
    with open(path, "w") as out:
        json.dump(payload, out, indent=2)


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CongruenceReport.CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _memory() -> int:
    """The machine's memory in bytes; sys.maxsize where it cannot be read."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def _lmov_too_large(width: int, degree: int) -> bool:
    """Whether the LMOV suite to degree, widest cable width, needs more memory than the machine has.

    Its memos grow with the hook terms of lam |- n, n = width * degree, n
    a-layers of about n^2 coefficients each.  Above the interpreter's 20 MB
    the measured sweep peaks grew by 94 to 133 p(n) n^3 bytes at n = 10 to
    18, p(n) over-estimated by exp(pi sqrt(2n/3)) / (4 sqrt(3) n); 150 bounds it.
    """
    n, memory = width * degree, _memory()
    # n > memory is too large already, and a float of n may overflow
    return n > memory or pi * sqrt(2 * n / 3) + log(150 * n * n / 4 / sqrt(3)) > log(memory)


def _too_large(d: int, m: int, p: int) -> bool:
    """Whether T(d, m) at colour p needs more memory than the machine has.

    With n = pd and c = pm the closed form has min(c, n) + 1 a-layers of at
    most (n - 1) c - p(d - 1) + 1 coefficients: [n, j] [c+n-1-j, n-1] over
    [d]_{q^p}, whose q-binomials at q = 1 bound the bits b of a coefficient
    by log2 C(n, n/2) C(c+n-1, n-1).  A coefficient takes 32 + 4 b/30 bytes,
    and a case holds about four such row maps (Z_p, g, its core, the quotient).
    """
    memory = _memory()
    n, c = p * d, p * m
    cells = (min(c, n) + 1) * ((n - 1) * c - p * (d - 1) + 1)
    if cells > memory:  # a byte each is too much already; lgamma needs a float
        return True
    bits = sum(lgamma(x + 1) - lgamma(k + 1) - lgamma(x - k + 1)
               for x, k in ((n, n // 2), (c + n - 1, n - 1))) / log(2)
    return 4 * cells * (32 + bits / 7.5) > memory


def cmd_verify(args) -> int:
    if args.d < 1 or args.m < 1:
        raise UsageError("need --d >= 1 and --m >= 1")
    if gcd(args.d, args.m) != 1:
        raise UsageError(f"gcd({args.d}, {args.m}) != 1: not a knot")
    if args.p < 1:
        raise UsageError("need --p >= 1")
    if _too_large(args.d, args.m, args.p):
        raise UsageError(f"case d={args.d} m={args.m} p={args.p} is too large to compute")
    report = verify_hecke(TorusKnot(args.d, args.m), args.p)
    verdict = "PASS" if report.verdict else "FAIL"
    # a CSV report on stdout keeps stdout CSV: the verdict line goes to stderr
    print(
        f"d={report.d} m={report.m} p={report.p} framing={report.framing} "
        f"verdict={verdict} identity={'pass' if report.identity_gp_eq_p2F else 'fail'} "
        f"({report.millis:.1f} ms)",
        file=sys.stderr if args.format == "csv" and not args.out else sys.stdout,
    )
    if args.out or args.format == "csv":
        if args.format == "csv":
            _write_output(args.out, _csv_text([report.csv_row()]))
        else:
            _write_json(args.out, report.to_json_dict())
    return 0 if report.verdict else 1


def cmd_sweep(args) -> int:
    if args.sweep_config:
        try:
            raw = json.loads(Path(args.sweep_config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise UsageError(f"sweep config not found: {args.sweep_config}")
        except (OSError, ValueError) as err:  # a directory, not UTF-8, or not JSON
            raise UsageError(f"cannot read sweep config {args.sweep_config}: {err}")
        cfg = SweepConfig.from_json_dict(raw)
    else:
        cfg = SweepConfig()
    if args.lemmas:
        cfg.lemmas = True
    if args.alexander:
        cfg.alexander = True
    if args.lmov:
        cfg.lmov = True
    if args.degree is not None:
        cfg.degree = args.degree
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    cfg.validate()

    specs = [(d, m, p, cfg.alexander, cfg.seed) for d, m, p in cfg.cases()]
    # more processes than cases or cores only costs forks; the config still
    # echoes the requested count
    workers = min(cfg.workers, len(specs), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool  # at the top it would add 10 ms to every start

        with Pool(workers) as pool:
            outcomes = pool.map(_isolated_case, specs)
    else:
        outcomes = [_isolated_case(s) for s in specs]
    results = [entry for entry, _ in outcomes]

    ok = all(r["as_expected"] for r in results)
    residuals = [
        r["numeric_residual"] for r in results if r.get("numeric_residual") is not None
    ]
    # a NaN residual checks nothing: it fails the sweep, and since max() over
    # a NaN depends on the order, the summary reports the NaN itself
    if any(not r <= NUMERIC_TOLERANCE for r in residuals):
        ok = False
    if any(r != r for r in residuals):
        numeric_max = float("nan")
    else:
        numeric_max = max(residuals, default=0.0)
    for r in results:
        section = r.get("alexander")
        if section and any(v != "pass" for v in section.values()):
            ok = False

    lemma_results = _run_lemma_suite(cfg) if cfg.lemmas else None
    if lemma_results is not None and not all(x["pass"] for x in lemma_results):
        ok = False
    lmov_results = _run_lmov_suite(cfg) if cfg.lmov else None
    if lmov_results is not None and not all(x["pass"] for x in lmov_results):
        ok = False

    summary = {
        "cases": len(results),
        "pass": sum(1 for r in results if r.get("verdict")),
        "expected_fail": sum(
            1
            for r in results
            if "error" not in r and not r["expected_pass"] and not r["verdict"]
        ),
        "unexpected": sum(1 for r in results if not r["as_expected"]),
        "numeric_max_residual": numeric_max,
        "ok": ok,
    }
    if args.format == "csv":
        _write_output(args.out, _csv_text([row for _, row in outcomes]))
    else:
        payload = {
            "config": cfg.to_json_dict(),
            "cases": results,
            "lemmas": lemma_results,
            "lmov": lmov_results,
            "summary": summary,
        }
        _write_json(args.out, payload)
    print(
        f"sweep: {summary['cases']} cases, {summary['pass']} pass, "
        f"{summary['expected_fail']} expected fail, "
        f"{summary['unexpected']} unexpected -> {'OK' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heckelift",
        description="Exact congruence checks for power-sum colored torus knot invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one (d, m, p) congruence case")
    p_verify.add_argument("--d", type=int, required=True, help="cable width >= 1")
    p_verify.add_argument("--m", type=int, required=True, help="twist, coprime to d")
    p_verify.add_argument("--p", type=int, required=True, help="lifting order >= 1")
    p_verify.add_argument("--out", help="write the report to this path")
    p_verify.add_argument("--format", choices=["json", "csv"], default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a grid of congruence cases")
    p_sweep.add_argument("--sweep-config", help="JSON file with the grid description")
    p_sweep.add_argument("--out", help="write the full report to this path")
    p_sweep.add_argument("--format", choices=["json", "csv"], default="json")
    p_sweep.add_argument("--workers", type=int, default=None, help="parallel workers")
    p_sweep.add_argument("--lemmas", action="store_true", help="run the ratio family suites")
    p_sweep.add_argument(
        "--alexander", action="store_true", help="run the limit checks per prime case"
    )
    p_sweep.add_argument(
        "--lmov", action="store_true", help="run the integrality suite"
    )
    p_sweep.add_argument("--degree", type=int, default=None, help="series truncation")
    p_sweep.add_argument("--seed", type=int, default=None, help="numeric spot-check seed")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        return args.func(args)
    except UsageError as err:
        print(f"heckelift: error: {err}", file=sys.stderr)
        return 64
    except Exception as err:  # noqa: BLE001 - the contract is exit code 2
        print(f"heckelift: internal error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
