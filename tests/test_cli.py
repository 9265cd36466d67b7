"""End-to-end tests for the command line interface.

These drive heckelift.cli.main directly with argv lists and assert on
exit codes, emitted files, and stdout. Exit code contract:
0 = all checks passed, 1 = a check failed, 2 = internal error,
64 = usage error.
"""

import csv
import io
import json
import math
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import heckelift
from heckelift import CongruenceReport, TorusKnot, verify_hecke
from heckelift.cli import SweepConfig, UsageError, main


def run(argv):
    return main(list(argv))


def test_verify_pass_and_fail_exit_codes(capsys):
    assert run(["verify", "--d", "2", "--m", "3", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    assert run(["verify", "--d", "2", "--m", "3", "--p", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_usage_errors(capsys):
    # d and m must be coprime
    assert run(["verify", "--d", "2", "--m", "4", "--p", "2"]) == 64
    # missing required flag
    assert run(["verify", "--d", "2", "--m", "3"]) == 64
    # non-positive values
    assert run(["verify", "--d", "0", "--m", "3", "--p", "2"]) == 64
    assert run(["verify", "--d", "2", "--m", "3", "--p", "0"]) == 64
    # unknown subcommands and empty argv
    assert run(["frobnicate"]) == 64
    assert run(["cache", "stat"]) == 64
    assert run([]) == 64
    capsys.readouterr()


def test_verify_internal_error_exits_2(capsys, monkeypatch):
    import heckelift.cli as cli

    # a MemoryError inside a case verify lets through is an internal error too
    for error in (RuntimeError, MemoryError):

        def broken(knot, p):
            raise error("injected failure")

        monkeypatch.setattr(cli, "verify_hecke", broken)
        assert run(["verify", "--d", "2", "--m", "3", "--p", "2"]) == 2
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "injected failure" in err


def _too_large(argv, capsys, error):
    # the closed form's first list cannot be allocated: the library raises at
    # once, and verify refuses the case before calling it
    d, m, p = (int(argv[i + 1]) for i in (1, 3, 5))
    with pytest.raises(error):
        verify_hecke(TorusKnot(d, m), p)
    assert run(argv) == 64
    err = capsys.readouterr().err
    assert "is too large" in err and "internal error" not in err


def test_verify_case_too_large_to_allocate_is_a_usage_error(capsys):
    _too_large(["verify", "--d", "2", "--m", "3", "--p", str(10**15)], capsys, MemoryError)
    _too_large(["verify", "--d", "2", "--m", str(10**15 + 1), "--p", "1"], capsys, MemoryError)


def test_verify_case_past_the_index_range_is_a_usage_error(capsys):
    _too_large(["verify", "--d", "2", "--m", "3", "--p", str(10**20 - 1)], capsys, OverflowError)


def test_size_guard_counts_the_layers_and_the_coefficient_bits(monkeypatch, capsys):
    """T(1,7) p=1000 has about 1,000 layers of up to 7.0 M wide coefficients of
    thousands of bits: refused before any row is built (verify_hecke raises
    here if it is reached).  T(1,13) p=53 (53 core layers, up to 35,829
    coefficients of up to 302 bits) is still accepted."""
    import heckelift.cli as cli

    def reached(knot, p):
        raise AssertionError("the size guard let the case through")

    monkeypatch.setattr(cli, "verify_hecke", reached)
    for argv in (["verify", "--d", "1", "--m", "7", "--p", "1000"],
                 ["verify", "--d", "1", "--m", "7", "--p", str(10**400)]):
        assert run(argv) == 64
        err = capsys.readouterr().err
        assert "is too large" in err and "Traceback" not in err and "internal" not in err
    assert cli._too_large(1, 7, 1000)
    assert not cli._too_large(1, 13, 53)
    assert not cli._too_large(3, 2, 17)


def test_sweep_case_too_large_to_allocate_is_a_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(
        json.dumps({"primes": [10**15], "d_values": [2], "m_values": [3], "max_pd": None})
    )
    assert run(["sweep", "--sweep-config", str(cfg_path)]) == 64
    err = capsys.readouterr().err
    assert f"case d=2 m=3 p={10**15} is too large" in err
    assert "Traceback" not in err and "raised" not in err


def test_lmov_degree_too_large_is_a_usage_error():
    """Degree 40 (p(80) = 15.8 M partitions) is refused before any case runs, lmov unloaded."""
    src = str(Path(heckelift.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "heckelift.cli", "sweep", "--lmov",
         "--degree", "40"],
        capture_output=True, text=True, cwd=src, timeout=60,
    )
    assert proc.returncode == 64
    assert "the LMOV suite at degree 40 is too large" in proc.stderr
    assert "Traceback" not in proc.stderr and "heckelift.lmov" not in proc.stderr
    assert not proc.stdout


def test_lmov_size_guard_accepts_degree8_and_counts_the_cable_width():
    import heckelift.cli as cli

    assert not cli._lmov_too_large(2, 8)
    assert cli._lmov_too_large(2, 40) and cli._lmov_too_large(40, 2)
    assert cli._lmov_too_large(1, 10**400)
    SweepConfig(lmov=True, degree=8).validate()
    with pytest.raises(UsageError, match="too large"):
        SweepConfig(lmov=True, degree=16, lmov_knots=[[5, 2]]).validate()
    SweepConfig(lmov=False, degree=40).validate()


def test_verify_json_report_matches_library(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert run(["verify", "--d", "2", "--m", "3", "--p", "2",
                "--out", str(out_path)]) == 0
    capsys.readouterr()
    written = json.loads(out_path.read_text())

    expected = verify_hecke(TorusKnot(2, 3), 2).to_json_dict()
    for key in expected:
        if key == "millis":
            assert written[key] >= 0
        else:
            assert written[key] == expected[key]
    assert list(written) == list(expected)


def test_verify_csv_output(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    assert run(["verify", "--d", "2", "--m", "3", "--p", "2",
                "--out", str(out_path), "--format", "csv"]) == 0
    capsys.readouterr()
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CongruenceReport.CSV_COLUMNS)
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    assert rows[1][:6] == ["2", "3", "2", "true", "PASS", "7"]


def test_verify_csv_stdout(capsys):
    assert run(["verify", "--d", "1", "--m", "1", "--p", "2",
                "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert ",".join(CongruenceReport.CSV_COLUMNS) in out


def test_verify_csv_stdout_is_only_csv(capsys):
    """Without --out the CSV header is the first line; the verdict goes to stderr."""
    assert run(["verify", "--d", "2", "--m", "3", "--p", "3", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == list(CongruenceReport.CSV_COLUMNS)
    assert rows[1][:5] == ["2", "3", "3", "true", "PASS"]
    assert "verdict=PASS" in captured.err


def write_config(path, **overrides):
    cfg = {
        "primes": [2],
        "composites": [4],
        "d_values": [1, 2],
        "m_values": [1, 2, 3],
        "max_pd": 8,
        "lemmas": False,
        "alexander": False,
        "lmov": False,
        "degree": 1,
        "seed": 1,
        "workers": 1,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def strip_timings(payload):
    for case in payload["cases"]:
        case["case"].pop("millis", None)
    return payload


def test_sweep_runs_and_reports(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path)
    out_path = tmp_path / "sweep_out.json"
    assert run(["sweep", "--sweep-config", str(cfg_path),
                "--out", str(out_path)]) == 0
    capsys.readouterr()

    payload = json.loads(out_path.read_text())
    summary = payload["summary"]
    assert summary["ok"] is True
    assert summary["unexpected"] == 0
    assert summary["cases"] == len(payload["cases"])
    assert summary["numeric_max_residual"] <= 1e-8

    for case in payload["cases"]:
        body = case["case"]
        assert case["as_expected"] is True
        # prime orders must pass, composite probes must fail
        assert case["verdict"] is body["p_prime"]
        if case["verdict"]:
            assert case["numeric_residual"] is not None
            assert case["numeric_residual"] <= 1e-8
        else:
            assert case["numeric_residual"] is None
    # only coprime (d, m) inside the pd bound are scheduled
    seen = {(c["case"]["d"], c["case"]["m"], c["case"]["p"])
            for c in payload["cases"]}
    assert all(gcd(d, m) == 1 for d, m, _ in seen)
    assert all(p * d <= 8 for d, _, p in seen)


def test_sweep_deterministic_and_parallel(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path)
    outs = []
    for name, workers in [("a.json", "1"), ("b.json", "1"), ("c.json", "2")]:
        out_path = tmp_path / name
        assert run(["sweep", "--sweep-config", str(cfg_path),
                    "--out", str(out_path), "--workers", workers]) == 0
        outs.append(strip_timings(json.loads(out_path.read_text())))
    capsys.readouterr()
    assert outs[0]["config"]["workers"] == 1
    assert outs[2]["config"]["workers"] == 2
    for payload in outs:
        payload["config"].pop("workers")
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


@pytest.mark.parametrize("cpus, expected", [(4, 4), (64, 10), (None, 1)])
def test_sweep_pool_is_sized_by_cases_and_cores(
    tmp_path, capsys, monkeypatch, cpus, expected
):
    """--workers 5000 forks at most one process per case and per core."""
    import heckelift.cli as cli

    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    # cmd_sweep imports Pool from multiprocessing only when it runs workers
    monkeypatch.setattr("multiprocessing.Pool", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path)
    outs = []
    for name, workers in [("serial.json", "1"), ("wide.json", "5000")]:
        out_path = tmp_path / name
        assert run(["sweep", "--sweep-config", str(cfg_path),
                    "--out", str(out_path), "--workers", workers]) == 0
        outs.append(strip_timings(json.loads(out_path.read_text())))
    capsys.readouterr()
    assert len(outs[0]["cases"]) == 10
    assert sizes == ([expected] if expected > 1 else [])
    assert outs[1]["config"]["workers"] == 5000
    outs[1]["config"]["workers"] = 1
    assert outs[0] == outs[1]


def test_sweep_csv_format(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path)
    out_path = tmp_path / "sweep.csv"
    assert run(["sweep", "--sweep-config", str(cfg_path),
                "--out", str(out_path), "--format", "csv"]) == 0
    capsys.readouterr()
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CongruenceReport.CSV_COLUMNS)
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    assert len(rows) == len(lines)
    assert all(len(row) == len(CongruenceReport.CSV_COLUMNS) for row in rows)
    for row in rows[1:]:
        assert row[4] in ("PASS", "FAIL")
        float(row[6])


def test_sweep_csv_rows_are_the_verify_rows(tmp_path, capsys):
    """A sweep's CSV rows are verify_hecke(...).csv_row(), prime and composite, bar millis."""
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path, d_values=[2], m_values=[3])
    out_path = tmp_path / "sweep.csv"
    assert run(["sweep", "--sweep-config", str(cfg_path),
                "--out", str(out_path), "--format", "csv"]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out_path.read_text())))[1:]
    expected = [
        [str(x) for x in verify_hecke(TorusKnot(2, 3), p).csv_row()[:-1]] for p in (2, 4)
    ]
    assert [row[:-1] for row in rows] == expected
    assert expected[0][4] == "PASS" and expected[1][4] == "FAIL"


def test_sweep_with_extra_suites(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    write_config(
        cfg_path,
        composites=[],
        d_values=[1],
        m_values=[1, 2],
        lemmas=True,
        lemma_primes=[2],
        lemma_d_max=2,
        lemma_m_max=2,
        alexander=True,
        lmov=True,
        lmov_knots=[[1, 2]],
        lmov_framings=[0],
        degree=1,
    )
    out_path = tmp_path / "full.json"
    assert run(["sweep", "--sweep-config", str(cfg_path),
                "--out", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["lemmas"] and all(e["pass"] for e in payload["lemmas"])
    assert payload["lmov"] and all(e["pass"] for e in payload["lmov"])
    for case in payload["cases"]:
        assert case["alexander"]["limit_identity"] == "pass"
        assert case["alexander"]["limit_membership"] == "pass"


def test_sweep_flag_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path, composites=[], d_values=[1], m_values=[1])
    out_path = tmp_path / "flags.json"
    assert run(["sweep", "--sweep-config", str(cfg_path),
                "--out", str(out_path), "--seed", "7", "--degree", "2",
                "--alexander"]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["config"]["seed"] == 7
    assert payload["config"]["degree"] == 2
    assert payload["config"]["alexander"] is True
    assert all("alexander" in case for case in payload["cases"])


def test_sweep_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["sweep", "--sweep-config", str(missing)]) == 64

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run(["sweep", "--sweep-config", str(bad_json)]) == 64

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"primes": [2], "no_such_key": 1}))
    assert run(["sweep", "--sweep-config", str(unknown)]) == 64
    capsys.readouterr()


def test_sweep_config_directory_is_a_usage_error(tmp_path, capsys):
    assert run(["sweep", "--sweep-config", str(tmp_path)]) == 64
    assert "cannot read sweep config" in capsys.readouterr().err


def test_sweep_config_not_utf8_is_a_usage_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"{\"primes\": [2]} \xe9")
    assert run(["sweep", "--sweep-config", str(latin1)]) == 64
    assert "can't decode" in capsys.readouterr().err


def _refuse_cases(monkeypatch):
    """Make any case that runs fail: a sweep then exits 1 and verify 2, not 64."""
    import heckelift.cli as cli

    def refuse(knot, p):
        raise RuntimeError("a case ran before --out was checked")

    monkeypatch.setattr(cli, "verify_hecke", refuse)


def test_out_directory_is_a_usage_error_before_any_case(tmp_path, capsys, monkeypatch):
    _refuse_cases(monkeypatch)
    assert run(["sweep", "--out", str(tmp_path)]) == 64
    assert run(["verify", "--d", "2", "--m", "3", "--p", "2", "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert err.count("is a directory") == 2 and "a case ran" not in err


def test_json_out_is_streamed_and_byte_identical(tmp_path, capsys, monkeypatch):
    """verify and sweep --out hold json.dumps(payload, indent=2), written without that string."""
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path)
    verify_out, sweep_out = tmp_path / "verify.json", tmp_path / "sweep_out.json"
    dumps = json.dumps

    def whole_text(*args, **kwargs):
        raise AssertionError("the report was built as one string")

    monkeypatch.setattr(json, "dumps", whole_text)
    assert run(["verify", "--d", "2", "--m", "3", "--p", "2", "--out", str(verify_out)]) == 0
    assert run(["sweep", "--sweep-config", str(cfg_path), "--out", str(sweep_out)]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    for path in (verify_out, sweep_out):
        text = path.read_text()
        assert text == dumps(json.loads(text), indent=2)


def test_out_missing_parent_is_a_usage_error_before_any_case(tmp_path, capsys, monkeypatch):
    _refuse_cases(monkeypatch)
    out = tmp_path / "missing" / "sweep.json"
    assert run(["sweep", "--format", "csv", "--out", str(out)]) == 64
    assert run(["verify", "--d", "2", "--m", "3", "--p", "2", "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.count("no directory") == 2 and "a case ran" not in err
    assert not out.parent.exists()


def test_sweep_config_round_trip():
    cfg = SweepConfig(primes=[2, 5], d_values=[1], m_values=[2],
                      lemmas=True, degree=2, seed=9)
    again = SweepConfig.from_json_dict(cfg.to_json_dict())
    assert again.to_json_dict() == cfg.to_json_dict()
    with pytest.raises(UsageError):
        SweepConfig.from_json_dict({"bogus": True})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"primes": [0]}, "primes must be >= 1"),
        ({"primes": "23"}, "primes must be a list"),
        ({"lmov": True, "degree": 0}, "degree must be >= 1"),
        ({"workers": True}, "workers must be an integer"),
        ({"lmov_knots": [[2, 4]]}, "not a coprime"),
        ({"d_values": [], "composites": []}, "grid is empty"),
        ({"lemmas": True, "lemma_primes": []}, "lemma_primes is empty"),
        ({"alexander": True, "primes": []}, "no prime order"),
        ({"lmov": True, "lmov_knots": [], "lmov_framings": []}, "lists no knots"),
    ],
)
def test_sweep_config_rejects_bad_values(tmp_path, capsys, overrides, message):
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path, **overrides)
    assert run(["sweep", "--sweep-config", str(cfg_path)]) == 64
    assert message in capsys.readouterr().err


def test_sweep_flag_overrides_are_validated(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path, composites=[], d_values=[1], m_values=[1])
    base = ["sweep", "--sweep-config", str(cfg_path)]
    assert run(base + ["--lmov", "--degree", "0"]) == 64
    assert run(base + ["--workers", "0"]) == 64
    assert run(base + ["--seed", "x"]) == 64
    capsys.readouterr()


def test_sweep_isolates_a_raising_case(tmp_path, capsys, monkeypatch):
    import heckelift.cli as cli

    real = cli.verify_hecke

    def flaky(knot, p):
        if (knot.d, knot.m, p) == (1, 2, 2):
            raise RuntimeError("injected failure")
        return real(knot, p)

    monkeypatch.setattr(cli, "verify_hecke", flaky)
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path)
    out_path = tmp_path / "out.json"
    assert run(["sweep", "--sweep-config", str(cfg_path), "--out", str(out_path)]) == 1
    assert "injected failure" in capsys.readouterr().err
    payload = json.loads(out_path.read_text())
    broken = [c for c in payload["cases"] if "error" in c]
    assert broken == [
        {
            "case": {"d": 1, "m": 2, "p": 2},
            "error": "RuntimeError: injected failure",
            "as_expected": False,
        }
    ]
    others = [c for c in payload["cases"] if "error" not in c]
    assert others and all(c["as_expected"] for c in others)
    assert payload["summary"]["cases"] == len(others) + 1
    assert payload["summary"]["unexpected"] == 1
    assert payload["summary"]["ok"] is False

    csv_path = tmp_path / "out.csv"
    assert run(["sweep", "--sweep-config", str(cfg_path), "--out", str(csv_path),
                "--format", "csv"]) == 1
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert ["1", "2", "2", "true", "ERROR", "", ""] in rows


def test_sweep_fails_on_nan_residual(tmp_path, capsys, monkeypatch):
    import heckelift.cli as cli

    calls = []

    def nan_first(defect, p, a0, s):
        calls.append(p)
        return float("nan") if len(calls) == 1 else 0.0

    monkeypatch.setattr(cli, "double_root_residual", nan_first)
    cfg_path = tmp_path / "sweep.json"
    write_config(cfg_path, composites=[])
    out_path = tmp_path / "out.json"
    assert run(["sweep", "--sweep-config", str(cfg_path), "--out", str(out_path)]) == 1
    capsys.readouterr()
    assert len(calls) > 1
    summary = json.loads(out_path.read_text())["summary"]
    assert summary["ok"] is False
    assert summary["unexpected"] == 0
    assert math.isnan(summary["numeric_max_residual"])
