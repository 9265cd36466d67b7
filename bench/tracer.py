"""Outside-in span recorder for the traced benchmark run.

The library itself is not instrumented.  ``Tracer.install`` rebinds each
public function named in LAYERS at every heckelift module that imported it,
and the three hot class methods on their classes, with a wrapper that
records one span per call: name, parent span, start and end.  Spans stay in
memory (four flat arrays) and are written out once, when the pass ends.

Each traced name reports its calls, its total time (the summed span
durations) and its self time: a span's duration minus the durations of its
direct child spans.  Calls run in one thread, so children never overlap.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (metric prefix, module, attribute path, extra counters)
LAYERS = (
    ("exactring.mul", "heckelift.exactring", "LaurentQA.__mul__", ()),
    ("exactring.exact_div", "heckelift.exactring", "exact_div", ("nonexact",)),
    ("exactring.divide_out_abracket", "heckelift.exactring", "divide_out_abracket", ()),
    ("exactring.fraction_add", "heckelift.exactring", "RingFraction.__add__", ("den_terms_max",)),
    ("exactring.resolve", "heckelift.exactring", "RingFraction.resolve", ()),
    ("combinatorics.character_table", "heckelift.combinatorics", "character_table", ("misses",)),
    ("torus.scaled_invariant", "heckelift.torus", "scaled_invariant", ("misses",)),
    ("torus.power_sum_invariant", "heckelift.torus", "power_sum_invariant", ("misses",)),
    ("torus.alexander", "heckelift.torus", "alexander", ()),
    ("zbasis.to_z2", "heckelift.zbasis", "to_z2", ("terms_in",)),
    ("zbasis.divide_by_qnum_sq", "heckelift.zbasis", "divide_by_qnum_sq", ()),
    ("zbasis.congruence_verdict", "heckelift.zbasis", "congruence_verdict", ()),
    ("zbasis.double_root_residual", "heckelift.zbasis", "double_root_residual", ()),
    ("hecke.verify_hecke", "heckelift.hecke", "verify_hecke", ()),
    ("hecke.lifting_defect", "heckelift.hecke", "lifting_defect", ("terms_out", "coeff_bits_max")),
    ("hecke.defect_cofactor", "heckelift.hecke", "defect_cofactor", ("nonexact",)),
    ("alexlimit.limit_identity_check", "heckelift.alexlimit", "limit_identity_check", ()),
    ("alexlimit.limit_membership_verdict", "heckelift.alexlimit", "limit_membership_verdict", ()),
    ("lmov.partition_function", "heckelift.lmov", "partition_function", ()),
    ("lmov.free_energy", "heckelift.lmov", "free_energy", ()),
    ("lmov.extract_f", "heckelift.lmov", "extract_f", ()),
    ("lmov.m_inverse", "heckelift.lmov", "m_inverse", ()),
    ("lmov.lmov_verdict", "heckelift.lmov", "lmov_verdict", ()),
)

EXTRA_UNITS = {
    "nonexact": "count",
    "misses": "count",
    "den_terms_max": "terms",
    "terms_in": "terms",
    "terms_out": "terms",
    "coeff_bits_max": "bits",
}

CASE_SPAN = "case"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for label, _, _, extras in LAYERS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
        units[f"{label}.total_s"] = "s"
        for extra in extras:
            units[f"{label}.{extra}"] = EXTRA_UNITS[extra]
    units["trace.overhead"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


def _max_coeff_bits(f) -> int:
    return max((abs(c.numerator).bit_length() for c in f.terms.values()), default=0)


class Tracer:
    """Records spans around the functions in LAYERS while installed."""

    def __init__(self):
        self.names = [label for label, _, _, _ in LAYERS] + [CASE_SPAN]
        self.name_col = array("H")
        self.parent_col = array("l")
        self.start_col = array("d")
        self.end_col = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.extras: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self._cached: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> list:
        index = len(self.start_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1][0] if self._stack else -1)
        self.end_col.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        self.start_col.append(perf_counter())
        return frame

    def _close(self, name_id: int, frame: list):
        end = perf_counter()
        index = frame[0]
        self.end_col[index] = end
        duration = end - self.start_col[index]
        self._stack.pop()
        self.calls[name_id] += 1
        self.self_s[name_id] += duration - frame[1]
        self.total_s[name_id] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def open_case(self) -> list:
        """Open the benchmark's own root span for one case."""
        return self._open(len(self.names) - 1)

    def close_case(self, frame: list):
        self._close(len(self.names) - 1, frame)

    def _count(self, key: str, value: int, keep_max: bool = False):
        if keep_max:
            self.extras[key] = max(self.extras.get(key, 0), value)
        else:
            self.extras[key] = self.extras.get(key, 0) + value

    def _wrap(self, name_id: int, label: str, fn, extras: tuple):
        from heckelift.exactring import NonExactDivision

        open_, close, count = self._open, self._close, self._count
        nonexact_key = f"{label}.nonexact" if "nonexact" in extras else None
        terms_in_key = f"{label}.terms_in" if "terms_in" in extras else None
        den_key = f"{label}.den_terms_max" if "den_terms_max" in extras else None
        out_key = f"{label}.terms_out" if "terms_out" in extras else None
        bits_key = f"{label}.coeff_bits_max"

        def wrapper(*args, **kwargs):
            if terms_in_key:
                count(terms_in_key, len(args[0].terms))
            frame = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except NonExactDivision:
                if nonexact_key:
                    count(nonexact_key, 1)
                raise
            finally:
                close(name_id, frame)
            if den_key and result is not NotImplemented:
                count(den_key, len(result.den.terms), keep_max=True)
            if out_key:
                count(out_key, len(result.terms))
                count(bits_key, _max_coeff_bits(result), keep_max=True)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Rebind every traced function and method; call uninstall to undo."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "heckelift" or name.startswith("heckelift."))
        ]
        for name_id, (label, module_name, path, extras) in enumerate(LAYERS):
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name_id, label, fn, extras))
                continue
            fn = getattr(owner, path)
            if "misses" in extras:
                self._cached[label] = fn
            wrapper = self._wrap(name_id, label, fn, extras)
            rebound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)
                        rebound += 1
            if not rebound:
                raise RuntimeError(f"{module_name}.{path} was not rebound anywhere")
        return self

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        out: dict[str, float] = {}
        for name_id, (label, _, _, extras) in enumerate(LAYERS):
            out[f"{label}.calls"] = self.calls[name_id]
            out[f"{label}.self_s"] = self.self_s[name_id]
            out[f"{label}.total_s"] = self.total_s[name_id]
            for extra in extras:
                if extra == "misses":
                    out[f"{label}.misses"] = self._cached[label].cache_info().misses
                else:
                    out[f"{label}.{extra}"] = self.extras.get(f"{label}.{extra}", 0)
        case_id = len(self.names) - 1
        covered = sum(
            self.end_col[i] - self.start_col[i]
            for i in range(len(self.start_col))
            if self.parent_col[i] >= 0 and self.name_col[self.parent_col[i]] == case_id
        )
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out

    def write(self, path: Path):
        """Write every span: a JSON header line, then the four raw columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start_col),
            "columns": [
                ["name", self.name_col.typecode],
                ["parent", self.parent_col.typecode],
                ["start", self.start_col.typecode],
                ["end", self.end_col.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name_col, self.parent_col, self.start_col, self.end_col):
                col.tofile(fh)
