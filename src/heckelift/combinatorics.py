"""Integer partitions and symmetric group characters.

Partitions are plain tuples of weakly decreasing positive ints, so they can
key dicts and memo tables directly.  Characters come from the
Murnaghan-Nakayama rule over beta-numbers, memoized in process and optionally
sealed to a per-weight JSON cache on disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from functools import cache
from pathlib import Path

Partition = tuple[int, ...]

CACHE_FORMAT_VERSION = 1


class WeightMismatch(ValueError):
    """Raised when two partitions that must share a weight do not."""


def as_partition(parts) -> Partition:
    """Validate and canonicalize a partition given as any iterable of ints."""
    mu = tuple(int(x) for x in parts)
    if any(x <= 0 for x in mu):
        raise ValueError(f"partition parts must be positive, got {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing, got {mu}")
    return mu


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest part first, in reverse-lex order.

    partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)).
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def descend(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(n, n, ())
    return tuple(out)


def z_mu(mu: Partition) -> int:
    """Centralizer order: |Aut(mu)| times the product of the parts."""
    aut = 1
    run = 1
    for i in range(1, len(mu) + 1):
        if i < len(mu) and mu[i] == mu[i - 1]:
            run += 1
        else:
            aut *= math.factorial(run)
            run = 1
    return aut * math.prod(mu)


def kappa(lam: Partition) -> int:
    """Framing exponent sum_i lam_i * (lam_i - 2i + 1), rows 1-indexed."""
    return sum(x * (x - 2 * i - 1) for i, x in enumerate(lam))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


def gcd_of_parts(mu: Partition) -> int:
    return math.gcd(*mu) if mu else 0


@dataclass(frozen=True)
class HookShape:
    """Hook partition (arm | leg) = (arm+1, 1^leg)."""

    arm: int
    leg: int

    def __post_init__(self):
        if self.arm < 0 or self.leg < 0:
            raise ValueError("hook arm and leg must be nonnegative")

    @property
    def weight(self) -> int:
        return self.arm + self.leg + 1

    def partition(self) -> Partition:
        return (self.arm + 1,) + (1,) * self.leg

    @property
    def kappa(self) -> int:
        return (self.arm - self.leg) * self.weight

    @classmethod
    def from_partition(cls, lam: Partition) -> "HookShape":
        if not lam or any(x != 1 for x in lam[1:]):
            raise ValueError(f"{lam} is not a hook")
        return cls(arm=lam[0] - 1, leg=len(lam) - 1)


def hook_shapes(weight: int) -> tuple[HookShape, ...]:
    """All hooks of the given weight, arm descending."""
    if weight < 1:
        raise ValueError("hook weight must be >= 1")
    return tuple(HookShape(weight - 1 - leg, leg) for leg in range(weight))


_chi_memo: dict[tuple[Partition, Partition], int] = {}


def chi(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam at the conjugacy class mu.

    Murnaghan-Nakayama over beta-numbers: strip a border strip of length
    mu[0] for each beta-number that can drop by mu[0], with sign (-1)^height.
    """
    if sum(lam) != sum(mu):
        raise WeightMismatch(f"|{lam}| = {sum(lam)} != {sum(mu)} = |{mu}|")
    return _chi_rec(lam, mu)


def _chi_rec(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    key = (lam, mu)
    got = _chi_memo.get(key)
    if got is not None:
        return got
    t, rest = mu[0], mu[1:]
    n = len(lam)
    beta = [lam[i] + n - 1 - i for i in range(n)]
    present = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in present:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((x for x in beta if x != b), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = tuple(x - (n - 1 - i) for i, x in enumerate(newbeta))
        newlam = tuple(x for x in newlam if x > 0)
        total += (-1) ** crossed * _chi_rec(newlam, rest)
    _chi_memo[key] = total
    return total


def partition_key(mu: Partition) -> str:
    """Serialize a partition as the cache key, e.g. (3, 1, 1) -> "3+1+1"."""
    return "+".join(str(x) for x in mu)


def parse_partition_key(key: str) -> Partition:
    if key == "":
        return ()
    return as_partition(key.split("+"))


@dataclass(frozen=True)
class CharacterTable:
    """Full character table of S_n, rows and columns in canonical order."""

    weight: int
    values: dict[tuple[Partition, Partition], int]

    def chi(self, lam: Partition, mu: Partition) -> int:
        return self.values[(lam, mu)]

    def to_json_dict(self) -> dict:
        table = {
            partition_key(lam): {
                partition_key(mu): self.values[(lam, mu)]
                for mu in partitions_of(self.weight)
            }
            for lam in partitions_of(self.weight)
        }
        body = {"version": CACHE_FORMAT_VERSION, "weight": self.weight, "table": table}
        body["sha256"] = _table_digest(table)
        return body

    @classmethod
    def from_json_dict(cls, data: dict) -> "CharacterTable":
        """Parse a cache body, raising ValueError if it is malformed.

        Malformed: a body, table or row that is not a JSON object, a wrong
        version or digest, or a table whose rows are not the partitions.
        """
        if not isinstance(data, dict):
            raise ValueError(f"cache body is a JSON {type(data).__name__}, not an object")
        if data.get("version") != CACHE_FORMAT_VERSION:
            raise ValueError(f"unsupported cache version {data.get('version')!r}")
        table = data["table"]
        if not isinstance(table, dict) or not all(
            isinstance(row, dict) for row in table.values()
        ):
            raise ValueError("cache table and its rows must be JSON objects")
        if data.get("sha256") != _table_digest(table):
            raise ValueError("character table cache digest mismatch")
        weight = int(data["weight"])
        values = {
            (parse_partition_key(lk), parse_partition_key(mk)): int(v)
            for lk, row in table.items()
            for mk, v in row.items()
        }
        expected = set(partitions_of(weight))
        seen_rows = {lam for lam, _ in values}
        if seen_rows != expected:
            raise ValueError("character table cache is incomplete")
        return cls(weight=weight, values=values)


def _table_digest(table: dict) -> str:
    canon = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@cache
def character_table(n: int) -> CharacterTable:
    """Compute (and memoize) the full character table of S_n.

    When HECKE_CACHE_DIR is set and holds a valid file for this weight the
    table is read from disk instead of recomputed.
    """
    cache_dir = os.environ.get("HECKE_CACHE_DIR")
    if cache_dir:
        try:
            cached = load_character_table(cache_dir, n)
        except (ValueError, KeyError, json.JSONDecodeError):
            cached = None
        if cached is not None:
            return cached
    parts = partitions_of(n)
    values = {(lam, mu): chi(lam, mu) for lam in parts for mu in parts}
    return CharacterTable(weight=n, values=values)


def cache_path(cache_dir: str | Path, weight: int) -> Path:
    return Path(cache_dir) / f"characters_w{weight:02d}.json"


def save_character_table(cache_dir: str | Path, n: int) -> Path:
    """Write the weight-n table to disk; returns the path.

    Rewrites are skipped when a valid file for this weight already exists,
    so repeated builds are idempotent.
    """
    path = cache_path(cache_dir, n)
    if path.exists():
        try:
            cached = CharacterTable.from_json_dict(json.loads(path.read_text()))
            if cached.weight == n:
                return path
        except (ValueError, KeyError, json.JSONDecodeError):
            pass
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(character_table(n).to_json_dict(), sort_keys=True)
    # write beside the target, then rename over it: a reader sees the old
    # file or the whole new one, never a torn write.  tempfile is imported
    # here because it adds about 8 ms to every `import heckelift`.
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_character_table(cache_dir: str | Path, n: int) -> CharacterTable | None:
    """Read the weight-n table from disk if present and valid."""
    path = cache_path(cache_dir, n)
    if not path.exists():
        return None
    table = CharacterTable.from_json_dict(json.loads(path.read_text()))
    if table.weight != n:
        raise ValueError(f"{path} holds weight {table.weight}, expected {n}")
    return table
