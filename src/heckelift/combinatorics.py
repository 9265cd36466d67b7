"""Integer partitions and symmetric group characters.

Partitions are plain tuples of weakly decreasing positive ints, so they can
key dicts and memo tables directly.  Characters come from the
Murnaghan-Nakayama rule over beta-numbers, memoized in process.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

from .exactring import Frozen

Partition = tuple[int, ...]


class WeightMismatch(ValueError):
    """Raised when two partitions that must share a weight do not."""


def as_partition(parts) -> Partition:
    """Validate and canonicalize a partition given as any iterable of ints."""
    mu = tuple(parts)
    if not all(isinstance(x, int) for x in mu):
        raise ValueError(f"partition parts must be ints, got {mu}")
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


def boxes(lam: Partition) -> tuple[tuple[int, int], ...]:
    """(content j - i, hook length) of each box (i, j) of lam, row by row."""
    cols = conjugate(lam)
    return tuple(
        (j - i, row - j + cols[j] - i - 1) for i, row in enumerate(lam) for j in range(row)
    )


def hook_lengths(lam: Partition) -> Partition:
    """The hook lengths of lam, largest first."""
    return tuple(sorted((h for _, h in boxes(lam)), reverse=True))


def gcd_of_parts(mu: Partition) -> int:
    return math.gcd(*mu) if mu else 0


def _mobius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def _divisors(n: int):
    return [e for e in range(1, n + 1) if n % e == 0]


class HookShape(Frozen):
    """Hook partition (arm | leg) = (arm+1, 1^leg)."""

    __slots__ = ("arm", "leg")

    def __init__(self, arm: int, leg: int):
        if arm < 0 or leg < 0:
            raise ValueError("hook arm and leg must be nonnegative")
        super().__init__(arm, leg)

    @property
    def weight(self) -> int:
        return self.arm + self.leg + 1

    def partition(self) -> Partition:
        return (self.arm + 1,) + (1,) * self.leg

    @property
    def kappa(self) -> int:
        return (self.arm - self.leg) * self.weight


def hook_shapes(weight: int) -> tuple[HookShape, ...]:
    """All hooks of the given weight, arm descending."""
    if weight < 1:
        raise ValueError("hook weight must be >= 1")
    return tuple(HookShape(weight - 1 - leg, leg) for leg in range(weight))


def chi(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam at the conjugacy class mu.

    Murnaghan-Nakayama over beta-numbers: strip a border strip of length
    mu[0] for each beta-number that can drop by mu[0], with sign (-1)^height.
    """
    if sum(lam) != sum(mu):
        raise WeightMismatch(f"|{lam}| = {sum(lam)} != {sum(mu)} = |{mu}|")
    return _chi_rec(lam, mu)


# `sweep --lmov --degree 6` fills 1,461 entries; the bound keeps them all
@lru_cache(maxsize=2048)
def _chi_rec(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
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
    return total


def partition_key(mu: Partition) -> str:
    """Serialize a partition as a JSON key, e.g. (3, 1, 1) -> "3+1+1"."""
    return "+".join(str(x) for x in mu)


class CharacterTable(Frozen):
    """Full character table of S_n: values maps (lam, mu) to chi^lam(mu)."""

    __slots__ = ("weight", "values")


@cache
def character_table(n: int) -> CharacterTable:
    """The full character table of S_n, memoized in process."""
    parts = partitions_of(n)
    values = {(lam, mu): chi(lam, mu) for lam in parts for mu in parts}
    return CharacterTable(weight=n, values=values)
