"""The a -> 1 limit of the lifting defect and its Alexander factorization.

Dividing the defect by (a - a^-1) and setting a = 1 produces an exact
Laurent polynomial in q that factors as [p]^2 times the degree-p scaled
Alexander polynomial times a framing correction.  The correction polynomial
comes from the hook-shaped colors of weight p and lives in Z[z^2] for prime
p.  Hook-colored invariants themselves collapse to scalings of the Alexander
polynomial in the same limit, which is checked here exactly; every limit is
taken on row maps (abracket_quotient, then rows_at_a1).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import zip_longest

from .combinatorics import HookShape, character_table, partitions_of, z_mu
from .exactring import (
    Frozen,
    LaurentQA,
    NonExactDivision,
    RingFraction,
    abracket_quotient,
    adams_rows,
    add_rows,
    bracket_rows,
    emit_rows,
    kronecker_mul,
    parse_rows,
    rows_at_a1,
)
from .hecke import core_rows
from .torus import alexander_rows, power_sum_invariant
from .zbasis import CongruenceFragment, ZAPoly, qnum_sq_z2, z2_rows, z2_verdict


def framing_correction(p: int, tau: int) -> ZAPoly:
    """The weight-p hook trace divided by [p]^2, as a polynomial in z^2.

    The trace is sum over hooks of weight p of q^(kappa * tau) minus
    p * (-1)^((p-1) tau); for prime p the quotient is integral, and
    framing_correction(p, 0) == 0.  The hook with leg l has kappa = (p-1-2l)p.
    Composite p raises NonExactDivision from the division by [p]^2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    h = abs((p - 1) * p * tau) // 2
    row = [0] * (2 * h + 1)
    for leg in range(p):
        row[h + (p - 1 - 2 * leg) * p * tau // 2] += 1
    const = p if ((p - 1) * tau) % 2 == 0 else -p
    trace = add_rows({0: (-2 * h, row)}, {0: (0, [const])}, negate=True)
    return ZAPoly.from_rows(z2_rows(bracket_rows(trace, (1, 1), (p, p))))


def _limit_z2_rows(K, p: int) -> dict | None:
    """{0: z^2 row} of the core at a = 1: the sum of its z^2 rows, which a knot has."""
    rows = core_rows(K, p)[1]
    return None if rows is None else {0: list(map(sum, zip_longest(*rows.values(), fillvalue=0)))}


def limit_identity_check(K, p: int) -> bool:
    """lim defect/(a - a^-1) == [p]^2 * A(K; q^p) * correction, as z^2 rows."""
    lhs = _limit_z2_rows(K, p)
    alex_p = z2_rows(adams_rows(alexander_rows(K), p))[0]
    corr = framing_correction(p, K.framing).row_map().get(0, ())
    rhs = kronecker_mul(kronecker_mul(list(qnum_sq_z2(p)), alex_p), list(corr))
    return lhs is not None and ZAPoly.from_rows(lhs) == ZAPoly.from_rows({0: rhs})


class LimitMembership(Frozen):
    """Verdict for the limit lying in [p]^2 * Z[z^2]."""

    __slots__ = ("passed", "value", "fragment")

    def __init__(self, passed: bool, value: LaurentQA, fragment: CongruenceFragment):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "fragment", fragment)


def limit_membership_verdict(K, p: int) -> LimitMembership:
    """Check the a -> 1 limit of the defect against [p]^2 Z[z^2] membership."""
    lim = emit_rows(rows_at_a1(core_rows(K, p)[0]))
    frag = z2_verdict(_limit_z2_rows(K, p), p)
    return LimitMembership(passed=frag.z2_member and frag.p2_divisible, value=lim, fragment=frag)


class HookAlexanderReport(Frozen):
    """Outcome of one hook-colored Alexander comparison."""

    __slots__ = ("passed", "hook", "colored", "expected")

    def __init__(self, passed: bool, hook: HookShape, colored: LaurentQA | None,
                 expected: LaurentQA):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "hook", hook)
        object.__setattr__(self, "colored", colored)
        object.__setattr__(self, "expected", expected)


def hook_alexander_check(K, hook: HookShape) -> HookAlexanderReport:
    """Hook-colored Alexander value equals the weight-scaled Alexander.

    Computes A_hook(K) = lim (framing-normalized hook invariant of K) over
    (the same for the unknot), both limits of the invariant over (a - a^-1)
    as a -> 1, and compares with A(K; q^weight) exactly.  A hook's nonzero
    contents are its non-corner hook lengths, the leg's negated, so the
    unknot's limit is (-1)^leg / {w}: the knot's limit, a row over the
    colored sum's brackets, times (-1)^leg {w} resolves to A_hook(K).
    """
    w = hook.weight
    lam = hook.partition()
    table = character_table(w).values
    colored_sum = RingFraction(LaurentQA.zero())
    for mu in partitions_of(w):
        if table[(lam, mu)]:
            piece = power_sum_invariant(K, mu) * Fraction(table[(lam, mu)], z_mu(mu))
            colored_sum = colored_sum + piece
    normalized = colored_sum.num.shift(qexp=-hook.kappa * K.framing, aexp=-w * K.framing)
    limit = emit_rows(rows_at_a1(abracket_quotient(parse_rows(normalized.terms))))
    # {w} is in the colored sum's brackets D(dw), so the quotient has no {w}
    orders = (colored_sum.brackets - Counter({w: 1})).elements()
    try:
        colored = RingFraction.over_brackets(
            limit * (-1) ** hook.leg, colored_sum.scale, orders
        ).resolve()
    except NonExactDivision:
        colored = None
    expected = emit_rows(adams_rows(alexander_rows(K), w))
    return HookAlexanderReport(colored == expected, hook, colored, expected)
