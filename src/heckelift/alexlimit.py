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

from .combinatorics import HookShape, character_table, partitions_of, z_mu
from .exactring import (
    Frozen,
    LaurentQA,
    NonExactDivision,
    RingFraction,
    abracket_quotient,
    adams_rows,
    add_rows,
    cosh_coeffs,
    emit_rows,
    kronecker_mul,
    parse_rows,
    rows_at_a1,
)
from .hecke import core_rows
from .torus import alexander_rows, power_sum_invariant
from .zbasis import ZAPoly, over_qnum_sq, z2_rows, z2_verdict


def _hook_trace(p: int, tau: int) -> tuple[dict, dict]:
    """The weight-p hook trace and its quotient by [p]^2, as row maps.

    The trace is sum over hooks of weight p of q^(kappa * tau) minus
    p * (-1)^((p-1) tau); the hook with leg l has kappa = (p-1-2l)p.  For
    prime p the quotient is integral; composite p raises NonExactDivision.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    h = abs((p - 1) * p * tau) // 2
    row = [0] * (2 * h + 1)
    for leg in range(p):
        row[h + (p - 1 - 2 * leg) * p * tau // 2] += 1
    const = p if ((p - 1) * tau) % 2 == 0 else -p
    trace = add_rows({0: (-2 * h, row)}, {0: (0, [const])}, negate=True)
    return trace, over_qnum_sq(trace, p)


def framing_correction(p: int, tau: int) -> ZAPoly:
    """The weight-p hook trace divided by [p]^2, as a polynomial in z^2; 0 for tau = 0."""
    return ZAPoly.from_rows(z2_rows(_hook_trace(p, tau)[1]))


def _limit_rows(K, p: int) -> tuple[dict, bool]:
    """The core's rows at a = 1, and whether every core layer is even and palindromic."""
    core = core_rows(K, p)
    return rows_at_a1(core), all(cosh_coeffs(row) is not None for row in core.values())


def limit_identity_check(K, p: int) -> bool:
    """lim defect/(a - a^-1) == A(K; q^p) * hook trace, that is [p]^2 A(K; q^p)
    times the framing correction, as q-rows; composite p raises NonExactDivision."""
    lim, palindromic = _limit_rows(K, p)
    trace = _hook_trace(p, K.framing)[0]
    ((lo, alex),) = adams_rows(alexander_rows(K), p).values()
    rhs = {ae: (lo + lt, kronecker_mul(alex, row)) for ae, (lt, row) in trace.items()}
    return palindromic and lim == rhs


class LimitMembership(Frozen):
    """Verdict for the limit (value, a LaurentQA) lying in [p]^2 * Z[z^2]."""

    __slots__ = ("passed", "value", "fragment")


def limit_membership_verdict(K, p: int) -> LimitMembership:
    """Check the a -> 1 limit of the defect against [p]^2 Z[z^2] membership."""
    lim, palindromic = _limit_rows(K, p)
    frag = z2_verdict(lim if palindromic else None, p)
    return LimitMembership(frag.z2_member and frag.p2_divisible, emit_rows(lim), frag)


class HookAlexanderReport(Frozen):
    """A hook-colored Alexander check: colored (LaurentQA or None) against expected LaurentQA."""

    __slots__ = ("passed", "hook", "colored", "expected")


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
