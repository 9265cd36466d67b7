"""The a -> 1 limit of the lifting defect and its Alexander factorization.

Dividing the defect by (a - a^-1) and setting a = 1 produces an exact
Laurent polynomial in q that factors as [p]^2 times the degree-p scaled
Alexander polynomial times a framing correction.  The correction polynomial
comes from the hook-shaped colors of weight p and lives in Z[z^2] for prime
p.  Hook-colored invariants themselves collapse to scalings of the Alexander
polynomial in the same limit, which is checked here exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import HookShape, character_table, hook_shapes, partitions_of, z_mu
from .exactring import (
    LaurentQA,
    NonExactDivision,
    RingFraction,
    divide_out_abracket,
    exact_div,
    qnum,
)
from .hecke import defect_core
from .torus import power_sum_invariant, scaled_invariant, unknot_schur_value
from .zbasis import CongruenceFragment, ZAPoly, congruence_verdict, divide_by_qnum_sq, to_z2


def limit_ratio(f: LaurentQA) -> LaurentQA:
    """lim_{a -> 1} f / (a - a^-1): divide by (a - a^-1) exactly, then set a = 1.

    Raises NotDivisible when f does not vanish at a = +-1, in which case the
    limit does not exist in the polynomial sense.
    """
    return divide_out_abracket(f).substitute_a(1)


def framing_correction(p: int, tau: int) -> ZAPoly:
    """The weight-p hook trace divided by [p]^2, as a polynomial in z^2.

    The trace is sum over hooks of weight p of q^(kappa * tau) minus
    p * (-1)^((p-1) tau); for prime p the quotient is integral, and
    framing_correction(p, 0) == 0.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    bracket: dict = {}
    for hook in hook_shapes(p):
        e = hook.kappa * tau
        bracket[(e, 0)] = bracket.get((e, 0), 0) + 1
    const = p if ((p - 1) * tau) % 2 == 0 else -p
    bracket[(0, 0)] = bracket.get((0, 0), 0) - const
    trace = LaurentQA(bracket)
    quotient, exact, remainder = divide_by_qnum_sq(to_z2(trace), p)
    if not exact:
        raise NonExactDivision(
            f"hook trace for p={p}, tau={tau} is not divisible by [p]^2",
            remainder=remainder.to_laurent(),
        )
    return quotient


def limit_identity_check(K, p: int) -> bool:
    """lim defect/(a - a^-1) == [p]^2 * A(K; q^p) * correction, exactly."""
    lhs = defect_core(K, p).substitute_a(1)
    alex_p = limit_ratio(scaled_invariant(K, 1)).adams(p)
    corr = framing_correction(p, K.framing).to_laurent()
    return lhs == qnum(p) * qnum(p) * alex_p * corr


@dataclass(frozen=True)
class LimitMembership:
    """Verdict for the limit lying in [p]^2 * Z[z^2]."""

    passed: bool
    value: LaurentQA
    fragment: CongruenceFragment


def limit_membership_verdict(K, p: int) -> LimitMembership:
    """Check the a -> 1 limit of the defect against [p]^2 Z[z^2] membership."""
    lim = defect_core(K, p).substitute_a(1)
    frag = congruence_verdict(lim, p)
    return LimitMembership(
        passed=frag.z2_member and frag.p2_divisible, value=lim, fragment=frag
    )


@dataclass(frozen=True)
class HookAlexanderReport:
    """Outcome of one hook-colored Alexander comparison."""

    passed: bool
    hook: HookShape
    colored: LaurentQA | None
    expected: LaurentQA


def hook_alexander_check(K, hook: HookShape) -> HookAlexanderReport:
    """Hook-colored Alexander value equals the weight-scaled Alexander.

    Computes A_hook(K) = lim (framing-normalized hook invariant of K) over
    (the same for the unknot) and compares with A(K; q^weight) exactly.
    """
    w = hook.weight
    lam = hook.partition()
    tau = K.framing
    table = character_table(w).values
    colored_sum: RingFraction | None = None
    for mu in partitions_of(w):
        ch = table[(lam, mu)]
        if ch == 0:
            continue
        piece = power_sum_invariant(K, mu) * Fraction(ch, z_mu(mu))
        colored_sum = piece if colored_sum is None else colored_sum + piece
    assert colored_sum is not None
    normalized_num = colored_sum.num.shift(
        qexp=-hook.kappa * tau, aexp=-w * tau
    )
    unknot = unknot_schur_value(lam)
    # lim_knot / lim_unknot, cross-multiplied: the unknot's limit numerator
    # is a general polynomial in q, so the ratio is num / den directly
    num = limit_ratio(normalized_num) * unknot.den
    den = colored_sum.den * limit_ratio(unknot.num)
    expected = limit_ratio(scaled_invariant(K, 1)).adams(w)
    passed = num == expected * den
    try:
        colored = exact_div(num, den)
    except NonExactDivision:
        colored = None
    return HookAlexanderReport(
        passed=passed, hook=hook, colored=colored, expected=expected
    )
