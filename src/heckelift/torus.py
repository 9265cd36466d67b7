"""Framed torus knots, framed unknots, and their exact colored invariants.

The verdict-path invariant (closed_form_rows, emitted by scaled_invariant)
is a closed form: with c = pm and n = pd, one a-layer per j = 0..min(|c|, n),
each the product of two symmetric q-binomials times {p}/{n}, kept as a dense
row in q^2; no partitions, no integer scale and no product of lists.  The
power-sum route evaluates the d-fold cable as one sum over lam |- n of
Rosso-Jones terms whose plane Schur values come from the hook-content
formula, prod over the boxes of {a q^c} / {h}; the total keeps one common
denominator D(n) = prod_k {k}^(n//k) as its list of bracket orders, each term
carrying the bracket-monomial cofactor D(n)/{hooks of lam}, so no rational
function arithmetic ever happens term by term; that term depends only on
lam and d, so every mu of one weight and every knot of one cable width share
it.  unknot_schur_value is the hook-content product itself; no verdict sums
over nu |- n (lmov.m_inverse, off the verdict path, still does).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm

from .combinatorics import (
    Partition,
    as_partition,
    boxes,
    chi,
    hook_lengths,
    kappa,
    partitions_of,
    z_mu,
)
from .exactring import (
    Frozen,
    LaurentQA,
    ResidualFractionalExponent,
    RingFraction,
    _times_brackets,
    abracket,
    abracket_of_partition,
    abracket_quotient,
    bracket_row,
    emit_rows,
    parse_rows,
    rows_at_a1,
)
from .zbasis import ZAPoly, z2_rows


class TorusKnot(Frozen):
    """The (d, m) torus knot with its natural framing d*m."""

    __slots__ = ("d", "m")

    def __init__(self, d: int, m: int):
        if d < 1 or m < 1:
            raise ValueError("torus knot parameters must be >= 1")
        if gcd(d, m) != 1:
            raise ValueError(f"({d}, {m}) is a link, not a knot")
        super().__init__(d, m)

    @property
    def framing(self) -> int:
        return self.d * self.m


class FramedUnknot(Frozen):
    """An unknot with an arbitrary integer framing (0 and negatives allowed)."""

    __slots__ = ("framing",)


def cable_params(K) -> tuple[int, int]:
    """(cable width d, twist numerator m) for either knot type."""
    if isinstance(K, TorusKnot):
        return K.d, K.m
    if isinstance(K, FramedUnknot):
        return 1, K.framing
    raise TypeError(f"unsupported knot type {type(K).__name__}")


# -- structured common denominators ------------------------------------------


@cache
def _den_brackets(n: int) -> tuple[int, ...]:
    """Bracket orders whose product is divisible by {mu} for every mu |- n."""
    out = []
    for k in range(1, n + 1):
        out.extend([k] * (n // k))
    return tuple(out)


@cache
def _zlcm(n: int) -> int:
    return lcm(*(z_mu(mu) for mu in partitions_of(n))) if n else 1


@lru_cache(maxsize=128)
def _cofactor(n: int, mu: Partition, scale: int = 1) -> LaurentQA:
    """D(n)/{mu} at q -> q^scale, multiplied out.

    mu is a multiset of orders inside D(n): a partition of n, or the hook
    lengths of one.  The product of the brackets {scale * k} over the orders
    of D(n) that mu does not use.
    """
    rest = Counter(_den_brackets(n)) - Counter(mu)
    brackets = Counter({scale * k: e for k, e in rest.items()})
    return LaurentQA._raw(_times_brackets({(0, 0): 1}, brackets.elements()))


# -- the closed q-binomial form ------------------------------------------------


@lru_cache(maxsize=8)
def closed_form_rows(K, p: int = 1) -> dict:
    """The rows of {p} * H(K * P_p): with c = pm, n = pd, for c > 0

        a^c ({p}/{n}) sum_{j=0}^{min(c,n)} (-1)^j a^(n-2j) [n, j] [c+n-1-j, n-1]

    where [N, r] = prod_{i=1..r} {N-r+i}/{i} = q^(-r(N-r)) G_{q^2}(N, r) is the
    symmetric q-binomial.  For c < 0 the sum is mirrored (q, a -> 1/q, 1/a;
    the q-binomials are palindromic, so only a moves) and {n} becomes {-n}.
    Resolves exactly to int rows for every p >= 1; a division failure here
    (NonExactDivision) would be an implementation bug, not a conjecture
    failure.  Every step is one bracket_row ratio, which tracks the q-offset
    and the sign.  With P_j = [n, j] [|c|+n-1-j, n-1], P_top is one
    q-binomial, built by single ratios so that each partial product
    [N-r+i, i] is a polynomial; P_j is P_(j+1) times two ratios; and row j
    is P_j {(-1)^j p}/{+-n}.
    """
    if p < 1:
        raise ValueError("color must be >= 1")
    d, m = cable_params(K)
    if m == 0:
        return parse_rows(abracket(p).terms)
    n, c = p * d, p * m
    size, mirror = abs(c), (1 if c > 0 else -1)
    top = min(size, n)
    # one of the two q-binomials of P_top is 1
    N, r = (size - 1, n - 1) if top == n else (n, top)
    r = min(r, N - r)
    lo, prod = 0, [1]
    for i in range(1, r + 1):
        lo, prod = bracket_row(lo, prod, (N - r + i,), (i,))
    rows = {}
    for j in range(top, -1, -1):
        if j < top:
            big = size + n - 1 - j
            lo, prod = bracket_row(lo, prod, (j + 1,), (n - j,))
            lo, prod = bracket_row(lo, prod, (big,), (big - n + 1,))
        # {-p} = -{p} carries (-1)^j, and {-n} the mirror's sign
        rows[c + mirror * (n - 2 * j)] = bracket_row(lo, prod, ((-1) ** j * p,), (mirror * n,))
    return rows


@lru_cache(maxsize=8)
def scaled_invariant(K, p: int = 1) -> LaurentQA:
    """The bracket-scaled power-sum invariant {p} * H(K * P_p), from closed_form_rows.

    Terms come a ascending and q descending; only the numeric oracles of the
    tests depend on that order.
    """
    rows = closed_form_rows(K, p)
    return abracket(p) if cable_params(K)[1] == 0 else emit_rows(rows)


def _content_row(lam: Partition, scale: int = 1) -> LaurentQA:
    """prod over the boxes of lam of {a q^(scale * c)}, c the box's content."""
    out = LaurentQA.one()
    for c, _ in boxes(lam):
        out = out * LaurentQA._raw({(scale * c, 1): 1, (-scale * c, -1): -1})
    return out


@lru_cache(maxsize=256)
def _hook_term(lam: Partition, d: int) -> dict:
    """The terms of prod_boxes {a u^(dc)} times D(n)/{d * hooks}, n = |lam|.

    Shared by every mu of one weight and every knot of one cable width d.
    """
    return (_content_row(lam, d) * _cofactor(sum(lam), hook_lengths(lam), d)).terms


@lru_cache(maxsize=64)
def power_sum_invariant(K, mu: Partition) -> RingFraction:
    """H(K * P_mu) by the Rosso-Jones cabling of the hook-content formula.

    With n = d|mu| and u = q^(1/d), a^(-|mu| m) H is the sum over lam |- n of
    chi_lam(d mu) u^(m kappa_lam) prod_boxes {a u^(d c)} / {d h}; each term
    goes over D(n) with the cofactor D(n)/{hooks}, which exists because lam
    has at most n//k hooks of length k.  Fractional q-exponents must cancel
    in the assembled total and a survivor raises ResidualFractionalExponent.
    """
    d, m = cable_params(K)
    mu = as_partition(mu)
    if not mu:
        return RingFraction(LaurentQA.one())
    weight = sum(mu)
    n = d * weight
    dmu = tuple(d * x for x in mu)
    acc: dict = {}
    for lam in partitions_of(n):
        ch = chi(lam, dmu)
        if not ch:
            continue
        e = kappa(lam) * m
        for (ue, ae), c in _hook_term(lam, d).items():
            key = (ue + e, ae)
            s = acc.get(key, 0) + ch * c
            if s == 0:
                acc.pop(key, None)
            else:
                acc[key] = s
    num: dict = {}
    for (ue, ae), cv in acc.items():
        if ue % d:
            raise ResidualFractionalExponent(
                f"uncancelled q-exponent {Fraction(ue, d)} in the cable of {K}"
            )
        num[(ue // d, ae + weight * m)] = cv
    return RingFraction.over_brackets(LaurentQA._raw(num), 1, _den_brackets(n))


@lru_cache(maxsize=64)
def unknot_schur_value(lam: Partition) -> RingFraction:
    """The plane evaluation of the Schur-colored unknot, W_lam(U), by hook-content."""
    lam = as_partition(lam)
    return RingFraction.over_brackets(_content_row(lam), 1, hook_lengths(lam))


def power_sum_plane_value(mu: Partition) -> RingFraction:
    """Plane evaluation of a power-sum color: prod_j {mu_j}_a / {mu_j}."""
    mu = as_partition(mu)
    return RingFraction.over_brackets(abracket_of_partition(mu), 1, mu)


def alexander_rows(K) -> dict:
    """The Alexander polynomial (q - q^-1) lim_{a->1} H(K)/(a - a^-1) as rows."""
    return rows_at_a1(abracket_quotient(closed_form_rows(K, 1)))


def alexander(K) -> ZAPoly:
    """The Alexander polynomial in the z^2 basis (single a^0 row, symmetric and integral)."""
    return ZAPoly.from_rows(z2_rows(alexander_rows(K)))
