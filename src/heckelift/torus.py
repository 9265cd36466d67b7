"""Framed torus knots, framed unknots, and their exact colored invariants.

The d-fold cabling of the (d, m) torus knot turns a power sum P_mu into
P_{d*mu} twisted by fractional framing m/d; evaluating in the plane gives the
invariant as a finite sum over partitions.  The verdict path
(scaled_invariant, and the defect cofactor and the identity check built
beside it) sums over mu |- n the terms (L/z_mu) {mu}_a prod_i [c]_{q^{mu_i}},
using {c*k}/{k} = [c]_{q^k}: every q-part is a polynomial over the same span,
built and accumulated as dense int lists, and only {p}/{c} and the integer
scale L are divided out exactly at the end.  The power-sum, Schur and LMOV
routes, whose twist is a monomial, keep one common denominator
D(n) = prod_k {k}^(n//k) as its list of bracket orders: the term of mu |- n
carries the bracket-monomial cofactor D(n)/{mu}, and the total is a
RingFraction over D(n), so no rational function arithmetic ever happens
term by term.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd, lcm
from operator import sub

from .combinatorics import (
    Partition,
    as_partition,
    character_table,
    kappa,
    partitions_of,
    z_mu,
)
from .exactring import (
    LaurentQA,
    ResidualFractionalExponent,
    RingFraction,
    _times_brackets,
    abracket,
    abracket_of_partition,
    divide_brackets,
    divide_out_abracket,
    exact_int_div,
    qbracket,
)
from .zbasis import ZAPoly, to_z2


@dataclass(frozen=True)
class TorusKnot:
    """The (d, m) torus knot with its natural framing d*m."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("torus knot parameters must be >= 1")
        if gcd(self.d, self.m) != 1:
            raise ValueError(f"({self.d}, {self.m}) is a link, not a knot")

    @property
    def framing(self) -> int:
        return self.d * self.m


@dataclass(frozen=True)
class FramedUnknot:
    """An unknot with an arbitrary integer framing (0 and negatives allowed)."""

    framing: int


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


@cache
def _cofactor(n: int, mu: Partition, scale: int = 1) -> LaurentQA:
    """D(n)/{mu} at q -> q^scale for mu |- n, multiplied out.

    The product of the brackets {scale * k} over the orders of D(n) that mu
    does not use.
    """
    rest = Counter(_den_brackets(n)) - Counter(mu)
    brackets = Counter({scale * k: e for k, e in rest.items()})
    return LaurentQA._raw(_times_brackets({(0, 0): 1}, brackets))


@cache
def _plane_row(n: int, nu: Partition, scale: int = 1) -> LaurentQA:
    """{nu}_a times the bracket-monomial cofactor D(n)/{nu}, q-scaled."""
    return abracket_of_partition(nu) * _cofactor(n, nu, scale)


# -- the twisted power-sum expansion -----------------------------------------


def _qnum_product(parts, c: int) -> list[int]:
    """prod_i [c]_{q^{k_i}} over the parts k_i, as a dense list.

    Entry j is the coefficient of q^(j - s) with s = (|c| - 1) * sum(parts),
    the span every product over parts of the same total shares.  With
    C = |c|, each factor is one sliding window of stride 2k:
    [C]_{q^k} = q^(k(C-1)) (1 - q^-2kC) / (1 - q^-2k), a shifted difference
    followed by running sums along each residue class mod 2k; [c] = -[-c]
    for c < 0.
    """
    mag = abs(c)
    size = 2 * (mag - 1) * sum(parts) + 1
    out = [0] * size
    out[size // 2] = -1 if c < 0 and len(parts) % 2 else 1
    if mag == 1:
        return out
    for k in parts:
        h, w = k * (mag - 1), 2 * k
        pad = [0] * (h + w)
        ext = pad + out + pad
        # out[i] = sum_j out[i + h - 2kj], j < |c|; a product over fewer
        # parts leaves the top and bottom h entries zero, so nothing is lost
        out = list(map(sub, ext[2 * h + w : 2 * h + w + size], ext[:size]))
        for r in range(min(w, size)):
            out[r::w] = accumulate(out[r::w])
    return out


def _twisted_sum(terms, c: int) -> LaurentQA:
    """sum of w {mu}_a prod_i [c]_{q^{mu_i}} over (mu, w) in terms.

    Every mu must have the same weight n, so each q-part is a dense list over
    the same span and the a-layers accumulate densely.
    """
    layers: dict[int, list[int]] = {}
    span = 0
    for mu, weight in terms:
        qpart = _qnum_product(mu, c)
        span = len(qpart) // 2
        for (_, ae), ca in abracket_of_partition(mu).terms.items():
            scale = ca * weight
            layer = layers.get(ae) or [0] * len(qpart)
            layers[ae] = [y + scale * x for y, x in zip(layer, qpart)]
    return LaurentQA._raw(
        {
            (j - span, ae): v
            for ae, layer in layers.items()
            for j, v in enumerate(layer)
            if v
        }
    )


@cache
def _bracket_sum(n: int, c: int) -> tuple[LaurentQA, int]:
    """sum over mu |- n of (L/z_mu) {mu}_a prod_i [c]_{q^{mu_i}}; returns (sum, L).

    This is the twisted sum of (L/z_mu) {mu}_a {c*mu}/{mu} with no common
    denominator: {c*k}/{k} = [c]_{q^k} is a polynomial.
    """
    L = _zlcm(n)
    return _twisted_sum(((mu, L // z_mu(mu)) for mu in partitions_of(n)), c), L


@cache
def scaled_invariant(K, p: int = 1) -> LaurentQA:
    """The bracket-scaled power-sum invariant {p} * H(K * P_p).

    Equals a^{pm} {p}/{c} times the twisted sum over mu |- pd divided by its
    integer scale L, c = pm.  Resolves exactly to a Laurent polynomial with
    int coefficients for every p >= 1; a division failure here
    (NonExactDivision) would be an implementation bug, not a conjecture
    failure.
    """
    if p < 1:
        raise ValueError("color must be >= 1")
    d, m = cable_params(K)
    if m == 0:
        return abracket(p)
    n, c = p * d, p * m
    acc, L = _bracket_sum(n, c)
    resolved = divide_brackets(acc * qbracket(p), (c,))
    return exact_int_div(resolved, L).shift(aexp=p * m)


@cache
def power_sum_invariant(K, mu: Partition) -> RingFraction:
    """H(K * P_mu) via the character expansion of the d-fold cable.

    Internally works in u = q^{1/d} with integer exponents; fractional
    q-exponents must cancel in the assembled total and a survivor raises
    ResidualFractionalExponent.
    """
    d, m = cable_params(K)
    mu = as_partition(mu)
    if not mu:
        return RingFraction(LaurentQA.one())
    weight = sum(mu)
    n = d * weight
    dmu = tuple(d * x for x in mu)
    table = character_table(n).values
    L = _zlcm(n)
    lams = partitions_of(n)
    acc: dict = {}
    for nu in partitions_of(n):
        phi: dict[int, int] = {}
        for lam in lams:
            v = table[(lam, dmu)] * table[(lam, nu)]
            if v:
                e = kappa(lam) * m
                s = phi.get(e, 0) + v
                if s == 0:
                    phi.pop(e, None)
                else:
                    phi[e] = s
        if not phi:
            continue
        scalar = L // z_mu(nu)
        row = _plane_row(n, nu, d).terms
        for (ue, ae), cr in row.items():
            base = cr * scalar
            for e, v in phi.items():
                key = (ue + e, ae)
                s = acc.get(key, 0) + base * v
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
    return RingFraction.over_brackets(LaurentQA._raw(num), L, _den_brackets(n))


@cache
def unknot_schur_value(lam: Partition) -> RingFraction:
    """The plane evaluation of the Schur-colored unknot, W_lam(U)."""
    lam = as_partition(lam)
    n = sum(lam)
    if n == 0:
        return RingFraction(LaurentQA.one())
    table = character_table(n).values
    L = _zlcm(n)
    acc = LaurentQA.zero()
    for nu in partitions_of(n):
        ch = table[(lam, nu)]
        if ch:
            acc = acc + _plane_row(n, nu) * (ch * (L // z_mu(nu)))
    return RingFraction.over_brackets(acc, L, _den_brackets(n))


def power_sum_plane_value(mu: Partition) -> RingFraction:
    """Plane evaluation of a power-sum color: prod_j {mu_j}_a / {mu_j}."""
    mu = as_partition(mu)
    return RingFraction.over_brackets(abracket_of_partition(mu), 1, mu)


def alexander(K) -> ZAPoly:
    """The Alexander polynomial as the a -> 1 limit of the unit color.

    alexander(K) = (q - q^-1) * lim_{a->1} H(K)/(a - a^-1), returned in the
    z^2 basis (single a^0 row, symmetric and integral).
    """
    zhat = scaled_invariant(K, 1)
    core = divide_out_abracket(zhat).substitute_a(1)
    return to_z2(core)
