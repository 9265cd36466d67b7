"""Reformulated integrality of the colored free energy, checked exactly.

The partition function Z collects the power-sum invariants of one knot into a
truncated series over partition-indexed monomials.  Its logarithm, the free
energy F, comes one weight at a time from E Z = (E F) Z, E p_mu = |mu| p_mu
(PSeries).  F's coefficients invert (through Moebius/exponent-scaling and the
character change of basis) into Schur-indexed amplitudes.  Pushing those
through the inverse bracket pairing matrix must land in z^-2 Z[z^2, a^{+-1}]
for the integrality conjecture to hold; the verdict here checks exactly that
on one partition at a time.

The verdict never forms the Schur amplitudes: with h_nu the once-wound
(Moebius-inverted) free energy, f_lam = sum_nu chi_lam(nu) h_nu and
M^-1(lam, mu) = sum_nu chi_lam(nu) chi_mu(nu) / (z_nu {nu}), column
orthogonality sum_lam chi_lam(nu) chi_lam(nu') = z_nu delta(nu, nu') turns
sum_lam f_lam M^-1(lam, mu) into

    fhat_mu = sum_nu chi_mu(nu) h_nu / {nu},

one integer combination of per-knot numerators over one bracket monomial.
extract_f, reassemble_free_energy, m_matrix and m_inverse give the Schur
amplitudes and the pairing themselves; no verdict calls them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import lcm
from operator import add, mul

from .combinatorics import (
    Partition,
    WeightMismatch,
    as_partition,
    character_table,
    chi,
    gcd_of_parts,
    partitions_of,
    z_mu,
)
from .exactring import (
    Frozen,
    LaurentQA,
    NonExactDivision,
    RingFraction,
    bracket_of_partition,
    bracket_rows,
    parse_rows,
    resolve_rows,
)
from .torus import _cofactor, _den_brackets, _zlcm, power_sum_invariant
from .zbasis import ZAPoly, z2_rows

_ZERO = RingFraction(LaurentQA.zero())
_ONE = RingFraction(LaurentQA.one())


class PSeries:
    """A series in power-sum monomials p_mu, truncated above a total weight.

    log and exp run one recurrence (Brent and Kung, J. ACM 1978): E p_mu =
    |mu| p_mu is a derivation, so Z = exp(F) gives E Z = (E F) Z, and on the
    weight-w parts

        w Z_w = w F_w + S_w,    S_w = sum_{k=1}^{w-1} k F_k Z_(w-k),

    which log solves for F_w and exp for Z_w, one weight at a time.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict[Partition, RingFraction] | None = None):
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.degree = degree
        self.coeffs: dict[Partition, RingFraction] = {}
        for mu, c in (coeffs or {}).items():
            if sum(mu) <= degree and not c.is_zero():
                self.coeffs[mu] = c

    def coefficient(self, mu: Partition) -> RingFraction:
        return self.coeffs.get(tuple(mu), _ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PSeries):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)

    def __repr__(self) -> str:
        return f"PSeries(degree={self.degree}, nterms={len(self.coeffs)})"

    def log(self) -> "PSeries":
        """Truncated logarithm; requires constant coefficient exactly 1."""
        if not self.coefficient(()) == _ONE:
            raise ValueError("log needs constant coefficient 1")
        return _euler(self, log=True)

    def exp(self) -> "PSeries":
        """Truncated exponential; requires constant coefficient exactly 0."""
        if not self.coefficient(()).is_zero():
            raise ValueError("exp needs constant coefficient 0")
        return _euler(self, log=False)


def _euler(given: PSeries, log: bool) -> PSeries:
    """Solve w Z_w = w F_w + S_w for F (given Z, log) or for Z (given F)."""
    out: dict[Partition, RingFraction] = {} if log else {(): _ONE}
    F, Z = (out, given.coeffs) if log else (given.coeffs, out)
    sign = -1 if log else 1
    for w in range(1, given.degree + 1):
        # the given side's weight-w part, plus or (for log) minus S_w / w
        acc = {mu: given.coeffs[mu] for mu in partitions_of(w) if mu in given.coeffs}
        for k in range(1, w):
            for mu1 in partitions_of(k):
                f = F.get(mu1, _ZERO)
                if f.is_zero():
                    continue
                f = f * Fraction(sign * k, w)
                for mu2 in partitions_of(w - k):
                    z = Z.get(mu2, _ZERO)
                    if z.is_zero():
                        continue
                    key = tuple(sorted(mu1 + mu2, reverse=True))
                    prod = f * z
                    acc[key] = acc[key] + prod if key in acc else prod
        out.update(acc)
    return PSeries(given.degree, out)


def partition_function(K, degree: int) -> PSeries:
    """1 + sum over mu of (-1)^(framing * |mu|) H(K * P_mu)/z_mu * p_mu."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    tau = K.framing
    coeffs: dict[Partition, RingFraction] = {(): _ONE}
    for w in range(1, degree + 1):
        sign = -1 if (tau * w) % 2 else 1
        for mu in partitions_of(w):
            coeffs[mu] = power_sum_invariant(K, mu) * Fraction(sign, z_mu(mu))
    return PSeries(degree, coeffs)


def free_energy(Z: PSeries) -> PSeries:
    """log of the partition function, truncated at the same weight."""
    return Z.log()


def _mobius(n: int) -> int:
    out = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    if n > 1:
        out = -out
    return out


def _divisors(n: int):
    return [e for e in range(1, n + 1) if n % e == 0]


def _once_wound(F: PSeries) -> dict[Partition, RingFraction]:
    """h_mu: the free energy Moebius-inverted over the exponent scaling."""
    h: dict[Partition, RingFraction] = {}
    for w in range(1, F.degree + 1):
        for mu in partitions_of(w):
            total = _ZERO
            for e in _divisors(gcd_of_parts(mu)):
                me = _mobius(e)
                if me == 0:
                    continue
                sub = tuple(x // e for x in mu)
                total = total + F.coefficient(sub).adams(e) * Fraction(me, e)
            h[mu] = total
    return h


def extract_f(F: PSeries) -> dict[Partition, RingFraction]:
    """Schur-indexed amplitudes from the free energy.

    First Moebius-inverts the exponent-scaling structure to isolate the
    once-wound layer, then changes basis by characters.
    """
    h = _once_wound(F)
    f: dict[Partition, RingFraction] = {}
    for w in range(1, F.degree + 1):
        table = character_table(w).values
        for lam in partitions_of(w):
            total = _ZERO
            for nu in partitions_of(w):
                ch = table[(lam, nu)]
                if ch:
                    total = total + h[nu] * ch
            f[lam] = total
    return f


def reassemble_free_energy(f: dict[Partition, RingFraction], degree: int) -> PSeries:
    """Rebuild the free energy from Schur amplitudes (round-trip direction)."""
    coeffs: dict[Partition, RingFraction] = {}
    for e in range(1, degree + 1):
        for w in range(1, degree // e + 1):
            table = character_table(w).values
            for lam in partitions_of(w):
                fl = f.get(lam)
                if fl is None or fl.is_zero():
                    continue
                scaled = fl.adams(e)
                for nu in partitions_of(w):
                    ch = table[(lam, nu)]
                    if not ch:
                        continue
                    key = tuple(sorted((e * x for x in nu), reverse=True))
                    piece = scaled * Fraction(ch, e * z_mu(nu))
                    coeffs[key] = coeffs[key] + piece if key in coeffs else piece
    return PSeries(degree, coeffs)


def m_matrix(lam: Partition, mu: Partition) -> RingFraction:
    """Bracket pairing sum over nu of chi(lam) chi(mu) / z_nu * {nu}."""
    lam, mu = as_partition(lam), as_partition(mu)
    if sum(lam) != sum(mu):
        raise WeightMismatch(f"|{lam}| != |{mu}|")
    n = sum(lam)
    table = character_table(n).values
    acc = LaurentQA.zero()
    for nu in partitions_of(n):
        v = table[(lam, nu)] * table[(mu, nu)]
        if v:
            acc = acc + bracket_of_partition(nu) * Fraction(v, z_mu(nu))
    return RingFraction(acc)


def m_inverse(lam: Partition, mu: Partition) -> RingFraction:
    """Closed-form inverse pairing: sum of chi chi / (z_nu * {nu})."""
    lam, mu = as_partition(lam), as_partition(mu)
    if sum(lam) != sum(mu):
        raise WeightMismatch(f"|{lam}| != |{mu}|")
    n = sum(lam)
    table = character_table(n).values
    L = _zlcm(n)
    acc = LaurentQA.zero()
    for nu in partitions_of(n):
        v = table[(lam, nu)] * table[(mu, nu)]
        if v:
            acc = acc + _cofactor(n, nu) * (v * (L // z_mu(nu)))
    return RingFraction.over_brackets(acc, L, _den_brackets(n))


@lru_cache(maxsize=4)
def _fhat_numerators(K, degree: int) -> dict[int, tuple]:
    """Per weight w: (D_w, L, spans, {nu: (L / s_nu, N_nu)}) for the nonzero h_nu.

    B_w is the lcm over nu |- w of the bracket monomials h_nu.brackets * {nu},
    L the lcm of the scales s_nu of h_nu, and N_nu the rows of h_nu's numerator
    padded to B_w and times {1}^(2 - j), j = min(B_w[1], 2): z^2 = {1}^2 cancels
    {1}^j, so z^2 h_nu / {nu} = (L / s_nu) N_nu / (L * D_w), D_w = B_w / {1}^j.
    spans maps each a-layer to the q-span (lo, hi) the N_nu cover on it together.
    """
    h = _once_wound(free_energy(partition_function(K, degree)))
    out: dict[int, tuple] = {}
    for w in range(1, degree + 1):
        dens = {
            nu: h[nu].brackets + Counter(nu)
            for nu in partitions_of(w)
            if not h[nu].is_zero()
        }
        common: Counter = Counter()
        for den in dens.values():
            common |= den
        L = lcm(*(h[nu].scale for nu in dens))
        ones = min(common[1], 2)
        pad = [1] * (2 - ones)
        numerators, spans = {}, {}
        for nu, den in dens.items():
            rows = bracket_rows(parse_rows(h[nu].num.terms), [*(common - den).elements(), *pad])
            numerators[nu] = (L // h[nu].scale, rows)
            for ae, (lo, row) in rows.items():
                a, b = spans.get(ae, (lo, lo))
                if (lo - a) % 2:
                    raise ValueError(f"a-layer {ae} mixes q-parities")
                spans[ae] = (min(a, lo), max(b, lo + 2 * len(row)))
        out[w] = (common - Counter({1: ones}), L, spans, numerators)
    return out


def _fhat(K, mu: Partition, degree: int) -> tuple[dict, int, Counter]:
    """z^2 fhat_mu as (rows, L, D): the numerators added in place over their spans, then trimmed."""
    divisors, L, spans, numerators = _fhat_numerators(K, degree)[sum(mu)]
    acc = {ae: [0] * ((hi - lo) // 2) for ae, (lo, hi) in spans.items()}
    for nu, (ratio, rows) in numerators.items():
        c = chi(mu, nu) * ratio
        if c:
            for ae, (lo, row) in rows.items():
                i = (lo - spans[ae][0]) // 2
                j = i + len(row)
                out = acc[ae]
                out[i:j] = map(add, out[i:j], map(mul, row, repeat(c)))
    rows = {}
    for ae, out in acc.items():
        hi = len(out)
        while hi and not out[hi - 1]:
            hi -= 1
        if hi:
            i = 0
            while not out[i]:
                i += 1
            rows[ae] = (spans[ae][0] + 2 * i, out[i:hi])
    return rows, L, divisors


class LmovReport(Frozen):
    """Integrality verdict for one reformulated amplitude."""

    __slots__ = ("passed", "mu", "z2_fhat", "min_z_power", "detail")

    def __init__(self, passed: bool, mu: Partition, z2_fhat: ZAPoly | None,
                 min_z_power: int | None, detail: str = ""):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "z2_fhat", z2_fhat)
        object.__setattr__(self, "min_z_power", min_z_power)
        object.__setattr__(self, "detail", detail)


def lmov_verdict(K, mu: Partition, degree: int | None = None) -> LmovReport:
    """Check z^2 * fhat_mu lies in Z[z^2, a^{+-1}].

    fhat_mu = sum_nu chi_mu(nu) h_nu / {nu} over nu |- |mu|, the Schur
    amplitudes paired against the inverse bracket matrix (see the module
    docstring); the verdict records the exact value and the observed minimal
    z-power of fhat itself.
    """
    mu = as_partition(mu)
    w = sum(mu)
    if w < 1:
        raise ValueError("mu must be nonempty")
    D = degree if degree is not None else w
    if D < w:
        raise ValueError("truncation degree below |mu|")
    rows, L, divisors = _fhat(K, mu, D)
    try:
        rows = resolve_rows(rows, divisors, L)
    except NonExactDivision as err:
        return LmovReport(False, mu, None, None, detail=f"not polynomial: {err}")
    z2 = z2_rows(rows)
    if z2 is None:
        return LmovReport(False, mu, None, None, detail="not in Q[z^2, a^{+-1}]")
    zz = ZAPoly.from_rows(z2)
    if zz.is_zero():
        return LmovReport(True, mu, zz, None)
    min_k = min(
        next(i for i, c in enumerate(row) if c != 0) for _, row in zz.rows
    )
    return LmovReport(
        passed=zz.is_integral,
        mu=mu,
        z2_fhat=zz,
        min_z_power=2 * min_k - 2,
        detail="" if zz.is_integral else "coefficients not integral",
    )
