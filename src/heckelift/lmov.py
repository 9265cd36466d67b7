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
Dividing by that monomial and converting to z^2 are linear, so the knot's
memo divides each h_nu's numerator once, keeps the remainders, and splits and
converts the quotient once (zbasis.z2_split); a verdict combines them, fails
on the first nonzero remainder or non-palindromic part, and otherwise reads
its z^2 rows off the combined conversions.
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
    _divisors,
    _mobius,
    as_partition,
    character_table,
    chi,
    gcd_of_parts,
    partitions_of,
    z_mu,
)
from .exactring import (
    Frozen,
    RingFraction,
    _tally,
    add_rows,
    bracket_row,
    bracket_rows,
    over_binomial,
    scale_rows,
)
from .torus import _cofactor, _den_brackets, _zlcm, power_sum_invariant
from .zbasis import ZAPoly, z2_split

_ZERO = RingFraction.of_rows({})
_ONE = RingFraction.of_rows({0: (0, [1])})


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
    return _pairing(lam, mu, inverse=False)


def m_inverse(lam: Partition, mu: Partition) -> RingFraction:
    """Closed-form inverse pairing: sum of chi chi / (z_nu * {nu})."""
    return _pairing(lam, mu, inverse=True)


def _pairing(lam: Partition, mu: Partition, inverse: bool) -> RingFraction:
    """sum over nu of chi_lam(nu) chi_mu(nu) {nu}^(+-1) / z_nu as rows over L = lcm z_nu."""
    lam, mu = as_partition(lam), as_partition(mu)
    if sum(lam) != sum(mu):
        raise WeightMismatch(f"|{lam}| != |{mu}|")
    n = sum(lam)
    table = character_table(n).values
    L = _zlcm(n)
    acc: dict = {}
    for nu in partitions_of(n):
        v = table[(lam, nu)] * table[(mu, nu)]
        if v:
            row = _cofactor(n, nu) if inverse else bracket_row(0, [1], times=nu)
            acc = add_rows(acc, scale_rows({0: row}, v * (L // z_mu(nu))))
    return RingFraction.of_rows(acc, L, _den_brackets(n) if inverse else ())


@lru_cache(maxsize=4)
def _fhat_numerators(K, degree: int) -> dict[int, tuple]:
    """Per weight w: (S, layers, {nu: (L / s_nu, {ae: U_nu + A_nu + R_nu})}) for the nonzero h_nu.

    B_w is the lcm over nu |- w of the bracket monomials h_nu.brackets * {nu},
    L the lcm of the scales s_nu of h_nu, and N_nu the rows of h_nu's numerator
    padded to B_w and times {1}^(2 - j), j = min(B_w[1], 2): z^2 = {1}^2 cancels
    {1}^j, so z^2 h_nu / {nu} = (L / s_nu) N_nu / (L * D_w), D_w = B_w / {1}^j.
    Each row of N_nu, laid over the q-span its a-layer covers over nu, is divided
    by D_w's brackets, largest first: R_nu are the blocks over_binomial cuts,
    in order, and U_nu, A_nu the z2_split of the quotient.  layers maps each
    a-layer to (len U_nu, len A_nu, owners), owners the bracket that cut each
    remainder entry; S = (-1)^|D_w| L takes in the brackets' sign.
    """
    h = _once_wound(free_energy(partition_function(K, degree)))
    out: dict[int, tuple] = {}
    for w in range(1, degree + 1):
        dens = {nu: h[nu].brackets + _tally(nu) for nu in partitions_of(w) if not h[nu].is_zero()}
        common: Counter = Counter()
        for den in dens.values():
            common |= den
        L = lcm(*(h[nu].scale for nu in dens))
        ones = min(common[1], 2)
        pad = [1] * (2 - ones)
        padded, spans = {}, {}
        for nu, den in dens.items():
            padded[nu] = rows = bracket_rows(h[nu].rows, [*(common - den).elements(), *pad])
            for ae, (lo, row) in rows.items():
                a, b = spans.get(ae, (lo, lo))
                if (lo - a) % 2:
                    raise ValueError(f"a-layer {ae} mixes q-parities")
                spans[ae] = (min(a, lo), max(b, lo + 2 * len(row)))
        common[1] -= ones
        orders = sorted(common.elements(), reverse=True)
        layers, numerators = {}, {}
        for nu, rows in padded.items():
            vectors = {}
            for ae, (lo, row) in rows.items():
                start, stop = spans[ae]
                vec = [0] * ((stop - start) // 2)
                i = (lo - start) // 2
                vec[i : i + len(row)] = row
                cuts = [(k, over_binomial(vec, k)) for k in orders]
                z2, asym = z2_split((start + sum(orders), vec))
                layers[ae] = (len(z2), len(asym), [k for k, cut in cuts for _ in cut])
                vectors[ae] = z2 + asym + [c for _, cut in cuts for c in cut]
            numerators[nu] = (L // h[nu].scale, vectors)
        out[w] = ((-1) ** len(orders) * L, layers, numerators)
    return out


class LmovReport(Frozen):
    """Integrality verdict for one amplitude; z2_fhat (a ZAPoly) and min_z_power may be None."""

    __slots__ = ("passed", "mu", "z2_fhat", "min_z_power", "detail")
    _defaults = {"detail": ""}


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
    S, layers, numerators = _fhat_numerators(K, D)[w]
    acc = {ae: [0] * (m + n + len(owners)) for ae, (m, n, owners) in layers.items()}
    for nu, (ratio, vectors) in numerators.items():
        c = chi(mu, nu) * ratio
        if c:
            for ae, vec in vectors.items():
                out = acc[ae]
                out[:] = map(add, out, map(mul, vec, repeat(c)))
    for ae, (m, n, owners) in layers.items():
        k = next((k for k, c in zip(owners, acc[ae][m + n :]) if c), None)
        if k is not None:
            detail = f"not polynomial: not divisible by {{{k}}} on a-layer {ae}"
            return LmovReport(False, mu, None, None, detail=detail)
    if any(any(acc[ae][m : m + n]) for ae, (m, n, _) in layers.items()):
        return LmovReport(False, mu, None, None, detail="not in Q[z^2, a^{+-1}]")
    rows = []
    for ae in sorted(layers):
        out, m = acc[ae], layers[ae][0]
        while m and not out[m - 1]:
            m -= 1
        if m:
            rows.append((ae, tuple(c // S if c % S == 0 else Fraction(c, S) for c in out[:m])))
    if not rows:
        return LmovReport(True, mu, ZAPoly(()), None)
    integral = all(type(c) is int for _, row in rows for c in row)
    min_k = min(next(i for i, c in enumerate(row) if c) for _, row in rows)
    detail = "" if integral else "coefficients not integral"
    return LmovReport(integral, mu, ZAPoly(tuple(rows)), 2 * min_k - 2, detail)
