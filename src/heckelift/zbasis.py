"""Conversion into the subring Q[z^2, a^{+-1}] with z = q - q^{-1}.

A Laurent polynomial lies in this subring iff every a-layer has only even
integer q-exponents and is palindromic under q <-> q^{-1}, i.e. it is
sum_k c_k B_k with B_k = q^(2k) + q^(-2k) = (z^2 + 2) B_(k-1) - B_(k-2).
Each layer is converted by Clenshaw's recurrence in powers of z^2, holding
three dense rows: no division, no recursion, no table of the B_k.  Division
by [p]^2 (monic of degree p - 1 in z^2) is long division per a-layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import add, sub

from .exactring import LaurentQA, qnum


class NotInSubring(ValueError):
    """The value is not a polynomial in z^2 and a^{+-1}."""


def _trim(row) -> tuple:
    """row without trailing zeros, integral Fractions turned into int."""
    i = len(row)
    while i > 0 and row[i - 1] == 0:
        i -= 1
    return tuple(c if type(c) is int or c.denominator != 1 else int(c) for c in row[:i])


@dataclass(frozen=True)
class ZAPoly:
    """Polynomial in z^2 with Laurent monomials in a: rows[aexp][k] * z^(2k) * a^aexp."""

    rows: tuple[tuple[int, tuple], ...]

    @classmethod
    def from_rows(cls, rows: dict) -> "ZAPoly":
        cleaned = ((int(ae), _trim(row)) for ae, row in rows.items())
        return cls(rows=tuple(sorted((ae, row) for ae, row in cleaned if row)))

    @classmethod
    def zero(cls) -> "ZAPoly":
        return cls(rows=())

    def row_map(self) -> dict[int, tuple]:
        return dict(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, row in self.rows for c in row)

    def z2_degree(self) -> int:
        """Highest power of z^2 present; -1 for the zero polynomial."""
        if not self.rows:
            return -1
        return max(len(row) - 1 for _, row in self.rows)

    def to_laurent(self) -> LaurentQA:
        """Expand back into q and a: Horner's rule in z^2 = q^2 - 2 + q^-2."""
        out: dict = {}
        for ae, row in self.rows:
            acc: list = []  # acc[i] is the coefficient of q^(2(i - depth))
            for depth, c in enumerate(reversed(row)):
                up, down, mid = [0, 0] + acc, acc + [0, 0], [0] + acc + [0]
                acc = list(map(sub, map(add, up, down), map(add, mid, mid)))
                acc[depth] += c
            out.update(((2 * (i - depth), ae), c) for i, c in enumerate(acc) if c)
        return LaurentQA._raw(out)

    def to_json_dict(self) -> dict:
        return {str(ae): [str(c) for c in row] for ae, row in self.rows}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ZAPoly":
        return cls.from_rows(
            {int(ae): tuple(Fraction(c) for c in row) for ae, row in data.items()}
        )


def _cosh_to_z2(coeffs: list) -> list:
    """c_0 + sum_k c_k (q^(2k) + q^(-2k)) as a dense list in powers of z^2.

    Clenshaw: b_k = c_k + (z^2 + 2) b_(k+1) - b_(k+2) for k = K..0, and the
    sum is b_0 - b_2 as B_0 = 2.  It runs on d_k = b_k - b_(k+1), one addition
    per entry each: d_k = d_(k+1) + z^2 b_(k+1) + c_k, b_k = b_(k+1) + d_k,
    and the sum is d_0 + d_1.  Entry i of a row is the coefficient of z^(2i).
    """
    b: list = []
    d: list = []
    d_prev: list = []
    for c in reversed(coeffs):
        d_prev, d = d, list(map(add, [c] + b, d + [0]))
        b = list(map(add, b + [0], d))
    return list(map(add, d, d_prev + [0]))


def to_z2(f: LaurentQA) -> ZAPoly:
    """Rewrite f as a polynomial in z^2 and a^{+-1}.

    Raises NotInSubring naming the violated symmetry: odd q-exponents, or
    a q <-> q^{-1} asymmetric a-layer.
    """
    layers: dict[int, dict] = {}
    for (qe, ae), c in f.terms.items():
        layers.setdefault(ae, {})[qe] = c
    rows = {}
    for ae in sorted(layers):
        slice_ = layers[ae]
        for qe in slice_:
            if qe % 2 != 0:
                raise NotInSubring(f"odd q-exponent {qe} on a-layer {ae}")
        for qe, c in slice_.items():
            if slice_.get(-qe, 0) != c:
                raise NotInSubring(f"a-layer {ae} breaks q <-> q^-1 symmetry at q^{qe}")
        get = slice_.get
        rows[ae] = _cosh_to_z2([get(qe, 0) for qe in range(0, max(slice_) + 1, 2)])
    return ZAPoly.from_rows(rows)


@cache
def qnum_sq_z2(p: int) -> tuple:
    """[p]^2 in the z^2 basis: monic of degree p - 1."""
    if p < 1:
        raise ValueError("p must be >= 1")
    row = to_z2(qnum(p) * qnum(p)).row_map().get(0, ())
    if len(row) != p or row[-1] != 1:
        # divide_by_qnum_sq divides by a leading coefficient of 1
        raise ArithmeticError(f"[{p}]^2 is not monic of degree {p - 1} in z^2: {row}")
    return row


def divide_by_qnum_sq(f: ZAPoly, p: int) -> tuple["ZAPoly", bool, "ZAPoly"]:
    """Divide every a-layer by [p]^2 in the z^2 basis.

    Returns (quotient, exact, remainder); quotient * [p]^2 + remainder == f.
    """
    divisor = qnum_sq_z2(p)
    dn = len(divisor)
    q_rows = {}
    r_rows = {}
    for ae, row in f.rows:
        work = list(row)
        qrow = [0] * max(len(work) - dn + 1, 0)
        for i in range(len(work) - 1, dn - 2, -1):
            c = work[i]
            if c == 0:
                continue
            pos = i - dn + 1
            qrow[pos] = c
            for j in range(dn):
                work[pos + j] -= c * divisor[j]
        q_rows[ae] = tuple(qrow)
        r_rows[ae] = tuple(work[: dn - 1])
    quotient = ZAPoly.from_rows(q_rows)
    remainder = ZAPoly.from_rows(r_rows)
    return quotient, remainder.is_zero(), remainder


@dataclass(frozen=True)
class CongruenceFragment:
    """Outcome of the z^2-membership and [p]^2-divisibility checks."""

    z2_member: bool
    p2_divisible: bool
    quotient: ZAPoly | None
    remainder_witness: ZAPoly | None
    detail: str = ""


def congruence_verdict(f: LaurentQA, p: int) -> CongruenceFragment:
    """Check f in Z[z^2, a^{+-1}] and divisibility by [p]^2 there.

    Membership requires integer coefficients; divisibility requires an exact
    integral quotient.  The fragment carries the quotient on success and the
    remainder witness on failure.
    """
    try:
        zp = to_z2(f)
    except NotInSubring as err:
        return CongruenceFragment(
            z2_member=False,
            p2_divisible=False,
            quotient=None,
            remainder_witness=None,
            detail=str(err),
        )
    member = zp.is_integral
    quotient, exact, remainder = divide_by_qnum_sq(zp, p)
    divisible = exact and quotient.is_integral
    if not member:
        detail = "coefficients not integral"
    elif not exact:
        detail = "remainder after [p]^2 division"
    else:
        detail = "" if quotient.is_integral else "quotient not integral"
    return CongruenceFragment(
        z2_member=member,
        p2_divisible=divisible,
        quotient=quotient if exact else None,
        remainder_witness=None if exact else remainder,
        detail=detail,
    )


def double_root_residual(f: LaurentQA, p: int, a0: complex, s: int = 1) -> float:
    """Numeric double-root check at q0 = exp(i*pi*s/p).

    Values in (a - a^-1)[p]^2 * Z[z^2, a^{+-1}] vanish to second order in q
    at 2p-th roots of unity away from +-1; returns max(|f|, |df/dq|) there.
    Callers usually draw s coprime to 2p.

    Since q0^(2p) = 1, the terms are first folded exactly: coefficients are
    summed into buckets keyed by (qe mod 2p, ae) for f and, with weight qe,
    by ((qe - 1) mod 2p, ae) for df/dq, so at most 2p buckets per a-layer
    are evaluated numerically.  The sum runs at a working precision sized
    to the unfolded coefficients and q-span, so the residual measures the
    polynomial itself rather than float rounding; large inputs still give
    absolute residuals far below any reasonable tolerance.
    """
    import mpmath

    period = 2 * p
    val_buckets: dict = {}
    dval_buckets: dict = {}
    scale = 0
    span = 1
    for (qe, ae), c in f.terms.items():
        scale += abs(c)
        span = max(span, abs(qe))
        key = (qe % period, ae)
        val_buckets[key] = val_buckets.get(key, 0) + c
        if qe != 0:
            key = ((qe - 1) % period, ae)
            dval_buckets[key] = dval_buckets.get(key, 0) + qe * c
    dps = 40 + len(str(int(scale or 1) + 1)) + len(str(int(span) + 1))

    with mpmath.workdps(dps):
        a_base = mpmath.mpc(a0)
        apows: dict = {}
        roots: dict = {}

        def _mpq(x):
            x = Fraction(x)
            return mpmath.mpf(x.numerator) / x.denominator

        def _evaluate(buckets: dict):
            total = mpmath.mpc(0)
            for (r, ae), c in buckets.items():
                if not c:
                    continue
                if r not in roots:
                    # q0^r = exp(i*pi*s*r/p), evaluated directly per residue
                    roots[r] = mpmath.expjpi(_mpq(Fraction(s) * r / p))
                if ae not in apows:
                    apows[ae] = a_base**ae
                total += _mpq(c) * roots[r] * apows[ae]
            return total

        val = _evaluate(val_buckets)
        dval = _evaluate(dval_buckets)
        return float(max(abs(val), abs(dval)))
