"""Conversion into the subring Q[z^2, a^{+-1}] with z = q - q^{-1}.

A Laurent polynomial lies in this subring iff every a-layer has only even
integer q-exponents and is palindromic under q <-> q^{-1}, i.e. it is
sum_k c_k B_k with B_k = q^(2k) + q^(-2k) = (z^2 + 2) B_(k-1) - B_(k-2).
Each layer is converted by Clenshaw's recurrence in powers of z^2, holding
three dense rows: no division, no recursion, no table of the B_k.

The verdict needs no conversion.  With x = q^2, Z[z^2] is exactly the set of
palindromic integer Laurent polynomials in x, since z^(2k) = x^k + (lower
terms) + x^-k is unitriangular over Z, and [p]^2 = x^-(p-1) ((1 - x^p) /
(1 - x))^2.  So an int row map lies in [p]^2 Z[z^2, a^{+-1}] exactly when
every layer is even and palindromic (cosh_coeffs is not None) and
over_qnum_sq divides it exactly; the quotient is then palindromic and
integral.  z2_verdict decides so on q-rows; a fragment converts its quotient
only when it is read, and a remainder witness is the remainder of long
division by [p]^2 (monic of degree p - 1 in z^2) of the converted rows.

Membership and conversion are linear too.  A row (lo, Q) of even lo, with its
q^0 entry at c0 = -lo/2 in [0, len Q), lies in Q[z^2] iff it is palindromic
about c0, i.e. iff A = [Q[i] - Q[2 c0 - i] for i < c0] + Q[2 c0 + 1:] is zero
(an entry beyond Q is 0); its z^2 row is then U = _cosh_to_z2(Q[c0:]).  For
any other lo every nonzero entry breaks membership: U = [] and A = Q.  So
rows on one grid may be split once by z2_split and combined after: the
combination is in Q[z^2] iff its A is zero, and its U is then its z^2 row.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from operator import add, sub

from .combinatorics import _divisors, _mobius
from .exactring import (
    Frozen, LaurentQA, NonExactDivision, bracket_rows, cosh_coeffs, dense_divmod, layer_row,
    over_binomial, parse_rows, times_binomial,
)


class NotInSubring(ValueError):
    """The value is not a polynomial in z^2 and a^{+-1}."""


def _trim(row) -> tuple:
    """row without trailing zeros, integral Fractions turned into int."""
    i = len(row)
    while i > 0 and row[i - 1] == 0:
        i -= 1
    return tuple(c if type(c) is int or c.denominator != 1 else int(c) for c in row[:i])


class ZAPoly(Frozen):
    """A polynomial in z^2 and a^{+-1}: rows ((aexp, (c_0, c_1, ...)), ...), c_k at z^(2k)."""

    __slots__ = ("rows",)

    @classmethod
    def from_rows(cls, rows: dict) -> "ZAPoly":
        cleaned = ((int(ae), _trim(row)) for ae, row in rows.items())
        return cls(rows=tuple(sorted((ae, row) for ae, row in cleaned if row)))

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, row in self.rows for c in row)

    def to_json_dict(self) -> dict:
        return {str(ae): [str(c) for c in row] for ae, row in self.rows}


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


def z2_rows(rows: dict) -> dict | None:
    """The z^2 rows of a row map; None unless every a-layer is even and palindromic."""
    out = {}
    for ae, row in rows.items():
        cosh = cosh_coeffs(row)
        if cosh is None:
            return None
        out[ae] = _cosh_to_z2(cosh)
    return out


def z2_split(row) -> tuple[list, list]:
    """(U, A) of a row (lo, coeffs) by the lemma of the module docstring, both linear in coeffs."""
    lo, coeffs = row
    c0 = -lo // 2
    if lo % 2 or not 0 <= c0 < len(coeffs):
        return [], list(coeffs)
    mirror = coeffs[c0 + 1 : 2 * c0 + 1][::-1]
    asym = map(sub, coeffs[:c0], [0] * (c0 - len(mirror)) + mirror)
    return _cosh_to_z2(coeffs[c0:]), [*asym, *coeffs[2 * c0 + 1 :]]


def to_z2(f: LaurentQA) -> ZAPoly:
    """Rewrite f as a polynomial in z^2 and a^{+-1}, one a-layer at a time.

    Raises NotInSubring naming the violated symmetry of the lowest bad
    a-layer: odd q-exponents, or a q <-> q^{-1} asymmetric a-layer.
    """
    layers: dict[int, dict] = {}
    for (qe, ae), c in f.terms.items():
        layers.setdefault(ae, {})[qe] = c
    rows = {}
    for ae in sorted(layers):
        layer = layers[ae]
        row = layer_row(layer)
        cosh = None if row is None else cosh_coeffs(row)
        if cosh is None:
            for qe in layer:
                if qe % 2 != 0:
                    raise NotInSubring(f"odd q-exponent {qe} on a-layer {ae}")
            qe = next(qe for qe, c in layer.items() if layer.get(-qe, 0) != c)
            raise NotInSubring(f"a-layer {ae} breaks q <-> q^-1 symmetry at q^{qe}")
        rows[ae] = _cosh_to_z2(cosh)
    return ZAPoly.from_rows(rows)


@cache
def qnum_sq_z2(p: int) -> tuple:
    """[p]^2 = (q^2p - 2 + q^-2p) / z^2 in the z^2 basis: monic of degree p - 1."""
    if p < 1:
        raise ValueError("p must be >= 1")
    row = tuple(_cosh_to_z2([-2] + [0] * (p - 1) + [1])[1:])
    if len(row) != p or row[-1] != 1:
        # divide_by_qnum_sq divides by a leading coefficient of 1
        raise ArithmeticError(f"[{p}]^2 is not monic of degree {p - 1} in z^2: {row}")
    return row


def divide_by_qnum_sq(f: ZAPoly, p: int) -> tuple["ZAPoly", bool, "ZAPoly"]:
    """Divide every a-layer by [p]^2 in the z^2 basis.

    Returns (quotient, exact, remainder); quotient * [p]^2 + remainder == f.
    """
    divisor = qnum_sq_z2(p)
    q_rows = {}
    r_rows = {}
    for ae, row in f.rows:
        q_rows[ae], r_rows[ae] = dense_divmod(row, divisor)
    quotient = ZAPoly.from_rows(q_rows)
    remainder = ZAPoly.from_rows(r_rows)
    return quotient, remainder.is_zero(), remainder


def over_qnum_sq(rows: dict, p: int) -> dict:
    """rows / [p]^2 = rows {1}^2 / {p}^2; NonExactDivision names the first layer it leaves."""
    return bracket_rows(rows, (1, 1), (p, p))


class CongruenceFragment(Frozen):
    """The membership and [p]^2 checks; quotient_rows holds q-rows ((ae, (lo, coeffs)), ...)
    or None, and remainder_witness a ZAPoly or None."""

    __slots__ = ("z2_member", "p2_divisible", "quotient_rows", "remainder_witness")

    @property
    def quotient(self) -> ZAPoly | None:
        """The quotient in the z^2 basis, converted from quotient_rows each time it is read."""
        rows = self.quotient_rows
        return None if rows is None else ZAPoly.from_rows(z2_rows(dict(rows)))


def z2_verdict(rows: dict | None, p: int) -> CongruenceFragment:
    """The fragment of an int row map (None: known not to be in Z[z^2, a^{+-1}]).

    Decided on q-rows by the lemma of the module docstring; only a failed
    division converts the rows, for the remainder witness.
    """
    if rows is None or any(cosh_coeffs(row) is None for row in rows.values()):
        return CongruenceFragment(False, False, None, None)
    try:
        quotient = over_qnum_sq(rows, p)
    except NonExactDivision:
        witness = divide_by_qnum_sq(ZAPoly.from_rows(z2_rows(rows)), p)[2]
        return CongruenceFragment(True, False, None, witness)
    frozen = tuple(sorted((ae, (lo, tuple(coeffs))) for ae, (lo, coeffs) in quotient.items()))
    return CongruenceFragment(True, True, frozen, None)


def congruence_verdict(f: LaurentQA, p: int) -> CongruenceFragment:
    """Check f in Z[z^2, a^{+-1}] and divisibility by [p]^2 there, on f's q-rows."""
    try:
        rows = parse_rows(f.terms)
    except ValueError:  # an a-layer mixes q-parities
        rows = None
    return z2_verdict(rows if all(c.denominator == 1 for c in f.terms.values()) else None, p)


def _cyclotomic(n: int) -> list[int]:
    """Phi_n = prod_{e | n} (1 - x^e)^mu(n/e), negated for n = 1; lowest coefficient first."""
    exponents = [(e, _mobius(n // e)) for e in _divisors(n)]
    poly = [1]
    for e, mu in exponents:
        if mu == 1:
            poly = times_binomial(poly, e)
    for e, mu in exponents:
        if mu == -1:
            rest = over_binomial(poly, e)
            assert not any(rest), f"Phi_{n}: 1 - x^{e} left a remainder"
    return poly if n > 1 else [-c for c in poly]


def double_root_residual(f: LaurentQA, p: int, a0: complex, s: int = 1) -> float:
    """Double-root check at q0 = exp(i*pi*s/p): max(|f|, |df/dq|) there.

    Values in (a - a^-1)[p]^2 * Z[z^2, a^{+-1}] vanish to second order in q
    at 2p-th roots of unity away from +-1.  Callers usually draw s coprime
    to 2p.

    q0 is a primitive n-th root of unity, n = 2p / gcd(s, 2p), so the terms
    are first folded exactly: per a-layer, coefficients are summed into the
    buckets qe mod n for f and, with weight qe, (qe - 1) mod n for df/dq.
    Each bucket polynomial is then reduced modulo Phi_n, the minimal
    polynomial of q0 (monic, so long division stays in Z).  When every
    residue is zero both f and df/dq vanish at q0 for every a, and the
    result is exactly 0.0; mpmath is not imported.  Otherwise the buckets are
    evaluated at a working precision sized to the unfolded coefficients and
    q-span, so the residual measures the polynomial rather than rounding.
    """
    n = 2 * p // gcd(s, 2 * p)
    val_rows: dict = {}
    dval_rows: dict = {}
    for (qe, ae), c in f.terms.items():
        row = val_rows.get(ae)
        if row is None:
            row = val_rows[ae] = [0] * n
            dval_rows[ae] = [0] * n
        row[qe % n] += c
        dval_rows[ae][(qe - 1) % n] += qe * c
    phi = _cyclotomic(n)
    rows = (*val_rows.values(), *dval_rows.values())
    if not any(any(dense_divmod(row, phi)[1]) for row in rows):
        return 0.0

    import mpmath

    scale = sum(abs(c) for c in f.terms.values())
    span = max(abs(qe) for qe, _ in f.terms)
    dps = 40 + len(str(int(scale) + 1)) + len(str(max(span, 1) + 1))
    with mpmath.workdps(dps):
        a_base = mpmath.mpc(a0)
        # q0^r = exp(i*pi*s*r/p), evaluated directly per residue
        roots = [mpmath.expjpi(mpmath.mpf(s * r) / p) for r in range(n)]
        val, dval = (
            mpmath.fsum(mpmath.fdot(row, roots) * a_base**ae for ae, row in layers.items())
            for layers in (val_rows, dval_rows)
        )
        return float(max(abs(val), abs(dval)))
