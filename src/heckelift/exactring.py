"""Exact Laurent arithmetic in q and a over the rationals.

LaurentQA is a sparse Laurent polynomial with Fraction (or int) coefficients
and int exponents in both q and a; any other exponent type raises
TypeError.  Values on the verdict path (invariants, defects, cofactors for
prime p) have int coefficients throughout.
Row maps {ae: (lo, coeffs)}, one dense list in q^2 per a-layer, so one
q-parity per a-layer, carry a case from the closed form to the limit checks.
Denominators are bracket monomials prod {k}^e_k in the q-brackets
{k} = q^k - q^-k = -q^-k (1 - x^k), x = q^2.  RingFraction is an int row map
over a positive int scale times such a monomial; a numerator whose a-layer
mixes q-parities raises ValueError.  Sums take the lcm of the two bracket
monomials, Adams scaling maps {k} to {ek}, resolve divides the brackets and
the scale out with resolve_rows, all on rows; a product of two fractions is
the one step through LaurentQA.__mul__, the one product kernel, and back.
dense_divmod is the one long-division kernel: exact_div and the z^2 basis
both run on it.  times_binomial and over_binomial, a shifted difference and
a strided running sum on a dense list, are the one route for the binomials
1 - x^k; over_binomial cuts off the remainder and returns it.  bracket_row,
on them, is the one route for a ratio of bracket products and tracks the
q-offset and the sign itself: every bracket product and division, q-number
[n]_{q^k} = {nk}/{k} and q-binomial of the package is a bracket_row or
bracket_rows call, but for lmov's memo, which divides with over_binomial to
keep the remainders.  No floats.
Frozen is the base of the package's immutable value classes and their one constructor.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from itertools import accumulate
from operator import add, attrgetter, neg, sub


class Frozen:
    """An immutable value whose fields are its __slots__, in order.

    The one constructor binds positionals, then keywords, to the fields in
    slot order and sets each once; a field not given comes from the class's
    _defaults, and too many positionals, a missing field or an unknown
    keyword raise TypeError.  A subclass that checks its arguments calls it
    after.  Equality (between instances of one class), hash and repr run
    over the fields; assignment raises AttributeError, and pickling and
    copying call the class with the fields.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields, n = self.__slots__, len(args)
        if n > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {n}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[n:]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected fields {sorted(kwargs)}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class NonExactDivision(ArithmeticError):
    """Exact division failed; carries the offending remainder."""

    def __init__(self, message: str, remainder: "LaurentQA | None" = None):
        super().__init__(message)
        self.remainder = remainder


class NotDivisible(ArithmeticError):
    """Division by an a-bracket left a remainder; carries the witness."""

    def __init__(self, message: str, witness: "LaurentQA | None" = None):
        super().__init__(message)
        self.witness = witness


class ResidualFractionalExponent(ValueError):
    """A fractional q-exponent survived where cancellation was required."""


def _exp(e, var: str = "q") -> int:
    """A q- or a-exponent, which must be an int: never truncated or converted."""
    if not isinstance(e, int):
        raise TypeError(f"{var}-exponent must be an int, got {e!r}")
    return e


class LaurentQA:
    """Sparse exact Laurent polynomial in q and a."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (qe, ae), c in terms.items():
                if c == 0:
                    continue
                key = (_exp(qe), _exp(ae, "a"))
                c0 = data.get(key)
                c = c if c0 is None else c0 + c
                if c == 0:
                    data.pop(key, None)
                else:
                    data[key] = c
        self.terms = data

    @classmethod
    def _raw(cls, data: dict) -> "LaurentQA":
        obj = cls.__new__(cls)
        obj.terms = data
        return obj

    @classmethod
    def zero(cls) -> "LaurentQA":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentQA":
        return cls._raw({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff, qexp=0, aexp=0) -> "LaurentQA":
        if coeff == 0:
            return cls.zero()
        return cls._raw({(_exp(qexp), _exp(aexp, "a")): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, qexp=0, aexp=0):
        return self.terms.get((_exp(qexp), _exp(aexp, "a")), 0)

    def support(self):
        """Terms in canonical order: a-exponent major, q-exponent minor."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def is_a_free(self) -> bool:
        return all(ae == 0 for _, ae in self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentQA":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self.terms)
        for key, c in other.terms.items():
            c0 = data.get(key)
            s = c if c0 is None else c0 + c
            if s == 0:
                data.pop(key, None)
            else:
                data[key] = s
        return LaurentQA._raw(data)

    __radd__ = __add__

    def __neg__(self) -> "LaurentQA":
        return LaurentQA._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentQA":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentQA":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentQA":
        if isinstance(other, int) or type(other) is Fraction:
            if other == 0:
                return LaurentQA.zero()
            return LaurentQA._raw({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, LaurentQA):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        data: dict = {}
        get = data.get
        for (qb, ab), cb in b.items():
            for (qa, aa), ca in a.items():
                key = (qa + qb, aa + ab)
                c0 = get(key)
                s = ca * cb if c0 is None else c0 + ca * cb
                if s == 0:
                    data.pop(key, None)
                else:
                    data[key] = s
        return LaurentQA._raw(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentQA":
        if n < 0:
            raise ValueError("negative powers are not defined on LaurentQA")
        result = LaurentQA.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"LaurentQA({self.to_text()!r})"

    def __reduce__(self):
        return LaurentQA, (self.terms,)

    # -- substitutions -----------------------------------------------------

    def adams(self, d: int) -> "LaurentQA":
        """Exponent scaling q -> q^d, a -> a^d."""
        if d < 1:
            raise ValueError("adams degree must be >= 1")
        if d == 1:
            return self
        return LaurentQA(
            {(qe * d, ae * d): c for (qe, ae), c in self.terms.items()}
        )

    def shift(self, qexp=0, aexp=0) -> "LaurentQA":
        """Multiply by the monomial q^qexp * a^aexp."""
        qexp, aexp = _exp(qexp), _exp(aexp, "a")
        return LaurentQA._raw(
            {(qe + qexp, ae + aexp): c for (qe, ae), c in self.terms.items()}
        )

    # -- text serialization --------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (qe, ae), c in self.support():
            factors = [str(Fraction(c))]
            if qe != 0:
                factors.append(f"q^{qe}")
            if ae != 0:
                factors.append(f"a^{ae}")
            chunks.append(" * ".join(factors))
        return " + ".join(chunks)


def _coerce(x):
    if isinstance(x, LaurentQA):
        return x
    if isinstance(x, int) or type(x) is Fraction:
        return LaurentQA.monomial(x)
    return NotImplemented


# -- standard elements -------------------------------------------------------


def qbracket(n: int) -> LaurentQA:
    """{n} = q^n - q^-n."""
    if n == 0:
        return LaurentQA.zero()
    return LaurentQA._raw({(n, 0): 1, (-n, 0): -1})


def abracket(n: int) -> LaurentQA:
    """{n}_a = a^n - a^-n."""
    if n == 0:
        return LaurentQA.zero()
    return LaurentQA._raw({(0, n): 1, (0, -n): -1})


def bracket_of_partition(mu, scale: int = 1) -> LaurentQA:
    """{scale * mu} = prod_i (q^(scale*mu_i) - q^-(scale*mu_i))."""
    out = LaurentQA.one()
    for part in mu:
        out = out * qbracket(scale * part)
    return out


def abracket_of_partition(mu, scale: int = 1) -> LaurentQA:
    """{scale * mu}_a = prod_i (a^(scale*mu_i) - a^-(scale*mu_i))."""
    out = LaurentQA.one()
    for part in mu:
        out = out * abracket(scale * part)
    return out


@cache
def zsquared() -> LaurentQA:
    """z^2 = (q - q^-1)^2 = q^2 - 2 + q^-2."""
    return qbracket(1) * qbracket(1)


# -- dense int-list products ---------------------------------------------------


def kronecker_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two dense int lists (entry i at x^i), by Kronecker substitution.

    Each list is packed into one int at x = 2^(8w), w bytes per slot holding
    max|a| max|b| min(len a, len b), and the ints are multiplied once.  Slots
    are biased by 2^(8w-1), so packing and unpacking are one from_bytes and
    one to_bytes each, linear in size.
    """
    if not a or not b:
        return []
    ma = max(map(abs, a))
    mb = max(map(abs, b))
    w = max(ma * mb * min(len(a), len(b)), ma, mb).bit_length() // 8 + 1
    bias = 1 << (8 * w - 1)
    slot = bias.to_bytes(w, "little")

    def pack(lst):
        biased = b"".join((c + bias).to_bytes(w, "little") for c in lst)
        return int.from_bytes(biased, "little") - int.from_bytes(slot * len(lst), "little")

    n = len(a) + len(b) - 1
    prod = pack(a) * pack(b) + int.from_bytes(slot * n, "little")
    buf = prod.to_bytes(w * n, "little")
    return [int.from_bytes(buf[i : i + w], "little") - bias for i in range(0, w * n, w)]


def dense_divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by g; dense lists, lowest coefficient first.

    With a lead of 1 (every verdict-path divisor) coefficients stay int; any
    other lead makes a quotient coefficient a Fraction where it is not an int.
    """
    work = list(f)
    k = len(g) - 1
    lead = g[-1]
    quot = [0] * max(len(work) - k, 0)
    for i in range(len(work) - 1, k - 1, -1):
        c = work[i]
        if c == 0:
            continue
        if lead != 1:
            c = Fraction(c) / lead
            if c.denominator == 1:
                c = int(c)
        pos = i - k
        quot[pos] = c
        for j in range(k + 1):
            work[pos + j] -= c * g[j]
    return quot, work[:k]


def times_binomial(coeffs: list, k: int) -> list:
    """The dense list coeffs (entry i at x^i) times 1 - x^k: one shifted difference."""
    return list(map(sub, coeffs + [0] * k, [0] * k + coeffs))


def over_binomial(coeffs: list, k: int) -> list:
    """coeffs / (1 - x^k) in place, by running sums of stride k along each residue class.

    The top k sums (all of them on a shorter list) are the remainder: they are
    cut off and returned, so coeffs holds the quotient exactly when they are
    all zero.  Both the quotient and the remainder are linear in coeffs.
    """
    if k * k > len(coeffs):
        for i in range(k, len(coeffs)):
            coeffs[i] += coeffs[i - k]
    else:
        for r in range(k):
            coeffs[r::k] = accumulate(coeffs[r::k])
    remainder = coeffs[-k:]
    del coeffs[-k:]
    return remainder


# -- exact division -----------------------------------------------------------


def exact_div(num: LaurentQA, den: LaurentQA) -> LaurentQA:
    """Divide num by a q-only denominator, exactly.

    Lays every a-layer of num out densely and divides it by dense_divmod;
    raises NonExactDivision (with the remainder attached) if any layer fails.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if not den.is_a_free():
        raise ValueError("denominator must not involve a")
    den_slice = {qe: c for (qe, _), c in den.terms.items()}
    dlo, dhi = min(den_slice), max(den_slice)
    dlist = [den_slice.get(e, 0) for e in range(dlo, dhi + 1)]
    layers: dict[int, dict] = {}
    for (qe, ae), c in num.terms.items():
        layers.setdefault(ae, {})[qe] = c
    out: dict = {}
    for ae, nslice in sorted(layers.items()):
        nlo = min(nslice)
        work = [nslice.get(e, 0) for e in range(nlo, max(nslice) + 1)]
        quot, rem = dense_divmod(work, dlist)
        if any(rem):
            rest = {(e + nlo, ae): c for e, c in enumerate(rem) if c}
            raise NonExactDivision(
                f"remainder of degree span {len(rest)} on a-layer {ae}",
                remainder=LaurentQA._raw(rest),
            )
        for e in range(len(quot) - 1, -1, -1):
            if quot[e]:
                out[(e + nlo - dlo, ae)] = quot[e]
    return LaurentQA._raw(out)


def divide_out_abracket(f: LaurentQA, n: int = 1) -> LaurentQA:
    """Divide by (a^n - a^-n) as rows after q -> q^2; NotDivisible carries the witness."""
    if n < 1:
        raise ValueError("a-bracket order must be >= 1")

    def halve(g: LaurentQA) -> LaurentQA:
        return LaurentQA._raw({(qe // 2, ae): c for (qe, ae), c in g.terms.items()})

    doubled = {(2 * qe, ae): c for (qe, ae), c in f.terms.items()}
    try:
        return halve(emit_rows(abracket_quotient(parse_rows(doubled), n)))
    except NotDivisible as err:
        raise NotDivisible(str(err), witness=halve(err.witness)) from None


# -- dense a-layer rows ---------------------------------------------------------
#
# A row map {ae: (lo, coeffs)} holds a^ae layers of one q-parity each, coeffs[i] at
# q^(lo + 2i), no zero at either end, never changed.


def parse_rows(terms: dict) -> dict:
    """The row map of a LaurentQA's terms; ValueError if an a-layer mixes q-parities."""
    layers: dict[int, dict] = {}
    for (qe, ae), c in terms.items():
        layers.setdefault(ae, {})[qe] = c
    rows = {}
    for ae, layer in layers.items():
        rows[ae] = layer_row(layer)
        if rows[ae] is None:
            raise ValueError(f"a-layer {ae} mixes q-parities")
    return rows


def layer_row(layer: dict) -> tuple | None:
    """The row of one a-layer {qe: c}; None if it mixes q-parities."""
    lo = min(layer)
    coeffs = [0] * ((max(layer) - lo) // 2 + 1)
    for qe, c in layer.items():
        if (qe - lo) % 2:
            return None
        coeffs[(qe - lo) // 2] = c
    return lo, coeffs


def emit_rows(rows: dict) -> LaurentQA:
    """The LaurentQA of a row map, terms a-layer ascending and q descending."""
    out: dict = {}
    for ae in sorted(rows):
        lo, coeffs = rows[ae]
        for i in range(len(coeffs) - 1, -1, -1):
            if coeffs[i]:
                out[(lo + 2 * i, ae)] = coeffs[i]
    return LaurentQA._raw(out)


def add_rows(f: dict, g: dict, negate: bool = False) -> dict:
    """f + g row by row, or f - g with negate; sums are trimmed, zero rows dropped."""
    out = dict(f)
    for ae, (lv, cv) in g.items():
        lu, cu = out.pop(ae, (lv, []))
        if (lu - lv) % 2:
            raise ValueError(f"a-layer {ae} mixes q-parities")
        lo = min(lu, lv)
        row = [0] * ((max(lu + 2 * len(cu), lv + 2 * len(cv)) - lo) // 2)
        i, j = (lu - lo) // 2, (lv - lo) // 2
        row[i : i + len(cu)] = cu
        row[j : j + len(cv)] = map(sub if negate else add, row[j : j + len(cv)], cv)
        hi = len(row)
        while hi and not row[hi - 1]:
            hi -= 1
        i = 0
        while i < hi and not row[i]:
            i += 1
        if hi:
            out[ae] = (lo + 2 * i, row[i:hi])
    return out


def adams_rows(rows: dict, k: int) -> dict:
    """q -> q^k, a -> a^k on a row map: k - 1 zeros between entries."""
    out = {}
    for ae, (lo, coeffs) in rows.items():
        out[ae * k] = (lo * k, [0] * (k * (len(coeffs) - 1) + 1))
        out[ae * k][1][::k] = coeffs
    return out


def rows_at_a1(rows: dict) -> dict:
    """The row map of the value at a = 1: every row added into a^0."""
    out: dict = {}
    for row in rows.values():
        out = add_rows(out, {0: row})
    return out


def cosh_coeffs(row) -> list | None:
    """[c_0, c_1, ...] with row = c_0 + sum_k c_k (q^2k + q^-2k), if it is even and palindromic."""
    lo, coeffs = row
    h = len(coeffs) - 1
    return coeffs[h // 2 :] if lo == -h and h % 2 == 0 and coeffs == coeffs[::-1] else None


def abracket_quotient(rows: dict, n: int = 1) -> dict:
    """rows / (a^n - a^-n): Q[e - n] = f[e] + Q[e + n], top down; a remainder is NotDivisible."""
    quot, rest = {}, dict(rows)
    lo = min(rows, default=0)
    for e in range(max(rows, default=lo), lo + 2 * n - 1, -1):
        if e in rest:
            quot[e - n] = rest.pop(e)
            rest = add_rows(rest, {e - 2 * n: quot[e - n]})
    if rest:
        raise NotDivisible("not divisible by the a-bracket", witness=emit_rows(rest))
    return quot


# -- bracket monomials --------------------------------------------------------


def bracket_row(lo: int, coeffs: list, times=(), over=()) -> tuple[int, list]:
    """The row (lo, coeffs) times every {k} in times, then over every {k} in over, in order.

    {k} = -q^-k (1 - x^k), and a negative order k stands for {k} = -{-k};
    orders are nonzero sequences and may repeat.  A bracket that does not
    divide raises NonExactDivision, with the remainder it leaves (at a^0)
    attached.  coeffs is never changed.
    """
    flips = 0
    for k in times:
        size = k if k > 0 else -k
        coeffs = times_binomial(coeffs, size)
        lo -= size
        flips += k > 0
    if over and not times:
        coeffs = list(coeffs)
    for k in over:
        size = k if k > 0 else -k
        rest = over_binomial(coeffs, size)
        if any(rest):
            at, sign = lo + 2 * len(coeffs), (-1) ** flips
            remainder = {(at + 2 * i, 0): sign * c for i, c in enumerate(rest) if c}
            raise NonExactDivision(
                f"not divisible by {{{size}}}", remainder=LaurentQA._raw(remainder)
            )
        lo += size
        flips += k > 0
    return lo, list(map(neg, coeffs)) if flips % 2 else coeffs


def bracket_rows(rows: dict, times=(), over=()) -> dict:
    """bracket_row on every row of a row map; times and over are sequences.

    {0} gives the zero map in times and raises ZeroDivisionError in over; a
    failed division names its bracket and a-layer, the remainder attached.
    """
    if 0 in over:
        raise ZeroDivisionError("the bracket {0} is zero")
    if 0 in times:
        return {}
    out = {}
    for ae, (lo, coeffs) in rows.items():
        try:
            out[ae] = bracket_row(lo, coeffs, times, over)
        except NonExactDivision as err:
            raise NonExactDivision(
                f"{err} on a-layer {ae}", remainder=err.remainder.shift(aexp=ae)
            ) from None
    return out


def resolve_rows(rows: dict, brackets: Counter, scale: int = 1) -> dict:
    """rows over scale times the product of brackets: RingFraction.resolve on a row map.

    Divides out the brackets, largest order first (NonExactDivision as in
    bracket_rows), then the scale; a coefficient the scale does not divide
    stays a Fraction.
    """
    rows = bracket_rows(rows, over=sorted(brackets.elements(), reverse=True))
    if scale == 1:
        return rows
    return {
        ae: (lo, [c // scale if c % scale == 0 else Fraction(c, scale) for c in coeffs])
        for ae, (lo, coeffs) in rows.items()
    }


# -- ring fractions -----------------------------------------------------------


def _integral(terms: dict) -> tuple[dict, int]:
    """(m * terms with int coefficients, m) for the least such m >= 1."""
    m = 1
    for c in terms.values():
        if not isinstance(c, int):
            m = lcm(m, c.denominator)
    return {key: int(c * m) for key, c in terms.items()}, m


def _tally(orders) -> Counter:
    """The Counter of orders, filled one by one (Counter(orders) asks an ABC)."""
    out = Counter()
    for k in orders:
        out[k] += 1
    return out


def scale_rows(rows: dict, n: int) -> dict:
    """Every coefficient of a row map times the nonzero int n."""
    if n == 1:
        return rows
    return {ae: (lo, [c * n for c in coeffs]) for ae, (lo, coeffs) in rows.items()}


def _peel_brackets(den: LaurentQA) -> tuple[Fraction, int, Counter]:
    """Write den as c * q^s * prod {k}^e_k; returns (c, s, Counter of k).

    Peels brackets off den's row from the largest order down: no {k'} with
    k' > k divides a product of brackets of order <= k, so the greedy split
    is the only one.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if not den.is_a_free():
        raise ValueError("denominator must be c * q^s * prod {k}^e in q only")
    ((lo, row),) = parse_rows(den.terms).values()
    brackets = Counter()
    k = len(row) - 1
    while len(row) > 1 and k >= 1:
        try:
            lo, row = bracket_row(lo, row, over=(k,))
        except NonExactDivision:
            k -= 1
            continue
        brackets[k] += 1
        k = min(k, len(row) - 1)
    if len(row) > 1:
        raise ValueError(f"denominator {den.to_text()} is not c * q^s * prod {{k}}^e")
    return Fraction(row[0]), lo, brackets


class RingFraction:
    """rows / (scale * prod_k {k}^e_k), with {k} = q^k - q^-k.

    rows is an int row map, one q-parity per a-layer (ValueError otherwise),
    scale a positive int kept coprime to the rows' content, and brackets a
    Counter over orders k >= 1; rational scalars fold into scale.  Only a
    product of two fractions leaves the rows, for LaurentQA.__mul__.
    """

    __slots__ = ("rows", "scale", "brackets")

    def __init__(self, num: LaurentQA, den: LaurentQA | int | Fraction = 1):
        if isinstance(den, LaurentQA):
            c, shift, brackets = _peel_brackets(den)
            num = num.shift(qexp=-shift) if shift else num
        elif den == 0:
            raise ZeroDivisionError("zero denominator")
        else:
            c, brackets = Fraction(den), Counter()
        terms, m = _integral(num.terms)
        self._set(scale_rows(parse_rows(terms), c.denominator), m * c.numerator, brackets)

    def _set(self, rows: dict, scale: int, brackets: Counter):
        """Store rows / (scale * brackets) with scale > 0 and coprime to rows."""
        if not rows:
            scale, brackets = 1, Counter()
        elif scale != 1:
            if scale < 0:
                rows, scale = scale_rows(rows, -1), -scale
            g = gcd(scale, *(c for _, coeffs in rows.values() for c in coeffs))
            if g > 1:
                rows = {ae: (lo, [c // g for c in coeffs]) for ae, (lo, coeffs) in rows.items()}
                scale //= g
        self.rows = rows
        self.scale = scale
        self.brackets = brackets

    @classmethod
    def _make(cls, rows: dict, scale: int, brackets: Counter) -> "RingFraction":
        obj = cls.__new__(cls)
        obj._set(rows, scale, brackets)
        return obj

    @classmethod
    def over_brackets(cls, num: LaurentQA, scale: int = 1, orders=()) -> "RingFraction":
        """num / (scale * prod of {k} over orders, which may repeat)."""
        terms, m = _integral(num.terms)
        return cls._make(parse_rows(terms), scale * m, _tally(orders))

    @classmethod
    def of_rows(cls, rows: dict, scale: int = 1, orders=()) -> "RingFraction":
        """An int row map over scale times the product of {k} over orders."""
        return cls._make(rows, scale, _tally(orders))

    @property
    def num(self) -> LaurentQA:
        """The numerator as a Laurent polynomial."""
        return emit_rows(self.rows)

    @property
    def den(self) -> LaurentQA:
        """The denominator expanded into a Laurent polynomial."""
        return emit_rows(bracket_rows({0: (0, [self.scale])}, tuple(self.brackets.elements())))

    def is_zero(self) -> bool:
        return not self.rows

    def _aligned(self, other: "RingFraction") -> tuple[dict, dict, Counter]:
        """Both numerators over the lcm of the two bracket monomials."""
        if self.brackets == other.brackets:
            return self.rows, other.rows, self.brackets
        common = self.brackets | other.brackets
        return (
            bracket_rows(self.rows, tuple((common - self.brackets).elements())),
            bracket_rows(other.rows, tuple((common - other.brackets).elements())),
            common,
        )

    def __add__(self, other) -> "RingFraction":
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        a, b, brackets = self._aligned(other)
        g = gcd(self.scale, other.scale)
        ma, mb = other.scale // g, self.scale // g
        return RingFraction._make(
            add_rows(scale_rows(a, ma), scale_rows(b, mb)), self.scale * ma, brackets
        )

    __radd__ = __add__

    def __neg__(self) -> "RingFraction":
        return RingFraction._make(scale_rows(self.rows, -1), self.scale, self.brackets)

    def __sub__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RingFraction":
        if isinstance(other, int) or type(other) is Fraction:
            n = other.numerator
            return RingFraction._make(
                scale_rows(self.rows, n) if n else {},
                self.scale * other.denominator,
                self.brackets,
            )
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return RingFraction._make(
            parse_rows((self.num * other.num).terms),
            self.scale * other.scale,
            self.brackets + other.brackets,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _coerce_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = self._aligned(other)
        if self.scale == other.scale:
            return a == b
        return scale_rows(a, other.scale) == scale_rows(b, self.scale)

    def __hash__(self):
        raise TypeError("RingFraction is not hashable")

    def __reduce__(self):
        return RingFraction.of_rows, (self.rows, self.scale, tuple(self.brackets.elements()))

    def __repr__(self) -> str:
        return (
            f"RingFraction({self.num.to_text()!r}, scale={self.scale}, "
            f"brackets={dict(sorted(self.brackets.items()))})"
        )

    def adams(self, e: int) -> "RingFraction":
        """Exponent scaling q -> q^e, a -> a^e; {k} becomes {ek}."""
        if e == 1:
            return self
        if e < 1:
            raise ValueError("adams degree must be >= 1")
        brackets = _tally(k * e for k in self.brackets.elements())
        return RingFraction._make(adams_rows(self.rows, e), self.scale, brackets)

    def resolve(self) -> LaurentQA:
        """Exact quotient as a Laurent polynomial; NonExactDivision if none."""
        return emit_rows(resolve_rows(self.rows, self.brackets, self.scale))


def _coerce_fraction(x):
    if isinstance(x, RingFraction):
        return x
    if isinstance(x, LaurentQA):
        return RingFraction(x, 1)
    if isinstance(x, int) or type(x) is Fraction:
        return RingFraction(LaurentQA.monomial(x), 1)
    return NotImplemented
