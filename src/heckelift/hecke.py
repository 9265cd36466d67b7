"""Hecke lifting congruences for the power-sum colored invariants.

The lifting defect of a knot at order p is the difference between its p-th
power-sum invariant and the degree-p exponent scaling of its first one, with
a framing-dependent sign.  For prime p the defect is conjectured (proved for
framed torus knots) to land in (a - a^-1) [p]^2 Z[z^2, a^{+-1}]; everything
here checks that membership exactly and produces reproducible witnesses when
it fails, e.g. for composite probes.  The identity check is a second route:
it rebuilds the Adams image of the order-1 invariant from the partitions of
d (the paper's splitting step) and compares Z_p minus it with the defect.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import product, repeat
from math import gcd, prod
from operator import add, floordiv, mod, mul

from .combinatorics import Partition, as_partition, partitions_of, z_mu
from .exactring import (
    Frozen,
    LaurentQA,
    NonExactDivision,
    NotDivisible,
    abracket_quotient,
    adams_rows,
    add_rows,
    bracket_row,
    bracket_rows,
    emit_rows,
)
from .torus import _zlcm, cable_params, closed_form_rows
from .zbasis import CongruenceFragment, ZAPoly, over_qnum_sq, z2_rows, z2_verdict


class PreconditionViolated(ValueError):
    """A family check was invoked outside its domain."""


def _flag(ok: bool) -> str:
    return "pass" if ok else "fail"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def defect_sign(p: int, framing: int) -> int:
    """(-1)^((p - 1) * framing)."""
    return -1 if ((p - 1) * framing) % 2 else 1


@lru_cache(maxsize=4)
def defect_rows(K, p: int) -> dict:
    """The rows of g, Z_p minus sign times Z_1 stretched by p.

    Built once per case: the verdict, its core, the identity check, the
    cofactor and the double-root residual of one case all read it back to
    back, so a few entries suffice.
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    stretched = adams_rows(closed_form_rows(K, 1), p)
    return add_rows(closed_form_rows(K, p), stretched, negate=defect_sign(p, K.framing) > 0)


@lru_cache(maxsize=4)
def core_rows(K, p: int) -> dict:
    """The rows of g / (a - a^-1); NotDivisible if g has no a-factor.

    verify_hecke and the a -> 1 limit checks of one case share it, so the
    defect is divided once per case.
    """
    return abracket_quotient(defect_rows(K, p))


@lru_cache(maxsize=4)
def lifting_defect(K, p: int) -> LaurentQA:
    """scaled_invariant(K, p) minus the signed degree-p scaling of order 1."""
    return emit_rows(defect_rows(K, p))


def _adams_rows(d: int, m: int, p: int) -> dict:
    """Adams_p of the order-1 invariant by the paper's splitting step over nu |- d.

    a^m {1}/{m} (1/L) sum_{nu |- d} (L/z_nu) {nu}_a prod_i [m]_{q^nu_i}, stretched by
    p.  Shares only the exactring bracket kernel with Z_p.
    """
    L = _zlcm(d)
    acc: dict = {}
    for nu in partitions_of(d):
        # every nu's q-product starts at the same q^lo: each spans (|m| - 1)d both ways
        lo, qpart = _qnum_product(m, nu)[0]
        # {nu}_a = prod_i (a^nu_i - a^-nu_i), one term per choice of signs
        for signs in product((1, -1), repeat=len(nu)):
            c = (L // z_mu(nu)) * prod(signs)
            ae = m + sum(map(mul, signs, nu))
            acc[ae] = list(map(add, acc.get(ae, repeat(0)), map(mul, qpart, repeat(c))))
    rows = {}
    for ae, row in acc.items():
        start, row = bracket_row(lo, row, (1,), (m,))
        if any(map(mod, row, repeat(L))):
            raise NonExactDivision(f"splitting term not divisible by {L}")
        rows[ae] = (start, list(map(floordiv, row, repeat(L))))
    return adams_rows(rows, p)


def defect_cofactor(K, p: int) -> LaurentQA:
    """The exact polynomial F with lifting_defect(K, p) == [p]^2 * F.

    g's rows over [p]^2, as in a passing report.  Resolves exactly, with int
    coefficients, for prime p; composite p generally leaves a genuine
    fraction and the division raises NonExactDivision.
    """
    if cable_params(K)[1] == 0:
        raise ValueError("zero framing has no twist bracket")
    return emit_rows(over_qnum_sq(defect_rows(K, p), p))


class CongruenceReport(Frozen):
    """Outcome of one congruence case, JSON/CSV serializable; quotient_rows as in a fragment.

    millis (a float) times the verdict only, closed form through identity check: reading
    quotient converts to z^2 after that, uncounted."""

    __slots__ = ("d", "m", "framing", "p", "p_prime", "a_factor", "z2_member", "p2_divisible",
                 "quotient_rows", "remainder_witness", "identity_gp_eq_p2F", "millis")

    quotient = CongruenceFragment.quotient

    @property
    def verdict(self) -> bool:
        return self.a_factor and self.z2_member and self.p2_divisible

    # g / (a - a^-1) in [p]^2 Z[z^2, a^{+-1}]: the core's layers are running
    # sums of g's, so with the a-factor g's checks are the core's
    strong_divisible = verdict

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "framing": self.framing,
            "p": self.p,
            "p_prime": self.p_prime,
            "a_factor": _flag(self.a_factor),
            "z2_member": _flag(self.z2_member),
            "p2_divisible": _flag(self.p2_divisible),
            "quotient": None if self.quotient_rows is None else self.quotient.to_json_dict(),
            "remainder_witness": (
                None
                if self.remainder_witness is None
                else self.remainder_witness.to_json_dict()
            ),
            "identity_gp_eq_p2F": _flag(self.identity_gp_eq_p2F),
            "millis": self.millis,
        }

    CSV_COLUMNS = ("d", "m", "p", "p_prime", "verdict", "quotient_z2_degree", "millis")

    def csv_row(self) -> list:
        rows = self.quotient_rows
        return [
            self.d,
            self.m,
            self.p,
            "true" if self.p_prime else "false",
            "PASS" if self.verdict else "FAIL",
            # a palindromic row spanning q^-2h..q^2h has z^2-degree h
            "" if rows is None else max((len(c) // 2 for _, (_, c) in rows), default=-1),
            round(self.millis, 3),
        ]


def verify_hecke(K, p: int) -> CongruenceReport:
    """Run every congruence check of the lifting conjecture for one case.

    Failures are verdicts, not errors: composite p is allowed and expected
    to FAIL with a remainder witness.

    z2_verdict decides on g's q-rows, with or without an a-factor (the
    core's existence, which the limit checks reuse); nothing is converted to
    z^2 unless the division fails (the witness) or the quotient is read.
    """
    t0 = time.perf_counter()
    d, m = cable_params(K)
    try:
        core_rows(K, p)
        a_ok = True
    except NotDivisible:
        a_ok = False
    g = defect_rows(K, p)
    frag = z2_verdict(g, p)
    identity = _identity_check(K, g, p)

    millis = (time.perf_counter() - t0) * 1000.0
    return CongruenceReport(
        d=d,
        m=m,
        framing=K.framing,
        p=p,
        p_prime=is_prime(p),
        a_factor=a_ok,
        z2_member=frag.z2_member,
        p2_divisible=frag.p2_divisible,
        quotient_rows=frag.quotient_rows,
        remainder_witness=frag.remainder_witness,
        identity_gp_eq_p2F=identity,
        millis=millis,
    )


def _identity_check(K, g: dict, p: int) -> bool:
    """g's rows == Z_p - sign * A, with A built by the splitting step over nu |- d."""
    d, m = cable_params(K)
    if p == 1 or m == 0:
        # no twist, or order 1: the lift equals the Adams image
        return not g
    negate = defect_sign(p, K.framing) > 0
    return g == add_rows(closed_form_rows(K, p), _adams_rows(d, m, p), negate)


# -- single-variable ratio families ------------------------------------------


def _family_ratio(num: dict, p: int, m: int) -> tuple[bool, ZAPoly | None]:
    """The z^2 rows of the family numerator's rows over [pm][p], if they exist."""
    try:
        rows = z2_rows(bracket_rows(num, (1, 1), (p * m, p)))
    except NonExactDivision:
        return False, None
    return (False, None) if rows is None else (True, ZAPoly.from_rows(rows))


def _check_prime_and_twist(p: int, m: int) -> None:
    """The preconditions both ratio families share: p prime and m >= 1."""
    if not is_prime(p):
        raise PreconditionViolated(f"p = {p} is not prime")
    if m < 1:
        raise PreconditionViolated("twist exponent m must be >= 1")


def _qnum_product(n: int, parts, scale: int = 1) -> dict:
    """{0: scale * prod_i [n]_{q^k_i}} as a row map, [n]_{q^k} = {nk}/{k}."""
    return {0: bracket_row(0, [scale], [n * k for k in parts], parts)}


def divisible_family_check(p: int, m: int, nu: Partition) -> tuple[bool, ZAPoly | None]:
    """Membership in Q[z^2] for the scaled-part ratio family.

    With d = |nu|, checks that
    (prod_i [pm]_{x^{p nu_i}} - (-1)^((p-1)dm) p^len(nu) prod_i [m]_{x^{p nu_i}})
    divided by [pm][p] is a polynomial in z^2 with rational coefficients.
    Requires gcd(d, m) = 1; without it the ratio can fail to be polynomial
    or can pick up odd powers of x.
    """
    _check_prime_and_twist(p, m)
    nu = as_partition(nu)
    d = sum(nu)
    if gcd(d, m) != 1:
        raise PreconditionViolated(f"|nu| = {d} and m = {m} are not coprime")
    parts = [p * part for part in nu]
    low = _qnum_product(m, parts, defect_sign(p, d * m) * p ** len(nu))
    return _family_ratio(add_rows(_qnum_product(p * m, parts), low, negate=True), p, m)


def nondivisible_family_check(p: int, m: int, mu: Partition) -> tuple[bool, ZAPoly | None]:
    """Membership in Q[z^2] for the unscaled-part ratio family.

    Requires |mu| = p*d with gcd(d, m) = 1 and at least one part of mu not
    divisible by p; checks prod_i [pm]_{x^{mu_i}} / ([pm][p]) lies in Q[z^2].
    """
    _check_prime_and_twist(p, m)
    mu = as_partition(mu)
    if not mu or sum(mu) % p != 0:
        raise PreconditionViolated(f"|mu| = {sum(mu)} is not a multiple of {p}")
    if all(x % p == 0 for x in mu):
        raise PreconditionViolated(f"every part of {mu} is divisible by {p}")
    if gcd(sum(mu) // p, m) != 1:
        raise PreconditionViolated(f"|mu|/p = {sum(mu) // p} and m = {m} are not coprime")
    return _family_ratio(_qnum_product(p * m, mu), p, m)
