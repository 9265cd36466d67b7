"""Shared pure helpers for the test suite (no fixtures needed)."""

import itertools
from fractions import Fraction

from heckelift.combinatorics import (
    WeightMismatch,
    as_partition,
    character_table,
    kappa,
    partitions_of,
    z_mu,
)
from heckelift.exactring import LaurentQA, RingFraction, bracket_of_partition, qbracket


def frobenius_chi_table(n):
    """Symmetric group characters straight from the Frobenius formula.

    chi_lam(mu) is read off as the coefficient of x^(lam + delta) in the
    product of the Vandermonde alternant and the power sum p_mu, expanded
    monomial by monomial in n variables.  Shares nothing with the recursive
    implementation under test.
    """
    delta = tuple(range(n - 1, -1, -1))
    perms = []
    for sigma in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        perms.append((sign, tuple(delta[sigma[i]] for i in range(n))))
    out = {}
    for mu in partitions_of(n):
        poly = {(0,) * n: 1}
        for part in mu:
            nxt = {}
            for mono, c in poly.items():
                for j in range(n):
                    key = tuple(e + part * (i == j) for i, e in enumerate(mono))
                    nxt[key] = nxt.get(key, 0) + c
            poly = nxt
        for lam in partitions_of(n):
            padded = tuple(lam) + (0,) * (n - len(lam))
            total = 0
            for sign, sd in perms:
                target = tuple(padded[i] + delta[i] - sd[i] for i in range(n))
                if min(target) >= 0:
                    total += sign * poly.get(target, 0)
            out[(lam, mu)] = total
    return out


def random_laurent(rng, terms=4, qspan=5, aspan=3):
    """Small random two variable Laurent polynomial with rational coefficients."""
    data = {}
    for _ in range(rng.randrange(1, terms + 1)):
        num = rng.randrange(-9, 10)
        den = rng.choice([1, 1, 2, 3])
        qe = rng.randrange(-qspan, qspan + 1)
        ae = rng.randrange(-aspan, aspan + 1)
        data[(qe, ae)] = data.get((qe, ae), 0) + Fraction(num, den)
    return LaurentQA(data)


# -- cross-check references for the torus invariants --------------------------


def twist_power_sum(k, d, m):
    """Expansion of the m/d-twisted power sum P_{kd} over power sums P_mu.

    Coefficient of P_mu is a^{km} {km*mu} / (z_mu {km}); the zero twist is the
    identity on P_{kd}.
    """
    if k < 1 or d < 1:
        raise ValueError("cable parameters must be >= 1")
    out = []
    for mu in partitions_of(k * d):
        if m == 0:
            coeff = RingFraction(
                LaurentQA.one() if mu == (k * d,) else LaurentQA.zero()
            )
        else:
            num = bracket_of_partition(mu, k * m).shift(aexp=k * m) * Fraction(
                1, z_mu(mu)
            )
            coeff = RingFraction(num, qbracket(k * m))
        out.append((mu, coeff))
    return tuple(out)


def character_pairing(mu, nu):
    """sum over lam of chi_lam(mu) chi_lam(nu) q^kappa(lam)."""
    mu, nu = as_partition(mu), as_partition(nu)
    if sum(mu) != sum(nu):
        raise WeightMismatch(f"|{mu}| != |{nu}|")
    table = character_table(sum(mu)).values
    out = {}
    for lam in partitions_of(sum(mu)):
        v = table[(lam, mu)] * table[(lam, nu)]
        if v:
            key = (kappa(lam), 0)
            s = out.get(key, 0) + v
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return LaurentQA._raw(out)
