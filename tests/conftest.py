"""Shared pure helpers for the test suite (no fixtures needed)."""

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, gcd, lcm
from types import SimpleNamespace

from heckelift.alexlimit import HookAlexanderReport, framing_correction
from heckelift.combinatorics import (
    WeightMismatch,
    as_partition,
    boxes,
    character_table,
    chi,
    hook_lengths,
    hook_shapes,
    kappa,
    partitions_of,
    z_mu,
)
from heckelift.exactring import (
    LaurentQA,
    NonExactDivision,
    NotDivisible,
    ResidualFractionalExponent,
    RingFraction,
    abracket,
    abracket_of_partition,
    abracket_quotient,
    adams_rows,
    bracket_of_partition,
    bracket_rows,
    dense_divmod,
    divide_out_abracket,
    exact_div,
    kronecker_mul,
    over_binomial,
    parse_rows,
    qbracket,
    resolve_rows,
    times_binomial,
    zsquared,
)
from heckelift.hecke import _identity_check, defect_rows, defect_sign, is_prime, lifting_defect
from heckelift.lmov import (
    LmovReport,
    PSeries,
    _once_wound,
    extract_f,
    free_energy,
    m_inverse,
    partition_function,
)
from heckelift.torus import (
    FramedUnknot,
    TorusKnot,
    _den_brackets,
    _zlcm,
    alexander,
    alexander_rows,
    cable_params,
    power_sum_invariant,
    unknot_schur_value,
)
from heckelift.zbasis import (
    NotInSubring,
    ZAPoly,
    _cosh_to_z2,
    congruence_verdict,
    divide_by_qnum_sq,
    qnum_sq_z2,
    to_z2,
    z2_rows,
)


# -- test-only arithmetic helpers ------------------------------------------------


def z2_degree(f: ZAPoly) -> int:
    """Highest power of z^2 in f; -1 for the zero polynomial."""
    return max((len(row) - 1 for _, row in f.rows), default=-1)


def z2_to_laurent(f: ZAPoly) -> LaurentQA:
    """Expand f back into q and a: Horner's rule in z^2 = q^2 - 2 + q^-2."""
    out: dict = {}
    for ae, row in f.rows:
        acc: list = []  # acc[i] is the coefficient of q^(2(i - depth))
        for depth, c in enumerate(reversed(row)):
            up, down, mid = [0, 0] + acc, acc + [0, 0], [0] + acc + [0]
            acc = [u + v - 2 * w for u, v, w in zip(up, down, mid)]
            acc[depth] += c
        out.update(((2 * (i - depth), ae), c) for i, c in enumerate(acc) if c)
    return LaurentQA._raw(out)


def qnum(n: int) -> LaurentQA:
    """Balanced quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n).

    Built as the explicit term sum, never as a quotient of brackets.
    """
    return qnum_power(n, 1)


def qnum_power(n: int, k: int) -> LaurentQA:
    """[n] evaluated at q^k: the n-term sum of q^(k*(n-1-2j))."""
    if n < 0:
        return -qnum_power(-n, k)
    if n == 0 or k == 0:
        return LaurentQA.zero() if n == 0 else LaurentQA.monomial(n)
    data: dict = {}
    for j in range(n):
        e = k * (n - 1 - 2 * j)
        data[(e, 0)] = data.get((e, 0), 0) + 1
    return LaurentQA(data)


@cache
def gauss(N: int, k: int) -> tuple:
    """The Gaussian binomial G_x(N, k), entry i at x^i, by q-Pascal and nothing else.

    G(N, k) = G(N-1, k-1) + x^k G(N-1, k), memoized: the plain recursion is exponential.
    """
    if k in (0, N):
        return (1,)
    low, high = gauss(N - 1, k - 1), (0,) * k + gauss(N - 1, k)
    return tuple(x + y for x, y in itertools.zip_longest(low, high, fillvalue=0))


def exact_int_div(f: LaurentQA, k: int) -> LaurentQA:
    """Divide every coefficient of f by the nonzero int k, exactly.

    Integer coefficients stay int; raises NonExactDivision (with the
    remainders attached) if k leaves any coefficient with a remainder.
    """
    if k == 0:
        raise ZeroDivisionError("division by zero")
    out: dict = {}
    rem: dict = {}
    for key, c in f.terms.items():
        q, r = divmod(c, k)
        if r:
            rem[key] = r
        out[key] = q
    if rem:
        raise NonExactDivision(
            f"{len(rem)} coefficients not divisible by {k}",
            remainder=LaurentQA._raw(rem),
        )
    return LaurentQA._raw(out)


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


# -- oracles: a second route to the a -> 1 limit, numeric evaluation -----------


def substitute_a(f, a0=1):
    """f at a = a0 exactly, as a Laurent polynomial in q; int stays int at a0 = +-1."""
    data = {}
    for (qe, ae), c in f.terms.items():
        if a0 in (1, -1):
            v = -c if a0 == -1 and ae % 2 else c
        else:
            v = c * Fraction(a0) ** ae
        data[(qe, 0)] = data.get((qe, 0), 0) + v
    return LaurentQA(data)


def a_derivative_at_1(f):
    """d/da at a = 1, exact, as a Laurent polynomial in q."""
    data = {}
    for (qe, ae), c in f.terms.items():
        if ae:
            data[(qe, 0)] = data.get((qe, 0), 0) + c * ae
    return LaurentQA(data)


def limit_ratio_via_derivative(f):
    """lim_{a -> 1} f / (a - a^-1) computed as f'_a(1) / 2."""
    return a_derivative_at_1(f) * Fraction(1, 2)


def eval_numeric(f, q0, a0):
    """f at (q0, a0) in complex floats; a RingFraction is num / den."""
    if isinstance(f, RingFraction):
        return eval_numeric(f.num, q0, a0) / eval_numeric(f.den, q0, a0)
    return sum(complex(c) * q0**qe * a0**ae for (qe, ae), c in f.terms.items())


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


# -- the sparse route of the hook terms, kept as the reference -------------------
# Content rows as one sparse LaurentQA product per box, the cofactor as sparse
# bracket shifts and the Rosso-Jones sum as a dict of (u, a) terms.


def sparse_cofactor(n, mu, scale=1):
    """D(n)/{mu} at q -> q^scale: the brackets of D(n) that mu does not use, multiplied out."""
    rest = Counter(_den_brackets(n)) - Counter(mu)
    return LaurentQA._raw(sparse_times_brackets({(0, 0): 1}, [scale * k for k in rest.elements()]))


def sparse_content_row(lam, scale=1):
    """prod over the boxes of lam of {a q^(scale * c)}, one sparse product per box."""
    out = LaurentQA.one()
    for c, _ in boxes(lam):
        out = out * LaurentQA._raw({(scale * c, 1): 1, (-scale * c, -1): -1})
    return out


@lru_cache(maxsize=256)
def sparse_hook_term(lam, d):
    """The terms of prod_boxes {a u^(dc)} times D(n)/{d * hooks}, n = |lam|."""
    return (sparse_content_row(lam, d) * sparse_cofactor(sum(lam), hook_lengths(lam), d)).terms


def sparse_power_sum_invariant(K, mu):
    """H(K * P_mu): the hook terms summed as a dict of (u, a) terms."""
    d, m = cable_params(K)
    mu = as_partition(mu)
    if not mu:
        return RingFraction(LaurentQA.one())
    weight = sum(mu)
    n = d * weight
    dmu = tuple(d * x for x in mu)
    acc = {}
    for lam in partitions_of(n):
        ch = chi(lam, dmu)
        if ch:
            e = kappa(lam) * m
            for (ue, ae), c in sparse_hook_term(lam, d).items():
                acc[(ue + e, ae)] = acc.get((ue + e, ae), 0) + ch * c
    num = {}
    for (ue, ae), cv in acc.items():
        if not cv:
            continue
        if ue % d:
            raise ResidualFractionalExponent(f"uncancelled q-exponent {Fraction(ue, d)}")
        num[(ue // d, ae + weight * m)] = cv
    return RingFraction.over_brackets(LaurentQA._raw(num), 1, _den_brackets(n))


def sparse_unknot_schur_value(lam):
    """W_lam(U): the sparse content row over the hook lengths."""
    lam = as_partition(lam)
    return RingFraction.over_brackets(sparse_content_row(lam), 1, hook_lengths(lam))


# -- the nu-sum route of the plane values, kept as the reference ----------------
# Each plane Schur value is its character sum over nu |- n of
# chi_lam(nu) {nu}_a / (z_nu {nu}), put over D(n) with the cofactor D(n)/{nu}
# and the integer scale L = lcm z_nu.


@cache
def _plane_row(n, nu, scale=1):
    """{nu}_a times the bracket-monomial cofactor D(n)/{nu}, q-scaled."""
    return abracket_of_partition(nu) * sparse_cofactor(n, nu, scale)


def nu_sum_power_sum_invariant(K, mu):
    """H(K * P_mu) as the double sum over (lam, nu) |- n = d|mu| in u = q^(1/d)."""
    d, m = cable_params(K)
    mu = as_partition(mu)
    if not mu:
        return RingFraction(LaurentQA.one())
    weight = sum(mu)
    n = d * weight
    dmu = tuple(d * x for x in mu)
    table = character_table(n).values
    L = _zlcm(n)
    acc = {}
    for nu in partitions_of(n):
        phi = {}
        for lam in partitions_of(n):
            v = table[(lam, dmu)] * table[(lam, nu)]
            if v:
                e = kappa(lam) * m
                phi[e] = phi.get(e, 0) + v
        scalar = L // z_mu(nu)
        for (ue, ae), cr in _plane_row(n, nu, d).terms.items():
            for e, v in phi.items():
                key = (ue + e, ae)
                acc[key] = acc.get(key, 0) + cr * scalar * v
    num = {}
    for (ue, ae), cv in acc.items():
        if not cv:
            continue
        if ue % d:
            raise ResidualFractionalExponent(f"uncancelled q-exponent {Fraction(ue, d)}")
        num[(ue // d, ae + weight * m)] = cv
    return RingFraction.over_brackets(LaurentQA._raw(num), L, _den_brackets(n))


def nu_sum_unknot_schur_value(lam):
    """W_lam(U) as the character sum over nu |- |lam| of the plane rows."""
    lam = as_partition(lam)
    n = sum(lam)
    if n == 0:
        return RingFraction(LaurentQA.one())
    L = _zlcm(n)
    acc = LaurentQA.zero()
    for nu in partitions_of(n):
        ch = chi(lam, nu)
        if ch:
            acc = acc + _plane_row(n, nu) * (ch * (L // z_mu(nu)))
    return RingFraction.over_brackets(acc, L, _den_brackets(n))


def plane_value_grid():
    """(knot, mu) cases the hook-content route is checked on against the nu-sum.

    |mu| <= 4 and d|mu| <= 9 on FramedUnknot(-3..3), T(2,3), T(2,5), T(3,2)
    and T(1,1): 116 cases.
    """
    knots = [FramedUnknot(t) for t in range(-3, 4)]
    knots += [TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 2), TorusKnot(1, 1)]
    return [
        (K, mu)
        for K in knots
        for w in range(1, 5)
        if cable_params(K)[0] * w <= 9
        for mu in partitions_of(w)
    ]


# -- the lambda-sum route of the LMOV verdict, kept as the reference ------------
# fhat_mu = sum over lam |- |mu| of the Schur amplitude f_lam (extract_f) times
# the inverse pairing m_inverse(lam, mu); column orthogonality collapses it to
# the library's sum over nu of chi_mu(nu) h_nu / {nu}.


@lru_cache(maxsize=4)
def _schur_amplitudes(K, degree):
    return extract_f(free_energy(partition_function(K, degree)))


def lambda_sum_fhat(K, mu, degree):
    """fhat_mu as the sum over lam of f_lam * m_inverse(lam, mu)."""
    mu = as_partition(mu)
    f = _schur_amplitudes(K, degree)
    fhat = RingFraction(LaurentQA.zero())
    for lam in partitions_of(sum(mu)):
        if not f[lam].is_zero():
            fhat = fhat + f[lam] * m_inverse(lam, mu)
    return fhat


def lambda_sum_verdict(K, mu, degree):
    """The LMOV verdict of the lambda-sum route: z^2 fhat, resolved, in z^2."""
    mu = as_partition(mu)
    try:
        resolved = (lambda_sum_fhat(K, mu, degree) * zsquared()).resolve()
    except NonExactDivision as err:
        return LmovReport(False, mu, None, None, detail=f"not polynomial: {err}")
    try:
        zz = to_z2(resolved)
    except NotInSubring as err:
        return LmovReport(False, mu, None, None, detail=str(err))
    if zz.is_zero():
        return LmovReport(True, mu, zz, None)
    min_k = min(next(i for i, c in enumerate(row) if c != 0) for _, row in zz.rows)
    detail = "" if zz.is_integral else "coefficients not integral"
    return LmovReport(zz.is_integral, mu, zz, 2 * min_k - 2, detail)


# -- the combine-then-divide route of the LMOV verdict, kept as the reference ----
# Per mu: add chi_mu(nu) (L / s_nu) times each h_nu's padded numerator rows into
# one row per a-layer, then divide that sum by the brackets and the scale
# (resolve_rows) and convert it with z2_rows.  The library divides each h_nu
# once in its memo instead and combines the quotients and remainders.


@lru_cache(maxsize=4)
def _padded_numerators(K, degree):
    """Per weight: (D_w, L, spans, {nu: (L / s_nu, N_nu)}), as lmov's memo held them."""
    h = _once_wound(free_energy(partition_function(K, degree)))
    out = {}
    for w in range(1, degree + 1):
        dens = {nu: h[nu].brackets + Counter(nu) for nu in partitions_of(w) if not h[nu].is_zero()}
        common = Counter()
        for den in dens.values():
            common |= den
        L = lcm(*(h[nu].scale for nu in dens))
        ones = min(common[1], 2)
        numerators, spans = {}, {}
        for nu, den in dens.items():
            pad = [*(common - den).elements(), *[1] * (2 - ones)]
            rows = bracket_rows(parse_rows(h[nu].num.terms), pad)
            numerators[nu] = (L // h[nu].scale, rows)
            for ae, (lo, row) in rows.items():
                a, b = spans.get(ae, (lo, lo))
                spans[ae] = (min(a, lo), max(b, lo + 2 * len(row)))
        out[w] = (common - Counter({1: ones}), L, spans, numerators)
    return out


def combined_fhat(K, mu, degree):
    """z^2 fhat_mu as (rows, L, D): the padded numerators added over their spans, then trimmed."""
    divisors, L, spans, numerators = _padded_numerators(K, degree)[sum(mu)]
    acc = {ae: [0] * ((hi - lo) // 2) for ae, (lo, hi) in spans.items()}
    for nu, (ratio, rows) in numerators.items():
        c = chi(mu, nu) * ratio
        for ae, (lo, row) in rows.items():
            i = (lo - spans[ae][0]) // 2
            acc[ae][i : i + len(row)] = [x + c * y for x, y in zip(acc[ae][i : i + len(row)], row)]
    rows = {}
    for ae, out in acc.items():
        nonzero = [i for i, x in enumerate(out) if x]
        if nonzero:
            rows[ae] = (spans[ae][0] + 2 * nonzero[0], out[nonzero[0] : nonzero[-1] + 1])
    return rows, L, divisors


def combine_then_divide_verdict(K, mu, degree=None):
    """The LMOV verdict of the combined rows: resolve_rows, then z2_rows."""
    mu = as_partition(mu)
    rows, L, divisors = combined_fhat(K, mu, degree or sum(mu))
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
    min_k = min(next(i for i, c in enumerate(row) if c != 0) for _, row in zz.rows)
    detail = "" if zz.is_integral else "coefficients not integral"
    return LmovReport(zz.is_integral, mu, zz, 2 * min_k - 2, detail)


def lmov_grid():
    """(knot, mu, degree) cases the orthogonality route is checked on.

    |mu| <= 4 at degree 4 on FramedUnknot(-3..3), T(2,3), T(2,5) and T(3,2),
    and every mu of T(2,3) at degree 5: 128 cases.
    """
    knots = [FramedUnknot(t) for t in range(-3, 4)]
    knots += [TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 2)]
    grid = [(K, mu, 4) for K in knots for w in range(1, 5) for mu in partitions_of(w)]
    trefoil = TorusKnot(2, 3)
    return grid + [(trefoil, mu, 5) for w in range(1, 6) for mu in partitions_of(w)]


# -- the truncated-power free energy, kept as the reference ---------------------
# log Z = u - u^2/2 + u^3/3 - ... with u = Z - 1, and exp F = 1 + F + F^2/2! +
# ..., each power one full series product; PSeries.log and exp run the Euler
# recurrence instead.


def _series_product(a, b, degree):
    """The product of two coefficient dicts, truncated above degree."""
    out = {}
    for mu1, c1 in a.items():
        for mu2, c2 in b.items():
            if sum(mu1) + sum(mu2) > degree:
                continue
            key = tuple(sorted(mu1 + mu2, reverse=True))
            prod = c1 * c2
            out[key] = out[key] + prod if key in out else prod
    return out


def _weighted_powers(u, degree, weight):
    """sum over k = 1..degree of weight(k) u^k, as a coefficient dict."""
    out = {}
    power = u
    for k in range(1, degree + 1):
        for mu, c in power.items():
            term = c * weight(k)
            out[mu] = out[mu] + term if mu in out else term
        if k < degree:
            power = _series_product(power, u, degree)
    return out


def truncated_power_log(Z):
    """log Z by the truncated powers of u = Z - 1 (Z's constant term is 1)."""
    u = {mu: c for mu, c in Z.coeffs.items() if mu != ()}
    out = _weighted_powers(u, Z.degree, lambda k: Fraction((-1) ** (k + 1), k))
    return PSeries(Z.degree, out)


def truncated_power_exp(F):
    """exp F by the truncated powers of F (F's constant term is 0)."""
    out = _weighted_powers(F.coeffs, F.degree, lambda k: Fraction(1, factorial(k)))
    return PSeries(F.degree, {(): RingFraction(LaurentQA.one()), **out})


def free_energy_grid():
    """Partition functions the recurrence is checked on, degree 0 and 1 included.

    T(2,3) at degree 5, T(2,5) at degree 4 and FramedUnknot(-2..2) at degree
    5, each also at degree 1, and the degree-0 series 1.  A lower truncation
    of the same knot repeats the first weights of the top one.
    """
    cases = [(TorusKnot(2, 3), 5), (TorusKnot(2, 5), 4)]
    cases += [(FramedUnknot(t), 5) for t in range(-2, 3)]
    grid = [partition_function(K, D) for K, top in cases for D in (1, top)]
    return grid + [PSeries(0, {(): RingFraction(LaurentQA.one())})]


# -- the D(n) route of the twisted sums, kept as the reference -----------------


def twisted_sum_grid():
    """(knot, p) cases the verdict path is checked on against the D(n) route.

    p*d <= 12 with p in 2, 3, 5, 7 and m <= 7, FramedUnknot(-3..3) at
    p = 2..5 (c < 0, and c = 0), and the composite T(2,3) at p = 4 and 6.
    """
    cases = [
        (TorusKnot(d, m), p)
        for p in (2, 3, 5, 7)
        for d in (1, 2, 3)
        for m in range(1, 8)
        if gcd(d, m) == 1 and p * d <= 12
    ]
    cases += [(FramedUnknot(t), p) for t in range(-3, 4) for p in range(2, 6)]
    return cases + [(TorusKnot(2, 3), 4), (TorusKnot(2, 3), 6)]

# Every summand carries the common denominator D(n) = prod_k {k}^(n//k) as
# the cofactor D(n)/{mu}, and the brackets of D(n) are divided back out.


def dn_bracket_sum(n, c):
    """sum over mu |- n of (L/z_mu) {mu}_a {c*mu} (D(n)/{mu}); returns (sum, L)."""
    L = _zlcm(n)
    acc = LaurentQA.zero()
    for mu in partitions_of(n):
        qpart = bracket_of_partition(mu, c) * sparse_cofactor(n, mu)
        contrib = abracket_of_partition(mu) * qpart
        acc = acc + contrib * (L // z_mu(mu))
    return acc, L


def dn_scaled_invariant(K, p=1):
    """{p} * H(K * P_p) through the D(n) bracket sum."""
    d, m = cable_params(K)
    if m == 0:
        return abracket(p)
    n, c = p * d, p * m
    acc, L = dn_bracket_sum(n, c)
    resolved = top_down_divide_brackets(acc * qbracket(p), _den_brackets(n) + (c,))
    return exact_int_div(resolved, L).shift(aexp=p * m)


def dn_defect_cofactor_parts(p, d, m):
    """Numerator, bracket orders D(n) + (c, p) and integer scale of defect / [p]^2."""
    n, c = p * d, p * m
    s1, l1 = dn_bracket_sum(n, c)
    l2 = _zlcm(d)
    s2 = LaurentQA.zero()
    for nu in partitions_of(d):
        pnu = tuple(p * x for x in nu)
        qpart = bracket_of_partition(nu, c) * sparse_cofactor(n, pnu)
        s2 = s2 + abracket_of_partition(pnu) * qpart * (l2 // z_mu(nu))
    big = lcm(l1, l2)
    sign = defect_sign(p, d * m)
    combined = s1 * (big // l1) - s2 * (sign * (big // l2))
    num = (qbracket(1) * qbracket(1) * combined).shift(aexp=c)
    return num, _den_brackets(n) + (c, p), big


# -- the earlier verdict-path routes, kept as references -------------------------


def sparse_scaled_invariant(K, p=1):
    """The closed form with sparse q-binomial products and one bracket division."""
    d, m = cable_params(K)
    if m == 0:
        return abracket(p)
    n, c = p * d, p * m
    size = abs(c)
    mirror = 1 if c > 0 else -1

    def binomial(N, k, aexp=0, coeff=1):
        low = k * (N - k)
        return LaurentQA._raw(
            {(2 * i - low, aexp): coeff * v for i, v in enumerate(gauss(N, k))}
        )

    acc = {}
    for j in range(min(size, n) + 1):
        layer = binomial(n, j, mirror * (n - 2 * j), (-1) ** j)
        acc.update((layer * binomial(size + n - 1 - j, n - 1)).terms)
    summed = LaurentQA._raw(acc) * qbracket(p)
    return top_down_divide_brackets(summed, (mirror * n,)).shift(aexp=c)


@cache
def _recursive_cosh_basis(k):
    """q^(2k) + q^(-2k) in powers of z^2: B_k = (z^2 + 2) B_(k-1) - B_(k-2)."""
    if k == 0:
        return (2,)
    if k == 1:
        return (2, 1)
    prev, cur = _recursive_cosh_basis(k - 2), _recursive_cosh_basis(k - 1)
    shifted = (0,) + cur
    doubled = tuple(2 * c for c in cur) + (0,)
    width = max(len(shifted), len(doubled), len(prev))

    def at(t, i):
        return t[i] if i < len(t) else 0

    return tuple(at(shifted, i) + at(doubled, i) - at(prev, i) for i in range(width))


def recursive_to_z2(f):
    """to_z2 term by term through the memoized recursion for B_k, one q-exponent map per layer."""
    rows = {}
    for ae in sorted({ae for _, ae in f.terms}):
        slice_ = {qe: c for (qe, a), c in f.terms.items() if a == ae}
        for qe in slice_:
            if qe % 2 != 0:
                raise NotInSubring(f"odd q-exponent {qe} on a-layer {ae}")
        for qe, c in slice_.items():
            if slice_.get(-qe, 0) != c:
                raise NotInSubring(f"a-layer {ae} breaks q <-> q^-1 symmetry at q^{qe}")
        top = max(slice_) if slice_ else 0
        acc = [0] * max(top // 2 + 1, 1)
        acc[0] = slice_.get(0, 0)
        for qe, c in slice_.items():
            if qe > 0:
                for i, b in enumerate(_recursive_cosh_basis(qe // 2)):
                    acc[i] += c * b
        rows[ae] = tuple(acc)
    return ZAPoly.from_rows(rows)


def exact_div_family_ratio(num, p, m):
    """The ratio family's (flag, quotient) by long division through [pm][p]."""
    try:
        val = exact_div(num, qnum_power(p * m, 1) * qnum_power(p, 1))
    except NonExactDivision:
        return False, None
    try:
        return True, to_z2(val)
    except NotInSubring:
        return False, None


def two_conversion_verdict(K, p):
    """(a_factor, fragment of g, strong flag): g and core converted separately."""
    g = lifting_defect(K, p)
    try:
        core = divide_out_abracket(g)
    except NotDivisible:
        return False, congruence_verdict(g, p), False
    frag = congruence_verdict(g, p)
    try:
        zc = to_z2(core)
    except NotInSubring:
        return True, frag, False
    quot, exact, _ = divide_by_qnum_sq(zc, p)
    return True, frag, exact and zc.is_integral and quot.is_integral


# -- the sparse bracket routes, kept as references ------------------------------


def sparse_times_bracket(terms, k):
    """terms * {k}: each term shifted up and down by k, the lower one negated."""
    out = {}
    get = out.get
    for (qe, ae), c in terms.items():
        up = (qe + k, ae)
        out[up] = get(up, 0) + c
        down = (qe - k, ae)
        out[down] = get(down, 0) - c
    return {key: c for key, c in out.items() if c}


def sparse_times_brackets(terms, orders):
    """terms times the product of {k} over orders, one sparse shift pair per bracket."""
    for k in orders:
        terms = sparse_times_bracket(terms, k)
    return terms


def top_down_divide_brackets(f, orders):
    """f divided exactly by the product of {k} over orders, which may repeat.

    A negative order k stands for {k} = -{-k}.  Each a-layer is laid out
    densely once and every bracket is divided out in place: f = Q q^k - Q q^-k,
    so from the top down Q[j - k] = f[j] + Q[j + k].  Raises NonExactDivision,
    with the remainder left by the failing bracket attached, unless every
    bracket divides every a-layer.
    """
    sign = 1
    widths = []
    for k in orders:
        if k == 0:
            raise ZeroDivisionError("the bracket {0} is zero")
        if k < 0:
            sign, k = -sign, -k
        widths.append(2 * k)
    layers = {}
    for (qe, ae), c in f.terms.items():
        layers.setdefault(ae, {})[qe] = c
    out = {}
    for ae in sorted(layers):
        layer = layers[ae]
        # work[i] is the coefficient of q^(i + off); the quotient so far
        # occupies work[base:]
        off = min(layer)
        top = max(layer) - off + 1
        work = [0] * top
        for qe, c in layer.items():
            work[qe - off] = c
        base = 0
        for w in widths:
            for i in range(top - 1, base + w - 1, -1):
                c = work[i]
                if c:
                    work[i - w] += c
            if any(work[base : base + w]):
                rest = enumerate(work[base : base + w], base)
                remainder = {(i + off, ae): c for i, c in rest if c}
                raise NonExactDivision(
                    f"not divisible by {{{w // 2}}} on a-layer {ae}",
                    remainder=LaurentQA._raw(remainder),
                )
            base += w
            off -= w // 2
        for i in range(top - 1, base - 1, -1):
            c = work[i]
            if c:
                out[(i + off, ae)] = c * sign
    return LaurentQA._raw(out)


def stepwise_qnum_product(n, parts, scale=1):
    """scale * prod_i [n]_{q^k_i}, n >= 1, one ratio (1 - x^(nk)) / (1 - x^k) per part.

    Dense in q^2 from q^-((n-1) sum k_i).
    """
    out = [scale]
    for k in parts:
        out = times_binomial(out, n * k)
        assert not any(over_binomial(out, k))
    return out


def stepwise_over_qnums(rows, orders):
    """rows / prod of [n] = q^-(n-1) (1 - x^n) / (1 - x) over orders, one ratio per [n]."""
    out = {}
    for ae, (lo, coeffs) in rows.items():
        for n in orders:
            lo, coeffs = lo + n - 1, times_binomial(coeffs, 1)
            if any(over_binomial(coeffs, n)):
                raise NonExactDivision(f"not divisible by 1 - x^{n}")
        out[ae] = (lo, coeffs)
    return out


# -- the dict routes of the verdict path, kept as references ---------------------


def sparse_adams_term(d, m, p):
    """Adams_p of the order-1 invariant from sparse products over nu |- d.

    a^c {p}/{c} (1/L) sum_{nu |- d} (L/z_nu) {p*nu}_a prod_i [m]_{q^{p*nu_i}}
    with c = pm.
    """
    c = p * m
    L = _zlcm(d)
    acc = LaurentQA.zero()
    for nu in partitions_of(d):
        term = abracket_of_partition(nu, p) * (L // z_mu(nu))
        for part in nu:
            term = term * qnum_power(m, p * part)
        acc = acc + term
    return exact_int_div(top_down_divide_brackets(acc * qbracket(p), (c,)), L).shift(aexp=c)


def dict_divide_out_abracket(f, n=1):
    """Division by (a^n - a^-n) on q-exponent -> coefficient maps per a-layer."""
    if f.is_zero():
        return f
    layers = {}
    for (qe, ae), c in f.terms.items():
        layers.setdefault(ae + n, {})[qe] = c
    lo, hi = min(layers), max(layers)
    quotient = {}
    for j in range(hi, lo + 2 * n - 1, -1):
        cur = layers.get(j)
        if not cur:
            continue
        quotient[j - 2 * n] = cur
        below = layers.setdefault(j - 2 * n, {})
        for qe, c in cur.items():
            s = below.get(qe, 0) + c
            if s == 0:
                below.pop(qe, None)
            else:
                below[qe] = s
        del layers[j]
    residue = {(qe, ae - n): c for ae, sl in layers.items() for qe, c in sl.items() if c}
    if residue:
        raise NotDivisible("not divisible by the a-bracket", witness=LaurentQA._raw(residue))
    return LaurentQA._raw(
        {(qe, ae): c for ae, sl in quotient.items() for qe, c in sl.items() if c}
    )


def dict_to_z2(f):
    """to_z2 with the terms grouped into q-exponent maps, one Clenshaw run per layer."""
    layers = {}
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
        rows[ae] = _cosh_to_z2([slice_.get(qe, 0) for qe in range(0, max(slice_) + 1, 2)])
    return ZAPoly.from_rows(rows)


def _z2_fragment(z2_member, p2_divisible, quotient, remainder_witness):
    """A fragment whose quotient is a ZAPoly, as the references build it."""
    return SimpleNamespace(z2_member=z2_member, p2_divisible=p2_divisible,
                           quotient=quotient, remainder_witness=remainder_witness)


def dict_congruence_verdict(f, p):
    """congruence_verdict through dict_to_z2, with [p]^2 from a sparse product."""
    try:
        zp = dict_to_z2(f)
    except NotInSubring:
        return _z2_fragment(False, False, None, None)
    divisor = dict(dict_to_z2(qnum(p) * qnum(p)).rows)[0]
    q_rows, r_rows = {}, {}
    for ae, row in zp.rows:
        q_rows[ae], r_rows[ae] = dense_divmod(row, divisor)
    quotient, remainder = ZAPoly.from_rows(q_rows), ZAPoly.from_rows(r_rows)
    exact = remainder.is_zero()
    return _z2_fragment(
        zp.is_integral,
        exact and quotient.is_integral,
        quotient if exact else None,
        None if exact else remainder,
    )


def dict_hook_trace(p, tau):
    """The hook trace as a sparse sum over hook_shapes(p)."""
    trace = LaurentQA.zero()
    for hook in hook_shapes(p):
        trace = trace + LaurentQA.monomial(1, qexp=hook.kappa * tau)
    return trace - LaurentQA.monomial(p if ((p - 1) * tau) % 2 == 0 else -p)


def dict_framing_correction(p, tau):
    """The sparse hook trace divided by [p]^2."""
    return exact_div(dict_hook_trace(p, tau), qnum(p) * qnum(p))


def reference_case(K, p):
    """(g, core or None, report JSON body, identity) through the dict routes."""
    d, m = cable_params(K)
    sign = defect_sign(p, K.framing)
    g = sparse_scaled_invariant(K, p) - sparse_scaled_invariant(K, 1).adams(p) * sign
    try:
        core = dict_divide_out_abracket(g)
    except NotDivisible:
        core = None
    # g's own fragment: (a - a^-1) times the core's
    frag = dict_congruence_verdict(g, p)
    if p == 1 or m == 0:
        identity = g.is_zero()
    else:
        identity = g == sparse_scaled_invariant(K, p) - sparse_adams_term(d, m, p) * sign
    body = {
        "a_factor": "pass" if core is not None else "fail",
        "z2_member": "pass" if frag.z2_member else "fail",
        "p2_divisible": "pass" if frag.p2_divisible else "fail",
        "quotient": None if frag.quotient is None else frag.quotient.to_json_dict(),
        "remainder_witness": (
            None if frag.remainder_witness is None else frag.remainder_witness.to_json_dict()
        ),
        "identity_gp_eq_p2F": "pass" if identity else "fail",
    }
    return g, core, body, identity


def reference_limit_identity(K, core, p):
    """lim core at a = 1 == [p]^2 A(K; q^p) * correction, by sparse products."""
    corr = dict_framing_correction(p, K.framing)
    return substitute_a(core) == qnum(p) * qnum(p) * _sparse_alexander(K, p) * corr


def reference_trace_identity(K, core, p):
    """lim core at a = 1 == A(K; q^p) * hook trace, by sparse products: no [p]^2 division."""
    return substitute_a(core) == _sparse_alexander(K, p) * dict_hook_trace(p, K.framing)


def _sparse_alexander(K, p):
    """A(K; q^p) from the sparse closed form, its a-bracket quotient at a = 1."""
    return substitute_a(dict_divide_out_abracket(sparse_scaled_invariant(K, 1))).adams(p)


def sparse_hook_alexander_check(K, hook):
    """The hook check by sparse limits, cross-products and one exact_div.

    Both limits are divide_out_abracket followed by a = 1; the unknot's is
    taken from its hook-content numerator, not from a closed form.
    """
    w = hook.weight
    lam = hook.partition()
    table = character_table(w).values
    colored_sum = None
    for mu in partitions_of(w):
        ch = table[(lam, mu)]
        if ch:
            piece = power_sum_invariant(K, mu) * Fraction(ch, z_mu(mu))
            colored_sum = piece if colored_sum is None else colored_sum + piece
    normalized = colored_sum.num.shift(qexp=-hook.kappa * K.framing, aexp=-w * K.framing)
    unknot = unknot_schur_value(lam)
    num = substitute_a(divide_out_abracket(normalized)) * unknot.den
    den = colored_sum.den * substitute_a(divide_out_abracket(unknot.num))
    expected = z2_to_laurent(alexander(K)).adams(w)
    try:
        colored = exact_div(num, den)
    except NonExactDivision:
        colored = None
    return HookAlexanderReport(num == expected * den, hook, colored, expected)


def bench10_grid():
    """The 217 cases of BENCH_10.json: TorusKnot with p <= 11, p*d <= 15 and
    m <= 15, p*m <= 40 (composite p included), and FramedUnknot(-3..3) at p <= 7."""
    cases = [
        (TorusKnot(d, m), p)
        for p in range(1, 12)
        for d in (1, 2, 3)
        for m in range(1, 16)
        if gcd(d, m) == 1 and p * d <= 15 and p * m <= 40
    ]
    return cases + [(FramedUnknot(t), p) for t in range(-3, 4) for p in range(1, 8)]


# -- the conversion-first verdict route, kept as the reference -------------------


def z2_first_verdict(rows, p):
    """A fragment from z^2 rows (None: not in Q[z^2]) by long division by [p]^2 in z^2."""
    if rows is None:
        return _z2_fragment(False, False, None, None)
    zp = ZAPoly.from_rows(rows)
    quotient, exact, remainder = divide_by_qnum_sq(zp, p)
    if exact:
        return _z2_fragment(zp.is_integral, quotient.is_integral, quotient, None)
    return _z2_fragment(zp.is_integral, False, None, remainder)


def times_abracket(frag):
    """(a - a^-1) times a fragment's quotient and witness: row e is row e - 1 minus row e + 1."""

    def lift(f):
        if f is None:
            return None
        rows, out = dict(f.rows), {}
        for ae in {e + s for e in rows for s in (1, -1)}:
            pairs = itertools.zip_longest(rows.get(ae - 1, ()), rows.get(ae + 1, ()), fillvalue=0)
            out[ae] = [u - v for u, v in pairs]
        return ZAPoly.from_rows(out)

    return _z2_fragment(frag.z2_member, frag.p2_divisible, lift(frag.quotient),
                        lift(frag.remainder_witness))


def conversion_first_report(K, p):
    """(report JSON body without millis, CSV row without millis) by converting first.

    The core g / (a - a^-1) is converted to z^2, divided there and lifted
    back to g by (a - a^-1); only when g has no a-factor is g converted.
    """
    d, m = cable_params(K)
    g = defect_rows(K, p)
    try:
        frag = times_abracket(z2_first_verdict(z2_rows(abracket_quotient(g)), p))
        a_ok = True
    except NotDivisible:
        frag = z2_first_verdict(z2_rows(g), p)
        a_ok = False
    flag = {True: "pass", False: "fail"}
    verdict = a_ok and frag.z2_member and frag.p2_divisible
    body = {
        "d": d,
        "m": m,
        "framing": K.framing,
        "p": p,
        "p_prime": is_prime(p),
        "a_factor": flag[a_ok],
        "z2_member": flag[frag.z2_member],
        "p2_divisible": flag[frag.p2_divisible],
        "quotient": None if frag.quotient is None else frag.quotient.to_json_dict(),
        "remainder_witness": (
            None if frag.remainder_witness is None else frag.remainder_witness.to_json_dict()
        ),
        "identity_gp_eq_p2F": flag[_identity_check(K, g, p)],
    }
    csv = [d, m, p, "true" if is_prime(p) else "false", "PASS" if verdict else "FAIL",
           "" if frag.quotient is None else z2_degree(frag.quotient)]
    return body, csv


def conversion_first_limits(K, p):
    """(limit identity, limit membership fragment) from the core's z^2 rows.

    The limit's z^2 row is the sum of the core's z^2 rows; the identity
    compares it with [p]^2 A(K; q^p) times the correction as z^2 products.
    The identity is NonExactDivision (the class) where the correction raises it.
    """
    rows = z2_rows(abracket_quotient(defect_rows(K, p)))
    lim = None if rows is None else {
        0: list(map(sum, itertools.zip_longest(*rows.values(), fillvalue=0)))
    }
    frag = z2_first_verdict(lim, p)
    try:
        corr = dict(framing_correction(p, K.framing).rows).get(0, ())
    except NonExactDivision:
        return NonExactDivision, frag
    alex_p = z2_rows(adams_rows(alexander_rows(K), p))[0]
    rhs = kronecker_mul(kronecker_mul(list(qnum_sq_z2(p)), alex_p), list(corr))
    return lim is not None and ZAPoly.from_rows(lim) == ZAPoly.from_rows({0: rhs}), frag


# -- the divisor-by-divisor cyclotomic route, kept as the reference ---------------


def divisor_cyclotomic(n):
    """Phi_n, lowest coefficient first: Phi_d = (x^d - 1) / prod Phi_e over the proper
    divisors e of d, by long division, for each d | n in turn."""
    phis = {}
    for d in range(1, n + 1):
        if n % d == 0:
            poly = [-1] + [0] * (d - 1) + [1]
            for e, phi in phis.items():
                if d % e == 0:
                    poly = dense_divmod(poly, phi)[0]
            phis[d] = poly
    return phis[n]
