import cmath
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest

from conftest import power, qnum, recursive_to_z2, z2_degree, z2_to_laurent, zsquared
from heckelift.exactring import LaurentQA, abracket, qbracket
from heckelift.exactring import add_rows
from heckelift.zbasis import (
    NotInSubring,
    ZAPoly,
    _trim,
    congruence_verdict,
    divide_by_qnum_sq,
    double_root_residual,
    qnum_sq_z2,
    to_z2,
    z2_rows,
    z2_split,
)


def random_zapoly(rng, max_aexp=2, max_deg=3):
    rows = {}
    for ae in range(-max_aexp, max_aexp + 1):
        if rng.random() < 0.5:
            continue
        coeffs = tuple(
            Fraction(rng.randrange(-6, 7)) for _ in range(rng.randrange(1, max_deg + 2))
        )
        rows[ae] = coeffs
    return ZAPoly.from_rows(rows)


def test_to_z2_examples():
    assert to_z2(LaurentQA.one()).to_json_dict() == {"0": ["1"]}
    assert to_z2(zsquared()).to_json_dict() == {"0": ["0", "1"]}
    assert to_z2(LaurentQA({(2, 0): 1, (-2, 0): 1})).to_json_dict() == {"0": ["2", "1"]}
    assert to_z2(abracket(1)).to_json_dict() == {"-1": ["-1"], "1": ["1"]}
    assert to_z2(LaurentQA.zero()).is_zero()
    assert to_z2(qnum(3) * qnum(3)).to_json_dict() == {"0": ["9", "6", "1"]}


def test_to_z2_round_trip_random():
    rng = random.Random(4242)
    for _ in range(40):
        poly = random_zapoly(rng)
        assert to_z2(z2_to_laurent(poly)) == poly


def test_to_z2_rejections():
    with pytest.raises(NotInSubring):
        to_z2(LaurentQA.monomial(1, qexp=1))
    with pytest.raises(NotInSubring):
        to_z2(LaurentQA({(2, 0): 1, (-2, 0): 2}))


def _palindromic_terms(rng, coeff, max_k=30):
    """Random even palindromic a-layers, as a term list in shuffled order."""
    data = {}
    for ae in rng.sample(range(-4, 5), rng.randrange(1, 4)):
        for e in range(rng.randrange(0, max_k) + 1):
            c = coeff(rng)
            if c:
                data[(2 * e, ae)] = data[(-2 * e, ae)] = c
    terms = list(data.items())
    rng.shuffle(terms)
    return terms


def _raised(fn, f):
    with pytest.raises(NotInSubring) as err:
        fn(f)
    return str(err.value)


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_to_z2_matches_recursive_route(kind):
    """Clenshaw agrees with the term-by-term recursion, coefficient types included,
    and names the same violation when the input is not a member."""
    rng = random.Random(2024 if kind == "int" else 2025)
    if kind == "int":
        coeff = lambda r: r.randrange(-9, 10)  # noqa: E731
    else:
        coeff = lambda r: Fraction(r.randrange(-9, 10), r.choice([1, 2, 3, 6]))  # noqa: E731
    for _ in range(60):
        terms = _palindromic_terms(rng, coeff)
        f = LaurentQA(dict(terms))
        new, old = to_z2(f), recursive_to_z2(f)
        assert new.rows == old.rows
        assert [list(map(type, row)) for _, row in new.rows] == [
            list(map(type, row)) for _, row in old.rows
        ]
        # break one layer: an odd exponent, or one side of a symmetric pair
        (qe, ae), _ = rng.choice(terms)
        broken = dict(terms)
        if rng.random() < 0.5:
            broken[(qe + rng.choice([1, -1]), ae)] = coeff(rng) or 1
        else:
            qe = abs(qe) or 2
            broken[(qe, ae)] = broken.get((-qe, ae), 0) + 1
        items = list(broken.items())
        rng.shuffle(items)
        g = LaurentQA(dict(items))
        assert _raised(to_z2, g) == _raised(recursive_to_z2, g)


def test_to_z2_wide_layer_from_cold_memos():
    """q^2800 + q^-2800: the earlier memoized recursion overflowed the stack here."""
    k = 1400
    row = dict(to_z2(LaurentQA({(2 * k, 0): 1, (-2 * k, 0): 1})).rows)[0]
    assert len(row) == k + 1
    # q^2k + q^-2k = sum_i (2k / (k + i)) C(k + i, 2i) z^(2i)
    for i in (0, 1, 2, 700, k - 1, k):
        assert row[i] * (k + i) == 2 * k * comb(k + i, 2 * i), i
    # at z^2 = 1 it is the Lucas number L_2k
    lucas = [2, 1]
    while len(lucas) <= 2 * k:
        lucas.append(lucas[-1] + lucas[-2])
    assert sum(row) == lucas[2 * k]


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_conversions_run_under_a_low_recursion_limit():
    """A layer of width 1200 converts, divides and expands back with 50 free frames."""
    rng = random.Random(31)
    data = {}
    for ae in (-1, 1):
        # widest terms first: a memo filled term by term would start deepest
        for e in range(600, -1, -1):
            data[(2 * e, ae)] = data[(-2 * e, ae)] = rng.randrange(-5, 6) or 1
    f = LaurentQA(data)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        z = to_z2(f)
        back = z2_to_laurent(z)
        quotient, _, remainder = divide_by_qnum_sq(z, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert back == f
    assert z2_degree(z) == 600
    assert z2_degree(quotient) == 598 and z2_degree(remainder) <= 1


def test_zapoly_structure():
    poly = ZAPoly.from_rows({0: (Fraction(1), Fraction(2)), 2: (Fraction(0),)})
    assert poly.rows == ((0, (Fraction(1), Fraction(2))),)
    assert z2_degree(poly) == 1
    assert ZAPoly.from_rows({}).is_zero() and z2_degree(ZAPoly.from_rows({})) == -1
    assert poly.is_integral
    frac = ZAPoly.from_rows({0: (Fraction(1, 2),)})
    assert not frac.is_integral


def _split_verdict(row):
    """The z^2 row of a row by z2_split, trimmed; None where its A part is nonzero."""
    z2, asym = z2_split(row)
    return None if any(asym) else _trim(z2)


def _trimmed_verdict(row):
    """The same by cosh_coeffs and z2_rows on the trimmed row, as the verdict once took it."""
    trimmed = add_rows({}, {0: row})
    if not trimmed:
        return ()
    z2 = z2_rows(trimmed)
    return None if z2 is None else _trim(z2[0])


@pytest.mark.parametrize(
    "row, accepted",
    [
        ((2, [1, 0, 1]), False),  # c0 = -1, left of the vector
        ((2, [0, 0]), True),  # c0 left of a zero vector
        ((-8, [1, 0, 1]), False),  # c0 = 4, right of the vector
        ((-8, [0, 0, 0]), True),
        ((-3, [1, 0, 0, 1]), False),  # odd lo: palindromic at odd q-exponents
        ((-2, [1, 2, 1, 0, 5]), False),  # nonzero tail beyond 2 c0
        ((-2, [1, 2, 1, 0, 0]), True),
        ((-4, [1, 2, 3]), False),  # mirrors of the head lie past the end
        ((-4, [0, 0, 3]), True),
        ((-4, [5, 0, 7, 0, 5]), True),
        ((0, [4, 0, 0]), True),
    ],
)
def test_z2_split_edge_layouts(row, accepted):
    """z2_split rejects exactly where cosh_coeffs on the trimmed row does, and converts as z2_rows."""
    assert (_split_verdict(row) is not None) == accepted
    assert _split_verdict(row) == _trimmed_verdict(row)


def _grid_row(rng, lo, n):
    """A random row on the grid (lo, n): palindromic about q^0 where the grid allows, at times perturbed."""
    c0, row = -lo // 2, [0] * n
    if lo % 2 == 0 and 0 <= c0 < n:
        for j in range(min(c0, n - 1 - c0) + 1):
            row[c0 - j] = row[c0 + j] = rng.randrange(-3, 4)
    if not any(row) or rng.random() < 0.2:
        row[rng.randrange(n)] += rng.randrange(-2, 3)
    return row


def test_z2_split_commutes_with_combinations():
    """Split-then-combine decides and converts as combine-then-trim, on rows of one grid."""
    rng = random.Random(2828)
    for _ in range(300):
        n = rng.randrange(1, 9)
        lo = rng.randrange(-2 * n - 3, 4)
        rows = [_grid_row(rng, lo, n) for _ in range(3)]
        weights = [rng.randrange(-4, 5) for _ in rows]
        combined = [sum(w * row[i] for w, row in zip(weights, rows)) for i in range(n)]
        parts = [z2_split((lo, row)) for row in rows]
        z2 = [sum(w * p[0][i] for w, p in zip(weights, parts)) for i in range(len(parts[0][0]))]
        asym = [sum(w * p[1][i] for w, p in zip(weights, parts)) for i in range(len(parts[0][1]))]
        expected = _trimmed_verdict((lo, combined))
        assert (None if any(asym) else _trim(z2)) == expected, (lo, rows, weights)
        assert _split_verdict((lo, combined)) == expected


def test_qnum_sq_z2_values():
    assert qnum_sq_z2(2) == (Fraction(4), Fraction(1))
    assert qnum_sq_z2(3) == (Fraction(9), Fraction(6), Fraction(1))
    for p in range(2, 8):
        coeffs = qnum_sq_z2(p)
        assert len(coeffs) == p
        assert coeffs[-1] == 1
        rebuilt = LaurentQA.zero()
        for k, c in enumerate(coeffs):
            rebuilt = rebuilt + power(zsquared(), k) * c
        assert rebuilt == qnum(p) * qnum(p)


def test_qnum_sq_z2_rejects_a_non_monic_square(monkeypatch):
    """The monic check is an explicit raise, so it also holds under python -O."""
    from heckelift import zbasis

    for p, row in ((2, (4, 2)), (3, (9, 1))):
        monkeypatch.setattr(zbasis, "_cosh_to_z2", lambda coeffs, row=row: [0, *row])
        with pytest.raises(ArithmeticError, match=f"not monic of degree {p - 1}"):
            qnum_sq_z2.__wrapped__(p)


def test_divide_by_qnum_sq_reconstruction():
    rng = random.Random(88)
    for _ in range(25):
        f = random_zapoly(rng)
        p = rng.choice([2, 3, 5])
        quotient, exact, remainder = divide_by_qnum_sq(f, p)
        base = to_z2(qnum(p) * qnum(p))
        rebuilt = to_z2(
            z2_to_laurent(quotient) * z2_to_laurent(base) + z2_to_laurent(remainder)
        )
        assert rebuilt == f
        assert exact == remainder.is_zero()
        if not exact:
            assert z2_degree(remainder) < p - 1


def test_divide_by_qnum_sq_exact_case():
    p = 3
    base = qnum(p) * qnum(p)
    f = to_z2(base * (zsquared() + 2) * abracket(1).shift(aexp=1))
    quotient, exact, remainder = divide_by_qnum_sq(f, p)
    assert exact and remainder.is_zero()
    assert quotient == to_z2((zsquared() + 2) * abracket(1).shift(aexp=1))


def test_congruence_verdict_pass_and_fail():
    p = 2
    good = qnum(p) * qnum(p) * (zsquared() * 3 + 1) * abracket(2)
    frag = congruence_verdict(good, p)
    assert frag.z2_member and frag.p2_divisible
    assert frag.quotient == to_z2((zsquared() * 3 + 1) * abracket(2))
    assert frag.remainder_witness is None

    bumped = good + LaurentQA.one()
    frag = congruence_verdict(bumped, p)
    assert frag.z2_member and not frag.p2_divisible
    assert frag.quotient is None
    assert frag.remainder_witness == to_z2(LaurentQA.one())

    odd = LaurentQA.monomial(1, qexp=1)
    frag = congruence_verdict(odd, p)
    assert not frag.z2_member and not frag.p2_divisible

    half = qnum(p) * qnum(p) * LaurentQA.monomial(Fraction(1, 2))
    frag = congruence_verdict(half, p)
    assert not frag.z2_member


def test_double_root_residual():
    rng = random.Random(12)
    for p in (2, 3, 5):
        f = qnum(p) * qnum(p) * (qbracket(2) + abracket(1) * 3)
        for _ in range(5):
            a0 = cmath.exp(2j * cmath.pi * rng.random())
            s = rng.choice([k for k in range(1, 2 * p) if k % p != 0])
            assert double_root_residual(f, p, a0, s) < 1e-10
    single = qnum(2) * (qbracket(2) + 1)
    residuals = [
        double_root_residual(single, 2, cmath.exp(0.3j), s) for s in (1, 3)
    ]
    assert max(residuals) > 1e-3


def _term_by_term_residual(f, p, a0, s):
    """Reference for double_root_residual: every term evaluated on its own."""
    import mpmath

    scale = sum(abs(Fraction(c)) for c in f.terms.values()) or Fraction(1)
    span = max((abs(Fraction(qe)) for qe, _ in f.terms), default=Fraction(1))
    dps = 40 + len(str(int(scale) + 1)) + len(str(int(span) + 1))
    with mpmath.workdps(dps):
        a_base = mpmath.mpc(a0)
        val = mpmath.mpc(0)
        dval = mpmath.mpc(0)
        for (qe, ae), c in f.support():
            cf = Fraction(c)
            coeff = mpmath.mpf(cf.numerator) / cf.denominator
            apow = a_base**ae
            x = Fraction(s) * Fraction(qe) / p
            val += coeff * mpmath.expjpi(mpmath.mpf(x.numerator) / x.denominator) * apow
            if qe != 0:
                qf = Fraction(qe)
                dx = Fraction(s) * (qf - 1) / p
                dval += (
                    coeff
                    * (mpmath.mpf(qf.numerator) / qf.denominator)
                    * mpmath.expjpi(mpmath.mpf(dx.numerator) / dx.denominator)
                    * apow
                )
        return float(max(abs(val), abs(dval)))


def _assert_agrees(f, p, a0, s, nonzero):
    folded = double_root_residual(f, p, a0, s)
    reference = _term_by_term_residual(f, p, a0, s)
    if nonzero:
        assert reference > 1e-3
        assert folded == pytest.approx(reference, rel=1e-12)
    else:
        assert reference < 1e-30 and folded == 0.0


def test_folded_residual_matches_term_by_term():
    from heckelift import FramedUnknot, TorusKnot, lifting_defect

    rng = random.Random(7)
    for knot, p in (
        (TorusKnot(2, 3), 2),
        (TorusKnot(2, 3), 3),
        (TorusKnot(3, 2), 3),
        (TorusKnot(1, 4), 5),
        (FramedUnknot(-2), 3),
    ):
        g = lifting_defect(knot, p)
        for s in range(1, 2 * p):
            a0 = cmath.exp(2j * cmath.pi * rng.random())
            # [p] vanishes at every 2p-th root of unity but +-1; s = p is q0 = -1
            _assert_agrees(g, p, a0, s, s == p)
            k, j = rng.randrange(-9, 10), rng.randrange(-3, 4)
            _assert_agrees(g + LaurentQA.monomial(1, qexp=k, aexp=j), p, a0, s, True)
    # composite probes: nonzero exactly where q0 is not a primitive 2p-th root
    a0 = cmath.exp(0.7j)
    for p in (4, 6):
        g = lifting_defect(TorusKnot(2, 3), p)
        for s in range(1, 2 * p):
            _assert_agrees(g, p, a0, s, gcd(s, 2 * p) > 1)
    # rational coefficients and exponents far outside one period fold too
    f = LaurentQA(
        {
            (1, 0): 3,
            (-7, 1): Fraction(-2, 5),
            (25, 1): 4,
            (5, -1): 1,
            (0, 2): 4,
        }
    )
    for p in (2, 3):
        for s in range(1, 2 * p):
            _assert_agrees(f, p, cmath.exp(0.3j), s, True)


def test_double_root_residual_is_exactly_zero_on_the_grid():
    from conftest import twisted_sum_grid
    from heckelift import lifting_defect, verify_hecke

    rng = random.Random(3)
    for knot, p in twisted_sum_grid():
        if not verify_hecke(knot, p).verdict:
            continue
        g = lifting_defect(knot, p)
        for s in (k for k in range(1, 2 * p) if gcd(k, 2 * p) == 1):
            a0 = cmath.exp(2j * cmath.pi * rng.random())
            assert double_root_residual(g, p, a0, s) == 0.0, (knot, p, s)


def test_vanishing_residual_does_not_import_mpmath():
    import heckelift

    script = (
        "import sys\n"
        "from heckelift import TorusKnot, double_root_residual, lifting_defect\n"
        "g = lifting_defect(TorusKnot(2, 3), 5)\n"
        "assert double_root_residual(g, 5, 0.6 + 0.8j, 3) == 0.0\n"
        "assert 'mpmath' not in sys.modules, 'mpmath imported'\n"
    )
    src = str(Path(heckelift.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
