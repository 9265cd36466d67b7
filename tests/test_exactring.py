import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    a_derivative_at_1,
    eval_numeric,
    exact_int_div,
    qnum,
    qnum_power,
    random_laurent,
    sparse_times_brackets,
    stepwise_over_qnums,
    stepwise_qnum_product,
    substitute_a,
    top_down_divide_brackets,
)
from heckelift.exactring import (
    LaurentQA,
    NonExactDivision,
    NotDivisible,
    RingFraction,
    abracket,
    abracket_of_partition,
    add_rows,
    bracket_of_partition,
    bracket_row,
    bracket_rows,
    dense_divmod,
    divide_out_abracket,
    emit_rows,
    exact_div,
    kronecker_mul,
    over_binomial,
    parse_rows,
    qbracket,
    times_binomial,
    zsquared,
)
from heckelift.hecke import _qnum_product


def test_constructors_and_basic_queries():
    zero = LaurentQA.zero()
    assert zero.is_zero() and not zero
    one = LaurentQA.one()
    assert one.coeff(0, 0) == 1
    mono = LaurentQA.monomial(Fraction(3, 2), qexp=-1, aexp=2)
    assert mono.coeff(-1, 2) == Fraction(3, 2)
    assert mono.coeff(0, 0) == 0
    f = qbracket(2) + LaurentQA.monomial(5, qexp=0, aexp=1)
    assert not f.is_a_free()
    assert qbracket(3).is_a_free()
    half = Fraction(1, 2)
    with pytest.raises(TypeError):
        LaurentQA({(half, 0): 1})
    with pytest.raises(TypeError):
        LaurentQA.monomial(1, qexp=half)
    with pytest.raises(TypeError):
        f.coeff(half, 0)
    with pytest.raises(TypeError):
        f.shift(qexp=half)
    # a-exponents are never truncated either: 1.5 used to become 1
    for bad in (1.5, half):
        with pytest.raises(TypeError):
            LaurentQA({(0, bad): 1})
        with pytest.raises(TypeError):
            LaurentQA.monomial(1, aexp=bad)
        with pytest.raises(TypeError):
            f.coeff(0, bad)
        with pytest.raises(TypeError):
            f.shift(aexp=bad)


def test_support_ordering_is_a_major_q_minor():
    f = LaurentQA({(2, -1): 1, (-2, -1): 2, (0, 1): 3, (5, 0): 4})
    assert [key for key, _ in f.support()] == [(-2, -1), (2, -1), (5, 0), (0, 1)]


def test_ring_axioms_random():
    rng = random.Random(20240)
    for _ in range(40):
        f = random_laurent(rng)
        g = random_laurent(rng)
        h = random_laurent(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + LaurentQA.zero() == f
        assert f * LaurentQA.one() == f
        assert f - f == LaurentQA.zero()
        assert -(-f) == f
        assert f * 0 == LaurentQA.zero()
        assert 2 * f == f + f


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(10):
        f = random_laurent(rng, terms=3)
        acc = LaurentQA.one()
        for k in range(5):
            assert f**k == acc
            acc = acc * f
    with pytest.raises(ValueError):
        qbracket(1) ** -1


def test_adams_is_a_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(15):
        f = random_laurent(rng)
        g = random_laurent(rng)
        for d in (2, 3):
            assert (f + g).adams(d) == f.adams(d) + g.adams(d)
            assert (f * g).adams(d) == f.adams(d) * g.adams(d)
        assert f.adams(1) == f
    for n in range(1, 7):
        for d in (2, 3, 5):
            assert qbracket(n).adams(d) == qbracket(n * d)
            assert abracket(n).adams(d) == abracket(n * d)


def test_quantum_integers():
    assert qnum(0).is_zero()
    assert qnum(1) == LaurentQA.one()
    assert qnum(3) == LaurentQA({(2, 0): 1, (0, 0): 1, (-2, 0): 1})
    assert qnum(-3) == -qnum(3)
    for n in range(-8, 9):
        assert qnum(n) * qbracket(1) == qbracket(n)
    for n in range(1, 6):
        for k in range(1, 5):
            assert qnum_power(n, k) * qbracket(k) == qbracket(n * k)
    assert qnum_power(4, 0) == LaurentQA.monomial(4)


def test_partition_brackets():
    assert bracket_of_partition((3, 2), 2) == qbracket(6) * qbracket(4)
    assert bracket_of_partition((), 5) == LaurentQA.one()
    assert abracket_of_partition((2, 1)) == abracket(2) * abracket(1)
    assert zsquared() == qbracket(1) * qbracket(1)


def test_substitute_a_and_derivative():
    f = LaurentQA({(1, 2): 1, (0, -1): -3})
    assert substitute_a(f, 1) == LaurentQA({(1, 0): 1, (0, 0): -3})
    assert substitute_a(f, -1) == LaurentQA({(1, 0): 1, (0, 0): 3})
    assert substitute_a(f, 2) == LaurentQA({(1, 0): 4, (0, 0): Fraction(-3, 2)})
    # d/da (a^2 q - 3 a^-1) at a=1 is 2q + 3
    assert a_derivative_at_1(f) == LaurentQA({(1, 0): 2, (0, 0): 3})
    rng = random.Random(5)
    for _ in range(15):
        g = random_laurent(rng)
        h = random_laurent(rng)
        lhs = a_derivative_at_1(g * h)
        rhs = a_derivative_at_1(g) * substitute_a(h) + substitute_a(g) * a_derivative_at_1(h)
        assert lhs == rhs


def test_shift_and_eval_numeric():
    f = qbracket(2)
    assert f.shift(qexp=1, aexp=2) == LaurentQA({(3, 2): 1, (-1, 2): -1})
    q0, a0 = 1.3 + 0.2j, 0.7 - 0.4j
    val = eval_numeric(qbracket(2) * abracket(1), q0, a0)
    direct = (q0**2 - q0**-2) * (a0 - 1 / a0)
    assert abs(val - direct) < 1e-12


def test_text_format():
    assert qbracket(2).to_text() == "-1 * q^-2 + 1 * q^2"
    assert LaurentQA.zero().to_text() == "0"
    f = LaurentQA({(-1, 2): Fraction(-3, 2), (0, 0): 1})
    assert f.to_text() == "1 + -3/2 * q^-1 * a^2"


def test_exact_div_round_trip():
    rng = random.Random(31)
    for _ in range(25):
        f = random_laurent(rng)
        g = random_laurent(rng, aspan=0)
        if g.is_zero():
            continue
        assert exact_div(f * g, g) == f


def test_exact_div_remainder_and_errors():
    err = None
    try:
        exact_div(qbracket(2) + 1, qbracket(2))
    except NonExactDivision as caught:
        err = caught
    assert err is not None
    assert err.remainder == LaurentQA.one()
    with pytest.raises(ValueError):
        exact_div(qbracket(2), abracket(1))


def test_dense_divmod_monic_and_non_unit_lead():
    # (x^2 + 3x + 5) = (x + 1)(x + 2) + 3: a monic divisor keeps every entry int
    quot, rem = dense_divmod([5, 3, 1], [1, 1])
    assert (quot, rem) == ([2, 1], [3])
    assert all(type(c) is int for c in quot + rem)
    # lead 2: a Fraction only where the quotient entry is not an int
    quot, rem = dense_divmod([1, 0, 0, 4], [1, 2])
    assert quot == [Fraction(1, 2), -1, 2] and rem == [Fraction(1, 2)]
    assert [type(c) for c in quot] == [Fraction, int, int]
    # a dividend shorter than the divisor is all remainder
    assert dense_divmod([7], [1, 0, 1]) == ([], [7])


def test_exact_int_div():
    f = LaurentQA({(2, 0): 12, (-1, 3): -30, (3, 1): Fraction(6)})
    q = exact_int_div(f, 6)
    assert q == LaurentQA({(2, 0): 2, (-1, 3): -5, (3, 1): 1})
    assert all(type(c) is int for c in q.terms.values())
    assert exact_int_div(f, -3) * -3 == f
    with pytest.raises(NonExactDivision) as caught:
        exact_int_div(f, 4)
    assert caught.value.remainder == LaurentQA({(-1, 3): 2, (3, 1): 2})
    with pytest.raises(NonExactDivision):
        exact_int_div(LaurentQA.monomial(Fraction(1, 2)), 1)
    with pytest.raises(ZeroDivisionError):
        exact_int_div(f, 0)


def test_divide_out_abracket():
    assert divide_out_abracket(abracket(1)) == LaurentQA.one()
    assert divide_out_abracket(abracket(3)) == LaurentQA(
        {(0, 2): 1, (0, 0): 1, (0, -2): 1}
    )
    assert divide_out_abracket(abracket(6), 2) == LaurentQA(
        {(0, 4): 1, (0, 0): 1, (0, -4): 1}
    )
    rng = random.Random(17)
    for _ in range(25):
        f = random_laurent(rng)
        assert divide_out_abracket(abracket(1) * f) == f
    err = None
    try:
        divide_out_abracket(abracket(1) * qbracket(2) + 5)
    except NotDivisible as caught:
        err = caught
    assert err is not None
    assert err.witness == LaurentQA.monomial(5)


def test_ring_fraction_equality_and_arithmetic():
    half = RingFraction(qbracket(2), qbracket(1) * 2)
    same = RingFraction(qbracket(2) * qbracket(3), qbracket(1) * qbracket(3) * 2)
    assert half == same
    with pytest.raises(TypeError):
        hash(half)
    total = half + half
    assert total == RingFraction(qbracket(2), qbracket(1))
    assert total.resolve() == qnum(2)
    assert (half - half).is_zero()
    prod = RingFraction(qbracket(2), qbracket(1)) * RingFraction(
        qbracket(3), qbracket(2)
    )
    assert prod == RingFraction(qbracket(3), qbracket(1))
    assert prod.resolve() == qnum(3)
    assert RingFraction(qnum(2)) == RingFraction(qbracket(2), qbracket(1))
    with pytest.raises(ZeroDivisionError):
        RingFraction(qbracket(1), LaurentQA.zero())
    with pytest.raises(ValueError):
        RingFraction(qbracket(1), abracket(1))


def test_ring_fraction_eval():
    rf = RingFraction(qbracket(4), qbracket(2))
    q0 = 1.1 + 0.3j
    assert abs(eval_numeric(rf, q0, 2.0) - (q0**4 - q0**-4) / (q0**2 - q0**-2)) < 1e-12


# -- bracket-monomial fractions against a cross-multiplied oracle -------------
#
# The oracle keeps a fraction as a plain (numerator, denominator) pair of
# LaurentQA values and never cancels: a/b + c/d = (ad + cb)/(bd).

# Numerators hold one q-parity per a-layer, as every invariant does: a term
# (h, ae) stands for q^(2h + parity) a^ae with parity = ae + the denominator's
# q-parity, mod 2, so each fraction's value has q-exponents = a-exponents mod 2
# and any two of them add and multiply without mixing parities.
_HALF_TERMS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.fractions(min_value=-9, max_value=9, max_denominator=3),
    max_size=4,
)


def _of_parity(half_terms, parity=0):
    return LaurentQA({(2 * h + (ae + parity) % 2, ae): c for (h, ae), c in half_terms.items()})


@st.composite
def bracket_fractions(draw):
    """(RingFraction, oracle numerator, oracle denominator)."""
    scale = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool))
    shift = draw(st.integers(-2, 2))
    den = LaurentQA.monomial(scale, qexp=shift)
    orders = draw(st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=3))
    for k, e in orders.items():
        den = den * qbracket(k) ** e
    num = _of_parity(draw(_HALF_TERMS), shift + sum(k * e for k, e in orders.items()))
    return RingFraction(num, den), num, den


def _agrees(rf, num, den):
    return rf.num * den == num * rf.den


_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(bracket_fractions(), bracket_fractions())
def test_ring_fraction_matches_cross_multiplied_oracle(x, y):
    (fx, nx, dx), (fy, ny, dy) = x, y
    assert _agrees(fx, nx, dx)
    assert all(isinstance(c, int) for c in fx.num.terms.values())
    assert fx.scale >= 1
    assert _agrees(fx + fy, nx * dy + ny * dx, dx * dy)
    assert _agrees(fx - fy, nx * dy - ny * dx, dx * dy)
    assert _agrees(fx * fy, nx * ny, dx * dy)
    assert _agrees(fx * Fraction(-3, 4), nx * Fraction(-3, 4), dx)
    assert (fx == fy) == (nx * dy == ny * dx)


@_PROPERTY
@given(bracket_fractions(), st.integers(1, 3))
def test_ring_fraction_adams_matches_oracle(x, e):
    fx, nx, dx = x
    assert _agrees(fx.adams(e), nx.adams(e), dx.adams(e))


@_PROPERTY
@given(bracket_fractions(), st.builds(_of_parity, _HALF_TERMS))
def test_ring_fraction_resolve_matches_oracle(x, quotient):
    fx, nx, dx = x
    assert RingFraction(quotient * dx, dx).resolve() == quotient
    try:
        expected = exact_div(nx, dx)
    except NonExactDivision:
        expected = None
    try:
        got = fx.resolve()
    except NonExactDivision:
        got = None
    assert got == expected


@_PROPERTY
@given(
    bracket_fractions(),
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
    st.integers(-3, 3),
    st.lists(st.integers(1, 5), max_size=3),
)
def test_ring_fraction_equality_across_representations(x, c, s, orders):
    fx, nx, dx = x
    extra = LaurentQA.monomial(c, qexp=s) * bracket_of_partition(orders)
    other = RingFraction(nx * extra, dx * extra)
    assert other == fx and fx == other
    assert fx == RingFraction.over_brackets(fx.num * bracket_of_partition(orders),
                                            fx.scale, list(fx.brackets.elements()) + orders)
    assert fx + 1 != fx


def test_ring_fraction_denominator_form():
    rf = RingFraction(qbracket(1), qbracket(3) * qbracket(1) ** 2 * Fraction(-4, 3))
    assert rf.scale == 4
    assert rf.brackets == {1: 2, 3: 1}
    assert rf.num == qbracket(1) * -3
    assert rf.den == qbracket(3) * qbracket(1) ** 2 * 4
    assert RingFraction(LaurentQA.monomial(6), 4).scale == 2
    with pytest.raises(ValueError):
        RingFraction(qbracket(1), qnum(3))


def test_ring_fraction_refuses_a_mixed_parity_layer():
    """A numerator whose a-layer mixes q-parities is refused, however it arrives."""
    mixed = LaurentQA({(0, 1): 1, (1, 1): 2})
    builds = (
        lambda: RingFraction(mixed),
        lambda: RingFraction(mixed, qbracket(1) * 3),
        lambda: RingFraction.over_brackets(mixed, 2, [1, 3]),
        lambda: RingFraction(LaurentQA.monomial(1, 0, 1)) + LaurentQA.monomial(1, 1, 1),
    )
    for build in builds:
        with pytest.raises(ValueError, match="mixes q-parities"):
            build()
    # a denominator of mixed parity is no bracket monomial either
    with pytest.raises(ValueError):
        RingFraction(LaurentQA.one(), qbracket(1) + 1)
    # a product whose a^2 layer gets q^0 from a * a and q^1 from 1 * a^2
    f = RingFraction(LaurentQA({(0, 0): 1, (0, 1): 1, (1, 2): 1}))
    with pytest.raises(ValueError, match="mixes q-parities"):
        f * f


# -- bracket_rows: round trips and remainders ------------------------------------

_ORDERS = st.lists(st.integers(-4, 4).filter(bool), max_size=6)

# row maps of one q-parity per a-layer; zeros at the ends are dropped by emit_rows
_ROWS = st.dictionaries(
    st.integers(-2, 2),
    st.tuples(st.integers(-6, 6), st.lists(st.integers(-5, 5), max_size=5)),
    max_size=3,
)


@_PROPERTY
@given(_ROWS, _ORDERS)
def test_bracket_rows_round_trip(raw, orders):
    # a negative order k stands for {k} = -{-k}
    rows = parse_rows(emit_rows(raw).terms)
    assert bracket_rows(bracket_rows(rows, orders), over=orders) == rows


@_PROPERTY
@given(_ROWS, _ORDERS.filter(bool), st.integers(-3, 3), st.integers(-2, 2))
def test_bracket_rows_remainder(raw, orders, i, ae):
    product = bracket_rows(parse_rows(emit_rows(raw).terms), orders)
    lo = product[ae][0] if ae in product else 0
    # a monomial is never a multiple of a bracket, so neither is this sum
    g = add_rows(product, {ae: (lo + 2 * i, [1])})
    with pytest.raises(NonExactDivision) as caught:
        bracket_rows(g, over=orders)
    remainder = caught.value.remainder
    assert not remainder.is_zero()
    assert {a for _, a in remainder.terms} == {ae}
    assert f"on a-layer {ae}" in str(caught.value)
    if len(orders) == 1:
        # one bracket: what is left after taking the remainder away divides
        bracket_rows(add_rows(g, parse_rows(remainder.terms), negate=True), over=orders)
    with pytest.raises(ZeroDivisionError):
        bracket_rows(g, over=orders + [0])


# -- bracket_rows: the ratio of two bracket products ----------------------------


@_PROPERTY
@given(_ROWS, _ORDERS, _ORDERS, st.booleans())
@example({0: (0, [1, 1])}, [3], [1], False)  # (1 + x)(1 + x + x^2)
@example({0: (0, [1, 0, 1])}, [2], [4], False)  # (1 + x^2)(1 - x^2) = 1 - x^4
@example({0: (0, [1])}, [1], [2], False)
@example({0: (0, [1])}, [1], [5], False)
@example({0: (0, [1, 2])}, [3], [2], False)
def test_bracket_rows_is_the_ratio_of_the_sparse_and_top_down_references(
    raw, times, over, divisible
):
    f = emit_rows(raw)
    if divisible:
        f = LaurentQA._raw(sparse_times_brackets(f.terms, over))
    rows = parse_rows(f.terms)
    num = LaurentQA._raw(sparse_times_brackets(f.terms, times))
    try:
        expected = top_down_divide_brackets(num, over)
    except NonExactDivision:
        with pytest.raises(NonExactDivision) as caught:
            bracket_rows(rows, times, over)
        remainder = caught.value.remainder
        (ae,) = {a for _, a in remainder.terms}
        assert f"on a-layer {ae}" in str(caught.value)
        if len(over) == 1:
            # one bracket: the failing layer less the remainder divides
            layer = {key: c for key, c in num.terms.items() if key[1] == ae}
            top_down_divide_brackets(LaurentQA._raw(layer) - remainder, over)
    else:
        # the same rows: lo and sign included
        assert bracket_rows(rows, times, over) == parse_rows(expected.terms)
    assert bracket_rows(rows, [*times, 0], over[:1]) == {}
    for zero_in_times in ([], [0]):
        with pytest.raises(ZeroDivisionError):
            bracket_rows(rows, [*times, *zero_in_times], [*over, 0])


@_PROPERTY
@given(
    _ROWS,
    st.integers(1, 6),
    st.lists(st.integers(1, 4), max_size=3),
    st.integers(-3, 3).filter(bool),
)
def test_qnumbers_are_bracket_ratios(raw, n, parts, scale):
    """[n]_{q^k} = {nk}/{k}, against one ratio step per q-number."""
    expected = stepwise_qnum_product(n, parts, scale)
    assert _qnum_product(n, parts, scale) == {0: (-(n - 1) * sum(parts), expected)}
    f = emit_rows(raw)
    orders = [n, *parts]
    g = f
    for k in orders:
        g = g * qnum(k)
    rows = parse_rows(g.terms)
    quotient = bracket_rows(rows, [1] * len(orders), orders)
    assert quotient == stepwise_over_qnums(rows, orders) == parse_rows(f.terms)


@_PROPERTY
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12), st.integers(1, 6))
def test_binomial_kernels_match_long_division(f, k):
    binomial = [1] + [0] * (k - 1) + [-1]
    assert times_binomial(f, k) == _schoolbook(f, binomial)
    product = times_binomial(f, k)
    assert not any(over_binomial(product, k)) and product == f
    quot, rem = dense_divmod(f, binomial)
    work = list(f)
    cut = over_binomial(work, k)
    assert len(cut) == min(k, len(f)) and len(work) == len(f) - len(cut)
    assert any(cut) == any(rem)
    if not any(rem):
        assert work == quot


@_PROPERTY
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=14),
    st.lists(st.integers(-9, 9), min_size=1, max_size=14),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(1, 6),
)
@example([1, 0, -1], [0, 1, 0], 1, 0, 2)
@example([1, 2, 3], [3, 2, 1], 1, -1, 6)
def test_over_binomial_quotient_and_remainder_are_linear(a, b, s, t, k):
    """Quotient and remainder are linear in the row; the remainder is 0 iff bracket_row divides."""
    b = (b + [0] * len(a))[: len(a)]
    combined = [s * x + t * y for x, y in zip(a, b)]
    qa, qb, qc = list(a), list(b), list(combined)
    ra, rb, rc = over_binomial(qa, k), over_binomial(qb, k), over_binomial(qc, k)
    assert qc == [s * x + t * y for x, y in zip(qa, qb)]
    assert rc == [s * x + t * y for x, y in zip(ra, rb)]
    try:
        lo, quot = bracket_row(3, combined, over=(k,))
    except NonExactDivision as err:
        assert any(rc)
        top = 3 + 2 * len(qc)
        assert err.remainder == LaurentQA({(top + 2 * i, 0): c for i, c in enumerate(rc)})
    else:
        assert not any(rc)
        assert (lo, quot) == (3 + k, [-c for c in qc])


def _schoolbook(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# signed entries, some wider than 64 bits, with runs of zeros at either end
_kronecker_lists = st.tuples(
    st.integers(0, 3),
    st.lists(
        st.one_of(st.integers(-9, 9), st.integers(-(2**130), 2**130)),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 3),
).map(lambda t: [0] * t[0] + t[1] + [0] * t[2])


@_PROPERTY
@given(_kronecker_lists, _kronecker_lists)
@example([7], [-3])
@example([0], [2**64 + 1])
@example([-(2**64)], [-(2**64)])
@example([0, 0, 5, 0], [0, -1])
def test_kronecker_mul_matches_schoolbook(a, b):
    assert kronecker_mul(a, b) == _schoolbook(a, b)


def test_kronecker_mul_edges():
    assert kronecker_mul([], [1, 2]) == []
    assert kronecker_mul([0, 0], [0, 0, 0]) == [0, 0, 0, 0]
    assert kronecker_mul([1], [1]) == [1]
    # one slot holds the product exactly at a byte boundary of the width
    big = 2**63
    assert kronecker_mul([big, -big], [big, big]) == [big * big, 0, -big * big]


_SCALARS = (0, 1, -3, 2**70, True, False, Fraction(2, 3), Fraction(-5, 1), Fraction(0))


def test_scalar_operands_keep_their_meaning():
    """int, bool and Fraction multiply, add and compare as numbers, coefficient types included."""
    f = LaurentQA({(2, 1): 3, (-1, 0): Fraction(1, 2)})
    rf = RingFraction.over_brackets(LaurentQA({(2, 1): 4, (0, 0): -6}), 5, [1, 3])
    for s in _SCALARS:
        expected = {key: c * s for key, c in f.terms.items()} if s else {}
        for product in (f * s, s * f):
            assert product.terms == expected, s
            assert [type(c) for c in product.terms.values()] == [type(c) for c in expected.values()]
        assert (f + s).terms == (f + LaurentQA.monomial(s)).terms
        assert (s - f) == -(f - s) and (f == s) == (s == 0 and f.is_zero())
        r = Fraction(s)
        expected = RingFraction.over_brackets(
            LaurentQA._raw({key: c * r.numerator for key, c in rf.num.terms.items()} if r else {}),
            rf.scale * r.denominator,
            rf.brackets.elements(),
        )
        for product in (rf * s, s * rf):
            assert (product.num.terms, product.scale, product.brackets) == (
                expected.num.terms, expected.scale, expected.brackets), s
            assert all(type(c) is int for c in product.num.terms.values())
            assert type(product.scale) is int
        assert rf + s - s == rf and (rf == s) == (s == 0 and rf.is_zero())


def test_scalar_dispatch_skips_the_numbers_abc():
    """No product of two LaurentQA, and no RingFraction times an int or Fraction, asks an ABC."""
    import sys

    f = LaurentQA({(2, 1): 3, (-1, 0): 1})
    rf = RingFraction.over_brackets(f, 5, [1, 3])
    entered = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__instancecheck__":
            entered.append(frame.f_code.co_filename)

    sys.setprofile(watch)
    try:
        f * f
        rf * rf
        rf * 7
        rf * True
        rf * Fraction(3, 7)
        7 * rf
    finally:
        sys.setprofile(None)
    assert entered == []
