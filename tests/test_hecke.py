import json
from math import gcd
from pathlib import Path

import pytest

from conftest import (
    dn_defect_cofactor_parts,
    exact_div_family_ratio,
    exact_int_div,
    qnum,
    sparse_adams_term,
    top_down_divide_brackets,
    twisted_sum_grid,
    two_conversion_verdict,
)
from heckelift.combinatorics import partitions_of
import heckelift.hecke as hecke
from heckelift.exactring import (
    NonExactDivision,
    abracket,
    add_rows,
    bracket_of_partition,
    emit_rows,
    parse_rows,
)
from heckelift.hecke import (
    CongruenceReport,
    PreconditionViolated,
    _identity_check,
    defect_cofactor,
    defect_sign,
    divisible_family_check,
    is_prime,
    lifting_defect,
    nondivisible_family_check,
    verify_hecke,
)
from heckelift.torus import FramedUnknot, TorusKnot, cable_params, scaled_invariant

GOLDEN = Path(__file__).parent / "golden"

TREFOIL_P2_QUOTIENT = {
    "2": ["1", "1"],
    "4": ["-10", "-25", "-22", "-8", "-1"],
    "6": ["27", "108", "171", "136", "57", "12", "1"],
    "8": ["-28", "-154", "-336", "-375", "-231", "-79", "-14", "-1"],
    "10": ["10", "70", "187", "247", "175", "67", "13", "1"],
}


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(-3, 15):
        assert is_prime(n) == (n in primes)


def test_defect_sign():
    assert defect_sign(2, 1) == -1
    assert defect_sign(2, 2) == 1
    assert defect_sign(3, 5) == 1
    assert defect_sign(5, 7) == 1
    assert defect_sign(2, -3) == -1


def test_lifting_defect_trivial_at_p1():
    assert lifting_defect(TorusKnot(2, 3), 1).is_zero()
    assert lifting_defect(FramedUnknot(2), 1).is_zero()


def test_verify_trefoil_p2_report():
    report = verify_hecke(TorusKnot(2, 3), 2)
    assert report.verdict
    assert report.p_prime
    assert report.a_factor is True
    assert report.z2_member and report.p2_divisible
    assert report.identity_gp_eq_p2F
    assert report.strong_divisible
    assert report.quotient.to_json_dict() == TREFOIL_P2_QUOTIENT
    assert report.remainder_witness is None
    assert report.millis > 0


def test_report_serialization_contract():
    report = verify_hecke(TorusKnot(2, 3), 2)
    body = report.to_json_dict()
    assert list(body) == [
        "d",
        "m",
        "framing",
        "p",
        "p_prime",
        "a_factor",
        "z2_member",
        "p2_divisible",
        "quotient",
        "remainder_witness",
        "identity_gp_eq_p2F",
        "millis",
    ]
    assert body["a_factor"] == "pass"
    assert body["z2_member"] == "pass"
    assert body["p2_divisible"] == "pass"
    assert body["identity_gp_eq_p2F"] == "pass"
    assert body["quotient"] == TREFOIL_P2_QUOTIENT
    assert body["remainder_witness"] is None
    assert isinstance(body["millis"], float)
    assert CongruenceReport.CSV_COLUMNS == (
        "d",
        "m",
        "p",
        "p_prime",
        "verdict",
        "quotient_z2_degree",
        "millis",
    )
    row = report.csv_row()
    assert row[:6] == [2, 3, 2, "true", "PASS", 7]


def test_verify_prime_grid_small():
    for d, m in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2)):
        for p in (2, 3):
            report = verify_hecke(TorusKnot(d, m), p)
            assert report.verdict, (d, m, p)
            assert report.quotient is not None and report.quotient.is_integral


def test_verify_composite_probes_match_goldens():
    for p in (4, 6):
        report = verify_hecke(TorusKnot(2, 3), p)
        golden = json.loads((GOLDEN / f"composite_p{p}_T2_3.json").read_text())
        assert not report.verdict
        assert not report.p_prime
        body = report.to_json_dict()
        for key in (
            "a_factor",
            "z2_member",
            "p2_divisible",
            "identity_gp_eq_p2F",
            "remainder_witness",
        ):
            assert body[key] == golden[key], (p, key)
        assert body["remainder_witness"]


def test_defect_factorization_identity():
    for d, m, p in ((1, 1, 2), (2, 3, 2), (2, 3, 3), (3, 2, 2), (1, 5, 3)):
        knot = TorusKnot(d, m)
        g = lifting_defect(knot, p)
        assert g == qnum(p) * qnum(p) * defect_cofactor(knot, p)


def _int_coefficients(f):
    return all(type(c) is int for c in f.terms.values())


def test_verdict_path_coefficients_are_int():
    grid = [
        (TorusKnot(d, m), p)
        for p in (2, 3, 5, 7)
        for d in (1, 2, 3)
        for m in range(1, 6)
        if gcd(d, m) == 1 and p * d <= 9
    ]
    grid += [(FramedUnknot(t), p) for t in range(-2, 3) for p in (2, 3, 5)]
    for knot, p in grid:
        for order in (1, p):
            assert _int_coefficients(scaled_invariant(knot, order)), (knot, order)
        assert _int_coefficients(lifting_defect(knot, p)), (knot, p)
    for d, m, p in ((1, 1, 2), (2, 3, 2), (2, 3, 3), (3, 2, 2), (1, 5, 3), (1, 2, 5)):
        assert _int_coefficients(defect_cofactor(TorusKnot(d, m), p)), (d, m, p)


def test_defect_cofactor_not_polynomial_for_composite():
    with pytest.raises(NonExactDivision):
        defect_cofactor(TorusKnot(2, 3), 4)


def test_defect_cofactor_zero_framing_is_value_error():
    for p in (1, 2, 3, 5):
        with pytest.raises(ValueError):
            defect_cofactor(FramedUnknot(0), p)


def test_verify_unknot_framings():
    for tau in (-2, -1, 0, 1, 2):
        for p in (2, 3):
            report = verify_hecke(FramedUnknot(tau), p)
            assert report.verdict, (tau, p)
            assert report.framing == tau


def test_divisible_family_examples():
    ok, quotient = divisible_family_check(2, 1, (1,))
    assert ok and quotient.to_json_dict() == {"0": ["1"]}
    ok, quotient = divisible_family_check(3, 1, (1,))
    assert ok and quotient is not None
    ok, quotient = divisible_family_check(2, 3, (1, 1))
    assert ok


def test_nondivisible_family_examples():
    ok, quotient = nondivisible_family_check(2, 3, (1, 1))
    assert ok and quotient.to_json_dict() == {"0": ["3", "4", "1"]}
    ok, quotient = nondivisible_family_check(3, 2, (2, 1), )
    assert ok


def test_family_preconditions():
    with pytest.raises(PreconditionViolated):
        divisible_family_check(4, 1, (1,))
    with pytest.raises(PreconditionViolated):
        divisible_family_check(2, 0, (1,))
    with pytest.raises(PreconditionViolated):
        divisible_family_check(2, 3, (3,))
    with pytest.raises(PreconditionViolated):
        nondivisible_family_check(2, 3, (1,))
    with pytest.raises(PreconditionViolated):
        nondivisible_family_check(2, 3, (4, 2))
    with pytest.raises(PreconditionViolated):
        nondivisible_family_check(3, 2, (5, 1))
    with pytest.raises(PreconditionViolated):
        nondivisible_family_check(6, 1, (5, 1))


def test_family_sweep_coprime():
    for p in (2, 3):
        for m in (1, 2, 3):
            for d in (1, 2, 3):
                if gcd(d, m) != 1:
                    continue
                for nu in partitions_of(d):
                    ok, _ = divisible_family_check(p, m, nu)
                    assert ok, (p, m, nu)
                for mu in partitions_of(p * d):
                    if all(x % p == 0 for x in mu):
                        continue
                    ok, _ = nondivisible_family_check(p, m, mu)
                    assert ok, (p, m, mu)


def test_family_ratio_matches_long_division(monkeypatch):
    """Row division by [pm][p] agrees with long division by [pm][p].

    Every family numerator for p in {2, 3, 5}, m <= 5, d <= 3, and each one
    plus a monomial of its own q-parity, which is no longer divisible by
    [pm][p].
    """
    numerators = []
    monkeypatch.setattr(
        hecke, "_family_ratio", lambda num, p, m: numerators.append((num, p, m))
    )
    for p in (2, 3, 5):
        for m in range(1, 6):
            for d in range(1, 4):
                if gcd(d, m) != 1:
                    continue
                for nu in partitions_of(d):
                    divisible_family_check(p, m, nu)
                for mu in partitions_of(p * d):
                    if any(x % p for x in mu):
                        nondivisible_family_check(p, m, mu)
    monkeypatch.undo()
    flags = []
    for num, p, m in numerators:
        lo = num[0][0]
        for f in (num, add_rows(num, {0: (lo + 2, [1])})):
            got = hecke._family_ratio(f, p, m)
            assert got == exact_div_family_ratio(emit_rows(f), p, m), (p, m, f)
            flags.append(got[0])
    assert len(flags) == 2 * len(numerators) > 2000
    assert flags.count(False) == len(numerators)


def _dn_cross_multiplied(g, p, parts):
    """g * big * {c}{p} == [p]^2 num / D(n), on the D(n) parts."""
    if parts is None:
        return g.is_zero()
    num, orders, big = parts
    c = orders[-2]
    rest = top_down_divide_brackets(num, orders[:-2])
    return g * bracket_of_partition((c, p)) * big == qnum(p) * qnum(p) * rest


def _dn_identity(g, p, parts):
    """The identity check on the D(n) parts: numerator over D(n) + (c, p)."""
    if parts is None:
        return g.is_zero()
    num, orders, big = parts
    try:
        return top_down_divide_brackets(qnum(p) * qnum(p) * num, orders) == g * big
    except NonExactDivision:
        return False


def _bumped(rows):
    """rows plus a monomial of the q-parity of their lowest a-layer."""
    if not rows:
        return parse_rows(abracket(1).terms)
    ae = min(rows)
    return add_rows(rows, {ae: (rows[ae][0], [1])})


def test_identity_check_matches_cross_multiplied():
    """The splitting-step identity agrees with the D(n) reference on g and g bumped."""
    for knot, p in twisted_sum_grid():
        d, m = cable_params(knot)
        g = parse_rows(lifting_defect(knot, p).terms)
        old = dn_defect_cofactor_parts(p, d, m) if m else None
        for rows, expected in ((g, True), (_bumped(g), False)):
            h = emit_rows(rows)
            assert _identity_check(knot, rows, p) is expected, (knot, p)
            assert _dn_cross_multiplied(h, p, old) is expected, (knot, p)
            assert _dn_identity(h, p, old) is expected, (knot, p)
        if m and is_prime(p):
            num, orders, big = old
            quotient = exact_int_div(top_down_divide_brackets(num, orders), big)
            assert defect_cofactor(knot, p) == quotient, (knot, p)


def test_identity_check_false_when_adams_term_is_off(monkeypatch):
    from heckelift import hecke

    knot = TorusKnot(2, 3)
    adams = sparse_adams_term(2, 3, 3)
    g = parse_rows(lifting_defect(knot, 3).terms)
    assert _identity_check(knot, g, 3) is True
    for wrong in (adams + 1, adams * 2, adams.shift(qexp=2)):
        monkeypatch.setattr(hecke, "_adams_rows", lambda d, m, p: parse_rows(wrong.terms))
        assert _identity_check(knot, g, 3) is False


def test_verify_reaches_past_the_sweep_grid():
    """T(3,2) at p = 7 and 11 has p*d = 21 and 33, past the sweep's max_pd of 15."""
    for p in (7, 11):
        report = verify_hecke(TorusKnot(3, 2), p)
        assert report.verdict, p
        assert report.identity_gp_eq_p2F, p
        assert report.strong_divisible, p
        assert report.quotient.is_integral, p


def test_one_conversion_matches_two_conversion_route():
    """The verdict on g's q-rows gives the flags, quotient and witness that
    converting g and its core separately gives.

    On the twisted-sum grid and on the composite orders 4, 6, 8, 9 with
    p*d <= 12 and FramedUnknot(-3..3): the quotient and the witness are the
    core's lifted by (a - a^-1), g's when g has no a-factor.
    """
    composites = [
        (knot, p)
        for p in (4, 6, 8, 9)
        for knot in [
            TorusKnot(d, m)
            for d in (1, 2, 3)
            for m in range(1, 8)
            if gcd(d, m) == 1 and p * d <= 12
        ]
        + [FramedUnknot(t) for t in range(-3, 4)]
    ]
    for knot, p in twisted_sum_grid() + composites:
        a_ok, frag, strong = two_conversion_verdict(knot, p)
        report = verify_hecke(knot, p)
        assert report.a_factor is a_ok, (knot, p)
        assert report.strong_divisible is strong, (knot, p)
        assert report.z2_member is frag.z2_member, (knot, p)
        assert report.p2_divisible is frag.p2_divisible, (knot, p)
        for mine, route in (
            (report.quotient, frag.quotient),
            (report.remainder_witness, frag.remainder_witness),
        ):
            assert mine == route, (knot, p)
            if route is not None:
                assert mine.to_json_dict() == route.to_json_dict(), (knot, p)


def test_verdict_converts_nothing_until_the_quotient_is_read(monkeypatch):
    """A verdict-only call runs no Clenshaw conversion; reading .quotient converts."""
    import heckelift.zbasis as zbasis

    calls = []
    convert = zbasis._cosh_to_z2

    def counting(coeffs):
        calls.append(len(coeffs))
        return convert(coeffs)

    monkeypatch.setattr(zbasis, "_cosh_to_z2", counting)
    report = verify_hecke(TorusKnot(3, 2), 5)
    assert report.verdict and report.remainder_witness is None
    assert calls == []
    assert report.quotient.is_integral
    assert calls


def test_one_case_builds_its_defect_once():
    """verify_hecke, the residual and both limit checks of one case share g."""
    import heckelift.alexlimit as alexlimit
    from heckelift.zbasis import double_root_residual

    hecke.defect_rows.cache_clear()
    hecke.lifting_defect.cache_clear()
    knot = TorusKnot(2, 5)
    assert verify_hecke(knot, 3).verdict
    assert hecke.lifting_defect.cache_info().misses == 0
    assert double_root_residual(lifting_defect(knot, 3), 3, 0.6 + 0.8j, 1) == 0.0
    assert alexlimit.limit_identity_check(knot, 3)
    assert alexlimit.limit_membership_verdict(knot, 3).passed
    assert defect_cofactor(knot, 3) is not None
    assert hecke.defect_rows.cache_info().misses == 1
    assert hecke.lifting_defect.cache_info().misses == 1


def test_defect_core_is_shared_by_the_verdict_and_the_limit_checks(monkeypatch):
    """One case divides its defect by (a - a^-1) once; Z_1's limit is the other call.

    The two limit checks share one a -> 1 limit of the core: rows_at_a1 runs once.
    """
    import heckelift.alexlimit as alexlimit
    import heckelift.torus as torus

    calls = []
    divide = hecke.abracket_quotient

    def counting(f, n=1):
        calls.append(n)
        return divide(f, n)

    limits = []
    at_a1 = alexlimit.rows_at_a1

    def counting_limit(rows):
        limits.append(rows)
        return at_a1(rows)

    monkeypatch.setattr(torus, "abracket_quotient", counting)
    monkeypatch.setattr(hecke, "abracket_quotient", counting)
    monkeypatch.setattr(alexlimit, "rows_at_a1", counting_limit)
    hecke.core_rows.cache_clear()
    alexlimit._limit_rows.cache_clear()
    knot = TorusKnot(2, 3)
    assert verify_hecke(knot, 3).verdict
    assert alexlimit.limit_identity_check(knot, 3)
    assert alexlimit.limit_membership_verdict(knot, 3).passed
    assert len(calls) == 2
    assert len(limits) == 1
    for memo in (hecke.core_rows, alexlimit._limit_rows):
        maxsize = memo.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize <= 16


def test_sympy_division_agrees_with_the_verdict():
    """An independent oracle: sympy divides g_p by (a^2 - 1)(1 + q^2 + ... + q^(2p-2))^2.

    (a - a^-1)[p]^2 is that polynomial times a unit of the Laurent ring, so
    the remainder vanishes exactly when the congruence holds; p = 4 and 6
    probe composite orders.
    """
    sympy = pytest.importorskip("sympy")
    q, a = sympy.symbols("q a")
    cases = [
        (d, m, p)
        for p in range(2, 7)
        for d in range(1, 6 // p + 1)
        for m in range(1, 6)
        if gcd(d, m) == 1
    ]
    assert len(cases) == 35
    verdicts = set()
    for d, m, p in cases:
        terms = lifting_defect(TorusKnot(d, m), p).terms
        q0 = min(qe for qe, _ in terms)
        a0 = min(ae for _, ae in terms)
        g = sympy.Poly.from_dict(
            {(ae - a0, qe - q0): c for (qe, ae), c in terms.items()}, a, q
        )
        geometric = sum(q ** (2 * j) for j in range(p))
        divisor = sympy.Poly((a**2 - 1) * geometric**2, a, q)
        _, remainder = g.div(divisor)
        verdict = verify_hecke(TorusKnot(d, m), p).verdict
        assert remainder.is_zero == verdict, (d, m, p)
        verdicts.add(verdict)
    assert verdicts == {True, False}
