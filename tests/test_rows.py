"""The dense row route of a case against the dict routes it replaced."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bench10_grid,
    conversion_first_limits,
    conversion_first_report,
    dict_congruence_verdict,
    dict_divide_out_abracket,
    dict_framing_correction,
    reference_case,
    reference_limit_identity,
    substitute_a,
    z2_first_verdict,
    z2_to_laurent,
)
from heckelift.alexlimit import (
    framing_correction,
    limit_identity_check,
    limit_membership_verdict,
)
from heckelift.exactring import (
    LaurentQA,
    NotDivisible,
    NonExactDivision,
    abracket,
    abracket_quotient,
    add_rows,
    cosh_coeffs,
    divide_out_abracket,
    emit_rows,
    kronecker_mul,
    parse_rows,
)
from heckelift.hecke import core_rows, lifting_defect, verify_hecke
from heckelift.torus import closed_form_rows
from heckelift.zbasis import ZAPoly, z2_rows, z2_verdict

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _body(report):
    body = report.to_json_dict()
    del body["millis"]
    return body


def _fragment(frag):
    return [
        frag.z2_member,
        frag.p2_divisible,
        None if frag.quotient is None else frag.quotient.to_json_dict(),
        None if frag.remainder_witness is None else frag.remainder_witness.to_json_dict(),
    ]


def test_row_route_matches_dict_routes_on_the_bench10_grid():
    """Report JSON, g, core, the identity and both limit checks, byte for byte.

    217 cases: TorusKnot with p <= 11, p*d <= 15, m <= 15 and p*m <= 40
    (composite p included) and FramedUnknot(-3..3) at p <= 7.
    """
    cases = bench10_grid()
    assert len(cases) == 217
    for knot, p in cases:
        g, core, body, identity = reference_case(knot, p)
        report = verify_hecke(knot, p)
        mine = {key: value for key, value in _body(report).items() if key in body}
        assert json.dumps(mine) == json.dumps(body), (knot, p)
        assert report.identity_gp_eq_p2F is identity, (knot, p)
        assert lifting_defect(knot, p).to_text() == g.to_text(), (knot, p)
        if core is None:
            with pytest.raises(NotDivisible):
                core_rows(knot, p)
            continue
        assert emit_rows(core_rows(knot, p)).to_text() == core.to_text(), (knot, p)
        # every layer of the core is in Z[z^2] for every knot: even and palindromic
        assert all(cosh_coeffs(row) is not None for row in core_rows(knot, p).values()), (
            knot, p)
        try:
            ref_identity = reference_limit_identity(knot, core, p)
        except NonExactDivision:
            # composite p: the hook trace is not divisible by [p]^2
            with pytest.raises(NonExactDivision):
                limit_identity_check(knot, p)
        else:
            assert limit_identity_check(knot, p) is ref_identity, (knot, p)
        membership = limit_membership_verdict(knot, p)
        ref_frag = dict_congruence_verdict(substitute_a(core), p)
        assert membership.value.to_text() == substitute_a(core).to_text(), (knot, p)
        assert _fragment(membership.fragment) == _fragment(ref_frag), (knot, p)
        assert membership.passed is (ref_frag.z2_member and ref_frag.p2_divisible)


def test_q_basis_verdict_matches_the_conversion_first_route_on_the_bench10_grid():
    """Whole reports and both limit verdicts against the route that converts the
    core to z^2, divides there and lifts back; composites included."""
    for knot, p in bench10_grid():
        body, csv = conversion_first_report(knot, p)
        report = verify_hecke(knot, p)
        assert json.dumps(_body(report)) == json.dumps(body), (knot, p)
        assert report.csv_row()[:-1] == csv, (knot, p)
        try:
            core_rows(knot, p)
        except NotDivisible:
            continue
        identity, frag = conversion_first_limits(knot, p)
        if identity is NonExactDivision:
            with pytest.raises(NonExactDivision):
                limit_identity_check(knot, p)
        else:
            assert limit_identity_check(knot, p) is identity, (knot, p)
        membership = limit_membership_verdict(knot, p)
        assert _fragment(membership.fragment) == _fragment(frag), (knot, p)
        assert membership.passed is (frag.z2_member and frag.p2_divisible), (knot, p)


def _qnum_sq_row(p):
    """[p]^2 = x^-(p-1) (1 + x + ... + x^(p-1))^2 as a q-row: 1, 2, ..., p, ..., 2, 1."""
    return -2 * (p - 1), list(range(1, p)) + list(range(p, 0, -1))


# even palindromic int rows: c_k x^-k + ... + c_0 + ... + c_k x^k with c_k != 0
_cosh = st.lists(st.integers(-9, 9) | st.integers(-(2**70), 2**70), min_size=1, max_size=6).filter(
    lambda c: c[-1] != 0
)
_palindromic_rows = st.dictionaries(st.integers(-3, 3), _cosh, min_size=1, max_size=4).map(
    lambda layers: {ae: (-2 * (len(c) - 1), c[:0:-1] + c) for ae, c in layers.items()}
)


@_PROPERTY
@given(_palindromic_rows, st.integers(2, 13), st.integers(0, 10**6), st.booleans())
def test_qnum_sq_membership_lemma(rows, p, draw, mirrored):
    """R [p]^2 passes with quotient R; after one bump (mirrored, it stays
    palindromic) the q-row decision agrees with the conversion-first route."""
    lo_p, row_p = _qnum_sq_row(p)
    product = {ae: (lo + lo_p, kronecker_mul(coeffs, row_p)) for ae, (lo, coeffs) in rows.items()}
    frag = z2_verdict(product, p)
    assert frag.z2_member and frag.p2_divisible and frag.remainder_witness is None
    assert {ae: (lo, list(c)) for ae, (lo, c) in frag.quotient_rows} == rows
    assert frag.quotient == ZAPoly.from_rows(z2_rows(rows))
    ae = sorted(product)[draw % len(product)]
    lo, coeffs = product[ae]
    coeffs = list(coeffs)
    i = draw % len(coeffs)
    coeffs[i] += 1
    if mirrored and i != len(coeffs) - 1 - i:
        coeffs[len(coeffs) - 1 - i] += 1
    bumped = add_rows({k: v for k, v in product.items() if k != ae}, {ae: (lo, coeffs)})
    mine, ref = z2_verdict(bumped, p), z2_first_verdict(z2_rows(bumped), p)
    assert _fragment(mine) == _fragment(ref)


def test_closed_form_rows_are_trimmed():
    """No row of the closed form starts or ends with a zero."""
    for knot, p in bench10_grid():
        for lo, coeffs in closed_form_rows(knot, p).values():
            assert coeffs[0] and coeffs[-1], (knot, p)


def test_framing_correction_matches_the_sparse_trace():
    for p in range(1, 12):
        for tau in range(-6, 7):
            try:
                expected = dict_framing_correction(p, tau)
            except NonExactDivision:
                with pytest.raises(NonExactDivision):
                    framing_correction(p, tau)
                continue
            assert z2_to_laurent(framing_correction(p, tau)) == expected, (p, tau)


# a-layers of one q-parity each, the parity drawn per a-exponent so that two
# draws with the same parities can be added row by row
def _layered(parities):
    terms = st.dictionaries(
        st.tuples(st.integers(-8, 8), st.integers(-4, 4)),
        st.integers(-9, 9) | st.integers(-(2**70), 2**70),
        max_size=12,
    )
    return terms.map(
        lambda d: LaurentQA({(2 * qe + parities[ae % 2], ae): c for (qe, ae), c in d.items()})
    )


_parities = st.tuples(st.integers(0, 1), st.integers(0, 1))


@_PROPERTY
@given(_parities.flatmap(lambda par: st.tuples(_layered(par), _layered(par))), st.booleans())
def test_row_add_and_sub_match_laurent(fg, negate):
    f, g = fg
    rows = add_rows(parse_rows(f.terms), parse_rows(g.terms), negate)
    assert emit_rows(rows) == (f - g if negate else f + g)
    for lo, coeffs in rows.values():
        assert coeffs and coeffs[0] and coeffs[-1]


@_PROPERTY
@given(_parities.flatmap(_layered), st.integers(1, 3), _parities.flatmap(_layered))
def test_abracket_division_matches_laurent(f, n, bump):
    """(f (a^n - a^-n)) / (a^n - a^-n) == f, and the witness of a bumped
    product is the dict route's."""
    product = f * abracket(n)
    assert emit_rows(abracket_quotient(parse_rows(product.terms), n)) == f
    assert divide_out_abracket(product, n) == f
    mixed = product + bump
    try:
        expected = dict_divide_out_abracket(mixed, n)
    except NotDivisible as err:
        with pytest.raises(NotDivisible) as caught:
            divide_out_abracket(mixed, n)
        assert caught.value.witness == err.witness
    else:
        assert divide_out_abracket(mixed, n) == expected
