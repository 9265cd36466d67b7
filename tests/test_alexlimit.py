import random
from fractions import Fraction

import pytest

from conftest import (
    limit_ratio_via_derivative,
    qnum,
    random_laurent,
    sparse_hook_alexander_check,
    substitute_a,
    z2_to_laurent,
)
from heckelift.alexlimit import (
    framing_correction,
    hook_alexander_check,
    limit_identity_check,
    limit_membership_verdict,
)
from heckelift.combinatorics import HookShape, hook_shapes
from heckelift.exactring import (
    LaurentQA,
    NotDivisible,
    abracket,
    abracket_quotient,
    emit_rows,
    parse_rows,
    qbracket,
    rows_at_a1,
)
from heckelift.hecke import core_rows, lifting_defect
from heckelift.torus import FramedUnknot, TorusKnot, alexander, unknot_schur_value

# the knots of acceptance criterion 5, and U_-3..U_3
HOOK_KNOTS = [TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 2), TorusKnot(1, 1),
              TorusKnot(1, 2), TorusKnot(1, 3)] + [FramedUnknot(t) for t in range(-3, 4)]


def row_limit(f):
    """lim_{a -> 1} f / (a - a^-1) on rows, as hook_alexander_check takes it."""
    return emit_rows(rows_at_a1(abracket_quotient(parse_rows(f.terms))))


def test_framing_correction_pinned_values():
    assert framing_correction(2, 1).to_json_dict() == {"0": ["1"]}
    assert framing_correction(2, -1).to_json_dict() == {"0": ["1"]}
    assert framing_correction(3, 1).to_json_dict() == {"0": ["0", "1"]}
    assert framing_correction(2, 6).to_json_dict() == {
        "0": ["0", "9", "24", "22", "8", "1"]
    }
    for p in (2, 3, 5, 7):
        assert framing_correction(p, 0).is_zero()


def test_framing_correction_integrality():
    for p in (2, 3, 5, 7):
        for tau in range(-3, 4):
            poly = framing_correction(p, tau)
            assert poly.is_integral, (p, tau)


def test_framing_correction_trace_identity():
    """[p]^2 alpha recovers the hook trace minus its constant term."""
    for p in (2, 3, 5):
        for tau in (-2, 1, 3):
            trace = LaurentQA.zero()
            for hook in hook_shapes(p):
                trace = trace + LaurentQA.monomial(1, qexp=hook.kappa * tau)
            trace = trace - LaurentQA.monomial(p * (-1) ** ((p - 1) * tau))
            assert qnum(p) * qnum(p) * z2_to_laurent(framing_correction(p, tau)) == trace


def test_limit_ratio_two_routes_agree():
    """The row limit equals f'_a(1) / 2 on (a - a^-1) f, f with even q-exponents."""
    rng = random.Random(77)
    for _ in range(20):
        f = LaurentQA({(2 * qe, ae): c for (qe, ae), c in random_laurent(rng).terms.items()})
        h = abracket(1) * f
        left = row_limit(h)
        assert left == limit_ratio_via_derivative(h)
        assert left == substitute_a(f)
    with pytest.raises(NotDivisible):
        row_limit(LaurentQA.one())


def test_limit_ratio_on_defect():
    g = lifting_defect(TorusKnot(2, 3), 2)
    assert emit_rows(rows_at_a1(core_rows(TorusKnot(2, 3), 2))) == limit_ratio_via_derivative(g)
    assert row_limit(g) == limit_ratio_via_derivative(g)


def test_limit_identity_small_grid():
    for knot in (TorusKnot(2, 3), TorusKnot(1, 2), TorusKnot(3, 2), FramedUnknot(1)):
        for p in (2, 3):
            assert limit_identity_check(knot, p), (knot, p)


def test_limit_membership():
    verdict = limit_membership_verdict(TorusKnot(2, 3), 2)
    assert verdict.passed
    assert verdict.fragment.z2_member and verdict.fragment.p2_divisible
    assert verdict.value == limit_ratio_via_derivative(lifting_defect(TorusKnot(2, 3), 2))
    assert limit_membership_verdict(FramedUnknot(-1), 3).passed


def test_hook_alexander_trefoil():
    report = hook_alexander_check(TorusKnot(2, 3), HookShape(1, 1))
    assert report.passed
    expected = LaurentQA({(6, 0): 1, (0, 0): -1, (-6, 0): 1})
    assert report.colored == expected
    assert report.expected == expected
    assert report.hook == HookShape(1, 1)


def test_hook_alexander_weight_one_is_plain_alexander():
    for knot in (TorusKnot(2, 3), TorusKnot(3, 2), FramedUnknot(2)):
        report = hook_alexander_check(knot, HookShape(0, 0))
        assert report.passed
        assert report.colored == z2_to_laurent(alexander(knot))


def test_hook_alexander_matches_adams_of_alexander():
    for knot in (TorusKnot(2, 3), TorusKnot(1, 3)):
        for hook in hook_shapes(2) + hook_shapes(3):
            report = hook_alexander_check(knot, hook)
            assert report.passed, (knot, hook)
            assert report.expected == z2_to_laurent(alexander(knot)).adams(hook.weight)


def test_unknot_hook_limit_is_sign_over_bracket():
    """lim W_hook(U) / (a - a^-1) = (-1)^leg / {w} for every hook of weight <= 8."""
    for w in range(1, 9):
        for hook in hook_shapes(w):
            unknot = unknot_schur_value(hook.partition())
            limit_num = limit_ratio_via_derivative(unknot.num)
            assert limit_num * qbracket(w) == unknot.den * (-1) ** hook.leg, hook


def test_hook_alexander_matches_the_sparse_reference():
    """Every field, on weight <= 4 for the criterion-5 knots and U_-3..U_3."""
    count = 0
    for knot in HOOK_KNOTS:
        for w in range(1, 5):
            for hook in hook_shapes(w):
                mine = hook_alexander_check(knot, hook)
                ref = sparse_hook_alexander_check(knot, hook)
                for name in mine.__slots__:
                    assert getattr(mine, name) == getattr(ref, name), (knot, hook, name)
                count += 1
    assert count == 130
