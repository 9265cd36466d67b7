from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from conftest import (
    character_pairing,
    dn_scaled_invariant,
    gauss,
    nu_sum_power_sum_invariant,
    nu_sum_unknot_schur_value,
    plane_value_grid,
    sparse_hook_term,
    sparse_power_sum_invariant,
    sparse_scaled_invariant,
    sparse_unknot_schur_value,
    twist_power_sum,
    twisted_sum_grid,
    z2_to_laurent,
)
from heckelift.combinatorics import (
    WeightMismatch,
    chi,
    hook_lengths,
    partitions_of,
    z_mu,
)
from heckelift.exactring import (
    LaurentQA,
    RingFraction,
    abracket,
    bracket_of_partition,
    bracket_row,
    bracket_rows,
    emit_rows,
    exact_div,
    qbracket,
    zsquared,
)
from heckelift.torus import (
    FramedUnknot,
    _cofactor,
    _den_brackets,
    _hook_term,
    TorusKnot,
    alexander,
    cable_params,
    power_sum_invariant,
    power_sum_plane_value,
    scaled_invariant,
    unknot_schur_value,
)

TREFOIL = TorusKnot(2, 3)


def test_knot_constructors():
    assert TREFOIL.framing == 6
    assert TorusKnot(3, 2).framing == 6
    assert TorusKnot(1, 5).framing == 5
    assert FramedUnknot(-3).framing == -3
    assert cable_params(TREFOIL) == (2, 3)
    assert cable_params(FramedUnknot(4)) == (1, 4)
    with pytest.raises(ValueError):
        TorusKnot(2, 4)
    with pytest.raises(ValueError):
        TorusKnot(0, 1)
    with pytest.raises(ValueError):
        TorusKnot(2, -3)


def test_unknot_invariants():
    assert scaled_invariant(FramedUnknot(0)) == abracket(1)
    for p in range(1, 5):
        assert scaled_invariant(FramedUnknot(0), p) == abracket(p)
    # a positive twist only shifts the framing weight q^{kappa} a^{|.|}
    assert scaled_invariant(FramedUnknot(1)) == abracket(1).shift(aexp=1)
    assert scaled_invariant(TorusKnot(1, 1)) == abracket(1).shift(aexp=1)


def test_trefoil_invariant_frozen():
    expected = abracket(1).shift(aexp=3) * (
        zsquared().shift(aexp=1)
        + LaurentQA.monomial(2, aexp=1)
        - LaurentQA.monomial(1, aexp=-1)
    )
    assert scaled_invariant(TREFOIL) == expected


def test_scaled_invariant_symmetry_in_d_and_m():
    """The (d, m) and (m, d) diagrams present the same knot."""
    for d, m in ((2, 3), (2, 5), (3, 4)):
        assert scaled_invariant(TorusKnot(d, m)) == scaled_invariant(TorusKnot(m, d))


def test_scaled_vs_power_sum_route():
    """{k} Z_(k) equals the k-th scaled invariant computed by its own sum."""
    knots = [TREFOIL, TorusKnot(3, 2), TorusKnot(1, 2), FramedUnknot(1), FramedUnknot(-2)]
    cases = [(knot, k) for knot in knots for k in (1, 2, 3)]
    # reach: the hook sum shares nothing with the closed q-binomial form
    cases += [(TorusKnot(3, 2), 5), (TREFOIL, 7), (TorusKnot(1, 7), 11)]
    for knot, k in cases:
        lhs = power_sum_invariant(knot, (k,)) * qbracket(k)
        assert lhs == RingFraction(scaled_invariant(knot, k)), (knot, k)


def test_power_sum_invariant_matches_nu_sum_route():
    """The hook-content sum is the nu-sum's exact representation, term for term."""
    for knot, mu in plane_value_grid():
        new, old = power_sum_invariant(knot, mu), nu_sum_power_sum_invariant(knot, mu)
        assert new.num.terms == old.num.terms, (knot, mu)
        assert (new.scale, new.brackets) == (old.scale, old.brackets), (knot, mu)
    for n in range(8):
        for lam in partitions_of(n):
            assert unknot_schur_value(lam) == nu_sum_unknot_schur_value(lam), lam


def test_hook_rows_match_the_sparse_route():
    """The hook terms, plane Schur values and power-sum invariants built on rows
    equal the sparse route term for term: every mu with |mu| <= 5 on a knot of
    each cable width d <= 3 and on U_-3..U_3."""
    knots = [TorusKnot(3, 2), TREFOIL] + [FramedUnknot(t) for t in range(-3, 4)]
    for knot in knots:
        d = cable_params(knot)[0]
        for w in range(1, 6):
            for lam in partitions_of(d * w):
                assert emit_rows(_hook_term(lam, d)).terms == sparse_hook_term(lam, d), (lam, d)
            for mu in partitions_of(w):
                new, old = power_sum_invariant(knot, mu), sparse_power_sum_invariant(knot, mu)
                assert new.num.terms == old.num.terms, (knot, mu)
                assert (new.scale, new.brackets) == (old.scale, old.brackets), (knot, mu)
    for n in range(6):
        for lam in partitions_of(n):
            new, old = unknot_schur_value(lam), sparse_unknot_schur_value(lam)
            assert new.num.terms == old.num.terms, lam
            assert (new.scale, new.brackets) == (old.scale, old.brackets), lam


def test_hook_lengths_lie_inside_den_brackets():
    """lam |- n has at most n//k hooks of length k, so D(n)/{hooks} is a monomial."""
    for n in range(15):
        den = Counter(_den_brackets(n))
        for lam in partitions_of(n):
            assert Counter(hook_lengths(lam)) <= den, lam


def test_twist_power_sum_expansion():
    entries = twist_power_sum(2, 1, 0)
    assert dict(entries)[(2,)] == RingFraction(LaurentQA.one())
    assert dict(entries)[(1, 1)].is_zero()
    for k, d, m in ((1, 2, 3), (2, 1, 3), (1, 3, 2)):
        for mu, coeff in twist_power_sum(k, d, m):
            assert sum(mu) == k * d
            expected = RingFraction(
                bracket_of_partition(mu, k * m).shift(aexp=k * m)
                * Fraction(1, z_mu(mu)),
                qbracket(k * m),
            )
            assert coeff == expected


def test_twist_power_sum_recovers_invariant():
    for knot in (TREFOIL, TorusKnot(1, 2), TorusKnot(3, 2)):
        d, m = cable_params(knot)
        for p in (1, 2):
            total = RingFraction(LaurentQA.zero())
            for mu, coeff in twist_power_sum(p, d, m):
                total = total + coeff * power_sum_plane_value(mu)
            lhs = total * qbracket(p)
            assert lhs == RingFraction(scaled_invariant(knot, p))


def test_character_pairing_closed_form():
    for n in range(1, 7):
        for mu in partitions_of(n):
            lhs = character_pairing((n,), mu) * qbracket(n)
            assert lhs == bracket_of_partition(mu, n)
    with pytest.raises(WeightMismatch):
        character_pairing((2,), (3,))


def test_character_pairing_symmetry():
    for n in range(1, 6):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                assert character_pairing(mu, nu) == character_pairing(nu, mu)


def test_unknot_schur_value_via_frobenius():
    for n in range(1, 5):
        for lam in partitions_of(n):
            expected = RingFraction(LaurentQA.zero())
            for mu in partitions_of(n):
                expected = expected + power_sum_plane_value(mu) * Fraction(
                    chi(lam, mu), z_mu(mu)
                )
            assert unknot_schur_value(lam) == expected


def test_power_sum_invariant_multi_part():
    """Power sum colors multiply plane values on the zero framed unknot."""
    unknot = FramedUnknot(0)
    for mu in ((1, 1), (2, 1), (3,), (2, 2)):
        assert power_sum_invariant(unknot, mu) == power_sum_plane_value(mu)


def test_alexander_closed_form():
    for d, m in ((1, 1), (1, 3), (2, 3), (2, 5), (3, 2), (3, 4)):
        poly = z2_to_laurent(alexander(TorusKnot(d, m)))
        assert poly * qbracket(d) * qbracket(m) == qbracket(1) * qbracket(d * m)
    assert alexander(TREFOIL).to_json_dict() == {"0": ["1", "1"]}
    assert alexander(FramedUnknot(0)).to_json_dict() == {"0": ["1"]}
    assert alexander(FramedUnknot(-2)).to_json_dict() == {"0": ["1"]}
    assert alexander(TorusKnot(1, 7)).to_json_dict() == {"0": ["1"]}


def _prefix_cofactor(n, mu, scale=1):
    """D(n)/{mu} by dense long division, one part of mu at a time."""
    if not mu:
        return bracket_of_partition(_den_brackets(n), scale)
    return exact_div(_prefix_cofactor(n, mu[:-1], scale), qbracket(scale * mu[-1]))


def test_cofactor_is_bracket_monomial_quotient():
    def cofactor(n, mu, scale=1):
        return emit_rows({0: _cofactor(n, mu, scale)})

    for n in range(1, 9):
        full = cofactor(n, ())
        assert full == bracket_of_partition(_den_brackets(n))
        for mu in partitions_of(n):
            assert cofactor(n, mu) * bracket_of_partition(mu) == full, mu
            assert cofactor(n, mu) == _prefix_cofactor(n, mu), mu
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert cofactor(n, mu, 2) == _prefix_cofactor(n, mu, 2), mu


def test_gauss_binomial_properties():
    """[N, K] = prod_{i=1..K} {N-K+i}/{i} by the bracket kernel is q^(-K(N-K)) G(N, K).

    G is the q-Pascal reference: comb(N, K) at x = 1 and palindromic.  The
    closed form builds its q-binomials by these single ratios; one
    bracket_rows call with every product first gives the same row.
    """
    for N in range(15):
        for K in range(N + 1):
            g = list(gauss(N, K))
            assert sum(g) == comb(N, K) and g == g[::-1], (N, K)
            row = (0, [1])
            for i in range(1, K + 1):
                row = bracket_row(*row, (N - K + i,), (i,))
            assert row == (-K * (N - K), g), (N, K)
            ratio = bracket_rows({0: (0, [1])}, range(N - K + 1, N + 1), range(1, K + 1))
            assert ratio == {0: row}, (N, K)


def test_scaled_invariant_matches_dn_route():
    """Same value and the same term order as the D(n) bracket-sum route."""
    for knot, p in twisted_sum_grid():
        for k in (1, p):
            new = scaled_invariant(knot, k)
            old = dn_scaled_invariant(knot, k)
            assert list(new.terms.items()) == list(old.terms.items()), (knot, k)


def test_scaled_invariant_matches_sparse_products():
    """The Kronecker products and the dense {p}/{n} step keep value and term order."""
    for knot, p in twisted_sum_grid() + [(TorusKnot(3, 2), 11), (TorusKnot(1, 7), 13)]:
        for k in (1, p):
            new = scaled_invariant(knot, k)
            old = sparse_scaled_invariant(knot, k)
            assert list(new.terms.items()) == list(old.terms.items()), (knot, k)
