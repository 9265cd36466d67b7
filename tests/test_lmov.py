from fractions import Fraction

import pytest
import conftest
from conftest import (
    combine_then_divide_verdict,
    combined_fhat,
    free_energy_grid,
    lambda_sum_fhat,
    lambda_sum_verdict,
    lmov_grid,
    over_brackets,
    sparse_mul_rows,
    truncated_power_exp,
    truncated_power_log,
    zsquared,
)

from heckelift import exactring, lmov
from heckelift.combinatorics import partitions_of
from heckelift.exactring import (
    LaurentQA,
    RingFraction,
    abracket,
    emit_rows,
    mul_rows,
    qbracket,
)
from heckelift.lmov import (
    PSeries,
    extract_f,
    free_energy,
    lmov_verdict,
    m_inverse,
    m_matrix,
    partition_function,
    reassemble_free_energy,
)
from heckelift.torus import FramedUnknot, TorusKnot, power_sum_invariant

TREFOIL = TorusKnot(2, 3)


def test_partition_function_low_coefficients():
    Z = partition_function(TREFOIL, 2)
    assert Z.coefficient(()) == RingFraction(LaurentQA.one())
    assert Z.coefficient((1,)) == power_sum_invariant(TREFOIL, (1,))
    assert Z.coefficient((2,)) == power_sum_invariant(TREFOIL, (2,)) * Fraction(1, 2)
    assert Z.coefficient((1, 1)) == power_sum_invariant(TREFOIL, (1, 1)) * Fraction(
        1, 2
    )
    # odd framing flips the sign of odd weight terms
    marked = FramedUnknot(1)
    Z = partition_function(marked, 2)
    assert Z.coefficient((1,)) == power_sum_invariant(marked, (1,)) * -1
    assert Z.coefficient((2,)) == power_sum_invariant(marked, (2,)) * Fraction(1, 2)


def test_log_exp_round_trip():
    for knot in (TREFOIL, FramedUnknot(0), FramedUnknot(-1)):
        Z = partition_function(knot, 3)
        F = Z.log()
        assert F.exp() == Z
        assert free_energy(Z) == F
    with pytest.raises(ValueError):
        PSeries(2, {(): RingFraction(LaurentQA.zero())}).log()
    with pytest.raises(ValueError):
        partition_function(TREFOIL, 2).exp()


def test_euler_recurrence_matches_truncated_powers():
    """log and exp agree with the truncated-power series, degrees 0 and 1 included."""
    for Z in free_energy_grid():
        F = Z.log()
        assert F == truncated_power_log(Z), Z
        assert F.exp() == truncated_power_exp(F) == Z, Z


def test_unknot_free_energy_collapse():
    """Zero framed unknot free energy is supported on one-row partitions."""
    F = free_energy(partition_function(FramedUnknot(0), 3))
    assert F.coefficient((1,)) == RingFraction(abracket(1), qbracket(1))
    assert F.coefficient((2,)) == RingFraction(abracket(2), qbracket(2) * 2)
    assert F.coefficient((3,)) == RingFraction(abracket(3), qbracket(3) * 3)
    assert F.coefficient((1, 1)).is_zero()
    assert F.coefficient((2, 1)).is_zero()
    assert F.coefficient((1, 1, 1)).is_zero()


def test_unknot_extracted_amplitudes_vanish():
    F = free_energy(partition_function(FramedUnknot(0), 3))
    f = extract_f(F)
    assert f[(1,)] == RingFraction(abracket(1), qbracket(1))
    for lam in partitions_of(2) + partitions_of(3):
        assert f[lam].is_zero(), lam


def test_extract_reassemble_round_trip():
    for knot in (TREFOIL, FramedUnknot(-2)):
        F = free_energy(partition_function(knot, 3))
        f = extract_f(F)
        assert reassemble_free_energy(f, 3) == F


def test_bracket_matrix_inverse():
    for n in range(1, 5):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                total = RingFraction(LaurentQA.zero())
                for nu in parts:
                    total = total + m_matrix(lam, nu) * m_inverse(nu, mu)
                expected = RingFraction(
                    LaurentQA.one() if lam == mu else LaurentQA.zero()
                )
                assert total == expected, (lam, mu)


def test_lmov_verdict_goldens():
    rep = lmov_verdict(TREFOIL, (1,))
    assert rep.passed
    assert rep.z2_fhat.to_json_dict() == {
        "1": ["1"],
        "3": ["-3", "-1"],
        "5": ["2", "1"],
    }
    assert rep.min_z_power == -2

    rep = lmov_verdict(FramedUnknot(0), (1,))
    assert rep.passed
    assert rep.z2_fhat.to_json_dict() == {"-1": ["-1"], "1": ["1"]}
    assert rep.min_z_power == -2

    assert lmov_verdict(TREFOIL, (2, 1)).passed
    assert lmov_verdict(TREFOIL, (2,)).passed
    assert lmov_verdict(FramedUnknot(-2), (3,)).passed
    assert lmov_verdict(FramedUnknot(2), (1, 1)).passed


def test_lmov_verdict_validation():
    with pytest.raises(ValueError):
        lmov_verdict(TREFOIL, ())
    with pytest.raises(ValueError):
        lmov_verdict(TREFOIL, (2, 1), degree=2)


@pytest.fixture
def wrong_invariant(monkeypatch):
    """Install a wrong power_sum_invariant in lmov; the numerator memos are cleared around it."""

    def clear():
        lmov._fhat_numerators.cache_clear()
        conftest._padded_numerators.cache_clear()

    def install(wrong):
        clear()
        monkeypatch.setattr(lmov, "power_sum_invariant", wrong)

    yield install
    clear()


def test_lmov_verdict_names_the_bracket_that_does_not_divide(wrong_invariant):
    """A stray a^7 / {5} on the weight-2 invariants leaves {5} undivided on a-layer 7."""
    stray = over_brackets(LaurentQA.monomial(1, 0, 7), 1, [5])
    wrong_invariant(
        lambda K, mu: power_sum_invariant(K, mu) + stray
        if sum(mu) == 2
        else power_sum_invariant(K, mu)
    )
    rep = lmov_verdict(TREFOIL, (2,))
    assert rep == combine_then_divide_verdict(TREFOIL, (2,))
    assert not rep.passed
    assert rep.detail == "not polynomial: not divisible by {5} on a-layer 7"
    assert rep.z2_fhat is None
    assert rep.min_z_power is None


def test_lmov_verdict_names_a_later_bracket_of_the_chain(wrong_invariant):
    """A stray a^7 / {3}^2 divides by {4}, the chain's first bracket, and fails at {3}."""
    stray = over_brackets(LaurentQA.monomial(1, 0, 7), 1, [3, 3])
    wrong_invariant(
        lambda K, mu: power_sum_invariant(K, mu) + stray
        if sum(mu) == 2
        else power_sum_invariant(K, mu)
    )
    divisors = combined_fhat(TREFOIL, (2,), 2)[2]
    assert max(divisors) == 4 and divisors[3] == 2
    for mu in ((2,), (1, 1)):
        rep = lmov_verdict(TREFOIL, mu)
        assert not rep.passed
        assert rep.detail == "not polynomial: not divisible by {3} on a-layer 7"
        assert rep == combine_then_divide_verdict(TREFOIL, mu)


def test_lmov_verdict_rejects_an_odd_q_power(wrong_invariant):
    """Invariants times q^|mu| put z^2 fhat_(2,1) at odd q-exponents."""
    wrong_invariant(
        lambda K, mu: power_sum_invariant(K, mu) * LaurentQA.monomial(1, sum(mu), 0)
    )
    rep = lmov_verdict(TREFOIL, (2, 1))
    assert rep == combine_then_divide_verdict(TREFOIL, (2, 1))
    assert not rep.passed
    assert rep.detail == "not in Q[z^2, a^{+-1}]"
    assert rep.z2_fhat is None
    assert rep.min_z_power is None


def test_lmov_verdict_rejects_an_even_asymmetric_layer(wrong_invariant):
    """Invariants times q^(2|mu|) put z^2 fhat at even q-exponents, off the palindromes."""
    wrong_invariant(
        lambda K, mu: power_sum_invariant(K, mu) * LaurentQA.monomial(1, 2 * sum(mu), 0)
    )
    for mu in ((1,), (2,), (2, 1)):
        rep = lmov_verdict(TREFOIL, mu)
        assert rep == combine_then_divide_verdict(TREFOIL, mu), mu
        assert not rep.passed
        assert rep.detail == "not in Q[z^2, a^{+-1}]"
        assert rep.z2_fhat is None and rep.min_z_power is None


def test_lmov_verdict_rejects_fractional_coefficients(wrong_invariant):
    """Invariants times 1/3 give a third of the trefoil's z^2 fhat_(1)."""
    wrong_invariant(lambda K, mu: power_sum_invariant(K, mu) * Fraction(1, 3))
    rep = lmov_verdict(TREFOIL, (1,))
    assert rep == combine_then_divide_verdict(TREFOIL, (1,))
    assert not rep.passed
    assert rep.detail == "coefficients not integral"
    third = Fraction(1, 3)
    assert rep.z2_fhat.rows == ((1, (third,)), (3, (-1, -third)), (5, (2 * third, third)))
    assert rep.min_z_power == -2


def test_lmov_degree4():
    knots = [TREFOIL, TorusKnot(2, 5)] + [FramedUnknot(t) for t in range(-2, 3)]
    failures = [
        (knot, mu)
        for knot in knots
        for w in range(1, 5)
        for mu in partitions_of(w)
        if not lmov_verdict(knot, mu, 4).passed
    ]
    assert not failures


def test_every_product_of_the_degree6_trefoil_run_matches_the_sparse_route(monkeypatch):
    """Each RingFraction product of every verdict of T(2,3) at degree 6, against the sparse product."""
    products = []

    def checked(f, g):
        got = mul_rows(f, g)
        assert got == sparse_mul_rows(f, g)
        products.append(got)
        return got

    monkeypatch.setattr(exactring, "mul_rows", checked)
    lmov._fhat_numerators.cache_clear()
    try:
        for w in range(1, 7):
            for mu in partitions_of(w):
                assert lmov_verdict(TREFOIL, mu, 6).passed, mu
    finally:
        lmov._fhat_numerators.cache_clear()
    assert len(products) == 80


def test_orthogonality_route_matches_lambda_sum_route():
    """z^2 times sum_nu chi_mu(nu) h_nu / {nu} is z^2 times the lambda-sum fhat, and its verdict."""
    for case in lmov_grid():
        rows, scale, brackets = combined_fhat(*case)
        z2_fhat = over_brackets(emit_rows(rows), scale, brackets.elements())
        assert z2_fhat == lambda_sum_fhat(*case) * zsquared(), case
        assert lmov_verdict(*case) == lambda_sum_verdict(*case), case


def test_lmov_verdict_does_not_depend_on_the_truncation_degree():
    """Weight-|mu| coefficients of the free energy ignore the terms above."""
    for knot in (TREFOIL, TorusKnot(3, 2), FramedUnknot(-1), FramedUnknot(2)):
        for w in range(1, 4):
            for mu in partitions_of(w):
                assert lmov_verdict(knot, mu, 3) == lmov_verdict(knot, mu, 4), (knot, mu)


def test_divided_memo_matches_combine_then_divide_route():
    """Quotients and remainders combined per mu give the verdict of dividing the combination."""
    trefoil = TorusKnot(2, 3)
    grid = [(K, 5) for K in [FramedUnknot(t) for t in range(-3, 4)] + [trefoil]]
    grid += [(TorusKnot(2, 5), 4), (TorusKnot(3, 2), 4)]
    for knot, degree in grid:
        for w in range(1, degree + 1):
            for mu in partitions_of(w):
                new = lmov_verdict(knot, mu, degree)
                old = combine_then_divide_verdict(knot, mu, degree)
                assert (new.passed, new.min_z_power, new.z2_fhat, new.detail) == (
                    old.passed, old.min_z_power, old.z2_fhat, old.detail), (knot, mu)
