from fractions import Fraction

import pytest
from conftest import (
    free_energy_grid,
    lambda_sum_fhat,
    lambda_sum_verdict,
    lmov_grid,
    truncated_power_exp,
    truncated_power_log,
)

from heckelift import lmov
from heckelift.combinatorics import partitions_of
from heckelift.exactring import LaurentQA, RingFraction, abracket, emit_rows, qbracket
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


def test_orthogonality_route_matches_lambda_sum_route():
    """sum_nu chi_mu(nu) h_nu / {nu} is the lambda-sum fhat, and its verdict."""
    for case in lmov_grid():
        rows, scale, brackets = lmov._fhat(*case)
        fhat = RingFraction.over_brackets(emit_rows(rows), scale, brackets.elements())
        assert fhat == lambda_sum_fhat(*case), case
        assert lmov_verdict(*case) == lambda_sum_verdict(*case), case


def test_lmov_verdict_does_not_depend_on_the_truncation_degree():
    """Weight-|mu| coefficients of the free energy ignore the terms above."""
    for knot in (TREFOIL, TorusKnot(3, 2), FramedUnknot(-1), FramedUnknot(2)):
        for w in range(1, 4):
            for mu in partitions_of(w):
                assert lmov_verdict(knot, mu, 3) == lmov_verdict(knot, mu, 4), (knot, mu)
