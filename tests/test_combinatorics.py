import math
from fractions import Fraction

import pytest

from conftest import frobenius_chi_table
from heckelift.combinatorics import (
    WeightMismatch,
    _chi_rec,
    as_partition,
    boxes,
    character_table,
    chi,
    conjugate,
    gcd_of_parts,
    hook_lengths,
    hook_shapes,
    kappa,
    partition_key,
    partitions_of,
    z_mu,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partitions_of_counts_and_shape():
    for n, expected in enumerate(PARTITION_COUNTS):
        parts = partitions_of(n)
        assert len(parts) == expected
        assert len(set(parts)) == expected
        for mu in parts:
            assert sum(mu) == n
            assert all(a >= b for a, b in zip(mu, mu[1:]))
            assert all(x >= 1 for x in mu)
    assert partitions_of(0) == ((),)
    assert partitions_of(5)[0] == (5,)
    assert partitions_of(5)[-1] == (1, 1, 1, 1, 1)


def test_as_partition_rejects_non_int_parts():
    assert as_partition([2, 1]) == (2, 1)
    assert as_partition(iter((3, 3))) == (3, 3)
    for bad in ([2.9, 1.2], [2.0, 1], [Fraction(2), 1], ["2", "1"]):
        with pytest.raises(ValueError):
            as_partition(bad)
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, 0])


def test_boxes_contents_and_hook_lengths():
    assert boxes((2, 1)) == ((0, 3), (1, 1), (-1, 1))
    assert hook_lengths((3, 1)) == (4, 2, 1, 1)
    assert hook_lengths(()) == ()
    for n in range(1, 10):
        for lam in partitions_of(n):
            # kappa is twice the content sum; the hook length formula counts
            # standard tableaux, chi_lam(1^n)
            assert 2 * sum(c for c, _ in boxes(lam)) == kappa(lam)
            assert math.factorial(n) // math.prod(hook_lengths(lam)) == chi(lam, (1,) * n)
            assert sorted(hook_lengths(conjugate(lam))) == sorted(hook_lengths(lam))


def test_z_mu_values():
    assert z_mu(()) == 1
    assert z_mu((3,)) == 3
    assert z_mu((1, 1, 1)) == 6
    assert z_mu((2, 2)) == 8
    assert z_mu((3, 1, 1)) == 6
    # sizes of conjugacy classes n!/z_mu partition the symmetric group
    for n in range(1, 11):
        assert sum(Fraction(1, z_mu(mu)) for mu in partitions_of(n)) == 1
        assert all(math.factorial(n) % z_mu(mu) == 0 for mu in partitions_of(n))


def test_kappa_values_and_conjugation():
    assert kappa(()) == 0
    assert kappa((1,)) == 0
    assert kappa((2,)) == 2
    assert kappa((1, 1)) == -2
    assert kappa((2, 1)) == 0
    assert kappa((3, 1)) == 4
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert kappa(conjugate(lam)) == -kappa(lam)
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_examples():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate(()) == ()


def test_gcd_and_divisibility():
    assert gcd_of_parts((6, 4, 2)) == 2
    assert gcd_of_parts((3, 2)) == 1


def test_hook_shapes():
    for w in range(1, 7):
        shapes = hook_shapes(w)
        assert len(shapes) == w
        for h in shapes:
            assert h.weight == w
            lam = h.partition()
            assert lam[0] == h.arm + 1
            assert len(lam) == h.leg + 1
            assert h.kappa == (h.arm - h.leg) * (h.arm + h.leg + 1)
            assert h.kappa == kappa(lam)


def test_chi_against_frobenius_oracle():
    for n in range(1, 7):
        oracle = frobenius_chi_table(n)
        for (lam, mu), value in oracle.items():
            assert chi(lam, mu) == value


def test_chi_full_cycle_vanishes_off_hooks():
    """On an n-cycle only hook shapes survive, with sign (-1)^leg."""
    for n in range(1, 9):
        cycle = (n,)
        for lam in partitions_of(n):
            if all(x == 1 for x in lam[1:]):
                assert chi(lam, cycle) == (-1) ** (len(lam) - 1)
            else:
                assert chi(lam, cycle) == 0


def test_chi_row_orthogonality():
    for n in range(1, 9):
        parts = partitions_of(n)
        for i, lam in enumerate(parts):
            for rho in parts[i:]:
                total = sum(
                    Fraction(chi(lam, mu) * chi(rho, mu), z_mu(mu)) for mu in parts
                )
                assert total == (1 if lam == rho else 0)


def test_chi_column_orthogonality():
    for n in range(1, 8):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                total = sum(chi(lam, mu) * chi(lam, nu) for lam in parts)
                assert total == (z_mu(mu) if mu == nu else 0)


def test_chi_weight_mismatch():
    with pytest.raises(WeightMismatch):
        chi((2, 1), (2, 2))


def test_partition_key_round_trip():
    assert partition_key((3, 1, 1)) == "3+1+1"
    assert partition_key(()) == ""
    for n in range(0, 9):
        for mu in partitions_of(n):
            key = partition_key(mu)
            assert tuple(int(x) for x in key.split("+") if x) == mu


def test_character_table_against_frobenius_oracle_and_memoized():
    character_table.cache_clear()
    _chi_rec.cache_clear()
    table = character_table(5)
    assert table.values == frobenius_chi_table(5)
    assert table.values[((5,), (5,))] == 1
    assert character_table(5) is table
    assert character_table.cache_info().hits == 1
    assert _chi_rec.cache_info().currsize > 0
