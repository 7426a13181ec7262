import pytest

from chebcm.cyclotomic import eta_stabilizer
from chebcm.unitgroups import (
    QuotientGroup,
    case1_cm_criterion,
    case2_cm_criterion,
    eta_fixers_congruence,
    euler_phi,
    kd_galois_structure,
    kd_is_cm,
    kd_kernel,
    proper_subfields_totally_real,
    subgroup_generated,
    unit_group,
)


@pytest.mark.parametrize(
    "n,phi",
    [(1, 1), (2, 1), (3, 2), (8, 4), (12, 4), (24, 8), (97, 96), (9999, 6000)],
)
def test_euler_phi_frozen(n, phi):
    assert euler_phi(n) == phi


def test_euler_phi_matches_unit_count():
    for n in range(1, 200):
        assert euler_phi(n) == len(unit_group(n))


def test_unit_group_12():
    assert unit_group(12) == (1, 5, 7, 11)


def test_subgroup_generated():
    assert subgroup_generated(8, (3,)) == {1, 3}
    assert subgroup_generated(7, (3,)) == {1, 2, 3, 4, 5, 6}
    assert subgroup_generated(5, ()) == {1}
    with pytest.raises(ValueError):
        subgroup_generated(8, (2,))


def test_element_order():
    # element orders in (Z/n)^* are coset orders over the trivial kernel
    assert QuotientGroup(5, {1}).coset_order(2) == 4
    assert QuotientGroup(8, {1}).coset_order(3) == 2
    assert QuotientGroup(1, {0}).coset_order(0) == 1


def test_units_mod_1_are_the_trivial_group_zero():
    # (Z/1)^* = {0} falls out of arithmetic mod 1; no routine special-cases it
    assert set(unit_group(1)) == {0}
    assert kd_kernel(1) == subgroup_generated(1, (0,)) == {0}
    assert eta_fixers_congruence(1) == eta_stabilizer(1) == {0}


@pytest.mark.parametrize(
    "n,kernel",
    [(3, {1}), (4, {1}), (6, {1}), (8, {1, 3}), (12, {1, 5}), (16, {1, 7}), (20, {1, 9})],
)
def test_kd_kernel_frozen(n, kernel):
    assert kd_kernel(n) == kernel


def test_kd_kernel_order_two_when_4_divides():
    for n in range(3, 200):
        k = kd_kernel(n)
        if n % 4 == 0 and n > 4:
            assert len(k) == 2
        else:
            assert k == {1}


def test_congruence_route_agrees_with_kernel():
    for n in range(3, 120):
        assert eta_fixers_congruence(n) == kd_kernel(n)


def test_cm_detection():
    assert not kd_is_cm(1)
    assert not kd_is_cm(2)
    assert all(kd_is_cm(n) for n in range(3, 120))


def test_degree_criteria():
    assert all(case1_cm_criterion(d) for d in (2, 4, 8, 16, 32, 64))
    assert not any(case1_cm_criterion(d) for d in (6, 10, 12, 20, 24))
    assert all(case2_cm_criterion(d) for d in (3, 5, 7, 11, 13))
    assert not any(case2_cm_criterion(d) for d in (9, 15, 21, 25))
    with pytest.raises(ValueError):
        case1_cm_criterion(3)
    with pytest.raises(ValueError):
        case2_cm_criterion(4)


class TestQuotientGroup:
    def test_trivial_kernel_is_unit_group(self):
        q = QuotientGroup(8, {1})
        assert q.order == 4
        assert q.reps == (1, 3, 5, 7)
        assert q.mul(3, 5) == 7

    def test_cosets_named_by_smallest_member(self):
        q = QuotientGroup(16, kd_kernel(16))
        # cosets of {1,7}: {1,7} {3,5} {9,15} {11,13}
        assert q.reps == (1, 3, 9, 11)
        assert q.rep(7) == 1 and q.rep(5) == 3 and q.rep(13) == 11

    def test_group_axioms_on_reps(self):
        q = QuotientGroup(20, kd_kernel(20))
        for a in q.reps:
            assert any(q.mul(a, b) == q.identity for b in q.reps)
            for b in q.reps:
                assert q.mul(a, b) == q.mul(b, a)

    def test_rejects_non_subgroup_kernel(self):
        with pytest.raises(ValueError):
            QuotientGroup(8, {1, 3, 5})
        with pytest.raises(ValueError):
            QuotientGroup(8, {1, 2})

    def test_subgroup_lattice_of_klein_four(self):
        q = QuotientGroup(8, {1})
        subs = q.subgroups()
        assert [sorted(h) for h in subs] == [
            [1], [1, 3], [1, 5], [1, 7], [1, 3, 5, 7],
        ]

    def test_subgroups_of_cyclic_match_divisors(self):
        q = QuotientGroup(13, {1})  # cyclic of order 12
        sizes = sorted(len(h) for h in q.subgroups())
        assert sizes == [1, 2, 3, 4, 6, 12]


def test_galois_structure_powers_of_two():
    for e in (3, 4, 5, 6):
        d = 1 << e
        q, gen, order = kd_galois_structure(d)
        assert gen == 5
        assert order == 1 << (e - 2)
        assert q.order == order
        assert q.coset_order(q.rep(5)) == order
    with pytest.raises(ValueError):
        kd_galois_structure(12)
    with pytest.raises(ValueError):
        kd_galois_structure(4)


def test_proper_subfields_totally_real_small():
    assert all(proper_subfields_totally_real(e) for e in range(1, 7))
