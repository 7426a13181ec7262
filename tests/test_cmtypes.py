import pytest

from chebcm.cmtypes import (
    CMType,
    paper_type_case1,
    paper_type_case2,
    sum_criterion,
)
from chebcm.unitgroups import QuotientGroup, kd_kernel, subgroup_generated


class TestCMGroup:
    """QuotientGroup as the Galois group of a CM field: conjugation and
    translation."""

    def test_plain_unit_group(self):
        g = QuotientGroup(7, {1})
        assert g.order == 6
        assert sorted(g.reps) == [1, 2, 3, 4, 5, 6]
        assert g.conj == 6

    def test_quotient_by_kernel(self):
        g = QuotientGroup(8, kd_kernel(8))
        assert g.order == 2
        assert sorted(g.reps) == [1, 5]
        assert g.conj == 5  # coset of -1 = 7 is {7, 21 mod 8 = 5}, named 5

    def test_translate(self):
        g = QuotientGroup(13, {1})
        assert g.translate(2, {1, 3}) == {2, 6}


class TestCMType:
    def test_half_system_is_valid(self):
        t = CMType(QuotientGroup(7, {1}), {1, 2, 3})
        assert t.is_valid()
        assert t.is_primitive()
        assert not t.induced_oracle()

    def test_wrong_size_invalid(self):
        assert not CMType(QuotientGroup(7, {1}), {1, 2}).is_valid()

    def test_conjugate_pair_collision_invalid(self):
        # 1 and 6 are conjugate mod 7
        assert not CMType(QuotientGroup(7, {1}), {1, 6, 2}).is_valid()

    def test_primitivity_raises_on_invalid(self):
        with pytest.raises(ValueError):
            CMType(QuotientGroup(7, {1}), {1, 2}).is_primitive()

    @pytest.mark.parametrize(
        "n,kernel", [(2, {1}), (4, {1, 3}), (8, {1, 7})], ids=["2", "4-kernel-3", "8-kernel-7"]
    )
    def test_no_cm_structure_rejected(self, n, kernel):
        # conjugation, the class of -1, is the identity: -1 = 1 mod 2, or
        # -1 lies in the kernel
        with pytest.raises(ValueError):
            CMType(QuotientGroup(n, kernel), {1})

    def test_smallest_cm_group(self):
        t = CMType(QuotientGroup(4, {1}), {1})
        assert t.is_valid() and t.is_primitive()

    def test_translate_preserves_validity(self):
        t = paper_type_case2(13)
        for g in (2, 3, 5):
            assert t.translate(g).is_valid()

    def test_induced_type_is_detected(self):
        # H = <3> = {1,3,9} in (Z/13)^*; S = H + 2H is a union of H-cosets
        h = subgroup_generated(13, (3,))
        s = set(h) | {(2 * x) % 13 for x in h}
        t = CMType(QuotientGroup(13, {1}), s)
        assert t.is_valid()
        assert not t.is_primitive()
        assert t.induced_oracle()
        assert t.stabilizer() == h

    def test_fields(self):
        t = paper_type_case2(5)
        assert (t.group.n, sorted(t.group.kernel), sorted(t.s)) == (5, [1], [1, 2])


class TestPaperTypes:
    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
    def test_case1_valid_and_primitive(self, e):
        t = paper_type_case1(e)
        assert t.group.n == 1 << (e + 2)
        assert t.is_valid()
        assert t.is_primitive()
        assert not t.induced_oracle()

    def test_case1_smallest(self):
        t = paper_type_case1(1)
        assert (t.group.n, sorted(t.group.kernel), sorted(t.s)) == (8, [1, 3], [1])

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
    def test_case2_valid_and_primitive(self, p):
        t = paper_type_case2(p)
        assert t.is_valid()
        assert t.is_primitive()
        assert not t.induced_oracle()

    def test_case2_rejects_composite(self):
        with pytest.raises(ValueError):
            paper_type_case2(9)


@pytest.mark.parametrize(
    "p,residue",
    [(3, 1), (5, 3), (7, 6), (11, 4), (13, 8), (17, 2)],
)
def test_sum_criterion_frozen(p, residue):
    r, is_unit = sum_criterion(p)
    assert r == residue
    assert is_unit


def test_sum_criterion_always_a_unit():
    from chebcm.chebyshev import is_prime

    for p in range(3, 500, 2):
        if is_prime(p):
            assert sum_criterion(p)[1]
