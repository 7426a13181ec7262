import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebcm.algebra import ZZ, UniPolynomial, field_tower, squarefree
from chebcm.curves import HyperellipticCurve, VerificationError, make_cd, make_dm, make_xd
from chebcm.zeta import (
    BadReductionError,
    CapExceededError,
    LPolynomial,
    cm_trace_pattern_c2,
    count_points,
    count_points_naive,
    good_reduction,
    l_polynomial,
    lpoly_is_irreducible,
    remark_isogeny_check,
    remark_lpolys,
    simplicity_evidence,
)
from chebcm.zeta import _ZERO_LOG, _primitive_element, _zech_tables


class TestGoodReduction:
    def test_two_always_bad(self):
        assert not good_reduction(make_cd(2), 2)
        assert not good_reduction(make_dm(5), 2)

    def test_repeated_factor_detected(self):
        # x^3 + 1 = (x+1)^3 mod 3
        assert not good_reduction(make_dm(3), 3)
        # (x+2)*phi_3 = (x+2)*x^3 mod 3
        assert not good_reduction(make_cd(3), 3)

    def test_good_cases(self):
        assert good_reduction(make_cd(2), 3)
        assert good_reduction(make_cd(2), 5)
        assert good_reduction(make_dm(3), 7)
        assert good_reduction(make_xd(2), 5)

    def test_c2_good_at_every_odd_prime(self):
        # disc of (x+2)(x^2-2) only involves 2
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            assert good_reduction(make_cd(2), p)


class TestCountPoints:
    @pytest.mark.parametrize(
        "make,arg,p,expected",
        [
            ((lambda d: make_cd(d)), 2, 3, 2),
            ((lambda d: make_cd(d)), 2, 5, 6),
            ((lambda m: make_dm(m)), 3, 7, 12),
        ],
    )
    def test_frozen_counts(self, make, arg, p, expected):
        assert count_points(make(arg), p, 1).count == expected

    def test_engine_matches_naive_oracle(self):
        # X_4 has f(0) = 0; D_m at p = 1 (mod m) has all roots of x^m + 1
        # in F_p, so log-domain sums hit the zero code
        curves = [make_cd(2), make_cd(3), make_xd(2), make_xd(4), make_dm(5), make_dm(6)]
        cells = [(c, p, k) for c in curves for p in (3, 5, 7) for k in (1, 2)]
        cells += [(c, 3, k) for c in curves for k in (3, 4)]
        cells += [(c, 5, 3) for c in curves]
        cells += [
            (make_dm(m), p, k)
            for m, p in ((3, 7), (4, 5), (5, 11), (6, 7), (6, 13))
            for k in (1, 2)
        ]
        checked = 0
        for curve, p, k in cells:
            if not good_reduction(curve, p):
                continue
            fast = count_points(curve, p, k).count
            slow = count_points_naive(curve, p, k)
            assert fast == slow, (curve.label, p, k)
            checked += 1
        assert checked >= 50
        # F_3^2 = F_3[x]/(x^2 + 1) and F_5^2 = F_5[x]/(x^2 + 2): x has
        # order 4 and 8, so the tables use a generator other than x
        for p in (3, 5):
            field = field_tower(p, 2)
            assert _primitive_element(field) != field.gen()

    def test_zech_tables_against_scalar_arithmetic(self):
        p, k = 5, 2
        field = field_tower(p, k)
        g = _primitive_element(field)
        log, zech = _zech_tables(p, k)
        n = p**k - 1
        assert log[0] == _ZERO_LOG
        assert sorted(log[1:].tolist()) == list(range(n))
        index = {field.from_index(m): m for m in range(p**k)}
        for i in range(n):
            assert log[index[g**i]] == i
            one_plus = g**i + 1
            expected = _ZERO_LOG if one_plus == field.zero else log[index[one_plus]]
            assert zech[i] == expected, i

    def test_int32_table_guard(self):
        # 3^20 > 2^31: refused before any table is allocated
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="int32"):
                count_points(make_cd(2), 3, 20, cap=2**40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_tables_take_eight_bytes_per_element(self):
        # both fields span many chunks, so the chunk-sized temporaries are
        # the same and the difference in peak is the two int32 tables
        peaks = []
        for p in (29, 37):
            tracemalloc.start()
            try:
                count_points(make_dm(6), p, 4)
                peaks.append((p**4, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
        (q1, m1), (q2, m2) = peaks
        assert (m2 - m1) / (q2 - q1) < 9

    def test_engine_matches_naive_cubic_extension(self):
        assert count_points(make_cd(2), 3, 3).count == count_points_naive(make_cd(2), 3, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        field=st.sampled_from(
            [(p, k) for p in (3, 5, 7, 11, 13, 17, 19) for k in (1, 2, 3, 4, 5) if p**k <= 400]
            + [(23, 1), (101, 1), (397, 1)]
        ),
        coeffs=st.lists(st.integers(-30, 30), min_size=2, max_size=8),
    )
    def test_random_curves_match_naive_oracle(self, field, coeffs):
        p, k = field
        assume(coeffs[-1] != 0)
        f = UniPolynomial(ZZ, coeffs)
        assume(squarefree(f))
        curve = HyperellipticCurve(f)
        assume(good_reduction(curve, p))
        assert count_points(curve, p, k).count == count_points_naive(curve, p, k)

    def test_threads_do_not_change_the_count(self):
        curve = make_xd(2)
        # 5^7 = 78125 crosses the chunking threshold
        a = count_points(curve, 5, 7, threads=1).count
        b = count_points(curve, 5, 7, threads=2).count
        assert a == b

    def test_genus_zero_has_q_plus_one_points(self):
        line = HyperellipticCurve(UniPolynomial(ZZ, (2, 1)))
        for p, k in ((3, 1), (5, 2), (7, 3)):
            assert count_points(line, p, k).count == p**k + 1

    def test_bad_reduction_raises(self):
        with pytest.raises(BadReductionError):
            count_points(make_dm(3), 3)
        with pytest.raises(BadReductionError):
            count_points(make_cd(2), 2)

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            count_points(make_cd(2), 101, 4, cap=10**6)

    def test_point_count_record(self):
        rec = count_points(make_cd(2), 3, 1)
        assert (rec.curve, rec.p, rec.k, rec.count) == ("C_2", 3, 1, 2)


class TestLPolynomial:
    def test_frozen_c2(self):
        assert l_polynomial(make_cd(2), 3).coeffs == (1, -2, 3)
        assert l_polynomial(make_cd(2), 5).coeffs == (1, 0, 5)

    def test_frozen_c5_at_11(self):
        assert l_polynomial(make_cd(5), 11).coeffs == (1, -4, 6, -44, 121)

    def test_counts_round_trip_through_newton(self):
        for curve, p in ((make_cd(5), 7), (make_dm(6), 5)):
            lp = l_polynomial(curve, p)
            for k in (1, 2, 3):
                assert lp.point_count(k) == count_points(curve, p, k).count

    def test_genus_zero_gives_one(self):
        line = HyperellipticCurve(UniPolynomial(ZZ, (2, 1)))
        assert l_polynomial(line, 7).coeffs == (1,)

    def test_power_sums_frozen(self):
        lp = LPolynomial((1, -2, 3), 3)
        assert lp.power_sums(3) == [2, -2, -10]
        assert lp.point_count(1) == 2

    def test_functional_equation_violation_rejected(self):
        with pytest.raises(VerificationError):
            LPolynomial((1, 0, 7), 5)
        with pytest.raises(VerificationError):
            LPolynomial((2, 0, 10), 5)

    def test_root_modulus_violation_rejected(self):
        # 1 - 4T + 3T^2 = (1 - T)(1 - 3T) passes the functional equation
        # but has reciprocal roots 1 and 3, not on |alpha| = sqrt 3
        with pytest.raises(VerificationError):
            LPolynomial((1, -4, 3), 3)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            LPolynomial((1, 2), 3)

    def test_repeated_root_construction_is_accepted(self):
        # (1 + 3T^2)^2 has a double pair of reciprocal roots on the circle
        lp = LPolynomial((1, 0, 6, 0, 9), 3)
        assert lp.genus == 2

    def test_multiplication(self):
        a = LPolynomial((1, -2, 3), 3)
        b = LPolynomial((1, 0, 3), 3)
        assert (a * b).coeffs == (1, -2, 6, -6, 9)

    def test_serialize(self):
        assert l_polynomial(make_cd(2), 3).serialize() == {
            "q": 3,
            "genus": 1,
            "coefficients": ["1", "-2", "3"],
        }

    def test_repr(self):
        assert repr(LPolynomial((1, -2, 3), 3)) == "1 - 2*T + 3*T^2"

    def test_cap_respected(self):
        with pytest.raises(CapExceededError):
            l_polynomial(make_dm(14), 17)


class TestIrreducibility:
    def test_negative_discriminant_genus_one(self):
        assert lpoly_is_irreducible(l_polynomial(make_cd(2), 3)) == (True, None)

    def test_genus_two_irreducible(self):
        assert lpoly_is_irreducible(l_polynomial(make_cd(5), 11))[0]

    def _check_exact_factor(self, lp, factor):
        from chebcm.zeta import _exact_int_division

        assert factor is not None
        assert factor[0] == 1  # L-side divisor, constant term 1
        assert 0 < len(factor) - 1 < 2 * lp.genus  # proper
        _, exact = _exact_int_division(
            list(reversed(lp.coeffs)), list(reversed(factor))
        )
        assert exact

    def test_synthetic_product_detected(self):
        lp = LPolynomial((1, -2, 3), 3) * LPolynomial((1, 0, 3), 3)
        verdict, factor = lpoly_is_irreducible(lp)
        assert not verdict
        self._check_exact_factor(lp, factor)

    def test_square_detected_via_squarefree_precheck(self):
        lp = LPolynomial((1, 0, 6, 0, 9), 3)
        verdict, factor = lpoly_is_irreducible(lp)
        assert not verdict
        self._check_exact_factor(lp, factor)

    def test_rational_reciprocal_root_detected(self):
        # supersingular genus-1: 1 + 3T^2 = (1 - sqrt(-3)T)(1 + sqrt(-3)T)
        # has no rational factor; contrast with a product that does
        assert lpoly_is_irreducible(LPolynomial((1, 0, 3), 3)) == (True, None)


class TestSimplicity:
    def test_verdict_structure(self):
        out = simplicity_evidence(make_cd(3), (2, 3, 5))
        assert out["curve"] == "C_3"
        assert [v["p"] for v in out["verdicts"]] == [2, 3, 5]
        assert not out["verdicts"][0]["good_reduction"]
        assert not out["verdicts"][1]["good_reduction"]
        good = out["verdicts"][2]
        assert good["good_reduction"]
        assert good["lpolynomial"]["genus"] == 1
        assert out["evidence_simple"] == good["irreducible"]

    def test_c2_simple_already_at_3(self):
        assert simplicity_evidence(make_cd(2), (3,))["evidence_simple"]


class TestRemark:
    def test_frozen_equalities_d3(self):
        for q in (5, 7, 13):
            r = remark_lpolys(3, q)
            assert r["curves_agree"], q
            assert r["product_ok"], q
            assert r["l_d2d"] == r["l_dd"] * r["l_cd"]
        assert remark_isogeny_check(3, 7)

    def test_bad_reduction_rejected(self):
        with pytest.raises(BadReductionError):
            remark_lpolys(3, 3)

    def test_composite_d_rejected(self):
        with pytest.raises(ValueError):
            remark_lpolys(4, 5)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            remark_lpolys(7, 17)


def test_c2_trace_pattern_small():
    assert cm_trace_pattern_c2(60)
