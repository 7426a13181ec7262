import json
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebcm.algebra import (
    ZZ,
    ExtensionField,
    UniPolynomial,
    field_tower,
    squarefree,
)
from chebcm import zeta
from chebcm.chebyshev import is_prime
from chebcm.curves import HyperellipticCurve, VerificationError, make_cd, make_dm, make_xd
from chebcm.zeta import (
    COUNT_CAP,
    BadReductionError,
    CapExceededError,
    LPolynomial,
    cm_trace_pattern_c2,
    count_points,
    count_points_naive,
    good_reduction,
    l_polynomial,
    lpoly_is_irreducible,
    remark_lpolys,
)
from chebcm.zeta import (
    _ZERO_LOG,
    _factor_degrees_mod,
    _PROOF_PATIENCE,
    _primitive_modulus,
    _proves_irreducible,
    _sturm_chain,
    _subset_scan,
    _weil_interval_ok,
    _zech,
    _zech_tables,
)

# the encodings and the brute-force divisor test behind field_tower's tests
from test_algebra import SMALL_TOWERS, _encoding, _has_monic_divisor


def _odd_primes(bound):
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


def _reciprocal_from_h(lp):
    """T^g h(T + q/T) = sum_j h_j (T^2 + q)^j T^(g-j), low degree first."""
    g = lp.genus
    t = UniPolynomial(ZZ, (0, 1))
    base = UniPolynomial(ZZ, (lp.q, 0, 1))
    out = UniPolynomial(ZZ, ())
    for j, c in enumerate(lp.real_weil_polynomial()):
        out = out + base**j * t ** (g - j) * c
    return tuple(out.coeffs)


def _report_lpolys():
    """L(C_d, q) as the report's zeta claim takes it, for d <= 16."""
    out = []
    for d in (2, 3, 4, 5, 7, 8, 11, 13, 16):
        curve = make_cd(d)
        q = next(
            q
            for q in _odd_primes(50)
            if good_reduction(curve, q) and q**curve.genus <= COUNT_CAP
        )
        out.append(l_polynomial(curve, q))
    return out


def _criterion_10_lpolys():
    """Every L that acceptance criterion 10 computes."""
    out = []
    for d in (2, 4, 8, 3, 5, 7):
        curve = make_cd(d)
        for q in _odd_primes(50):
            if not good_reduction(curve, q) or q**curve.genus > COUNT_CAP:
                continue
            lp = l_polynomial(curve, q)
            out.append(lp)
            if lpoly_is_irreducible(lp)[0]:
                break
    return out


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

    def test_matches_generic_squarefree(self):
        curves = [make_cd(d) for d in (2, 3, 4, 5, 7, 8, 11, 13, 16)]
        curves += [make_dm(m) for m in range(3, 27)]
        curves += [make_xd(d) for d in (2, 4, 8, 16)]
        # leading coefficients 3 and 10 vanish mod 3 and mod 2, 5
        curves += [HyperellipticCurve(UniPolynomial(ZZ, (1, 1, 0, 3)))]
        curves += [HyperellipticCurve(UniPolynomial(ZZ, (1, 0, 2, 0, 0, 10)))]
        derivative_vanishes = 0
        for curve in curves:
            for p in _odd_primes(100):
                fp = UniPolynomial(field_tower(p, 1), [int(c) for c in curve.f.coeffs])
                expected = fp.degree == curve.f.degree and squarefree(fp)
                assert good_reduction(curve, p) == expected, (curve.label, p)
                derivative_vanishes += fp.derivative().is_zero()
        # e.g. D_3 at p = 3: x^3 + 1 has derivative 3x^2 = 0
        assert not good_reduction(make_dm(3), 3)
        assert derivative_vanishes >= 5


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
        # X_d has f(0) = 0, so it stays in the log domain; D_m at p = 1
        # (mod m) has all roots of x^m + 1 in F_p, so its sums hit zeros
        curves = [make_cd(2), make_cd(3), make_dm(5), make_dm(6)]
        curves += [make_xd(2), make_xd(4), make_xd(8)]
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
        # order 4 and 8, so the tables and the oracle use different moduli
        for p in (3, 5):
            assert _primitive_modulus(p, 2) != field_tower(p, 2).modulus_coeffs

    def test_zech_tables_against_scalar_arithmetic(self):
        # the contract does not depend on how the tables index elements:
        # for g = x modulo the engine's modulus, g^log[c] = c for c in F_p^*
        # and g^zech[i] = 1 + g^i, by ExtensionField arithmetic; the build
        # needs no special case at k = 1, where x = -m_0 in F_p
        for p, k in ((5, 2), (3, 4), (7, 3), (11, 1)):
            field = ExtensionField(p, k, _primitive_modulus(p, k))
            g = field.gen()
            log, index = _zech_tables(p, k)
            n = p**k - 1
            zech = _zech(log, index, np.arange(n), p)
            assert (log[index] == np.arange(n)).all()
            assert log[0] == _ZERO_LOG
            assert sorted(log[1:].tolist()) == list(range(n))
            for c in range(1, p):
                assert g ** int(log[c]) == field(c), (p, k, c)
            power = field.one
            for i in range(n):
                if zech[i] == _ZERO_LOG:
                    assert power + 1 == field.zero, (p, k, i)
                else:
                    assert g ** int(zech[i]) == power + 1, (p, k, i)
                power = power * g

    def test_jump_reduces_before_int32_overflow(self):
        # near the k = 2 limit, p^2 < 2^31, one term (p - 1)^2 fits int32
        # but two do not, so _jump must reduce between them; the oracle is
        # Python ints
        p = 46337
        s = np.random.default_rng(5).integers(0, p, 1000).astype(np.int32)
        s[:3] = p - 1
        a = [p - 1, p - 2]
        out, scratch = np.empty((2, 999), dtype=np.int32)
        zeta._jump(s, a, p, out, scratch)
        expected = [(a[0] * int(s[t]) + a[1] * int(s[t + 1])) % p for t in range(999)]
        assert out.tolist() == expected

    def test_primitive_modulus_search(self):
        # brute force: x has order exactly p^k - 1 modulo m, m is
        # irreducible, and every smaller encoding fails one of the two
        def order_of_x(m, p):
            k, n = len(m) - 1, p ** (len(m) - 1) - 1
            power = [1] + [0] * (k - 1)
            for i in range(1, n + 1):
                top = power[-1]
                power = [0] + power[:-1]
                power = [(c - top * mc) % p for c, mc in zip(power, m)]
                if power == [1] + [0] * (k - 1):
                    return i
            return None

        for p, k in SMALL_TOWERS:
            chosen = _primitive_modulus(p, k)
            assert len(chosen) == k + 1 and chosen[-1] == 1
            assert order_of_x(chosen, p) == p**k - 1, (p, k)
            assert not _has_monic_divisor(chosen, p), (p, k)
            for m in range(p**k):
                f = _encoding(m, p, k)
                if tuple(f) == chosen:
                    break
                assert _has_monic_divisor(f, p) or order_of_x(f, p) != p**k - 1, (p, k, m)

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

    def test_squares_table_guard(self):
        # p = 2147483659 > 2^31 at k = 1: no int32 table is involved, the
        # p-byte squares table is what is refused, before it is allocated
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="p-byte squares table"):
                count_points(make_cd(2), 2147483659, 1, cap=2**40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_guards_refuse_before_the_workspace(self):
        # in a thread that has not counted yet, a refusal does not build
        # that thread's chunk rows (4 x 512 KB) either
        def peaks():
            out = []
            for p, k, match in ((3, 20, "int32"), (2147483659, 1, "squares table")):
                tracemalloc.start()
                try:
                    with pytest.raises(CapExceededError, match=match):
                        count_points(make_cd(2), p, k, cap=2**40)
                    out.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return out

        with ThreadPoolExecutor(1) as pool:
            assert max(pool.submit(peaks).result()) < 1 << 20

    def test_chunk_workspace_is_reused(self):
        # after a first count near _CHUNK, the next one allocates only the
        # p-byte squares table and two bool masks of a chunk: no int64 rows
        curve = make_cd(2)
        count_points(curve, 65519)
        tracemalloc.start()
        try:
            count_points(curve, 65497)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 65497 < 4

    def test_threads_count_like_a_sequential_run(self):
        # each thread counts in its own chunk rows: three threads (more than
        # a 2-CPU machine has cores) counting the same fields at once, most
        # of them several chunks long, in different orders and with a short
        # switch interval, get the counts of one thread
        curves = (make_cd(2), make_cd(5), make_dm(6))
        cells = [
            (curve, p)
            for curve in curves
            for p in (101, 65537, 131071, 196613)
            if good_reduction(curve, p)
        ] * 2
        expected = {i: count_points(*cell).count for i, cell in enumerate(cells)}
        shuffled = list(expected)
        random.Random(12).shuffle(shuffled)
        orders = (list(expected), list(reversed(expected)), shuffled)
        start = threading.Barrier(len(orders))

        def run(order):
            start.wait(timeout=60)
            return {i: count_points(*cells[i]).count for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(orders)) as pool:
                for future in [pool.submit(run, order) for order in orders]:
                    assert future.result(timeout=120) == expected
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _peak_bytes_per_element(curve):
        # both fields span many chunks, so the chunk-sized temporaries are
        # the same and the difference in peak is the per-field tables
        peaks = []
        for p in (29, 37):
            tracemalloc.start()
            try:
                count_points(curve, p, 4)
                peaks.append((p**4, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
        (q1, m1), (q2, m2) = peaks
        return (m2 - m1) / (q2 - q1)

    def test_tables_take_eight_bytes_per_element(self):
        # the log domain (X_2 = x + x^5, f(0) = 0): two int32 tables
        assert self._peak_bytes_per_element(make_xd(2)) < 9

    def test_binomial_tables_take_five_bytes_per_element(self):
        # D_6: the int32 index table and the q-byte squares bitmap
        assert self._peak_bytes_per_element(make_dm(6)) < 6

    def test_binomials_match_naive_oracle(self):
        # a x^m + b x^e on every F_(p^k), k >= 2, p^k <= 3000; the engine
        # sums one period n/G of i, n = p^k - 1 and G = gcd(n, m, e).  b is
        # a non-residue mod p, so a non-square constant when k is odd;
        # x^(m+1) + b x (on the fields below 1000, to bound the oracle's
        # time) is the X_d shape, with f(0) = 0; x^n + 1 (D_8 over F_3^2)
        # has m = 0 mod n, so the period is 1
        checked = 0
        for p in _odd_primes(54):  # p^2 <= 3000
            for k in range(2, 8):
                if p**k > 3000:
                    break
                n = p**k - 1
                b = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
                m = max(range(3, 7), key=lambda m: (gcd(n, m), -m))
                # each binomial as {exponent: coefficient}
                shapes = [{0: b, m: 2}] + [{1: b, m + 1: 1}] * (n < 1000)
                shapes += [{0: 1, n: 1}] * (n < 30)
                for terms in shapes:
                    coeffs = [terms.get(e, 0) for e in range(max(terms) + 1)]
                    curve = HyperellipticCurve(UniPolynomial(ZZ, coeffs))
                    if not good_reduction(curve, p):
                        continue
                    fast = count_points(curve, p, k).count
                    assert fast == count_points_naive(curve, p, k), (terms, p, k)
                    checked += 1
        assert checked >= 40

    def test_zech_lookups_only_where_the_count_reads(self, monkeypatch):
        # over F_7^2 (n = 48): x^6 + 1 and x^8 + 1 build no int32 log table
        # and add 1 to index entries at n/G = 8 and 6 positions only; C_3,
        # with more terms, builds the log table once and rewrites all n
        build, add_one = zeta._zech_tables, zeta._add_one
        builds, sizes = [], []

        def spy_build(p, k):
            builds.append((p, k))
            return build(p, k)

        def spy_add_one(idx, p):
            sizes.append(len(idx))
            return add_one(idx, p)

        monkeypatch.setattr(zeta, "_zech_tables", spy_build)
        monkeypatch.setattr(zeta, "_add_one", spy_add_one)
        for curve, tables, positions in (
            (make_dm(6), 0, 8),
            (make_dm(8), 0, 6),
            (make_cd(3), 1, 48),
        ):
            builds.clear()
            sizes.clear()
            count_points(curve, 7, 2)
            assert (len(builds), sum(sizes)) == (tables, positions), curve.label

    def test_counts_are_python_ints(self):
        # PointCount.count is an int on every route, so a count serializes
        for curve, p, k in (
            (make_dm(5), 11, 1),
            (make_dm(5), 11, 2),
            (make_cd(3), 7, 2),
            (make_xd(2), 5, 3),
        ):
            count = count_points(curve, p, k).count
            assert type(count) is int, (curve.label, p, k)
            assert json.loads(json.dumps(count)) == count

    def test_binomial_route_matches_naive_oracle(self):
        # c0 + c1 x^e over every F_(p^k), k = 2..6, p^k <= 3000: seeded
        # binomials whose c0 and c1/c0 are non-squares mod p (so not 1, and
        # chi(c0) = -1 when k is odd), one with e prime to n = p^k - 1 and
        # one with gcd(n, e) > 1, and D_m on the fields below 1000 (to
        # bound the oracle's time)
        rng = random.Random(13)
        checked = 0
        for p in _odd_primes(54):
            for k in range(2, 7):
                if p**k > 3000:
                    break
                n = p**k - 1
                nonsquares = [c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1]
                exps = [e for e in range(3, 13) if e % p]
                coprime = rng.choice([e for e in exps if gcd(n, e) == 1])
                shared = rng.choice([e for e in exps if gcd(n, e) > 1])
                curves = [make_dm(rng.choice((4, 6, 9)))] * (n < 1000)
                for e in (coprime, shared):
                    c0, ratio = rng.choice(nonsquares), rng.choice(nonsquares)
                    coeffs = [c0] + [0] * (e - 1) + [c0 * ratio % p]
                    curves.append(HyperellipticCurve(UniPolynomial(ZZ, coeffs)))
                for curve in curves:
                    if not good_reduction(curve, p):
                        continue
                    fast = count_points(curve, p, k).count
                    assert fast == count_points_naive(curve, p, k), (curve.f, p, k)
                    checked += 1
        assert checked >= 60

    def test_binomial_route_matches_log_domain_engine(self):
        # the largest fields of the isogeny grid, and a binomial with a
        # non-square constant over an odd-degree extension, against the
        # log-domain engine called directly on the same coefficients
        cells = [(make_dm(10), 43, 4), (make_dm(14), 11, 6), (make_dm(7), 5, 7)]
        cells.append((HyperellipticCurve(UniPolynomial(ZZ, [3, 0, 0, 0, 0, 0, 2])), 7, 5))
        for curve, p, k in cells:
            coeffs = [c % p for c in curve.f.coeffs]
            fast = zeta._binomial_count(coeffs[0], coeffs[-1], len(coeffs) - 1, p, k)
            assert fast == zeta._affine_count_extension(coeffs, p, k), (curve.f, p, k)

    def test_horner_reduces_partway_matches_naive(self):
        # p^(deg+1) >= 2^63, so the k = 1 Horner must reduce mod p inside
        # its loop, not only at the end; p = 1 (mod 52) puts the roots of
        # x^26 + 1 in F_p, and the degree-10 f has no zero coefficient
        rng = random.Random(10)
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(11)]
        random_f = HyperellipticCurve(UniPolynomial(ZZ, coeffs))
        assert squarefree(random_f.f)
        for curve in (make_dm(26), random_f):
            for p in (1093, 2029, 4993):
                assert p ** (curve.f.degree + 1) >= 2**63
                assert good_reduction(curve, p), (curve.label, p)
                fast = count_points(curve, p, 1).count
                assert fast == count_points_naive(curve, p), (curve.label, p)

    def test_horner_reduces_partway_over_several_chunks(self):
        # 196,613 > 3 * 2^16: four chunks, and p^3 (p - 1) >= 2^63 forces
        # a reduction before the third Horner step, which negative
        # coefficients (near p once reduced) would really overflow; the
        # oracle is Euler's criterion over Python ints
        coeffs, p = [7, -3, -1, -5, -2], 196613
        curve = HyperellipticCurve(UniPolynomial(ZZ, coeffs))
        assert p ** (curve.f.degree + 1) >= 2**63 and p > 3 << 16
        assert good_reduction(curve, p)
        affine = 0
        for x in range(p):
            v = sum(c * pow(x, e, p) for e, c in enumerate(coeffs)) % p
            affine += 1 if v == 0 else 2 * (pow(v, (p - 1) // 2, p) == 1)
        expected = affine + (2 if pow(-2 % p, (p - 1) // 2, p) == 1 else 0)
        assert count_points(curve, p, 1).count == expected

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

    def test_chunked_count_matches_lpolynomial(self):
        # 11^5 = 161,051 elements span three 2^16 chunks; L(C_5, 11) is
        # built from the counts over F_11 and F_121 alone
        curve = make_cd(5)
        n5 = count_points(curve, 11, 5).count
        assert n5 == l_polynomial(curve, 11).point_count(5) == 161448
        # the Zech tables' recurrence jumps across chunks at k = 2, 6, 8:
        # F_401^2 (160,801 elements), F_7^6 (117,649) and F_5^8 (390,625)
        for curve, p, k in ((make_cd(2), 401, 2), (curve, 7, 6), (make_cd(3), 5, 8)):
            assert p**k > 1 << 16
            count = count_points(curve, p, k).count
            assert count == l_polynomial(curve, p).point_count(k), (curve.label, p, k)

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
        # h = x -+ 7 has its root just outside [-2 sqrt 9, 2 sqrt 9]
        for b1 in (-7, 7):
            with pytest.raises(VerificationError):
                LPolynomial((1, b1, 9), 9)
        # 1 + 7T^2 + 9T^4 has h = x^2 + 1, whose roots are not real
        with pytest.raises(VerificationError):
            LPolynomial((1, 0, 7, 0, 9), 3)

    def test_roots_at_the_interval_ends_accepted(self):
        # h = x - 6 and x + 6: alpha = +-3 = +-sqrt 9, double roots of L
        for b1 in (-6, 6):
            lp = LPolynomial((1, b1, 9), 9)
            assert lp.real_weil_polynomial() == (b1, 1)
        # h = (x - 2 sqrt 3)(x + 2 sqrt 3) = x^2 - 12: both ends at once
        assert LPolynomial((1, 0, -6, 0, 9), 3).real_weil_polynomial() == (-12, 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 4, 5, 9]),
        roots=st.lists(st.integers(-7, 7), max_size=4),
        quadratics=st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 6)), max_size=2),
    )
    def test_weil_interval_against_known_roots(self, q, roots, quadratics):
        # h with integer roots (repeats allowed) and factors x^2 + bx + c
        # of negative discriminant, so non-real roots
        h = UniPolynomial(ZZ, (1,))
        for r in roots:
            h = h * UniPolynomial(ZZ, (-r, 1))
        for b, e in quadratics:
            h = h * UniPolynomial(ZZ, (b * b // 4 + e, b, 1))
        assume(h.degree >= 1)
        expected = not quadratics and all(r * r <= 4 * q for r in roots)
        assert _weil_interval_ok(h.coeffs, q) == expected

    def test_sturm_chain_sign_after_a_degree_gap(self):
        # x^4 + 3x: f' = 4x^3 + 3, -rem(f, f') = -9x/4, -rem(f', -9x/4) = -3;
        # the last step divides by a negative leading coefficient across
        # a gap of two degrees, so its pseudo-division multiplier is negative
        assert _sturm_chain([0, 3, 0, 0, 1]) == [[0, 3, 0, 0, 1], [3, 0, 0, 4], [0, -1], [-1]]

    def test_weil_check_uses_no_floats(self, monkeypatch):
        def no_roots(*args, **kwargs):
            raise AssertionError("np.roots called")

        monkeypatch.setattr(np, "roots", no_roots)
        assert l_polynomial(make_cd(5), 11).coeffs == (1, -4, 6, -44, 121)
        LPolynomial((1, 0, 6, 0, 9), 3)  # repeated roots
        r = remark_lpolys(3, 7)
        assert r["l_d2d"] == r["l_dd"] * r["l_cd"]
        with pytest.raises(VerificationError):
            LPolynomial((1, -4, 3), 3)

    def test_real_weil_polynomial_identity(self):
        # T^(2g) L(1/T) = T^g h(T + q/T) on every L criterion 10 computes
        lps = _criterion_10_lpolys()
        assert len(lps) >= 6
        for lp in lps:
            h = lp.real_weil_polynomial()
            assert len(h) == lp.genus + 1 and h[-1] == 1
            assert _reciprocal_from_h(lp) == tuple(reversed(lp.coeffs)), lp

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

    def test_repeated_factor_has_constant_term_one(self):
        # (1 - 3T)^2 over F_9: gcd(L, L') = 1 - 3T, whose leading
        # coefficient is negative
        assert lpoly_is_irreducible(LPolynomial((1, -6, 9), 9)) == (False, [1, -3])
        lp = LPolynomial((1, 6, 15, 18, 9), 3)  # (1 + 3T + 3T^2)^2
        assert lpoly_is_irreducible(lp) == (False, [1, 3, 3])

    def test_rational_reciprocal_root_detected(self):
        # supersingular genus-1: 1 + 3T^2 = (1 - sqrt(-3)T)(1 + sqrt(-3)T)
        # has no rational factor; contrast with a product that does
        assert lpoly_is_irreducible(LPolynomial((1, 0, 3), 3)) == (True, None)

    def test_real_weil_proof_decides_alone(self, monkeypatch):
        lps = _report_lpolys()
        # C_7 at q = 3 is the one reducible L of the report; the scan finds
        # its factor
        c7 = lps[4]
        assert (c7.genus, c7.q) == (3, 3)
        assert lpoly_is_irreducible(c7) == (False, [1, 3, 3])

        def no_scan(lp):
            raise AssertionError("fallback scan called")

        monkeypatch.setattr("chebcm.zeta._subset_scan", no_scan)
        irreducible = [lp for lp in lps if lp is not c7]
        irreducible.append(l_polynomial(make_cd(23), 3))
        assert max(lp.genus for lp in irreducible) == 11
        for lp in irreducible:
            assert lpoly_is_irreducible(lp) == (True, None), lp

    def test_factor_degrees_mod(self):
        # x^2 - 6: split mod 5 (6 = 1), irreducible mod 7 (6 = -1), and
        # repeated mod 2 and 3
        h = (-6, 0, 1)
        assert _factor_degrees_mod(h, 5) == [1, 1]
        assert _factor_degrees_mod(h, 7) == [2]
        assert _factor_degrees_mod(h, 2) is None
        assert _factor_degrees_mod(h, 3) is None
        # (x^2 + 1)(x^3 + 2x + 1)(x - 1)(x - 2) mod 3
        f = UniPolynomial(ZZ, (1, 0, 1)) * UniPolynomial(ZZ, (1, 2, 0, 1))
        f = f * UniPolynomial(ZZ, (-1, 1)) * UniPolynomial(ZZ, (-2, 1))
        assert _factor_degrees_mod(tuple(f.coeffs), 3) == [1, 1, 2, 3]

    def test_proof_gives_up_after_a_run_of_stalled_primes(self, monkeypatch):
        # scripted factor degrees of a quartic h, one list per prime: None
        # (h mod l not squarefree) is skipped, [1, 1, 1, 1] rules out
        # nothing, [1, 3] rules out 2 and [2, 2] then rules out 1 and 3
        def proves(script):
            degrees = iter(script)
            monkeypatch.setattr(
                "chebcm.zeta._factor_degrees_mod", lambda h, ell: next(degrees)
            )
            return _proves_irreducible((0, 0, 0, 0, 1))

        stall, run = [1, 1, 1, 1], _PROOF_PATIENCE
        # stalls count only in a row, and unusable primes do not count
        assert proves([stall] * (run - 1) + [[1, 3]] + [stall] * (run - 1) + [[2, 2]])
        assert proves([stall] * (run - 1) + [None] * 5 + [[1, 3], [2, 2]])
        assert not proves([[1, 3]] + [stall] * run + [[2, 2]])

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        b=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
    )
    def test_proof_never_claims_a_product(self, a, b):
        # a product of two monic integer polynomials is never "proved"
        # irreducible, and the factor degrees mod l always sum to the degree
        f = UniPolynomial(ZZ, a + [1]) * UniPolynomial(ZZ, b + [1])
        h = tuple(f.coeffs)
        assert not _proves_irreducible(h)
        for ell in (2, 3, 5, 7):
            degrees = _factor_degrees_mod(h, ell)
            if degrees is not None:
                assert sum(degrees) == len(h) - 1

    def test_verdicts_match_the_subset_scan(self):
        # C_d, D_m and X_d at good primes, g <= 6: the proof and the scan
        # agree on every squarefree L
        curves = [make_cd(d) for d in (2, 3, 4, 5, 7, 8, 11, 13)]
        curves += [make_dm(m) for m in range(3, 14)]
        curves += [make_xd(d) for d in (2, 4)]
        cells, verdicts = 0, set()
        for curve in curves:
            g = curve.genus
            for q in _odd_primes(31):
                if g > 6 or q**g > 5 * 10**4 or not good_reduction(curve, q):
                    continue
                lp = l_polynomial(curve, q)
                verdict = lpoly_is_irreducible(lp)
                if squarefree(UniPolynomial(ZZ, lp.coeffs)):
                    assert verdict == _subset_scan(lp), (curve.label, q)
                    assert _reciprocal_from_h(lp) == tuple(reversed(lp.coeffs))
                verdicts.add(verdict[0])
                cells += 1
        assert cells >= 100 and verdicts == {True, False}


class TestSimplicity:
    def test_verdict_structure(self):
        c3 = make_cd(3)
        assert [good_reduction(c3, q) for q in (2, 3, 5)] == [False, False, True]
        lp = l_polynomial(c3, 5)
        assert lp.serialize()["genus"] == 1
        irreducible, factor = lpoly_is_irreducible(lp)
        assert irreducible == (factor is None)

    def test_c2_simple_already_at_3(self):
        c2 = make_cd(2)
        assert good_reduction(c2, 3)
        assert lpoly_is_irreducible(l_polynomial(c2, 3))[0]


class TestRemark:
    def test_frozen_equalities_d3(self):
        for q in (5, 7, 13):
            r = remark_lpolys(3, q)
            assert r["curves_agree"], q
            assert r["product_ok"], q
            assert r["l_d2d"] == r["l_dd"] * r["l_cd"]

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


def test_c2_trace_pattern_refuses_cap_before_counting(monkeypatch):
    # the primes are known up front: a bound past the cap is refused before
    # the first count, not after counting every prime below the cap
    calls = []
    monkeypatch.setattr(zeta, "count_points", lambda *a, **kw: calls.append(a))
    with pytest.raises(CapExceededError):
        cm_trace_pattern_c2(10**6, cap=100)
    assert calls == []
