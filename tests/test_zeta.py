import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import gcd, isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chebcm.algebra import (
    UniPolynomial,
    _berlekamp_massey,
    _mulmod,
    _powmod,
    _reduce_mod,
    field_tower,
    squarefree,
)
from chebcm import zeta
from chebcm.chebyshev import classify_d, is_prime
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
    _possible_degrees,
    _primitive_modulus,
    _sturm_chain,
    _weil_interval_ok,
    _zech_tables,
)

# the encodings and the brute-force divisor test behind field_tower's tests
from test_algebra import SMALL_TOWERS, _encoding, _has_monic_divisor
from oracles import count_points_euler, count_points_euler_int64, gcd_mod, primitive_modulus, subset_scan


def _odd_primes(bound):
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


class _IntegerNumpy:
    """numpy for zeta, failing any call that returns a non-integer array or
    combines a uint64 value with a signed one; calls holds (name, dtypes of
    the arrays returned)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def signed(a):
            if isinstance(a, (np.ndarray, np.generic)):
                return a.dtype.kind == "i"
            return isinstance(a, int) and a < 0

        def checked(*args, **kwargs):
            values = list(args) + list(kwargs.values())
            if any(getattr(a, "dtype", None) == np.uint64 for a in values):
                assert not any(signed(a) for a in values), (name, args)
            out = attr(*args, **kwargs)
            outs = out if isinstance(out, tuple) else (out,)
            arrays = [a for a in outs if isinstance(a, (np.ndarray, np.generic))]
            assert all(a.dtype.kind in "biu" for a in arrays), (name, [a.dtype for a in arrays])
            self.calls.append((name, [a.dtype for a in arrays]))
            return out

        return checked


def _run_recurrence(char, first, p, n):
    """n terms of the sequence with monic characteristic polynomial char
    (low degree first) that starts with first, in Python ints."""
    s, L = list(first), len(char) - 1
    while len(s) < n:
        s.append(-sum(a * x for a, x in zip(char[:L], s[len(s) - L :])) % p)
    return s[:n]


def _order_of_x(m, p):
    """The multiplicative order of x modulo the monic m of degree k (low
    degree first) over F_p, by stepping x^i one shift at a time; None
    when x^i never returns to 1 for i <= p^k - 1."""
    k, n = len(m) - 1, p ** (len(m) - 1) - 1
    power = [1] + [0] * (k - 1)
    for i in range(1, n + 1):
        top = power[-1]
        power = [0] + power[:-1]
        power = [(c - top * mc) % p for c, mc in zip(power, m)]
        if power == [1] + [0] * (k - 1):
            return i
    return None


def _forget_fields():
    """Drop the one-chunk index rows that zeta keeps per process, so that
    the next count builds them."""
    zeta._index_rows.clear()


def _index(p, k):
    """The whole int32 index of F_(p^k), index(g^i) at i, from its chunks."""
    return np.concatenate([idx.copy() for _, idx in zeta._index_chunks(p, k)])


def _spy_routes(monkeypatch):
    """The coset-sum routes that _binomial_count takes, in call order."""
    routes = []
    for name in ("norms", "bitmap"):
        route = getattr(zeta, f"_coset_sum_from_{name}")

        def spy(*args, name=name, route=route):
            routes.append(name)
            return route(*args)

        monkeypatch.setattr(zeta, f"_coset_sum_from_{name}", spy)
    return routes


def _reciprocal_from_h(lp):
    """T^g h(T + q/T) = sum_j h_j (T^2 + q)^j T^(g-j), low degree first."""
    g = lp.genus
    t = UniPolynomial((0, 1))
    base = UniPolynomial((lp.q, 0, 1))
    out = UniPolynomial(())
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

    @staticmethod
    def _oracle_curves():
        curves = [make_cd(d) for d in range(2, 65) if classify_d(d)]
        curves += [make_dm(m) for m in range(3, 33)]
        curves += [make_xd(d) for d in (2, 4, 8, 16)]
        # leading coefficients 3 and 10 vanish mod 3 and mod 2, 5
        curves += [HyperellipticCurve(UniPolynomial((1, 1, 0, 3)))]
        curves += [HyperellipticCurve(UniPolynomial((1, 0, 2, 0, 0, 10)))]
        rng = random.Random(18)
        randoms = []
        while len(randoms) < 50:
            degree = rng.randint(1, 12)
            f = UniPolynomial([rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2, 6])])
            if squarefree(f):
                randoms.append(HyperellipticCurve(f))
        return curves + randoms

    def test_matches_generic_squarefree(self):
        # every prime below 500 and every prime factor below 10^4 of
        # lc(f) disc(f), so that each bad prime in range is reached
        small_primes = [p for p in range(2, 10**4) if is_prime(p)]
        derivative_vanishes = bad = bad_above_500 = 0
        for curve in self._oracle_curves():
            f = curve.f.coeffs
            lc_disc = zeta._lc_discriminant(f)
            assert lc_disc != 0, curve.label
            primes = {p for p in small_primes if p < 500 or lc_disc % p == 0}
            for p in sorted(primes - {2}):
                df = [i * c % p for i, c in enumerate(f)][1:]
                # squarefree over F_p: a constant gcd(f, f'), by Euclid
                expected = f[-1] % p != 0 and len(gcd_mod(f, df, p)) == 1
                assert good_reduction(curve, p) == expected, (curve.label, p)
                derivative_vanishes += not any(df)
                bad += not expected
                bad_above_500 += not expected and p > 500
        # e.g. D_3 at p = 3: x^3 + 1 has derivative 3x^2 = 0
        assert not good_reduction(make_dm(3), 3)
        assert derivative_vanishes >= 5
        assert bad >= 150 and bad_above_500 >= 15, (bad, bad_above_500)

    def test_lc_discriminant_known_values(self):
        # lc disc(a x^2 + b x + c) = a (b^2 - 4ac); x^3 + a x + b has
        # disc -4a^3 - 27b^2; a linear f has disc 1
        assert zeta._lc_discriminant((1, 0, 1)) == -4
        assert zeta._lc_discriminant((1, 3, 2)) == 2 * (9 - 8)
        assert zeta._lc_discriminant((5, -1, 0, 1)) == -4 * -1 - 27 * 25
        assert zeta._lc_discriminant((5, 3)) == 3
        # (x + 2)(x^2 - 2): disc(gh) = disc(g) disc(h) Res(g, h)^2 = 1 * 8 * 2^2
        assert zeta._lc_discriminant(make_cd(2).f.coeffs) == 32
        # a repeated root gives 0
        assert zeta._lc_discriminant((1, 2, 1)) == 0

    def test_non_primes_are_never_good(self):
        curve = make_cd(2)
        for p in (2, 1, 0, -1, -3, -7, 9, 15, 25, 49, 91, 3 * 5 * 7, 3**10, 101 * 103):
            assert not good_reduction(curve, p), p

    def test_lc_discriminant_once_per_curve(self):
        curves = [make_cd(5), make_dm(7), make_xd(4)]
        primes = _odd_primes(200)
        zeta._lc_discriminant.cache_clear()
        for p in primes:
            for curve in curves:
                good_reduction(curve, p)
        info = zeta._lc_discriminant.cache_info()
        assert (info.misses, info.hits) == (len(curves), len(curves) * (len(primes) - 1))


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
        assert count_points(make(arg), p, 1) == expected

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
            fast = count_points(curve, p, k)
            slow = count_points_naive(curve, p, k)
            assert fast == slow, (curve.label, p, k)
            checked += 1
        assert checked >= 50
        # F_3^2 = F_3[x]/(x^2 + 1) and F_5^2 = F_5[x]/(x^2 + 2): x has
        # order 4 and 8, so the tables and the oracle use different moduli
        for p in (3, 5):
            assert _primitive_modulus(p, 2) != field_tower(p, 2)

    def test_zech_tables_against_scalar_arithmetic(self):
        # the contract does not depend on how the tables index elements:
        # for g = x modulo the engine's modulus, g^log[c] = c for c in F_p^*
        # and g^zech[i] = 1 + g^i, by _powmod and _mulmod modulo m; the
        # build needs no special case at k = 1, where x = -m_0 in F_p
        for p, k in ((5, 2), (3, 4), (7, 3), (11, 1)):
            m = _primitive_modulus(p, k)
            g = [0, 1]
            log, zech = _zech_tables(p, k)
            index = _index(p, k)
            n = p**k - 1
            assert (log[index] == np.arange(n)).all()
            assert log[0] == _ZERO_LOG
            assert sorted(log[1:].tolist()) == list(range(n))
            for c in range(1, p):
                assert _powmod(g, int(log[c]), m, p) == [c], (p, k, c)
            power = [1]
            for i in range(n):
                one_plus = _reduce_mod([power[0] + 1] + power[1:], p)
                if zech[i] == _ZERO_LOG:
                    assert one_plus == [], (p, k, i)
                else:
                    assert _powmod(g, int(zech[i]), m, p) == one_plus, (p, k, i)
                power = _mulmod(power, g, m, p)

    def test_jump_reduces_before_int32_overflow(self):
        # 3137 is the largest prime with p^2 <= COUNT_CAP, so a jump of a
        # sequence of F_3137^2 sums the largest terms that any counted field
        # gives, up to L = 2^2 (the norms) of up to (p - 1)^2, in int32 and
        # reduces once; the oracle is Python ints.  L (p - 1)^2 < 2^31 for
        # every L <= 2^f and in-cap p^f, f >= 2
        p = 3137
        assert is_prime(p) and p**2 <= COUNT_CAP
        assert not any(is_prime(q) for q in range(p + 1, isqrt(COUNT_CAP) + 1))
        for f in range(2, 15):
            top = max(p for p in range(3, isqrt(COUNT_CAP) + 1) if p**f <= COUNT_CAP)
            assert 2**f * (top - 1) ** 2 < 2**31, f
        s = np.random.default_rng(5).integers(0, p, 1000).astype(np.int32)
        s[:5] = p - 1
        for a in ([p - 1, p - 2], [p - 1, p - 2, p - 1, p - 3]):
            out, scratch = np.empty((2, 1001 - len(a)), dtype=np.int32)
            zeta._jump(s, a, p, out, scratch)
            expected = [sum(c * int(s[t + j]) for j, c in enumerate(a)) % p for t in range(len(out))]
            assert out.tolist() == expected, len(a)

    def test_primitive_modulus_search(self):
        # brute force: x has order exactly p^k - 1 modulo m, m is
        # irreducible, and every smaller encoding fails one of the two
        for p, k in SMALL_TOWERS:
            chosen = _primitive_modulus(p, k)
            assert len(chosen) == k + 1 and chosen[-1] == 1
            assert _order_of_x(chosen, p) == p**k - 1, (p, k)
            assert not _has_monic_divisor(chosen, p), (p, k)
            for m in range(p**k):
                f = _encoding(m, p, k)
                if tuple(f) == chosen:
                    break
                assert _has_monic_divisor(f, p) or _order_of_x(f, p) != p**k - 1, (p, k, m)

    def test_primitive_modulus_matches_the_reference_search(self):
        # the search that tests every monic (oracles.primitive_modulus)
        # picks the same modulus on every field with odd p < 50 and p^k <=
        # 10^6, and on larger primes: 3137 is the largest with p^2 <=
        # COUNT_CAP
        fields = [(p, k) for p in _odd_primes(50) for k in range(1, 13) if p**k <= 10**6]
        fields += [(101, 2), (211, 3), (1009, 2), (3137, 2)]
        for p, k in fields:
            assert _primitive_modulus(p, k) == primitive_modulus(p, k), (p, k)

    def test_no_modulus_in_a_power_of_x_makes_x_primitive(self):
        # the skip of _primitive_modulus, by brute force: every irreducible
        # m = h(x^t), t > 1, leaves x of order below p^k - 1
        checked = 0
        for p, k in SMALL_TOWERS:
            for m in range(p**k):
                f = _encoding(m, p, k)
                t = gcd(*(j for j, c in enumerate(f) if j and c % p))
                if t > 1 and not _has_monic_divisor(f, p):
                    assert _order_of_x(f, p) < p**k - 1, (p, k, f)
                    checked += 1
        assert checked >= 50, checked

    def test_count_cap_is_below_the_int32_limit(self):
        # the int32 field indices at k >= 2, the p-byte squares table and
        # the int64 Horner steps at k = 1 rely on it
        assert zeta.COUNT_CAP < 2**31

    def test_int32_table_guard(self):
        # 3^20 > 2^31: refused on the cap before any table is allocated
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="exceeds cap"):
                count_points(make_cd(2), 3, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_squares_table_guard(self):
        # p = 2147483659 > 2^31 at k = 1: the p-byte squares table is
        # refused on the cap before it is allocated
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="exceeds cap"):
                count_points(make_cd(2), 2147483659, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_guards_refuse_before_the_workspace(self):
        # in a thread that has not counted yet, a refusal does not build
        # that thread's chunk rows either (five int64 rows of 512 KB)
        def peaks():
            out = []
            for p, k in ((3, 20), (2147483659, 1)):
                tracemalloc.start()
                try:
                    with pytest.raises(CapExceededError, match="exceeds cap"):
                        count_points(make_cd(2), p, k)
                    out.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return out

        with ThreadPoolExecutor(1) as pool:
            assert max(pool.submit(peaks).result()) < 1 << 20

    def test_chunk_workspace_is_reused(self):
        # after a first count near _CHUNK, the next one allocates only the
        # p-byte squares table: the int64 rows and the bool lookup row of
        # the chunks are this thread's, made by the first count
        curve = make_cd(2)
        count_points(curve, 65519)
        tracemalloc.start()
        try:
            count_points(curve, 65497)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 65497 < 2

    def test_horner_matches_euler_either_side_of_the_cubic_bound(self, monkeypatch):
        # s, the Horner steps run over Z, is read at X = n - 1 on the first
        # chunk (n = 2^ceil(log2 p), at most _CHUNK) and at X = p - 1 after
        # it.  f = 2^40 x^3 + x + 1 runs all three steps over Z at p = 127
        # (2^40 127^3 < 2^63) but two at p = 131 (n = 256, 2^40 255^3 >
        # 2^63), and one on both chunks of 65537; lc = -(2^63 + 5) runs none
        # (s = 0) and its rest reduces after two steps at 65537; C_2 runs
        # all three over Z on both chunks of 65537, and C_16 (degree 17)
        # three, then seven runs of two.  A count reduces once
        # for the squares table, then on each chunk once after a prefix
        # (s > 0) and once after each run of remaining steps
        big = HyperellipticCurve(UniPolynomial((1, 1, 0, 2**40)))
        huge = HyperellipticCurve(UniPolynomial((1, 1, 0, -(2**63 + 5))))
        reductions = []
        reduce = zeta._reduce
        monkeypatch.setattr(
            zeta, "_reduce", lambda a, p, s, out=None: reductions.append(1) or reduce(a, p, s, out)
        )
        cells = [
            (big, 127, 2), (big, 131, 3), (big, 65537, 5),
            (huge, 127, 2), (huge, 65537, 5),
            (make_cd(2), 127, 2), (make_cd(2), 65537, 3), (make_cd(16), 65537, 17),
        ]
        for curve, p, expected_reductions in cells:
            assert good_reduction(curve, p), (curve.label, p)
            reductions.clear()
            assert count_points(curve, p, 1) == count_points_euler(curve.f.coeffs, p), (curve.label, p)
            assert len(reductions) == expected_reductions, (curve.label, p)
        # the old cubic bound's curves and primes stay checked against the
        # oracle: no other test counts C_3 or D_5 = x^5 + 1 (zero
        # coefficients) at a p this size
        for p in (55109, 55117):
            for curve in (make_cd(2), make_cd(3), make_dm(5), make_cd(16)):
                assert good_reduction(curve, p), (curve.label, p)
                assert count_points(curve, p, 1) == count_points_euler(curve.f.coeffs, p), (curve.label, p)
        # C_2 = x^3 + 2x^2 - 2x - 4 runs all of Horner over Z for p <= 2^21
        assert zeta._steps_that_fit(1, (2, -2, -4), 2**21 - 1) == 3
        assert zeta._steps_that_fit(1, (2, -2, -4), 2**21) == 2

    def test_offset_residues_match_euler(self):
        # a k = 1 count reduces f(x) + K, K = 2^63 mod p, in uint64: the
        # prefix over Z is kept as P + 2^63, or the last coefficient carries
        # K, and the squares table sits at x^2 + K.  K is 1 at p = 7 and 73
        # and p - 1 at p = 3; C_2's prefix is negative at x = 0 and 1 (f =
        # -4, -3), -x^3 - 5's at every x; lc = -(2^63 + 5) and 2^63 run no
        # step over Z (s = 0); 2^40 x^3 + x + 1 runs steps after a prefix
        # at 131 and 65537 (s = 2, 1); 65521 and 65537 sit either side of
        # the 2^16 chunk seam; and a seeded sample of the primes that
        # cm_trace_pattern_c2(30000) counts
        assert [(1 << 63) % p for p in (3, 7, 73)] == [2, 1, 1]
        negative = HyperellipticCurve(UniPolynomial((-5, 0, 0, -1)))
        wide = [HyperellipticCurve(UniPolynomial((1, 1, 0, c))) for c in (-(2**63 + 5), 2**63, 2**40)]
        curves = [make_cd(2), negative] + wide
        cells = [(curve, p) for curve in curves + [make_cd(3), make_dm(5)] for p in (3, 7, 73, 131)]
        cells += [(curve, p) for curve in curves for p in (65521, 65537)]
        trace_primes = [q for q in _odd_primes(30000) if good_reduction(make_cd(2), q)]
        cells += [(make_cd(2), q) for q in random.Random(26).sample(trace_primes, 20)]
        checked = 0
        for curve, p in cells:
            if good_reduction(curve, p):
                assert count_points(curve, p) == count_points_euler(curve.f.coeffs, p), (curve.label, p)
                checked += 1
        assert checked >= 40

    def test_c2_either_side_of_its_all_over_z_bound(self):
        # C_2 runs all three Horner steps over Z on every chunk for p <=
        # 2^21 and two on the chunks after the first above it; the oracle is
        # Euler's criterion on int64 rows (count_points_euler would take
        # seconds per prime here)
        c2 = make_cd(2)
        assert 2097143 < 2**21 < 2097169
        for p in (2097143, 2097169):
            assert good_reduction(c2, p)
            assert count_points(c2, p) == count_points_euler_int64(c2.f.coeffs, p), p

    def test_prime_field_rows_stay_integer(self, monkeypatch):
        # under numpy 1.24's value-based casting a uint64 row combined with
        # a negative Python int, or any uint64 with int64, becomes float64,
        # exact only below 2^53, and raises nothing.  Every numpy call of a
        # k = 1 count returns integer or bool arrays and never mixes uint64
        # with a signed value, here at C_2 near 2^21, where f(x) nears 2^63,
        # and on the shapes of the Horner pass: a negative prefix, s = 0,
        # steps after a prefix
        numpy = _IntegerNumpy()
        monkeypatch.setattr(zeta, "np", numpy)
        huge = HyperellipticCurve(UniPolynomial((1, 1, 0, -(2**63 + 5))))
        cells = [(make_cd(2), 2097143), (make_cd(2), 2097169), (make_cd(16), 65537), (huge, 65537)]
        with ThreadPoolExecutor(1) as pool:
            counts = pool.submit(lambda: [count_points(curve, p) for curve, p in cells]).result(timeout=120)
            rows = pool.submit(zeta._chunk_rows).result(timeout=10)
        assert all(type(count) is int for count in counts)
        assert {"floor_divide", "multiply", "add", "equal"} <= {name for name, _ in numpy.calls}
        assert all(row.dtype.kind in "bu" for row in rows)

    def test_norm_rows_stay_int32(self, monkeypatch):
        # under numpy 1.24's value-based casting an int32 row combined with
        # a scalar past int32 becomes int64, and with a float becomes
        # float64, without an error.  A norm-route count (D_10/F_37^4)
        # runs its recurrence on int32 rows with scalars below p: every
        # row that _recurrence_chunks yields is int32, and every numpy call
        # returns int32, int64 or bool
        expected = count_points(make_dm(10), 37, 4)
        numpy, rows, chunks = _IntegerNumpy(), [], zeta._recurrence_chunks

        def spy(*args):
            for start, row in chunks(*args):
                rows.append(row.dtype)
                yield start, row

        monkeypatch.setattr(zeta, "np", numpy)
        monkeypatch.setattr(zeta, "_recurrence_chunks", spy)
        routes = _spy_routes(monkeypatch)
        assert count_points(make_dm(10), 37, 4) == expected
        assert routes == ["norms"] and set(rows) == {np.dtype(np.int32)}
        assert {"multiply", "floor_divide", "count_nonzero"} <= {name for name, _ in numpy.calls}
        assert {d for _, out in numpy.calls for d in out} <= {np.dtype(t) for t in (np.int32, np.int64, bool)}

    def test_prefix_row_is_filled_once_per_span(self, monkeypatch):
        # C_2 at every odd prime below 2,000 fills a fresh thread's prefix
        # row once for each span 4, 8, ..., 2048 that those primes take
        fills = []
        horner = zeta._horner

        def spy(acc, coeffs, x, out):
            if np.shares_memory(out, zeta._chunk_rows()[4]):
                fills.append(len(out))
            return horner(acc, coeffs, x, out)

        monkeypatch.setattr(zeta, "_horner", spy)
        c2, primes = make_cd(2), _odd_primes(1999)
        with ThreadPoolExecutor(1) as pool:
            counts = pool.submit(lambda: [count_points(c2, p) for p in primes]).result(timeout=60)
        assert fills == [1 << j for j in range(2, 12)]
        assert counts == [count_points_euler(c2.f.coeffs, p) for p in primes]

    def test_interleaved_curves_count_as_if_alone(self):
        # C_2 and C_3 take turns at the same primes, so every count finds
        # the other curve in the prefix row; each gets the counts it gets
        # counted alone in a fresh thread, over one chunk or several
        curves, primes = (make_cd(2), make_cd(3)), (101, 4099, 65537, 131071)

        def alone(curve):
            return [count_points(curve, p) for p in primes]

        def interleaved():
            rows = [[count_points(curve, p) for curve in curves] for p in primes]
            return [list(column) for column in zip(*rows)]

        with ThreadPoolExecutor(1) as pool:
            expected = [pool.submit(alone, curve).result(timeout=60) for curve in curves]
        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(interleaved).result(timeout=60) == expected

    @pytest.mark.parametrize("size", [7, 64])
    def test_prime_field_chunk_seams_match_naive_oracle(self, monkeypatch, size):
        # chunks of 7 and 64 put seams inside both passes of every count
        # below 200; a fresh thread builds its chunk rows at that size and
        # drops them on exit, so no short row outlives the patch
        monkeypatch.setattr(zeta, "_CHUNK", size)
        curves = [make_cd(2), make_cd(3), make_cd(5), make_cd(16), make_dm(5), make_dm(6), make_xd(2)]

        def mismatches():
            return [
                (curve.label, p)
                for curve in curves
                for p in _odd_primes(199)
                if good_reduction(curve, p)
                and count_points(curve, p, 1) != count_points_naive(curve, p)
            ]

        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(mismatches).result(timeout=120) == []

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
        expected = {i: count_points(*cell) for i, cell in enumerate(cells)}
        shuffled = list(expected)
        random.Random(12).shuffle(shuffled)
        orders = (list(expected), list(reversed(expected)), shuffled)
        start = threading.Barrier(len(orders))

        def run(order):
            start.wait(timeout=60)
            return {i: count_points(*cells[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(orders)) as pool:
                for future in [pool.submit(run, order) for order in orders]:
                    assert future.result(timeout=120) == expected
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _peak_bytes_per_element(curve, primes=(29, 37)):
        # the difference in peak between the two fields is the memory that
        # grows with q: the per-field tables when both fields span many
        # chunks, and about zero for a lifted binomial, whose pass reads a
        # subfield that fits in one chunk
        peaks = []
        for p in primes:
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

    def test_binomial_count_takes_under_two_bytes_per_element(self):
        # D_10 over F_37^4 and F_43^4: G = gcd(q - 1, 10) = 10 divides no
        # p^f - 1 with f < 4, so the count reads F_q itself, from the norms:
        # three int32 rows of a chunk, whatever q is.  The bitmap route
        # there held the q-byte squares bitmap and the (q - 1)/10 int32
        # indices of one coset, 1.4 bytes per element
        assert all(gcd(p**2 - 1, 10) < 10 for p in (37, 43))
        assert self._peak_bytes_per_element(make_dm(10), (37, 43)) < 0.05

    def test_lifted_binomials_hold_no_table_of_the_field(self):
        # D_11 (G = 1, read from F_p) and D_6 (G = 6, read from F_p or
        # F_(p^2)) over F_29^4 and F_37^4: the pass runs over a subfield of
        # at most sqrt(q) elements, so the peak does not grow with q
        assert all(gcd(p**4 - 1, 11) == 1 for p in (29, 37))
        for m in (11, 6):
            assert self._peak_bytes_per_element(make_dm(m)) < 0.05, m

    def test_binomials_match_naive_oracle(self):
        # binomials on every F_(p^k), k >= 2, p^k <= 3000, n = p^k - 1.
        # 2x^m + b and x^n + 1 (D_8 over F_3^2, e = n) go through
        # _binomial_count; b is a non-residue mod p, so a non-square
        # constant when k is odd.  x^(m+1) + b x (on the fields below 1000,
        # to bound the oracle's time) is the X_d shape, with f(0) = 0, and
        # goes through the log-domain engine
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
                    curve = HyperellipticCurve(UniPolynomial(coeffs))
                    if not good_reduction(curve, p):
                        continue
                    fast = count_points(curve, p, k)
                    assert fast == count_points_naive(curve, p, k), (terms, p, k)
                    checked += 1
        assert checked >= 40

    def test_zech_lookups_only_where_the_count_reads(self, monkeypatch):
        # over F_7^2 (n = 48): x^6 + 1 and x^8 + 1 build no int32 log table.
        # x^6 + 1 (G = 6 divides 7 - 1) is read from F_7 and adds 1 at its
        # 6 nonzero elements; x^8 + 1 (G = 8) is read from F_7^2 and adds 1
        # at the n/G = 6 positions of one coset; C_3, with more terms,
        # builds the log table once and rewrites all n
        _forget_fields()
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
            (make_dm(6), 0, 6),
            (make_dm(8), 0, 6),
            (make_cd(3), 1, 48),
        ):
            builds.clear()
            sizes.clear()
            count_points(curve, 7, 2)
            assert (len(builds), sum(sizes)) == (tables, positions), curve.label

    def test_counts_are_python_ints(self):
        # a count is a Python int on every route, so it serializes
        for curve, p, k in (
            (make_dm(5), 11, 1),
            (make_dm(5), 11, 2),
            (make_dm(6), 7, 4),  # read from F_7 and lifted to F_7^4
            (make_cd(3), 7, 2),
            (make_xd(2), 5, 3),
        ):
            count = count_points(curve, p, k)
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
                    curves.append(HyperellipticCurve(UniPolynomial(coeffs)))
                for curve in curves:
                    if not good_reduction(curve, p):
                        continue
                    fast = count_points(curve, p, k)
                    assert fast == count_points_naive(curve, p, k), (curve.f, p, k)
                    checked += 1
        assert checked >= 60

    def test_binomial_chunk_seams_match_naive_oracle(self, monkeypatch):
        # with 7- and 64-element chunks, chunk starts fall on both parities
        # (the squares bitmap is set from the even positions of each chunk)
        # and on every offset of the coset, so the copy of the coset
        # straddles chunk seams; G = gcd(q - 1, e) covers 1, 2, 3, 5, 7, 10
        # and 14, among others.  Only _binomial_count runs while _CHUNK is
        # patched: the k = 1 chunk rows are sized from it on a thread's
        # first count.  The F_29^2 cells with G = 3, 5 and 10 (T = 280, 168
        # and 84 >= 64 > 8^2) take the norms there, the rest the bitmap
        cells = [(29, 2, e) for e in (11, 2, 3, 5, 7, 10, 14)]
        cells += [(3, 4, 5), (3, 4, 10), (13, 2, 14), (7, 3, 9), (5, 3, 4)]
        curves = []
        for p, k, e in cells:
            c0 = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
            coeffs = [c0] + [0] * (e - 1) + [1]
            curve = HyperellipticCurve(UniPolynomial(coeffs))
            assert good_reduction(curve, p), (p, k, e)
            curves.append((curve, coeffs, p, k, count_points_naive(curve, p, k)))
        assert {gcd(p**k - 1, e) for p, k, e in cells} >= {1, 2, 3, 5, 7, 10, 14}
        routes = _spy_routes(monkeypatch)
        for size in (7, 64):
            monkeypatch.setattr(zeta, "_CHUNK", size)
            routes.clear()
            for curve, coeffs, p, k, expected in curves:
                fast = zeta._binomial_count(coeffs[0], coeffs[-1], len(coeffs) - 1, p, k)
                fast += zeta._infinity_points(curve, p, k)
                assert fast == expected, (size, curve.f, p, k)
            assert set(routes) == {"norms", "bitmap"}, size

    @pytest.mark.parametrize("size", [7, 64])
    def test_log_domain_chunk_seams_match_naive_oracle(self, monkeypatch, size):
        # chunks of 7 and 64 put seams in every table of the log domain: the
        # index recurrence grows a first chunk of 7, no power of 2, by 1, 2
        # and 3 terms, jumps from chunk to chunk, is copied into the Zech
        # table across seams, and that table is rewritten window by window.
        # Every field has more than 64 elements, so no one-chunk row is read
        # or kept.  Only _affine_count_extension runs while _CHUNK is
        # patched: the k = 1 chunk rows are sized from it on a thread's
        # first count
        cells = [(curve, p, k) for curve in (make_cd(3), make_xd(2)) for p, k in ((5, 3), (7, 3), (17, 2))]
        cells.append((make_xd(2), 3, 5))
        assert all(good_reduction(curve, p) for curve, p, _ in cells)
        expected = [count_points_naive(curve, p, k) for curve, p, k in cells]
        monkeypatch.setattr(zeta, "_CHUNK", size)
        for (curve, p, k), naive in zip(cells, expected):
            coeffs = [c % p for c in curve.f.coeffs]
            fast = zeta._affine_count_extension(coeffs, p, k) + zeta._infinity_points(curve, p, k)
            assert fast == naive, (size, curve.label, p, k)

    def test_index_of_the_norm_powers(self):
        # g^(step j), step = (q - 1)/(p - 1), is N^j for the norm
        # N = (-1)^k m_0 of x, and a constant c has index c: the binomial
        # route reads log c0 and log c1 from this before building anything
        for p, k in SMALL_TOWERS:
            n = p**k - 1
            step = n // (p - 1)
            norm = (-1) ** k * _primitive_modulus(p, k)[0] % p
            index = _index(p, k)
            expected = [pow(norm, j, p) for j in range(p - 1)]
            assert index[::step].tolist() == expected, (p, k)

    def test_binomial_route_matches_log_domain_engine(self):
        # the largest fields of the isogeny grid, and a binomial with a
        # non-square constant over an odd-degree extension, against the
        # log-domain engine called directly on the same coefficients
        cells = [(make_dm(10), 43, 4), (make_dm(14), 11, 6), (make_dm(7), 5, 7)]
        cells.append((HyperellipticCurve(UniPolynomial([3, 0, 0, 0, 0, 0, 2])), 7, 5))
        for curve, p, k in cells:
            coeffs = [c % p for c in curve.f.coeffs]
            fast = zeta._binomial_count(coeffs[0], coeffs[-1], len(coeffs) - 1, p, k)
            assert fast == zeta._affine_count_extension(coeffs, p, k), (curve.f, p, k)

    def test_lifted_binomials_match_log_domain_engine(self):
        # every cell read from a proper subfield F_(p^f), f < k, where f is
        # the least with G = gcd(p^k - 1, e) | p^f - 1: D_e and a seeded
        # c0 + c1 x^e for e = 3..26, p not dividing e, over F_(p^k) with odd
        # p <= 47 and p^k <= 20000, against the log-domain engine on the
        # same coefficients.  s = k/f runs from 2 to 9, so the sign of
        # -(-C)^s shows at both parities.  On each field below 3000, the
        # cell of least e (the naive oracle's cheapest Horner) is also
        # counted by count_points_naive
        rng = random.Random(29)
        checked, naive, powers = 0, 0, set()
        for p in _odd_primes(47):
            for k in range(2, 10):
                q = p**k
                if q > 20000:
                    break
                oracle = q <= 3000
                for e in (e for e in range(3, 27) if e % p):
                    G = gcd(q - 1, e)
                    f = next(f for f in range(1, k + 1) if (p**f - 1) % G == 0)
                    if f == k:
                        continue
                    powers.add(k // f)
                    for c0, c1 in ((1, 1), (rng.randrange(1, p), rng.randrange(1, p))):
                        coeffs = [c0] + [0] * (e - 1) + [c1]
                        fast = zeta._binomial_count(c0, c1, e, p, k)
                        assert fast == zeta._affine_count_extension(coeffs, p, k), (coeffs, p, k)
                        checked += 1
                    if oracle:
                        curve = HyperellipticCurve(UniPolynomial(coeffs))
                        fast += zeta._infinity_points(curve, p, k)
                        assert fast == count_points_naive(curve, p, k), (coeffs, p, k)
                        naive += 1
                        oracle = False
        assert checked >= 1000 and naive >= 20 and powers >= {2, 3, 4}

    def test_binomial_pass_reads_the_least_subfield(self, monkeypatch):
        # the bitmap pass runs over F_(p^f) with f = ord_G(p): D_26/F_3^12
        # (G = 26, 3^3 = 1 mod 26) reads F_27, D_10/F_41^4 (G = 10) reads
        # F_41, and D_10/F_23^4 (23 has order 4 mod 10) reads F_23^4
        # itself.  D_10/F_43^4 (order 4 too) reads its norms and indexes no
        # field
        _forget_fields()
        chunks, fields = zeta._index_chunks, []

        def spy(p, k):
            fields.append((p, k))
            return chunks(p, k)

        monkeypatch.setattr(zeta, "_index_chunks", spy)
        cells = [(26, 3, 12, [(3, 3)]), (10, 41, 4, [(41, 1)]), (10, 23, 4, [(23, 4)])]
        for m, p, k, read in cells + [(10, 43, 4, [])]:
            fields.clear()
            count_points(make_dm(m), p, k)
            assert fields == read, (m, p, k)

    def test_a_repeated_count_sets_up_no_field(self, monkeypatch):
        # a field of one chunk is set up once per process: counted again,
        # D_10 over F_13^4 (the bitmap over F_13^4 itself) and over F_41^4
        # (lifted from F_41) makes no polynomial product, of algebra's
        # lists or of _times, and no _jump, which grows an index row.
        # Every kept row is read-only int32 of at most one chunk
        calls = []
        for m, p, k in ((10, 13, 4), (10, 41, 4)):
            expected = count_points(make_dm(m), p, k)
            with monkeypatch.context() as patch:
                for name in ("_mulmod", "_times", "_jump"):
                    def spy(*args, name=name, real=getattr(zeta, name)):
                        calls.append((name, m, p, k))
                        return real(*args)

                    patch.setattr(zeta, name, spy)
                assert count_points(make_dm(m), p, k) == expected
        assert calls == []
        assert {(13, 4), (41, 1)} <= set(zeta._index_rows)
        for row in zeta._index_rows.values():
            assert row.dtype == np.int32 and not row.flags.writeable and len(row) <= 2**16

    def test_a_grid_pass_keeps_under_a_megabyte_of_rows(self):
        # criterion 08's cells whose largest field, q^genus(D_2d), is at
        # most 4 * 10^6, as in the benchmark's grid: from no kept field,
        # one pass over them keeps its index rows in under 1 MB
        _forget_fields()
        cells = 0
        for d in (3, 5, 7):
            curves = (make_cd(d), make_dm(d), make_dm(2 * d))
            for q in _odd_primes(50):
                if all(good_reduction(c, q) for c in curves) and q ** (d - 1) <= 4 * 10**6:
                    remark_lpolys(d, q)
                    cells += 1
        kept = sum(row.nbytes for row in zeta._index_rows.values())
        assert cells == 28 and 0 < kept < 2**20, (cells, kept)

    def test_binomial_route_choice(self, monkeypatch):
        # the norms where the bitmap would read F_q itself, T = (q - 1)/G >=
        # _CHUNK and 8^f < T: D_10 (G = 10, f = 4) over F_37^4, F_43^4 and
        # F_47^4 (T = 187,416, 341,880 and 487,968); the bitmap for
        # D_10/F_23^4 (T = 27,984 < _CHUNK), D_14/F_5^6 and D_14/F_3^6 (G =
        # 14, f = 6, T = 1,116 and 52)
        routes = _spy_routes(monkeypatch)
        cells = [(10, p, 4, "norms") for p in (37, 43, 47)]
        cells += [(10, 23, 4, "bitmap"), (14, 5, 6, "bitmap"), (14, 3, 6, "bitmap")]
        for m, p, k, route in cells:
            routes.clear()
            count_points(make_dm(m), p, k)
            assert routes == [route], (m, p, k)

    def test_norm_and_bitmap_routes_agree(self, monkeypatch):
        # both coset sums, called directly, on every cell whose bitmap
        # reads F_q itself (f = k): D_e and a seeded c0 + c1 x^e, e = 3..26,
        # p not dividing e, over F_(p^k) with odd p <= 47, p^k <= 4 * 10^6
        # and k <= 8.  F_5^9 and F_3^k, k >= 9, are left out: 8^k > q there,
        # so the norms are never chosen, and their 2^(k+1) norms take
        # seconds.  1 + c w^t = 0 at some t, so u_t = 0, exactly when -1/c
        # is a G-th power, (-1/c)^T = 1.  On each field below 3000, the cell
        # of least e is also counted whole, with the norms, against
        # count_points_naive
        def norms_only(c, G, p, f, k):
            return zeta._coset_sum_from_norms(c, G, p, k)

        rng = random.Random(28)
        checked, zeros, naive = 0, 0, 0
        for p in _odd_primes(47):
            for k in range(2, 9):
                q = p**k
                if q > 4 * 10**6:
                    break
                oracle = q <= 3000
                for e in (e for e in range(3, 27) if e % p):
                    G = gcd(q - 1, e)
                    if any((p**f - 1) % G == 0 for f in range(1, k)):
                        continue
                    for c0, c1 in ((1, 1), (rng.randrange(1, p), rng.randrange(1, p))):
                        c = c1 * pow(c0, -1, p) % p
                        norms = zeta._coset_sum_from_norms(c, G, p, k)
                        assert norms == zeta._coset_sum_from_bitmap(c, G, p, k, k), (c0, c1, e, p, k)
                        zeros += pow(-pow(c, -1, p), (q - 1) // G, p) == 1
                        checked += 1
                    if oracle:
                        curve = HyperellipticCurve(UniPolynomial([c0] + [0] * (e - 1) + [c1]))
                        with monkeypatch.context() as patch:
                            patch.setattr(zeta, "_coset_sum_from_bitmap", norms_only)
                            fast = count_points(curve, p, k)
                        assert fast == count_points_naive(curve, p, k), (e, p, k)
                        naive += 1
                        oracle = False
        assert checked >= 400 and 300 <= zeros < checked and naive >= 20, (checked, zeros, naive)

    def test_berlekamp_massey_finds_the_norm_recurrence(self):
        # u_t = N(1 + c w^t), w = x^G, over F_(p^k): from the first 2^(k+1)
        # norms, Berlekamp-Massey returns an order L <= 2^k whose
        # recurrence gives the next 64 norms, computed as norms too.  And
        # on random sequences of order r over F_p, from 2r terms, an order
        # <= r that gives the next 5r terms
        rng = random.Random(30)
        for p, k, G, c in ((3, 4, 5, 1), (7, 3, 9, 3), (29, 2, 5, 2), (43, 4, 10, 1), (5, 5, 11, 4)):
            q, m = p**k, _primitive_modulus(p, k)
            w = _powmod([0, 1], G, m, p)
            norms = []
            for t in range(2 ** (k + 1) + 64):
                y = _powmod(w, t, m, p) or [0]
                z = _reduce_mod([1 + c * y[0]] + [c * v for v in y[1:]], p)
                norms.append((_powmod(z, (q - 1) // (p - 1), m, p) or [0])[0])
            char = _berlekamp_massey(norms[: 2 ** (k + 1)], p)
            assert char[-1] == 1 and len(char) - 1 <= 2**k, (p, k)
            assert _run_recurrence(char, norms[: len(char) - 1], p, len(norms)) == norms, (p, k)
        for _ in range(40):
            p, r = rng.choice((3, 5, 7, 101)), rng.randrange(1, 9)
            char = [rng.randrange(p) for _ in range(r)] + [1]
            s = _run_recurrence(char, [rng.randrange(p) for _ in range(r)], p, 7 * r)
            found = _berlekamp_massey(s[: 2 * r], p)
            assert len(found) - 1 <= r and _run_recurrence(found, s[: len(found) - 1], p, 7 * r) == s

    def test_norms_are_products_of_conjugates(self, monkeypatch):
        # the first 2^(k+1) norms that _coset_sum_from_norms hands to
        # Berlekamp-Massey, products of the k conjugates 1 + c (w^(p^i))^t,
        # equal N(1 + c w^t) = (1 + c w^t)^((q - 1)/(p - 1)).  c = p - 1
        # makes the t = 0 term the zero norm
        seen = []

        def spy(s, p):
            seen.append(list(s))
            return _berlekamp_massey(s, p)

        monkeypatch.setattr(zeta, "_berlekamp_massey", spy)
        for p, k, G in ((43, 4, 5), (37, 4, 5), (31, 4, 13), (11, 6, 9)):
            q, m = p**k, _primitive_modulus(p, k)
            w = _powmod([0, 1], G, m, p)
            for c in (1, 2, p - 1):
                seen.clear()
                zeta._coset_sum_from_norms(c, G, p, k)
                norms = []
                for t in range(2 ** (k + 1)):
                    y = _powmod(w, t, m, p)
                    z = _reduce_mod([1 + c * y[0]] + [c * v for v in y[1:]], p)
                    norms.append((_powmod(z, (q - 1) // (p - 1), m, p) or [0])[0])
                assert seen == [norms], (p, k, G, c)
                assert (norms[0] == 0) == (c == p - 1)

    def test_horner_reduces_partway_matches_naive(self):
        # p^(deg+1) >= 2^63, so the k = 1 Horner must reduce mod p inside
        # its loop, not only at the end; p = 1 (mod 52) puts the roots of
        # x^26 + 1 in F_p, and the degree-10 f has no zero coefficient
        rng = random.Random(10)
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(11)]
        random_f = HyperellipticCurve(UniPolynomial(coeffs))
        assert squarefree(random_f.f)
        for curve in (make_dm(26), random_f):
            for p in (1093, 2029, 4993):
                assert p ** (curve.f.degree + 1) >= 2**63
                assert good_reduction(curve, p), (curve.label, p)
                fast = count_points(curve, p, 1)
                assert fast == count_points_naive(curve, p), (curve.label, p)

    def test_horner_reduces_partway_over_several_chunks(self):
        # 196,613 > 3 * 2^16: four chunks in int64, and p^3 (p - 1) >=
        # 2^63 forces a reduction before the third Horner step, which
        # negative coefficients (near p once reduced) would really overflow
        coeffs, p = [7, -3, -1, -5, -2], 196613
        curve = HyperellipticCurve(UniPolynomial(coeffs))
        assert p ** (curve.f.degree + 1) >= 2**63 and p > 3 << 16
        assert good_reduction(curve, p)
        assert count_points(curve, p, 1) == count_points_euler(coeffs, p)

    def test_engine_matches_naive_cubic_extension(self):
        assert count_points(make_cd(2), 3, 3) == count_points_naive(make_cd(2), 3, 3)

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
        f = UniPolynomial(coeffs)
        assume(squarefree(f))
        curve = HyperellipticCurve(f)
        assume(good_reduction(curve, p))
        assert count_points(curve, p, k) == count_points_naive(curve, p, k)

    def test_chunked_count_matches_lpolynomial(self):
        # 11^5 = 161,051 elements span three 2^16 chunks; L(C_5, 11) is
        # built from the counts over F_11 and F_121 alone
        curve = make_cd(5)
        n5 = count_points(curve, 11, 5)
        assert n5 == l_polynomial(curve, 11).point_count(5) == 161448
        # the Zech tables' recurrence jumps across chunks at k = 2, 6, 8:
        # F_401^2 (160,801 elements), F_7^6 (117,649) and F_5^8 (390,625)
        for curve, p, k in ((make_cd(2), 401, 2), (curve, 7, 6), (make_cd(3), 5, 8)):
            assert p**k > 1 << 16
            count = count_points(curve, p, k)
            assert count == l_polynomial(curve, p).point_count(k), (curve.label, p, k)

    def test_genus_zero_has_q_plus_one_points(self):
        line = HyperellipticCurve(UniPolynomial((2, 1)))
        for p, k in ((3, 1), (5, 2), (7, 3)):
            assert count_points(line, p, k) == p**k + 1

    def test_bad_reduction_raises(self):
        with pytest.raises(BadReductionError):
            count_points(make_dm(3), 3)
        with pytest.raises(BadReductionError):
            count_points(make_cd(2), 2)

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            count_points(make_cd(2), 101, 4)


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
                assert lp.point_count(k) == count_points(curve, p, k)

    def test_genus_zero_gives_one(self):
        line = HyperellipticCurve(UniPolynomial((2, 1)))
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
        real_quadratics=st.lists(
            st.tuples(st.integers(-13, 13), st.integers(-40, 20)).filter(lambda bc: bc[0] ** 2 > 4 * bc[1]),
            max_size=2,
        ),
    )
    # x^2 - 12 at q = 3 has both ends as roots, x^2 - 5 lies inside (and
    # its H = (y - 5)^2 is a square), x^2 - 13 lies outside
    @example(q=3, roots=[], quadratics=[], real_quadratics=[(0, -12)])
    @example(q=3, roots=[], quadratics=[], real_quadratics=[(0, -5)])
    @example(q=3, roots=[], quadratics=[], real_quadratics=[(0, -13)])
    def test_weil_interval_against_known_roots(self, q, roots, quadratics, real_quadratics):
        # h with integer roots (repeats allowed), factors x^2 + bx + c of
        # negative discriminant, so non-real roots, and factors x^2 + bx + c
        # of positive discriminant, whose real roots are mostly irrational
        h = UniPolynomial((1,))
        for r in roots:
            h = h * UniPolynomial((-r, 1))
        for b, e in quadratics:
            h = h * UniPolynomial((b * b // 4 + e, b, 1))
        for b, c in real_quadratics:
            h = h * UniPolynomial((c, b, 1))
        assume(h.degree >= 1)
        # both real roots of x^2 + bx + c lie in [-2 sqrt q, 2 sqrt q]
        # exactly when the vertex -b/2 does and x^2 + bx + c >= 0 at both
        # ends: 4q + c >= |b| 2 sqrt q, squared
        expected = (
            not quadratics
            and all(r * r <= 4 * q for r in roots)
            and all(b * b <= 16 * q and 4 * q + c >= 0 and (4 * q + c) ** 2 >= 4 * b * b * q
                    for b, c in real_quadratics)
        )
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

    def test_fields(self):
        lp = l_polynomial(make_cd(2), 3)
        assert (lp.q, lp.genus, lp.coeffs) == (3, 1, (1, -2, 3))

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
        assert factor is not None
        assert factor[0] == 1  # L-side divisor, constant term 1
        assert 0 < len(factor) - 1 < 2 * lp.genus  # proper
        rec = UniPolynomial(reversed(lp.coeffs))
        assert (rec % UniPolynomial(reversed(factor))).is_zero()

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
        # C_7 at q = 3 is the one reducible L of the report; the search
        # finds its factor
        c7 = lps[4]
        assert (c7.genus, c7.q) == (3, 3)
        assert lpoly_is_irreducible(c7) == (False, [1, 3, 3])

        def no_search(*args):
            raise AssertionError("factor search called")

        monkeypatch.setattr("chebcm.zeta.combinations", no_search)
        irreducible = [lp for lp in lps if lp is not c7]
        irreducible.append(l_polynomial(make_cd(23), 3))
        assert max(lp.genus for lp in irreducible) == 11
        for lp in irreducible:
            assert lpoly_is_irreducible(lp) == (True, None), lp

    def test_undecided_when_no_candidate_divides(self, monkeypatch):
        # h of L(C_5, 11) is irreducible; with every prime scripted to
        # split it into linear factors, the mask rules out nothing, the
        # search tries both roots alone and neither divides h
        lp = l_polynomial(make_cd(5), 11)
        assert lpoly_is_irreducible(lp) == (True, None)
        monkeypatch.setattr("chebcm.zeta._factor_degrees_mod", lambda h, ell: [1, 1])
        assert _possible_degrees(lp.real_weil_polynomial()) == 0b111
        assert lpoly_is_irreducible(lp) == (None, None)

    def test_undecided_past_the_scan_budget(self):
        # L = 1 + 5^48 T^96, the L of C_97 at q = 5: the primes leave the
        # degrees 16, 32 and 48 for a factor of h, so the search faces C(48,
        # 16) subsets of roots.  The budget ends it with (None, None); a
        # child process is killed if it runs on past 5 s
        code = (
            "from chebcm.zeta import LPolynomial, lpoly_is_irreducible\n"
            "print(lpoly_is_irreducible(LPolynomial((1,) + (0,) * 95 + (5**48,), 5)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(zeta.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5
        )
        assert out.stdout.strip() == "(None, None)", out.stderr

    def test_verdicts_at_three(self):
        # the verdicts and factors the L-side subset scan gave at q = 3.
        # L(C_29, 3) = 1 + 3^14 T^28, as in tests/golden/report-d64.json;
        # the primes leave the degrees 2, 6, 8 and 12 for a factor of its
        # h, and the first pair of roots of h that divides gives 1 + 9T^4
        lps = {d: l_polynomial(make_cd(d), 3) for d in (7, 19, 23)}
        lps[29] = LPolynomial((1,) + (0,) * 27 + (3**14,), 3)
        golden = (Path(__file__).parent / "golden" / "report-d64.json").read_text()
        assert "L(C_29, 3) = 1 + 4782969*T^28; irreducible: False" in golden
        possible = _possible_degrees(lps[29].real_weil_polynomial())
        assert [k for k in range(15) if possible >> k & 1] == [0, 2, 6, 8, 12, 14]
        verdicts = {d: lpoly_is_irreducible(lp) for d, lp in lps.items()}
        assert verdicts == {
            7: (False, [1, 3, 3]),
            19: (False, [1, 3, 3]),
            23: (True, None),
            29: (False, [1, 0, 0, 0, 9]),
        }

    def test_factor_degrees_mod(self):
        # x^2 - 6: split mod 5 (6 = 1), irreducible mod 7 (6 = -1), and
        # repeated mod 2 and 3
        h = (-6, 0, 1)
        assert _factor_degrees_mod(h, 5) == [1, 1]
        assert _factor_degrees_mod(h, 7) == [2]
        assert _factor_degrees_mod(h, 2) is None
        assert _factor_degrees_mod(h, 3) is None
        # (x^2 + 1)(x^3 + 2x + 1)(x - 1)(x - 2) mod 3
        f = UniPolynomial((1, 0, 1)) * UniPolynomial((1, 2, 0, 1))
        f = f * UniPolynomial((-1, 1)) * UniPolynomial((-2, 1))
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
            return _possible_degrees((0, 0, 0, 0, 1)) == 1 | 1 << 4

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
        # irreducible: the mask keeps the degree of either factor, and the
        # factor degrees mod l always sum to the degree
        f = UniPolynomial(a + [1]) * UniPolynomial(b + [1])
        h = tuple(f.coeffs)
        possible = _possible_degrees(h)
        assert possible >> len(a) & 1 and possible >> len(b) & 1
        assert possible != 1 | 1 << (len(h) - 1)
        for ell in (2, 3, 5, 7):
            degrees = _factor_degrees_mod(h, ell)
            if degrees is not None:
                assert sum(degrees) == len(h) - 1

    def test_verdicts_match_the_subset_scan(self):
        # C_d, D_m and X_d at good primes, g <= 6: the verdict agrees with
        # the L-side subset scan on every squarefree L, and each factor
        # divides L, though it may be another factor than the scan's
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
                if squarefree(UniPolynomial(lp.coeffs)):
                    assert verdict[0] == subset_scan(lp)[0], (curve.label, q)
                    assert _reciprocal_from_h(lp) == tuple(reversed(lp.coeffs))
                if verdict[0] is False:
                    self._check_exact_factor(lp, verdict[1])
                verdicts.add(verdict[0])
                cells += 1
        assert cells >= 100 and verdicts == {True, False}


class TestSimplicity:
    def test_verdict_structure(self):
        c3 = make_cd(3)
        assert [good_reduction(c3, q) for q in (2, 3, 5)] == [False, False, True]
        lp = l_polynomial(c3, 5)
        assert lp.genus == 1
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

    def test_cap_refused_before_the_curves_are_built(self, monkeypatch):
        # D_2d has genus d - 1, known from d: a huge prime d is refused
        # without building D_2d, and the message does not write out q^(d-1)
        def no_curve(*args):
            raise AssertionError("curve built")

        monkeypatch.setattr(zeta, "make_dm", no_curve)
        monkeypatch.setattr(zeta, "make_cd", no_curve)
        d = 10007
        with pytest.raises(CapExceededError, match=rf"F_5\^{d - 1}, which exceeds cap") as exc:
            remark_lpolys(d, 5)
        assert len(str(exc.value)) < 100


def test_l_polynomial_cap_message_names_the_field_not_its_size():
    with pytest.raises(CapExceededError) as exc:
        l_polynomial(make_dm(14), 17)
    assert "F_17^6, which exceeds cap" in str(exc.value)
    assert str(17**6) not in str(exc.value)


@pytest.mark.parametrize(
    "p, g, cap",
    [(2, 23, 10**7), (2, 24, 10**7), (3, 14, 10**7), (3, 15, 10**7), (5, 0, 1), (7, 1, 7), (7, 1, 6), (7, -3, 1)],
)
def test_power_exceeds_is_the_power_comparison(p, g, cap, monkeypatch):
    # power_exceeds reads COUNT_CAP when called, so other caps are set here
    monkeypatch.setattr(zeta, "COUNT_CAP", cap)
    assert zeta.power_exceeds(p, g) == (g > 0 and p**g > cap)


def test_power_exceeds_stops_early_on_a_huge_genus():
    assert zeta.power_exceeds(5, 10**30)
    assert not zeta.power_exceeds(1, 3)


def test_c2_trace_pattern_small():
    assert cm_trace_pattern_c2(60)


def test_c2_trace_pattern_refuses_cap_before_counting(monkeypatch):
    # the primes are known up front: a bound past the cap is refused before
    # the first count, not after counting every prime below the cap.  No
    # prime lies in (COUNT_CAP, 10,000,019), so a bound there is counted
    calls = []
    monkeypatch.setattr(zeta, "count_points", lambda *a, **kw: calls.append(a))
    for bound in (10**8, 10_000_019):
        with pytest.raises(CapExceededError, match="field size 10000019 exceeds cap"):
            cm_trace_pattern_c2(bound)
    assert calls == []
    with pytest.raises(TypeError):  # the stub's None reaches the first trace
        cm_trace_pattern_c2(10_000_018)
    assert len(calls) == 1


def test_c2_trace_pattern_refuses_a_huge_bound_without_a_sieve():
    # the least prime past the cap, 10,000,019, is found by is_prime, so a
    # bound past it is refused before any sieve is built
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="field size 10000019 exceeds cap"):
            cm_trace_pattern_c2(10**100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_c2_trace_pattern_rejects_bound_below_three(monkeypatch):
    # no odd prime lies below 3: such a bound checked nothing and returned
    # True; it is refused before any count
    calls = []
    monkeypatch.setattr(zeta, "count_points", lambda *a, **kw: calls.append(a))
    for bound in (2, 1, 0, -7):
        with pytest.raises(ValueError, match="bound must be >= 3"):
            cm_trace_pattern_c2(bound)
    assert calls == []
    monkeypatch.undo()
    assert cm_trace_pattern_c2(3)


# 2^89 - 1 is prime and far above the cap: each call must refuse on the
# cap first, before is_prime is asked about it
@pytest.mark.parametrize(
    "call",
    [
        "count_points(make_cd(2), p)",
        "l_polynomial(make_cd(2), p)",
        "remark_lpolys(3, p)",
    ],
)
def test_huge_prime_is_refused_on_the_cap_before_good_reduction(call):
    code = (
        "from chebcm.curves import make_cd\n"
        "from chebcm.zeta import CapExceededError, count_points, l_polynomial, remark_lpolys\n"
        "p = 2**89 - 1\n"
        "try:\n"
        f"    {call}\n"
        "except CapExceededError:\n"
        "    print('refused')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zeta.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert out.stdout.strip() == "refused", out.stderr


# 10^5000 + 1 has more than the 4300 digits an int may be written with:
# a cap message names such a p (or k) by its bit length
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda n: count_points(make_cd(2), n), "field size F_(16610-bit p)^1 exceeds cap"),
        (
            lambda n: l_polynomial(make_cd(2), n),
            "L(C_2, (16610-bit p)) needs counts over F_(16610-bit p)^1, which exceeds cap",
        ),
        (
            lambda n: remark_lpolys(3, n),
            "L(D_6, (16610-bit p)) needs counts over F_(16610-bit p)^2, which exceeds cap",
        ),
        (lambda n: count_points(make_cd(2), 5, n), "field size F_5^(16610-bit k) exceeds cap"),
    ],
    ids=["count_points", "l_polynomial", "remark_lpolys", "count_points-k"],
)
def test_long_numbers_are_named_by_bit_length_in_cap_messages(call, message):
    with pytest.raises(CapExceededError) as exc:
        call(10**5000 + 1)
    assert str(exc.value) == f"{message} {zeta.COUNT_CAP}"


@pytest.mark.parametrize("k", [10**4, 10**8])
def test_huge_k_is_refused_on_the_cap_without_forming_p_to_the_k(k):
    # 5^(10^4) has more than the 4300 digits an int may be written with,
    # and 5^(10^8) takes minutes to form: the cap check compares p^k with
    # the cap without forming it, and its message names F_5^k, not 5^k
    code = (
        "from chebcm.curves import make_cd\n"
        "from chebcm.zeta import CapExceededError, count_points\n"
        "try:\n"
        f"    count_points(make_cd(2), 5, {k})\n"
        "except CapExceededError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zeta.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert out.stdout.strip() == f"field size F_5^{k} exceeds cap {zeta.COUNT_CAP}", out.stderr


@pytest.mark.parametrize(
    "call",
    [
        "good_reduction(make_cd(2), p)",
        "l_polynomial(HyperellipticCurve(UniPolynomial((-3, 0, 1))), p)",
    ],
)
def test_huge_prime_is_refused_promptly_by_is_prime(call):
    # good_reduction on its own, and l_polynomial on a genus-0 curve whose
    # cap check never refuses, reach is_prime: above the Miller-Rabin
    # bounds it raises ValueError at once instead of trial-dividing
    code = (
        "from chebcm.algebra import UniPolynomial\n"
        "from chebcm.curves import HyperellipticCurve, make_cd\n"
        "from chebcm.zeta import good_reduction, l_polynomial\n"
        "p = 2**89 - 1\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zeta.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert out.stdout.startswith("ValueError is_prime is deterministic only"), out.stderr


def test_bad_prime_inside_the_cap_is_still_bad_reduction():
    conic = HyperellipticCurve(UniPolynomial((-3, 0, 1)))  # genus 0, disc 12
    for curve, p in ((make_dm(3), 3), (conic, 3), (make_cd(2), 9)):
        for call in (count_points, l_polynomial):
            with pytest.raises(BadReductionError):
                call(curve, p)
    with pytest.raises(BadReductionError):
        remark_lpolys(5, 5)


def test_a_p_below_two_is_bad_reduction_not_a_cap_excess():
    # (-3)^30 and (-3)^60 pass the cap, but F_-3 is no field: the same
    # BadReductionError that count_points gives
    with pytest.raises(BadReductionError):
        l_polynomial(make_xd(30), -3)
    with pytest.raises(BadReductionError):
        remark_lpolys(61, -3)
    with pytest.raises(BadReductionError):
        count_points(make_xd(30), -3, 30)
