from fractions import Fraction

import pytest

import chebcm.cyclotomic as cyclotomic
from chebcm.chebyshev import chebyshev
from chebcm.cyclotomic import (
    CyclotomicContext,
    CyclotomicElement,
    RingMismatchError,
    cyclotomic_polynomial,
    eta,
    eta_minimal_polynomial,
    eta_stabilizer,
    kd_degree_check,
)
from chebcm.unitgroups import kd_kernel, unit_group
from oracles import galois_apply, minimal_polynomial, minimal_polynomial_orbit


@pytest.mark.parametrize(
    "n,coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (8, (1, 0, 0, 0, 1)),
        (9, (1, 0, 0, 1, 0, 0, 1)),
        (12, (1, 0, -1, 0, 1)),
        (105, None),  # first index with a coefficient of magnitude 2
    ],
)
def test_cyclotomic_polynomials_frozen(n, coeffs):
    phi = cyclotomic_polynomial(n)
    if coeffs is None:
        assert min(phi.coeffs) == -2
    else:
        assert phi.coeffs == coeffs


def test_cyclotomic_product_recovers_xn_minus_1():
    from chebcm.algebra import UniPolynomial

    for n in (6, 12, 30):
        prod = UniPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod.coeffs == (-1,) + (0,) * (n - 1) + (1,)


class TestContextArithmetic:
    def test_zeta_has_order_n(self):
        ctx = CyclotomicContext(8)
        z = ctx.zeta
        assert z**8 == ctx.one
        assert z**4 == -ctx.one
        assert z**2 != ctx.one

    def test_inverse(self):
        # the units +-zeta^k are the ones the CM layer inverts
        for n in (5, 8, 10, 12):
            ctx = CyclotomicContext(n)
            for k in range(n):
                for sign in (1, -1):
                    x = sign * ctx.zeta_power(k)
                    assert x * x.inverse() == ctx.one

    def test_inverse_rejects_non_units(self):
        ctx = CyclotomicContext(5)
        for x in (ctx.zero, CyclotomicElement(ctx, (1, 2, 0, 1)), 2 * ctx.zeta):
            with pytest.raises(ZeroDivisionError):
                x.inverse()

    def test_rational_detection(self):
        ctx = CyclotomicContext(12)
        assert (ctx.zeta**12).is_rational()
        assert (ctx.zeta**12).coeffs[0] == 1
        assert not ctx.zeta.is_rational()

    def test_integer_coefficients_only(self):
        ctx = CyclotomicContext(12)
        with pytest.raises(RingMismatchError):
            ctx.coerce(Fraction(1, 2))
        with pytest.raises(TypeError):
            CyclotomicElement(ctx, (Fraction(1, 2),))

    def test_long_coefficient_lists_reduce_mod_modulus(self):
        ctx = CyclotomicContext(5)
        assert CyclotomicElement(ctx, (0, 0, 0, 0, 1)) == ctx.zeta**4
        assert CyclotomicElement(ctx, (0, 0, 0, 0, 1)).coeffs == (-1, -1, -1, -1)
        # entries past zeta^(n-1) wrap too: 2 + 3 zeta^5 - zeta^13 in Z[zeta_12]
        ctx = CyclotomicContext(12)
        z = ctx.zeta
        long = (2, 0, 0, 0, 0, 3) + (0,) * 7 + (-1,)
        assert CyclotomicElement(ctx, long) == 2 + 3 * z**5 - z**13

    def test_zeta_power_wraps_mod_n(self):
        ctx = CyclotomicContext(7)
        assert ctx.zeta_power(-1) == ctx.zeta_power(6)
        assert ctx.zeta_power(13) == ctx.zeta_power(6)


def test_galois_apply_is_field_automorphism():
    ctx = CyclotomicContext(12)
    x = CyclotomicElement(ctx, (1, 1, 0, 2))
    y = CyclotomicElement(ctx, (0, 3, 1, 1))
    for a in unit_group(12):
        assert galois_apply(a, x * y) == galois_apply(a, x) * galois_apply(a, y)
        assert galois_apply(a, x + y) == galois_apply(a, x) + galois_apply(a, y)
        assert galois_apply(a, ctx.zeta) == ctx.zeta_power(a)
    with pytest.raises(ValueError):
        galois_apply(3, ctx.zeta)


@pytest.mark.parametrize(
    "n,coeffs",
    [
        (4, (4, 0, 1)),  # eta_4 = 2i
        (6, (3, 0, 1)),  # eta_6 = sqrt(-3)
        (8, (2, 0, 1)),  # eta_8 = sqrt(-2)
        (12, (1, 0, 1)),  # eta_12 = i
        (5, (5, 0, 5, 0, 1)),
        (16, (2, 0, 4, 0, 1)),
    ],
)
def test_eta_minimal_polynomials_frozen(n, coeffs):
    mp = minimal_polynomial(eta(n))
    assert tuple(int(c) for c in mp.coeffs) == coeffs
    assert mp(eta(n)) == CyclotomicContext(n).zero


def test_minimal_polynomial_two_routes_agree():
    for n in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24):
        x = eta(n)
        assert minimal_polynomial(x) == minimal_polynomial_orbit(x)


def test_eta_minimal_polynomial_matches_the_elimination():
    # covers every n whose Galois group is not cyclic up to 40 (15, 20, 21,
    # 24, ...), where one prime cannot prove P irreducible from its factor
    # degrees
    for n in list(range(3, 41)) + [64]:
        assert eta_minimal_polynomial(n) == minimal_polynomial(eta(n)), n


def test_eta_minimal_polynomial_small_cases():
    assert eta_minimal_polynomial(4).coeffs == (4, 0, 1)  # m = 2: Psi_2 = u + 2
    assert eta_minimal_polynomial(3).coeffs == (3, 0, 1)  # eta_3 = sqrt(-3)
    for n in (1, 2):
        with pytest.raises(ValueError):
            eta_minimal_polynomial(n)


def test_eta_minimal_polynomial_refuses_a_perturbed_psi(monkeypatch):
    # Psi_5 built with phi_1 + 1: P no longer annihilates eta_10
    monkeypatch.setattr(cyclotomic, "chebyshev", lambda j: chebyshev(j) + int(j == 1))
    with pytest.raises(AssertionError, match="does not annihilate"):
        eta_minimal_polynomial.__wrapped__(10)


def test_eta_rank_deficit_moves_on_to_the_next_prime(monkeypatch):
    # eta_4 = 2i is 0 mod 2, so 1, eta_4 have rank 1 there and 2 mod 3
    seen = []
    rank = cyclotomic._eta_rank_mod

    def spy(n, count, ell):
        seen.append(ell)
        return rank(n, count, ell)

    monkeypatch.setattr(cyclotomic, "_RANK_PRIME", 2)
    monkeypatch.setattr(cyclotomic, "_eta_rank_mod", spy)
    assert eta_minimal_polynomial.__wrapped__(4).coeffs == (4, 0, 1)
    assert seen == [2, 3]
    assert rank(4, 2, 2) == 1


def test_eta_minimality_proof_gives_up_after_eight_primes(monkeypatch):
    seen = []
    monkeypatch.setattr(cyclotomic, "_RANK_PRIME", 2)
    monkeypatch.setattr(
        cyclotomic, "_eta_rank_mod", lambda n, count, ell: seen.append(ell) or 0
    )
    with pytest.raises(AssertionError, match="not proved independent"):
        eta_minimal_polynomial.__wrapped__(8)
    assert seen == [2, 3, 5, 7, 11, 13, 17, 19]


def test_minimal_polynomial_of_rational_is_linear():
    ctx = CyclotomicContext(8)
    mp = minimal_polynomial(ctx.coerce(3))
    assert mp.coeffs == (-3, 1)


def test_stabilizer_three_routes_agree():
    from chebcm.unitgroups import eta_fixers_congruence

    for n in range(3, 100):
        assert eta_stabilizer(n) == kd_kernel(n) == eta_fixers_congruence(n)


def test_stabilizer_against_brute_force_galois():
    for n in (8, 12, 15, 16, 20):
        brute = frozenset(
            a for a in unit_group(n) if galois_apply(a, eta(n)) == eta(n)
        )
        assert eta_stabilizer(n) == brute


def test_degree_check():
    assert all(kd_degree_check(n) for n in range(3, 40))
