import pytest

import chebcm.cyclotomic as cyclotomic
from chebcm.chebyshev import chebyshev
from chebcm.algebra import UniPolynomial, format_polynomial
from chebcm.cyclotomic import (
    cyclotomic_polynomial,
    eta,
    eta_minimal_polynomial,
    eta_stabilizer,
    kd_degree_check,
    zeta_difference,
    zeta_powers,
)
from chebcm.unitgroups import kd_kernel, unit_group
from oracles import (
    cyc_add,
    cyc_eval,
    cyc_int,
    cyc_mul,
    galois_apply,
    minimal_polynomial,
    minimal_polynomial_orbit,
)


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
    for n in (6, 12, 30):
        prod = UniPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod.coeffs == (-1,) + (0,) * (n - 1) + (1,)


class TestContextArithmetic:
    # the power table zeta_powers(n), the one way src/ turns an exponent
    # into a vector of Z[zeta_n]
    def test_zeta_has_order_n(self):
        table = zeta_powers(8)
        assert len(set(table)) == len(table) == 8
        assert table[4] == cyc_int(8, -1)
        assert cyc_mul(8, table[7], table[1]) == table[0]

    def test_inverse(self):
        # the exponent -k inverts +-zeta^k: the CM layer takes no other inverse
        for n in (5, 8, 10, 12):
            table = zeta_powers(n)
            for k in range(n):
                for sign in (1, -1):
                    x = cyc_mul(n, cyc_int(n, sign), table[k])
                    y = cyc_mul(n, cyc_int(n, sign), table[-k % n])
                    assert cyc_mul(n, x, y) == table[0]

    def test_rational_detection(self):
        # zeta^k is rational exactly at k = 0 and k = n/2, where it is +-1:
        # automorphism_valid's canonical pair rests on this
        table = zeta_powers(12)
        rational = [k for k, row in enumerate(table) if not any(row[1:])]
        assert rational == [0, 6]
        assert [table[k][0] for k in rational] == [1, -1]

    def test_integer_coefficients_only(self):
        for n in (5, 12, 30):
            assert all(type(c) is int for row in zeta_powers(n) for c in row)
            assert all(type(c) is int for c in eta(n))

    def test_long_coefficient_lists_reduce_mod_modulus(self):
        # row k is x^k mod Phi_n, also for k >= phi(n)
        assert zeta_powers(5)[4] == (-1, -1, -1, -1)
        for n in (5, 12, 15):
            phi = cyclotomic_polynomial(n)
            for k, row in enumerate(zeta_powers(n)):
                rem = UniPolynomial((0,) * k + (1,)) % phi
                assert rem.coeffs == UniPolynomial(row).coeffs, (n, k)

    def test_zeta_power_wraps_mod_n(self):
        assert zeta_difference(7, -1, 0) == zeta_difference(7, 6, 0)
        assert zeta_difference(7, 13, 0) == zeta_difference(7, 6, 0)
        assert eta(7) == zeta_difference(7, 8, 13)


def test_format_matches_the_report_text():
    # eigenvalues as the golden reports print them (C_2, C_3 and C_5)
    assert format_polynomial(eta(8), "z") == "z^3 + z"
    assert format_polynomial(eta(6), "z") == "2*z - 1"
    assert format_polynomial(zeta_difference(10, 1, -1), "z") == "z^3 - z^2 + 2*z - 1"
    assert format_polynomial((-2, 0, 7, -1), "z") == "-z^3 + 7*z^2 - 2"
    assert format_polynomial((0, 0), "z") == "0"


def test_galois_apply_is_field_automorphism():
    x, y = (1, 1, 0, 2), (0, 3, 1, 1)
    z = zeta_powers(12)[1]
    for a in unit_group(12):
        xy = cyc_mul(12, x, y)
        assert galois_apply(12, a, xy) == cyc_mul(
            12, galois_apply(12, a, x), galois_apply(12, a, y)
        )
        assert galois_apply(12, a, cyc_add(x, y)) == cyc_add(
            galois_apply(12, a, x), galois_apply(12, a, y)
        )
        assert galois_apply(12, a, z) == zeta_powers(12)[a]
    with pytest.raises(ValueError):
        galois_apply(12, 3, z)


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
    mp = minimal_polynomial(n, eta(n))
    assert tuple(int(c) for c in mp.coeffs) == coeffs
    assert not any(cyc_eval(n, mp, eta(n)))


def test_minimal_polynomial_two_routes_agree():
    for n in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24):
        x = eta(n)
        assert minimal_polynomial(n, x) == minimal_polynomial_orbit(n, x)


def test_eta_minimal_polynomial_matches_the_elimination():
    # covers every n whose Galois group is not cyclic up to 40 (15, 20, 21,
    # 24, ...), where one prime cannot prove P irreducible from its factor
    # degrees
    for n in list(range(3, 41)) + [64]:
        assert eta_minimal_polynomial(n) == minimal_polynomial(n, eta(n)), n


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
    mp = minimal_polynomial(8, cyc_int(8, 3))
    assert mp.coeffs == (-3, 1)


def test_stabilizer_three_routes_agree():
    from chebcm.unitgroups import eta_fixers_congruence

    for n in range(3, 100):
        assert eta_stabilizer(n) == kd_kernel(n) == eta_fixers_congruence(n)


def test_stabilizer_against_brute_force_galois():
    for n in (8, 12, 15, 16, 20):
        brute = frozenset(
            a for a in unit_group(n) if galois_apply(n, a, eta(n)) == eta(n)
        )
        assert eta_stabilizer(n) == brute


def test_degree_check():
    assert all(kd_degree_check(n) for n in range(3, 40))
