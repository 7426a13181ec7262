import math

import pytest

from chebcm.algebra import UniPolynomial
from chebcm.chebyshev import (
    chebyshev,
    classify_d,
    curve_polynomial,
    genus_of_cd,
    is_power_of_two,
    is_prime,
    in_scope_family,
    verify_functional_equation,
)
from oracles import is_prime_trial

# OEIS A014233: psi_i, the least odd composite that is a strong probable
# prime to each of the first i prime bases, i = 1..13, with its factors
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
A014233 = (
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
    (3317044064679887385961981, (1287836182261, 2575672364521)),
)


def strong_probable_prime(n, b):
    """n odd passes the Miller-Rabin round for base b."""
    s = 0
    d = n - 1
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(b, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


FIRST_SIX = {
    0: (2,),
    1: (0, 1),
    2: (-2, 0, 1),
    3: (0, -3, 0, 1),
    4: (2, 0, -4, 0, 1),
    5: (0, 5, 0, -5, 0, 1),
}


@pytest.mark.parametrize("d,coeffs", sorted(FIRST_SIX.items()))
def test_first_polynomials_frozen(d, coeffs):
    assert chebyshev(d).coeffs == coeffs


def test_recurrence_holds_generically():
    x = UniPolynomial((0, 1))
    for d in range(1, 40):
        assert chebyshev(d + 1) == x * chebyshev(d) - chebyshev(d - 1)


def test_functional_equation_small_range():
    assert all(verify_functional_equation(d) for d in range(0, 24))


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        chebyshev(-1)


def test_curve_polynomial_frozen_d3():
    # (x+2) * (x^3 - 3x) = x^4 + 2x^3 - 3x^2 - 6x
    assert curve_polynomial(3).coeffs == (0, -6, -3, 2, 1)


def test_curve_polynomial_degree():
    for d in range(2, 20):
        assert curve_polynomial(d).degree == d + 1


@pytest.mark.parametrize(
    "d,g",
    [(2, 1), (3, 1), (4, 2), (5, 2), (7, 3), (8, 4), (16, 8), (31, 15), (32, 16)],
)
def test_genus_is_floor_d_over_2(d, g):
    assert genus_of_cd(d) == g


def test_genus_rejects_degenerate_indices():
    with pytest.raises(ValueError):
        genus_of_cd(1)


def test_primality_and_power_of_two_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert [n for n in range(1, 70) if is_power_of_two(n)] == [1, 2, 4, 8, 16, 32, 64]


def test_miller_rabin_matches_trial_division():
    assert all(is_prime(n) == is_prime_trial(n) for n in range(-3, 2 * 10**5))


def test_miller_rabin_at_the_pseudoprime_bounds():
    # each psi_i is composite and fools the first i bases, so is_prime
    # must read one more there; psi_13 is where the bases run out, so it
    # and every larger n are refused rather than called probably prime
    for i, (psi, factors) in enumerate(A014233, 1):
        assert math.prod(factors) == psi and min(factors) > 1
        assert all(strong_probable_prime(psi, b) for b in PRIME_BASES[:i])
    *decided, (last, _) = A014233
    assert not any(is_prime(psi) for psi, _ in decided)
    # beyond trial division: Mersenne primes, 2^67 - 1 = 193707721 *
    # 761838257287 with no small factor, and the least prime above 10^24
    assert 193707721 * 761838257287 == 2**67 - 1
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and not is_prime(2**67 - 1)
    assert is_prime(10**24 + 7) and not any(is_prime(10**24 + i) for i in range(1, 7))
    for n in (last, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_classification():
    assert all(classify_d(d) == 1 for d in (2, 4, 8, 16, 32, 64))
    assert all(classify_d(d) == 2 for d in (3, 5, 7, 11, 13, 61))
    assert all(classify_d(d) is None for d in (1, 6, 9, 10, 12, 15, 21))


def test_family_up_to_16():
    assert in_scope_family(16) == [2, 3, 4, 5, 7, 8, 11, 13, 16]
