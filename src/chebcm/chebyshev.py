"""Monic Chebyshev-type recurrence and the plane curve models built from it.

phi_0 = 2, phi_1 = x, phi_(d+1) = x*phi_d - phi_(d-1); these satisfy
phi_d(x + 1/x) = x^d + x^(-d), which is the identity every quotient
computation in this package rests on.  The curve attached to d is
y^2 = (x + 2) * phi_d(x).
"""

from __future__ import annotations

from math import gcd, prod

from .algebra import UniPolynomial, compose_x_plus_inverse

_X = UniPolynomial((0, 1))
_CACHE = [UniPolynomial((2,)), _X]


def chebyshev(d: int) -> UniPolynomial:
    """phi_d in Z[x]."""
    if d < 0:
        raise ValueError("d must be >= 0")
    while len(_CACHE) <= d:
        _CACHE.append(_X * _CACHE[-1] - _CACHE[-2])
    return _CACHE[d]


def verify_functional_equation(d: int) -> bool:
    """Exact check of phi_d(x + 1/x) == x^d + x^(-d), multiplied by x^d."""
    return compose_x_plus_inverse(chebyshev(d)) == _X ** (2 * d) + 1


def curve_polynomial(d: int) -> UniPolynomial:
    """(x + 2) * phi_d(x), the right-hand side of the curve for index d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return UniPolynomial((2, 1)) * chebyshev(d)


def genus_of_cd(d: int) -> int:
    """Genus floor((deg f - 1) / 2) of y^2 = f(x) = (x+2)*phi_d(x), d >= 2,
    read from the degree alone; HyperellipticCurve (make_cd) is what
    checks that the model is squarefree."""
    if d < 2:
        raise ValueError("d must be >= 2 (d = 1 gives genus 0)")
    return (curve_polynomial(d).degree - 1) // 2


# the first 13 primes, and OEIS A014233: psi_i is the least odd composite
# that is a strong probable prime to each of the first i of them, so for
# n < psi_i those i bases decide primality (Jaeschke; Sorenson and
# Webster for psi_12 and psi_13)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMORIAL = prod(_MR_BASES)
_MR_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below psi_13 ~ 3.3 * 10^24; a
    larger n raises ValueError rather than get a probable-prime verdict."""
    if n < 2:
        return False
    if n >= _MR_BOUNDS[-1]:
        raise ValueError(f"is_prime is deterministic only below {_MR_BOUNDS[-1]}")
    if gcd(n, _PRIMORIAL) != 1:  # a small factor decides n
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for b, bound in zip(_MR_BASES, _MR_BOUNDS):
        x = pow(b, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False  # b witnesses that n is composite
        if n < bound:
            break  # the bases so far decide every n < psi_i
    return True


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def classify_d(d: int):
    """1 for d = 2^e with e >= 1, 2 for odd primes, None otherwise."""
    if d >= 2 and is_power_of_two(d):
        return 1
    if d >= 3 and d % 2 == 1 and is_prime(d):
        return 2
    return None


def in_scope_family(dmax: int) -> list[int]:
    """All in-scope indices d <= dmax, sorted."""
    return [d for d in range(2, dmax + 1) if classify_d(d) is not None]
