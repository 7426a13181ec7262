"""Monic Chebyshev-type recurrence and the plane curve models built from it.

phi_0 = 2, phi_1 = x, phi_(d+1) = x*phi_d - phi_(d-1); these satisfy
phi_d(x + 1/x) = x^d + x^(-d), which is the identity every quotient
computation in this package rests on.  The curve attached to d is
y^2 = (x + 2) * phi_d(x).
"""

from __future__ import annotations

from .algebra import ZZ, UniPolynomial, compose_x_plus_inverse

_CACHE = [
    UniPolynomial(ZZ, (2,)),
    UniPolynomial(ZZ, (0, 1)),
]
_X = UniPolynomial(ZZ, (0, 1))


def chebyshev(d: int) -> UniPolynomial:
    """phi_d over ZZ."""
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
    return UniPolynomial(ZZ, (2, 1)) * chebyshev(d)


def genus_of_cd(d: int) -> int:
    """Genus floor((deg f - 1) / 2) of y^2 = f(x) = (x+2)*phi_d(x), d >= 2,
    read from the degree alone; HyperellipticCurve (make_cd) is what
    checks that the model is squarefree."""
    if d < 2:
        raise ValueError("d must be >= 2 (d = 1 gives genus 0)")
    return (curve_polynomial(d).degree - 1) // 2


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
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
