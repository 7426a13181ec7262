"""Z[zeta_n] as coefficient vectors in the power basis mod the n-th
cyclotomic polynomial, and the Galois stabilizer and minimal polynomial
over Z of eta_n.

Nothing here multiplies two elements of Z[zeta_n].  The units +-zeta^k
that the automorphisms in curves carry are exponents mod n; zeta_powers
is the one table that turns an exponent into a vector.  The vectors
built from it are differences zeta^u - zeta^v (zeta_difference): eta_n =
zeta_n - zeta_n^(-1), its Galois images, and the eigenvalues of [zeta] -
[zeta^(-1)], which the report prints with algebra.format_polynomial;
and, in the minimality proof below, polynomials in eta_n.

The elements eta_n generate the CM fields this package certifies; their
Galois stabilizers are computed here from the power table so they can be
checked against the congruence description in unitgroups.  The minimal
polynomial of eta_n is written down from Phi_m and the Chebyshev phi_j,
checked to annihilate eta_n, and proved minimal by a rank count mod a
large prime, without the Galois action (eta_minimal_polynomial).  Its
only product is by eta_n itself, two shifts and two table rows
(_times_eta), so the coefficients stay integers throughout.  The
polynomials here, Phi_n and that minimal polynomial, lie in Z[x]
(algebra.UniPolynomial).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .algebra import UniPolynomial
from .chebyshev import chebyshev, is_prime
from .unitgroups import euler_phi, kd_kernel, unit_group


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> UniPolynomial:
    """Phi_n in Z[x], by exact division of x^n - 1 by the proper-divisor product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xn_minus_1 = UniPolynomial((-1,) + (0,) * (n - 1) + (1,))
    prod = UniPolynomial((1,))
    for d in range(1, n):
        if n % d == 0:
            prod = prod * cyclotomic_polynomial(d)
    q, r = divmod(xn_minus_1, prod)
    if not r.is_zero():
        raise AssertionError(f"x^{n}-1 not divisible by product of lower Phi_d")
    return q


@lru_cache(maxsize=None)
def zeta_powers(n: int) -> tuple:
    """Coefficient vectors of zeta_n^k, 0 <= k < n, in the power basis 1,
    zeta, ..., zeta^(phi(n)-1): each row is the last one shifted up once,
    with the carried zeta^(phi(n)) reduced mod Phi_n.  Row k % n is
    zeta^k for any integer k."""
    phi = cyclotomic_polynomial(n)
    neg = [-c for c in phi.coeffs[: phi.degree]]
    table = []
    row = [1] + [0] * (phi.degree - 1)
    for _ in range(n):
        table.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [a + top * b for a, b in zip(row, neg)]
    return tuple(table)


def zeta_difference(n: int, u: int, v: int) -> tuple:
    """Coefficient vector of zeta_n^u - zeta_n^v."""
    table = zeta_powers(n)
    return tuple(a - b for a, b in zip(table[u % n], table[v % n]))


def eta(n: int) -> tuple:
    """zeta_n - zeta_n^(-1), as a coefficient vector."""
    return zeta_difference(n, 1, -1)


def eta_stabilizer(n: int) -> frozenset:
    """Units a mod n whose automorphism zeta -> zeta^a fixes eta(n), by
    direct cyclotomic arithmetic on zeta^a - zeta^(-a)."""
    target = eta(n)
    return frozenset(a for a in unit_group(n) if zeta_difference(n, a, -a) == target)


def _times_eta(table: tuple, v: list) -> list:
    """eta_n * v on coefficient lists, as zeta v - zeta^(-1) v: two shifts
    plus multiples of the reduced zeta^(phi(n)) and zeta^(-1), read from
    table = zeta_powers(n)."""
    up, down, top, low = [0] + v[:-1], v[1:] + [0], v[-1], v[0]
    rows = zip(up, down, table[len(v)], table[-1])
    return [a - b + top * r - low * s for a, b, r, s in rows]


def _eta_rank_mod(n: int, count: int, ell: int) -> int:
    """Rank over F_ell of 1, eta_n, ..., eta_n^(count-1)."""
    table = zeta_powers(n)
    pivots = []  # (column, row that is 1 there and 0 at earlier pivot columns)
    v = list(table[0])
    for _ in range(count):
        w = v
        for col, row in pivots:
            if c := w[col]:
                w = [(a - c * b) % ell for a, b in zip(w, row)]
        col = next((i for i, a in enumerate(w) if a), None)
        if col is not None:
            inv = pow(w[col], -1, ell)
            pivots.append((col, [a * inv % ell for a in w]))
        v = [a % ell for a in _times_eta(table, v)]
    return len(pivots)


_RANK_PRIME = 2**31 - 1  # first prime of the minimality proof; 8 are tried


@lru_cache(maxsize=None)
def eta_minimal_polynomial(n: int) -> UniPolynomial:
    """Minimal polynomial over Z of eta_n, n >= 3, built once per n.

    xi = zeta_n^2 has order m = n / gcd(n, 2) and eta^2 + 2 = xi + xi^(-1),
    so eta is a root of P(X) = Psi_m(X^2 + 2), where Phi_m(x) =
    x^h Psi_m(x + 1/x), h = phi(m)/2.  As Phi_m = sum c_i x^i is
    palindromic and x^j + x^(-j) = phi_j(x + 1/x), Psi_m = c_h +
    sum_(j>=1) c_(h+j) phi_j; Psi_2 = u + 2, from xi = -1.  P(eta) = 0 is
    checked by Horner in Z[zeta_n].  1, eta, ..., eta^(D-1), D = deg P,
    have rank D over F_ell (ell = 2^31 - 1, or the next prime while the
    rank drops), so no nonzero polynomial over Q of degree below D
    annihilates eta, and the monic P is minimal.  The proof does not use
    the Galois action, so it stays independent of eta_stabilizer.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    m = n // math.gcd(n, 2)
    if m == 2:
        psi = UniPolynomial((2, 1))
    else:
        c = cyclotomic_polynomial(m).coeffs
        h = len(c) // 2
        psi = sum((c[h + j] * chebyshev(j) for j in range(1, h + 1)), c[h])
    poly = psi(UniPolynomial((2, 0, 1)))
    table = zeta_powers(n)
    acc = [0] * len(table[0])
    for a in reversed(poly.coeffs):
        acc = _times_eta(table, acc)
        acc[0] += a
    if any(acc):
        raise AssertionError(f"Psi_{m}(X^2 + 2) does not annihilate eta_{n}")
    ell = _RANK_PRIME
    for _ in range(8):
        if _eta_rank_mod(n, poly.degree, ell) == poly.degree:
            return poly
        ell = next(q for q in range(ell + 1, 2 * ell) if is_prime(q))
    raise AssertionError(f"powers of eta_{n} not proved independent")


def kd_degree_check(n: int) -> bool:
    """deg of the minimal polynomial of eta_n equals phi(n) / |kernel|."""
    deg = eta_minimal_polynomial(n).degree
    return deg * len(kd_kernel(n)) == euler_phi(n)
