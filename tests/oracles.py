"""Slow exact oracles for the test suite; nothing under src/ imports them.

cyc_add, cyc_sub, cyc_mul and cyc_eval are schoolbook arithmetic in
Z[zeta_n] on the coefficient tuples of cyclotomic.zeta_powers(n), which
src/ never multiplies.  galois_apply is the automorphism zeta -> zeta^a.
minimal_polynomial eliminates over Q on the powers of an element of
Z[zeta_n]; minimal_polynomial_orbit multiplies (t - y) over its distinct
Galois images.  Both pin cyclotomic.eta_minimal_polynomial, which builds
the minimal polynomial of eta_n in integers from Phi_m, and
cyclotomic.eta_stabilizer.

divmod_q, gcd_q and gcd_mod are schoolbook division and Euclid over Q
(Fraction) and over F_p, on coefficient lists low degree first: the
references for algebra.squarefree, zeta.good_reduction and the
integer-list layer, which take no gcd over a field of fractions.

count_points_euler counts y^2 = f(x) over F_p by Euler's criterion on
Python ints, one x at a time: the reference for the numpy count over F_p
at primes too large for zeta.count_points_naive.  count_points_euler_int64
is the same count on int64 rows, for primes near 2^21 where one x at a
time takes seconds; it keeps every product below p^2 by numpy's signed %,
where the count under test uses unsigned floor division and a squares
table.

is_prime_trial is trial division, the reference for chebyshev.is_prime's
Miller-Rabin test.

_mulmod and _powmod are schoolbook products in F_p[x]/(m) on integer
lists, the remainder taken by algebra._int_poly_divmod: the reference
for algebra's packed products _times and _power, which are the only
ones src/ runs.  factor_degrees_mod is the distinct-degree factorization
algebra._factor_degrees_mod ran on them, the reference for its degrees.
count_points_naive enumerates F_(p^k) = F_p[x]/(m), m = field_tower(p,
k), as reduced lists, evaluates f by Horner with _mulmod and looks each
value up in the set of squares: the reference for zeta.count_points at
every k, and only sensible for tiny fields.

primitive_modulus is the search zeta._primitive_modulus once ran: every
monic in encoding order, through a norm test, Ben-Or's test and the order
test of x, on the list products.  It is the reference for the modulus
that the faster search chooses.

subset_scan is the L-side factor search that zeta.lpoly_is_irreducible
once ran: it rounds the products of up to g of the 2g complex roots of
L and answers "irreducible" when none divides.  That verdict rests on
rounding, so it is only a reference for the verdicts, not a proof.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from chebcm.algebra import (
    UniPolynomial,
    _gcd_mod,
    _int_poly_divmod,
    _monics,
    _reduce_mod,
    field_tower,
)
from chebcm.cyclotomic import zeta_powers
from chebcm.unitgroups import prime_factors, unit_group
from chebcm.zeta import BadReductionError, _infinity_points, good_reduction


def cyc_add(x, y):
    """x + y in Z[zeta_n]; elements are coefficient tuples in the power
    basis of zeta_powers(n), and two are equal exactly when their tuples
    are."""
    return tuple(a + b for a, b in zip(x, y))


def cyc_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def cyc_mul(n, x, y):
    """x * y in Z[zeta_n], schoolbook: each product of a zeta^i term and
    a zeta^j term adds a multiple of the row zeta^(i+j)."""
    table = zeta_powers(n)
    out = [0] * len(table[0])
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                out = [o + a * b * r for o, r in zip(out, table[(i + j) % n])]
    return tuple(out)


def cyc_int(n, c):
    """The integer c in Z[zeta_n]."""
    return tuple(c * r for r in zeta_powers(n)[0])


def cyc_eval(n, poly, x):
    """poly(x) for poly in Z[t] and x in Z[zeta_n], by Horner."""
    acc = cyc_int(n, 0)
    for c in reversed(poly.coeffs):
        acc = cyc_add(cyc_mul(n, acc, x), cyc_int(n, c))
    return acc


def galois_apply(n, a, x):
    """Image of x in Z[zeta_n] under zeta -> zeta^a; a must be a unit mod n."""
    if n > 1 and math.gcd(a % n, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    table = zeta_powers(n)
    out = cyc_int(n, 0)
    for i, c in enumerate(x):
        out = cyc_add(out, tuple(c * r for r in table[a * i % n]))
    return out


def minimal_polynomial(n, x) -> UniPolynomial:
    """Monic minimal polynomial of x in Z[zeta_n], from the first linear
    dependence among 1, x, x^2, ... (eliminated over Q); x is an
    algebraic integer, so the result lies in Z[t], and it annihilates x
    exactly."""
    dim = len(x)
    basis = []  # rows: (reduced vector, combination over previous powers)
    powers = [cyc_int(n, 1)]
    while True:
        m = len(powers) - 1
        vec = [Fraction(c) for c in powers[-1]]
        combo = [Fraction(0)] * (m + 1)
        combo[m] = Fraction(1)
        for pivot_col, bvec, bcombo in basis:
            c = vec[pivot_col]
            if c:
                vec = [a - c * b for a, b in zip(vec, bvec)]
                combo = [
                    a - c * (bcombo[i] if i < len(bcombo) else 0)
                    for i, a in enumerate(combo)
                ]
        nz = next((i for i, c in enumerate(vec) if c), None)
        if nz is None:
            # 0 = sum combo[i] * x^i with combo[m] = 1: that is the minimal polynomial
            if any(c.denominator != 1 for c in combo):
                raise AssertionError("minimal polynomial not in Z[t]")
            poly = UniPolynomial([c.numerator for c in combo])
            if any(cyc_eval(n, poly, x)):
                raise AssertionError("minimal polynomial fails to annihilate")
            return poly
        inv = Fraction(1) / vec[nz]
        vec = [c * inv for c in vec]
        combo = [c * inv for c in combo]
        basis.append((nz, vec, combo))
        if m > dim:
            raise AssertionError("no dependence found below field degree")
        powers.append(cyc_mul(n, powers[-1], x))


def minimal_polynomial_orbit(n, x) -> UniPolynomial:
    """Same minimal polynomial, built as the product of (t - image) over the
    distinct Galois images of x; cross-check path for the dependence method."""
    images = []
    for a in unit_group(n):
        y = galois_apply(n, a, x)
        if y not in images:
            images.append(y)
    prod = [cyc_int(n, 1)]  # coefficients in Z[zeta_n], low degree first
    for y in images:
        # prod * (t - y)
        prod = [cyc_sub(cyc_int(n, 0), cyc_mul(n, y, prod[0]))] + [
            cyc_sub(a, cyc_mul(n, y, b)) for a, b in zip(prod[:-1], prod[1:])
        ] + [prod[-1]]
    if any(any(c[1:]) for c in prod):
        raise AssertionError("orbit product has an irrational coefficient")
    return UniPolynomial([c[0] for c in prod])


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a, b, norm, inv):
    """Quotient and remainder of a by b over a field whose coefficients
    norm reduces and inv inverts; b has a nonzero leading coefficient."""
    a, db = [norm(c) for c in a], len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    lc_inv = inv(b[-1])
    for k in range(len(a) - 1 - db, -1, -1):
        quot[k] = c = norm(a[k + db] * lc_inv)
        for i, bc in enumerate(b):
            a[k + i] = norm(a[k + i] - c * bc)
    return _trim(quot), _trim(a)


def _gcd(a, b, norm, inv):
    """Monic gcd by Euclid; [] when a and b are both zero."""
    a, b = _trim([norm(c) for c in a]), _trim([norm(c) for c in b])
    while b:
        a, b = b, _divmod(a, b, norm, inv)[1]
    return [norm(c * inv(a[-1])) for c in a] if a else a


def divmod_q(a, b):
    """Quotient and remainder of a by b over Q."""
    return _divmod(a, _trim([Fraction(c) for c in b]), Fraction, lambda c: 1 / c)


def gcd_q(a, b):
    """Monic gcd over Q."""
    return _gcd(a, b, Fraction, lambda c: 1 / c)


def gcd_mod(a, b, p):
    """Monic gcd over F_p."""
    return _gcd(a, b, lambda c: c % p, lambda c: pow(c, -1, p))


def count_points_euler(coeffs, p):
    """Points of the smooth model of y^2 = f(x) over F_p, f given by its
    integer coefficients low degree first: 1 + chi(f(x)) for each x, chi
    by Euler's criterion, plus 1 point at infinity for odd deg f and
    1 + chi(lc) for even."""

    def chi(v):
        v %= p
        return 0 if v == 0 else 1 if pow(v, (p - 1) // 2, p) == 1 else -1

    total = 0
    for x in range(p):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % p
        total += 1 + chi(v)
    return total + (1 if len(coeffs) % 2 == 0 else 1 + chi(coeffs[-1]))


def count_points_euler_int64(coeffs, p, block=1 << 18):
    """count_points_euler for p < 2^31, a block of x at a time in int64:
    Horner on the coefficients mod p, then v^((p - 1)/2) by square and
    multiply, each product reduced by % at once."""
    assert p < 2**31
    reduced = [c % p for c in reversed(coeffs)]
    total = 0
    for start in range(0, p, block):
        x = np.arange(start, min(start + block, p), dtype=np.int64)
        v = np.zeros_like(x)
        for c in reduced:
            v = (v * x + c) % p
        power, base, e = np.ones_like(x), v.copy(), (p - 1) // 2
        while e:
            if e & 1:
                power = power * base % p
            base = base * base % p
            e >>= 1
        # 1 + chi(v): 1 at v = 0, 2 where power = 1, 0 where power = p - 1
        total += int(np.count_nonzero(v == 0)) + 2 * int(np.count_nonzero((v != 0) & (power == 1)))
    lc = coeffs[-1] % p
    chi_lc = 0 if lc == 0 else 1 if pow(lc, (p - 1) // 2, p) == 1 else -1
    return total + (1 if len(coeffs) % 2 == 0 else 1 + chi_lc)


def subset_scan(lp):
    """(False, f) for the first product f of a subset of L's reciprocal
    roots alpha_i, rounded to integers, whose reciprocal divides T^(2g)
    L(1/T) exactly; f is the L-side factor, constant term 1.  (True,
    None) when no subset of at most g roots gives one."""
    g = lp.genus
    roots = np.roots(np.array(lp.coeffs, dtype=float))
    rec = UniPolynomial(reversed(lp.coeffs))
    for size in range(1, g + 1):
        for subset in combinations(range(2 * g), size):
            cand_hi = np.poly(roots[list(subset)])
            ints = [int(round(float(np.real(c)))) for c in cand_hi]
            if np.max(np.abs(cand_hi - np.array(ints))) > 0.3:
                continue
            if (rec % UniPolynomial(reversed(ints))).is_zero():
                return False, ints
    return True, None


def is_prime_trial(n):
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    return all(n % i for i in range(2, math.isqrt(n) + 1))


def _mulmod(a, b, f, p):
    """a * b mod (f, p), f monic."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _int_poly_divmod(out, f, p)[1]


def _powmod(a, e, f, p):
    """a^e mod (f, p), f monic, e >= 0, by square-and-multiply."""
    out = [1]
    while e:
        if e & 1:
            out = _mulmod(out, a, f, p)
        a = _mulmod(a, a, f, p)
        e >>= 1
    return out


def factor_degrees_mod(h, p):
    """Degrees of the irreducible factors of the monic integer h mod p,
    by distinct-degree factorization on _powmod; None when h mod p has a
    repeated factor."""
    f = _reduce_mod(list(h), p)  # monic, as h is
    if len(_gcd_mod(f, [i * c for i, c in enumerate(h)][1:], p)) > 1:
        return None
    degrees = []
    xq, d = [0, 1], 0  # xq = x^(p^d) mod f
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        xq = _powmod(xq, p, f, p)
        # the product of the degree-d factors of f is gcd(f, x^(p^d) - x)
        diff = xq + [0] * (2 - len(xq))
        diff[1] -= 1
        common = _gcd_mod(f, diff, p)
        if len(common) > 1:
            degrees += [d] * ((len(common) - 1) // d)
            f = _int_poly_divmod(f, common, p)[0]
            xq = _int_poly_divmod(xq, f, p)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def count_points_naive(curve, p, k=1):
    """Points of the smooth model of curve over F_(p^k) by enumeration of
    F_p[x]/(field_tower(p, k)); BadReductionError as zeta.count_points."""
    if not good_reduction(curve, p):
        raise BadReductionError(f"{curve.label} has bad reduction at p={p}")
    m = field_tower(p, k)
    # the monics of degree k, top coefficient dropped, are all of F_(p^k)
    elems = [_reduce_mod(c[:-1], p) for c in _monics(p, k)]
    squares = {tuple(_mulmod(x, x, m, p)) for x in elems}
    total = 0
    for x in elems:
        v = []
        for c in reversed(curve.f.coeffs):
            v = _mulmod(v, x, m, p) or [0]
            v[0] += c
            v = _reduce_mod(v, p)
        if not v:
            total += 1
        elif tuple(v) in squares:
            total += 2
    return total + _infinity_points(curve, p, k)


def primitive_modulus(p, k):
    """First monic m of degree k, low degree first, in encoding order that
    is irreducible mod p and modulo which x has order exactly n = p^k - 1.
    The norm (-1)^k m_0 = x^(n/(p-1)) must have order p - 1, which settles
    x^(n/r) != 1 for the primes r | p - 1; Ben-Or's test stops at the first
    d <= k/2 with gcd(m, x^(p^d) - x) != 1; then x^(n/r) != 1 for every
    other prime r | n, each by _powmod."""
    n = p**k - 1
    primes = [r for r in prime_factors(n) if (p - 1) % r]
    norm_cofactors = [(p - 1) // r for r in prime_factors(p - 1)]

    def irreducible(m):
        xq = [0, 1]  # x^(p^d) mod m
        for _ in range(k // 2):
            xq = _powmod(xq, p, m, p)
            if _gcd_mod(m, [c - (j == 1) for j, c in enumerate(xq + [0, 0])], p) != [1]:
                return False
        return True

    for m in _monics(p, k):
        norm = (-1) ** k * m[0] % p
        if (
            norm
            and all(pow(norm, e, p) != 1 for e in norm_cofactors)
            and irreducible(m)
            and all(_powmod([0, 1], n // r, m, p) != [1] for r in primes)
        ):
            return tuple(m)
    raise AssertionError("F_q^* is cyclic (unreachable)")
