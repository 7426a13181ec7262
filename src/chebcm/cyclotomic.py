"""Exact arithmetic in Z[zeta_n]: power-basis elements mod the n-th
cyclotomic polynomial, and the Galois stabilizer and minimal polynomial
over Z of eta_n.

The elements eta_n = zeta_n - zeta_n^(-1) generate the CM fields this
package certifies; their Galois stabilizers are computed here by plain
cyclotomic arithmetic so they can be checked against the congruence
description in unitgroups.  The minimal polynomial of eta_n is written
down from Phi_m and the Chebyshev phi_j, checked to annihilate eta_n, and
proved minimal by a rank count mod a large prime, without the Galois
action (eta_minimal_polynomial).  Every element on these paths is an
algebraic integer, and the only inverses taken are of the units
+-zeta^k, so the coefficients stay integers throughout.

The polynomials here, Phi_n and that minimal polynomial, lie in Z[x]
(algebra.UniPolynomial); nothing builds a polynomial with coefficients
in Z[zeta_n].  Elements of Z[zeta_n] for different n never mix: that
raises RingMismatchError, as does coercing a value that is not an int.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .algebra import UniPolynomial
from .chebyshev import chebyshev, is_prime
from .unitgroups import euler_phi, kd_kernel, unit_group


class RingMismatchError(TypeError):
    """Operands lie in Z[zeta_n] for different n, or a value does not lift
    into Z[zeta_n]."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> UniPolynomial:
    """Phi_n in Z[x], by exact division of x^n - 1 by the proper-divisor product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xn_minus_1 = UniPolynomial((-1,) + (0,) * (n - 1) + (1,))
    if n == 1:
        return xn_minus_1
    prod = UniPolynomial((1,))
    for d in range(1, n):
        if n % d == 0:
            prod = prod * cyclotomic_polynomial(d)
    q, r = divmod(xn_minus_1, prod)
    if not r.is_zero():
        raise AssertionError(f"x^{n}-1 not divisible by product of lower Phi_d")
    return q


class CyclotomicElement:
    """Element of Z[zeta_n], as its coefficient tuple in the power basis of
    its CyclotomicContext.  Plain ints lift into the ring; elements of
    different rings never mix."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = list(map(operator.index, coeffs))
        low = cs[: ring.degree] + [0] * (ring.degree - len(cs))
        for k, c in enumerate(cs[ring.degree :], ring.degree):
            if c:  # c zeta^k with k >= phi(n), reduced mod Phi_n
                low = [a + c * b for a, b in zip(low, ring.power(k))]
        self.ring = ring
        self.coeffs = tuple(low)

    def _lift(self, other):
        if isinstance(other, CyclotomicElement):
            if other.ring is not self.ring:
                raise RingMismatchError(f"elements of {self.ring!r} and {other.ring!r}")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return CyclotomicElement(self.ring, (other,))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(self.ring, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(self.ring, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CyclotomicElement(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(self.ring, self.ring._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def inverse(self):
        """Inverse of a unit +-zeta^k, the only inverses the CM layer takes;
        any other element raises ZeroDivisionError."""
        ctx = self.ring
        for sign in (1, -1):
            k = ctx._exponent.get(tuple(sign * c for c in self.coeffs))
            if k is not None:
                return CyclotomicElement(ctx, [sign * c for c in ctx.power(-k)])
        raise ZeroDivisionError(f"{self!r} is not a unit +-zeta^k")

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __hash__(self):
        return hash((self.ring.n, self.coeffs))

    def __str__(self):
        terms = []
        for k in range(self.ring.degree - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            else:
                e = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    terms.append(e)
                elif c == -1:
                    terms.append(f"-{e}")
                else:
                    terms.append(f"{c}*{e}")
        if not terms:
            return "0"
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self):
        return f"Cyclo({self.ring.n}; {self})"


class CyclotomicContext:
    """Z[zeta_n] in the power basis 1, zeta, ..., zeta^(phi(n)-1).

    One context per n, so two elements lie in the same ring exactly when
    they share their context object.  That Phi_n divides x^n - 1 is
    checked once, by cyclotomic_polynomial.
    """

    _instances: dict = {}

    def __new__(cls, n):
        inst = cls._instances.get(n)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(n)
            cls._instances[n] = inst
        return inst

    def _init(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        phi = cyclotomic_polynomial(n)
        self.n = n
        self.degree = phi.degree
        self.phi = phi
        # power_table[k] = zeta^k reduced mod Phi_n, for 0 <= k < n
        neg = [-c for c in phi.coeffs[: self.degree]]
        table = []
        row = [1] + [0] * (self.degree - 1)
        for _ in range(n):
            table.append(tuple(row))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [a + top * b for a, b in zip(row, neg)]
        self._table = table
        self._exponent = {row: k for k, row in enumerate(table)}  # zeta^k -> k
        self.zero = CyclotomicElement(self, ())
        self.one = CyclotomicElement(self, (1,))
        self.zeta = CyclotomicElement(self, self.power(1))

    def power(self, k: int):
        """Coefficient vector of zeta^k (any integer k)."""
        return self._table[k % self.n]

    def zeta_power(self, k: int) -> CyclotomicElement:
        return CyclotomicElement(self, self.power(k))

    def _mul(self, a, b):
        deg = self.degree
        out = [0] * deg
        high = {}
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                k = i + j
                if k < deg:
                    out[k] += ai * bj
                else:
                    high[k] = high.get(k, 0) + ai * bj
        for k, c in high.items():
            row = self.power(k)
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
        return out

    def coerce(self, v):
        out = self.one._lift(v)
        if out is None:
            raise RingMismatchError(f"cannot coerce {v!r} into Z[zeta_{self.n}]")
        return out

    def __repr__(self):
        return f"CyclotomicContext({self.n})"


def eta(n: int) -> CyclotomicElement:
    """zeta_n - zeta_n^(-1)."""
    ctx = CyclotomicContext(n)
    return ctx.zeta_power(1) - ctx.zeta_power(-1)


def eta_stabilizer(n: int) -> frozenset:
    """Units a mod n whose automorphism zeta -> zeta^a fixes eta(n), by
    direct cyclotomic arithmetic on zeta^a - zeta^(-a)."""
    if n == 1:
        return frozenset({0})
    ctx = CyclotomicContext(n)
    target = eta(n).coeffs
    out = set()
    for a in unit_group(n):
        img = tuple(p - q for p, q in zip(ctx.power(a), ctx.power(-a)))
        if img == target:
            out.add(a)
    return frozenset(out)


def _times_eta(ctx: CyclotomicContext, v: list) -> list:
    """eta_n * v on coefficient lists, as zeta v - zeta^(-1) v: two shifts
    plus multiples of the reduced zeta^(phi(n)) and zeta^(-1)."""
    up, down, top, low = [0] + v[:-1], v[1:] + [0], v[-1], v[0]
    rows = zip(up, down, ctx.power(ctx.degree), ctx.power(-1))
    return [a - b + top * r - low * s for a, b, r, s in rows]


def _eta_rank_mod(n: int, count: int, ell: int) -> int:
    """Rank over F_ell of 1, eta_n, ..., eta_n^(count-1)."""
    ctx = CyclotomicContext(n)
    pivots = []  # (column, row that is 1 there and 0 at earlier pivot columns)
    v = list(ctx.power(0))
    for _ in range(count):
        w = v
        for col, row in pivots:
            if c := w[col]:
                w = [(a - c * b) % ell for a, b in zip(w, row)]
        col = next((i for i, a in enumerate(w) if a), None)
        if col is not None:
            inv = pow(w[col], -1, ell)
            pivots.append((col, [a * inv % ell for a in w]))
        v = [a % ell for a in _times_eta(ctx, v)]
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
    ctx = CyclotomicContext(n)
    acc = [0] * ctx.degree
    for a in reversed(poly.coeffs):
        acc = _times_eta(ctx, acc)
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
