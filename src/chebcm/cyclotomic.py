"""Exact arithmetic in Z[zeta_n]: power-basis elements mod the n-th
cyclotomic polynomial, Galois action zeta -> zeta^a, and minimal
polynomials over Z.

The elements eta_n = zeta_n - zeta_n^(-1) generate the CM fields this
package certifies; their Galois stabilizers are computed here by plain
cyclotomic arithmetic so they can be checked against the congruence
description in unitgroups.  Every element on these paths is an algebraic
integer, and the only inverses taken are of the units +-zeta^k, so the
coefficients stay integers throughout.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .algebra import PowerBasisElement, RingMismatchError, UniPolynomial, ZZ
from .unitgroups import euler_phi, kd_kernel, unit_group


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> UniPolynomial:
    """Phi_n over ZZ, by exact division of x^n - 1 by the proper-divisor product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xn_minus_1 = UniPolynomial(ZZ, (-1,) + (0,) * (n - 1) + (1,))
    if n == 1:
        return xn_minus_1
    prod = UniPolynomial(ZZ, (1,))
    for d in range(1, n):
        if n % d == 0:
            prod = prod * cyclotomic_polynomial(d)
    q, r = divmod(xn_minus_1, prod)
    if not r.is_zero():
        raise AssertionError(f"x^{n}-1 not divisible by product of lower Phi_d")
    return q


class CyclotomicElement(PowerBasisElement):
    __slots__ = ()

    def __init__(self, ring, coeffs):
        cs = list(map(operator.index, coeffs))
        low = cs[: ring.degree] + [0] * (ring.degree - len(cs))
        for k, c in enumerate(cs[ring.degree :], ring.degree):
            if c:  # c zeta^k with k >= phi(n), reduced mod Phi_n
                low = [a + c * b for a, b in zip(low, ring.power(k))]
        self.ring = ring
        self.coeffs = tuple(low)

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

    Doubles as a coefficient ring for UniPolynomial.  Construction
    sanity-checks that Phi_n divides x^n - 1.
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
        xn = UniPolynomial(ZZ, (-1,) + (0,) * (n - 1) + (1,))
        if not (xn % phi).is_zero():
            raise AssertionError(f"Phi_{n} does not divide x^{n} - 1")
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

    is_field = False

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

    def __call__(self, v):
        return self.coerce(v)

    def __eq__(self, other):
        return isinstance(other, CyclotomicContext) and other.n == self.n

    def __hash__(self):
        return hash(("cyclo", self.n))

    def __repr__(self):
        return f"CyclotomicContext({self.n})"


def eta(n: int) -> CyclotomicElement:
    """zeta_n - zeta_n^(-1)."""
    ctx = CyclotomicContext(n)
    return ctx.zeta_power(1) - ctx.zeta_power(-1)


def galois_apply(a: int, x: CyclotomicElement) -> CyclotomicElement:
    """Image of x under zeta -> zeta^a; a must be a unit mod n."""
    ctx = x.ring
    n = ctx.n
    if n > 1 and math.gcd(a % n, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    out = [0] * ctx.degree
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        row = ctx.power(a * i)
        for j in range(ctx.degree):
            if row[j]:
                out[j] += c * row[j]
    return CyclotomicElement(ctx, out)


def minimal_polynomial(x: CyclotomicElement) -> UniPolynomial:
    """Monic minimal polynomial of x, from the first linear dependence among
    1, x, x^2, ... (eliminated over Q); x is an algebraic integer, so the
    result lies in Z[t], and it annihilates x exactly."""
    ctx = x.ring
    dim = ctx.degree
    basis = []  # rows: (reduced vector, combination over previous powers)
    powers = [ctx.one]
    while True:
        m = len(powers) - 1
        vec = [Fraction(c) for c in powers[-1].coeffs]
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
            poly = UniPolynomial(ZZ, combo)
            check = poly(x)
            if check != ctx.zero:
                raise AssertionError("minimal polynomial fails to annihilate")
            return poly
        inv = Fraction(1) / vec[nz]
        vec = [c * inv for c in vec]
        combo = [c * inv for c in combo]
        basis.append((nz, vec, combo))
        if m > dim:
            raise AssertionError("no dependence found below field degree")
        powers.append(powers[-1] * x)


def minimal_polynomial_orbit(x: CyclotomicElement) -> UniPolynomial:
    """Same minimal polynomial, built as the product of (t - image) over the
    distinct Galois images of x; cross-check path for the dependence method."""
    ctx = x.ring
    images = []
    for a in unit_group(ctx.n):
        y = galois_apply(a, x)
        if y not in images:
            images.append(y)
    prod = UniPolynomial(ctx, (ctx.one,))
    for y in images:
        prod = prod * UniPolynomial(ctx, (-y, ctx.one))
    if not all(c.is_rational() for c in prod.coeffs):
        raise AssertionError("orbit product has an irrational coefficient")
    return UniPolynomial(ZZ, [c.coeffs[0] for c in prod.coeffs])


def eta_stabilizer(n: int) -> frozenset:
    """Units a mod n with galois_apply(a, eta(n)) == eta(n), by direct
    cyclotomic arithmetic on zeta^a - zeta^(-a)."""
    if n == 1:
        return frozenset({0})
    ctx = CyclotomicContext(n)
    target = eta(n).coeffs
    out = set()
    for a in unit_group(n):
        img = tuple(
            p - q for p, q in zip(ctx.power(a), ctx.power(-a))
        )
        if img == target:
            out.add(a)
    return frozenset(out)


@lru_cache(maxsize=None)
def eta_minimal_polynomial(n: int) -> UniPolynomial:
    """minimal_polynomial(eta(n)), computed once per n."""
    return minimal_polynomial(eta(n))


def kd_degree_check(n: int) -> bool:
    """deg of the minimal polynomial of eta_n equals phi(n) / |kernel|."""
    deg = eta_minimal_polynomial(n).degree
    return deg * len(kd_kernel(n)) == euler_phi(n)
