"""Multiplicative residue groups (Z/nZ)^* and the subgroup/quotient bookkeeping
used to describe the Galois structure of the fields Q(zeta_n - zeta_n^(-1)).

Convention: the unit group mod 1 is the trivial group, represented as {0}.
It needs no special case: products are a * b % n, the identity is 1 % n and
gcd(0, 1) = 1, so mod 1 everything is 0.  Cosets of a quotient are named by
their smallest member.  galois_group(n) is the one builder of the Galois
group of Q(zeta_n - zeta_n^(-1)); every reader shares its cached quotient.
"""

from __future__ import annotations

import math
from functools import lru_cache

SUBGROUP_CAP = 2**12


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order."""
    primes, r = [], 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        primes.append(n)
    return primes


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    for r in prime_factors(n):
        result -= result // r
    return result


@lru_cache(maxsize=None)
def unit_group(n: int):
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(a for a in range(n) if math.gcd(a, n) == 1)


def subgroup_generated(n: int, gens) -> frozenset:
    """Closure of gens inside (Z/nZ)^*; breadth-first products."""
    gens = [g % n for g in gens]
    for g in gens:
        if math.gcd(g, n) != 1:
            raise ValueError(f"{g} is not a unit mod {n}")
    seen = {1 % n}
    frontier = [1 % n]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g % n
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
        if len(seen) > SUBGROUP_CAP:
            raise ValueError("subgroup closure exceeded cap")
    return frozenset(seen)


def kd_kernel(n: int) -> frozenset:
    """Units a mod n with zeta_n^a - zeta_n^(-a) = zeta_n - zeta_n^(-1).

    Trivial unless 4 | n, in which case it is generated by -1 + n/2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return subgroup_generated(n, (n // 2 - 1,) if n % 4 == 0 else ())


def kd_is_cm(n: int) -> bool:
    """True when Q(zeta_n - zeta_n^(-1)) is a CM field (complex, closed under
    conjugation): -1 = n - 1 is outside the kernel, so never for n <= 2."""
    return n - 1 not in kd_kernel(n)


def case1_cm_criterion(d: int) -> bool:
    """For even d: phi(4d) == 2d, i.e. the degree matches twice the genus."""
    if d < 2 or d % 2 != 0:
        raise ValueError("even d >= 2 required")
    return euler_phi(4 * d) == 2 * d


def case2_cm_criterion(d: int) -> bool:
    """For odd d >= 3: phi(d) == d - 1."""
    if d < 3 or d % 2 != 1:
        raise ValueError("odd d >= 3 required")
    return euler_phi(d) == d - 1


def eta_fixers_congruence(n: int) -> frozenset:
    """Units a mod n fixing zeta^a - zeta^(-a), found by the two congruence cases:
    either a = 1 mod n, or 2 = n - 2a mod 2n (possible only when 4 | n)."""
    out = set()
    for a in unit_group(n):
        if a == 1 % n:
            out.add(a)
        elif (2 - (n - 2 * a)) % (2 * n) == 0:
            out.add(a)
    return frozenset(out)


class QuotientGroup:
    """(Z/nZ)^* modulo a subgroup; cosets carry their smallest member as name.

    conj is the class of -1, complex conjugation when the quotient is the
    Galois group of a subfield of Q(zeta_n); it is the identity when -1
    lies in the kernel.
    """

    def __init__(self, n: int, kernel):
        kernel = frozenset(kernel)
        units = unit_group(n)
        if not kernel <= set(units):
            raise ValueError("kernel is not a subset of the unit group")
        if subgroup_generated(n, kernel) != kernel:
            raise ValueError("kernel is not a subgroup")
        self.n = n
        self.kernel = kernel
        rep_of = {}
        reps = []
        for a in units:
            if a in rep_of:
                continue
            coset = sorted(a * k % n for k in kernel)
            r = coset[0]
            reps.append(r)
            for c in coset:
                rep_of[c] = r
        self.reps = tuple(sorted(reps))
        self._rep_of = rep_of
        self.identity = rep_of[1 % n]
        self.conj = rep_of[-1 % n]

    @property
    def order(self):
        return len(self.reps)

    def rep(self, a: int) -> int:
        a %= self.n
        if a not in self._rep_of:
            raise ValueError(f"{a} is not a unit mod {self.n}")
        return self._rep_of[a]

    def mul(self, a: int, b: int) -> int:
        return self._rep_of[a * b % self.n]

    def translate(self, g: int, s) -> frozenset:
        """The coset names g * s."""
        return frozenset(self.mul(g, x) for x in s)

    def coset_order(self, a: int) -> int:
        a = self.rep(a)
        k = 1
        b = a
        while b != self.identity:
            b = self.mul(b, a)
            k += 1
        return k

    def subgroups(self):
        """All subgroups of the quotient, as frozensets of coset names."""
        if self.order > SUBGROUP_CAP:
            raise ValueError("quotient too large for subgroup enumeration")
        cyclics = set()
        for a in self.reps:
            cyc = {self.identity}
            b = a
            while b != self.identity:
                cyc.add(b)
                b = self.mul(b, a)
            cyclics.add(frozenset(cyc))
        found = set(cyclics)
        found.add(frozenset({self.identity}))
        changed = True
        while changed:
            changed = False
            for h in list(found):
                for c in cyclics:
                    if c <= h:
                        continue
                    prod = frozenset(self.mul(x, y) for x in h for y in c)
                    if prod not in found:
                        found.add(prod)
                        changed = True
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def __eq__(self, other):
        return (
            isinstance(other, QuotientGroup)
            and other.n == self.n
            and other.kernel == self.kernel
        )

    def __hash__(self):
        return hash((self.n, self.kernel))

    def __repr__(self):
        return f"QuotientGroup(n={self.n}, kernel={sorted(self.kernel)})"


@lru_cache(maxsize=None)
def galois_group(n: int) -> QuotientGroup:
    """The Galois group of Q(zeta_n - zeta_n^(-1)): (Z/nZ)^* modulo
    kd_kernel(n), built once per n and shared, so callers only read it."""
    return QuotientGroup(n, kd_kernel(n))


def kd_galois_structure(n: int):
    """For n = 2^e, e >= 3: the Galois group of Q(zeta_n - zeta_n^(-1)) as a
    quotient of (Z/nZ)^*, with the certificate that the class of 5 generates.

    Returns (quotient, generator_residue, order).
    """
    e = n.bit_length() - 1
    if n != 1 << e or e < 3:
        raise ValueError("n must be 2^e with e >= 3")
    q = galois_group(n)
    expected = 1 << (e - 2)
    if q.order != expected:
        raise AssertionError(f"quotient order {q.order} != 2^(e-2) = {expected}")
    g = q.rep(5)
    if q.coset_order(g) != expected:
        raise AssertionError("class of 5 does not generate the quotient")
    return q, 5, expected


def proper_subfields_totally_real(e: int) -> bool:
    """For n = 2^e: every nontrivial subgroup of the Galois quotient contains
    the class of -1, so every proper subfield is fixed by conjugation."""
    if e < 1:
        raise ValueError("e must be >= 1")
    q = galois_group(1 << e)
    for h in q.subgroups():
        if len(h) == 1:
            continue
        if q.conj not in h:
            return False
    return True
