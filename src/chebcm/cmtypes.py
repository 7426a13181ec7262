"""CM types as half-systems on quotients of (Z/nZ)^*.

A CM type on a Galois group G (here: a quotient of a unit group, with
complex conjugation the class of -1) is a subset S containing exactly
one member of each conjugate pair {g, conj*g}.  Primitivity means the
stabilizer {g : g*S = S} is trivial; non-primitive types are exactly the
ones induced from a proper CM subfield, i.e. unions of cosets of a
nontrivial subgroup.
"""

from __future__ import annotations

from .chebyshev import is_prime
from .unitgroups import QuotientGroup, SUBGROUP_CAP, galois_group


class CMType:
    """A subset of a QuotientGroup's cosets, stored by canonical coset names.

    Raises ValueError when the group has no CM structure, that is when
    conjugation (the class of -1) lies in the kernel.
    """

    def __init__(self, group: QuotientGroup, s):
        if group.conj == group.identity:
            raise ValueError("conjugation lies in the kernel; no CM structure")
        s = frozenset(group.rep(x) for x in s)
        self.group = group
        self.s = s

    def is_valid(self) -> bool:
        """Exactly one of each conjugate pair."""
        g = self.group
        if len(self.s) * 2 != g.order:
            return False
        return self.s | g.translate(g.conj, self.s) == frozenset(g.reps)

    def stabilizer(self) -> frozenset:
        g = self.group
        return frozenset(
            h for h in g.reps if g.translate(h, self.s) == self.s
        )

    def is_primitive(self) -> bool:
        if not self.is_valid():
            raise ValueError("primitivity is only defined for valid CM types")
        return self.stabilizer() == frozenset({self.group.identity})

    def induced_oracle(self) -> bool:
        """Brute-force scan: is S a union of cosets of some nontrivial subgroup?"""
        if not self.is_valid():
            raise ValueError("induction test is only defined for valid CM types")
        g = self.group
        if g.order > SUBGROUP_CAP:
            raise ValueError("group too large for the induced-type scan")
        for h in g.subgroups():
            if len(h) == 1:
                continue
            if _is_union_of_cosets(g, h, self.s):
                return True
        return False

    def translate(self, g) -> "CMType":
        return CMType(self.group, self.group.translate(self.group.rep(g), self.s))

    def __eq__(self, other):
        return (
            isinstance(other, CMType)
            and other.group == self.group
            and other.s == self.s
        )

    def __hash__(self):
        return hash((self.group, self.s))

    def __repr__(self):
        return f"CMType(n={self.group.n}, S={sorted(self.s)})"


def _is_union_of_cosets(g: QuotientGroup, h, s) -> bool:
    seen = set()
    for x in s:
        if x in seen:
            continue
        coset = {g.mul(k, x) for k in h}
        if not coset <= s:
            return False
        seen |= coset
    return seen == set(s)


def paper_type_case1(e: int) -> CMType:
    """The half-system {1, 3, ..., 2^e - 1} on (Z/2^(e+2))^* modulo the
    order-<=2 kernel generated by 2^(e+1) - 1."""
    if e < 1:
        raise ValueError("e must be >= 1")
    return CMType(galois_group(1 << (e + 2)), range(1, 1 << e, 2))


def paper_type_case2(p: int) -> CMType:
    """The half-system {1, ..., (p-1)/2} on (Z/pZ)^*."""
    if not (p % 2 == 1 and is_prime(p)):
        raise ValueError("p must be an odd prime")
    return CMType(galois_group(p), range(1, (p - 1) // 2 + 1))


def sum_criterion(p: int):
    """(sum of 1..(p-1)/2 mod p, unit flag); the sum is (p^2-1)/8 mod p,
    which is never divisible by p, so the flag is always true for odd p."""
    if not (p % 2 == 1 and is_prime(p)):
        raise ValueError("p must be an odd prime")
    total = sum(range(1, (p - 1) // 2 + 1))
    expected = (p * p - 1) // 8
    if total != expected:
        raise AssertionError("closed form (p^2-1)/8 failed")
    residue = total % p
    return residue, residue != 0
