"""Exact arithmetic substrate: the integer ring and dense polynomials.

ZZ is a lightweight ring descriptor whose elements are plain ``int``;
cyclotomic's Z[zeta_n] is the only other coefficient ring.  Polynomials
are dense coefficient tuples indexed by degree; degrees in this package
stay below a few hundred, so schoolbook algorithms are used throughout.
No rational arithmetic is used: a polynomial divisor must have leading
coefficient +-1, and squarefree reads the last member of the integer
Sturm chain (_sturm_chain, also zeta's Weil-bound check).  Identities
in x + 1/x are checked as polynomial identities: compose_x_plus_inverse
returns x^n f(x + 1/x) for f of degree n.

Polynomials over F_p are plain integer lists (_int_poly_divmod, _gcd_mod,
_mulmod, _powmod, _factor_degrees_mod): coefficients low degree first,
no element objects.  An element of F_(p^k) = F_p[x]/(m) is such a list
reduced mod m, with m = field_tower(p, k), which this layer proves
irreducible.  zeta uses the layer for good_reduction, for the primitive
modulus behind its field tables, for the factor degrees of the real Weil
polynomial mod small primes and for its slow oracle count_points_naive.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


class RingMismatchError(TypeError):
    """Operands belong to different coefficient rings."""


class IntegerRing:
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, bool):
            raise RingMismatchError("bool is not a ring element")
        if isinstance(v, int):
            return v
        raise RingMismatchError(f"cannot coerce {v!r} into ZZ")

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


class UniPolynomial:
    """Dense univariate polynomial over a coefficient ring.

    Coefficients are stored low degree first; trailing zeros are
    stripped, so the zero polynomial has an empty tuple and degree -1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = [ring.coerce(c) for c in coeffs]
        while cs and cs[-1] == ring.zero:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading_coefficient(self):
        if not self.coeffs:
            return self.ring.zero
        return self.coeffs[-1]

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def _coerce_operand(self, other):
        if isinstance(other, UniPolynomial):
            if other.ring != self.ring:
                raise RingMismatchError("polynomials over different rings")
            return other
        try:
            return UniPolynomial(self.ring, (self.ring.coerce(other),))
        except RingMismatchError:
            return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPolynomial(
            self.ring,
            [self.coefficient(i) + o.coefficient(i) for i in range(n)],
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPolynomial(
            self.ring,
            [self.coefficient(i) - o.coefficient(i) for i in range(n)],
        )

    def __rsub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return UniPolynomial(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return UniPolynomial(self.ring, ())
        out = [self.ring.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == self.ring.zero:
                continue
            for j, b in enumerate(o.coeffs):
                if b == self.ring.zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return UniPolynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPolynomial(self.ring, (self.ring.one,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lc = o.leading_coefficient()
        if lc != self.ring.one and lc != -self.ring.one:
            raise ValueError("leading coefficient not invertible over this ring")
        rem = list(self.coeffs)
        db = o.degree
        if self.degree < db:
            return UniPolynomial(self.ring, ()), self
        quot = [self.ring.zero] * (self.degree - db + 1)
        for k in range(self.degree - db, -1, -1):
            c = rem[k + db]
            if c == self.ring.zero:
                continue
            q = c * lc  # lc = +-1 is its own inverse
            quot[k] = q
            for i, b in enumerate(o.coeffs):
                rem[k + i] = rem[k + i] - q * b
        return UniPolynomial(self.ring, quot), UniPolynomial(self.ring, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, v):
        if not self.coeffs:
            try:
                return v * 0
            except TypeError:
                return self.ring.zero
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def derivative(self):
        return UniPolynomial(
            self.ring, [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def __eq__(self, other):
        if isinstance(other, UniPolynomial):
            return self.ring == other.ring and self.coeffs == other.coeffs
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == self.ring.zero:
                continue
            terms.append(_format_term(c, i, self.ring))
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self):
        return f"UniPolynomial({self.ring!r}, {self})"


def _format_term(c, k, ring):
    if k == 0:
        return f"{c}"
    e = "x" if k == 1 else f"x^{k}"
    if c == ring.one:
        return e
    if c == -ring.one:
        return f"-{e}"
    return f"{c}*{e}"


def _primitive_part(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients (a positive number)."""
    c = gcd(*a)
    return [x // c for x in a] if c > 1 else a


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) a mod b over Z, for deg a >= deg b >= 1,
    low degree first with trailing zeros stripped."""
    r, db, lc = list(a), len(b) - 1, b[-1]
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db]
        r = [x * lc for x in r]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    r = r[:db]
    while r and r[-1] == 0:
        r.pop()
    return r


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm sequence f, f', -rem, ... of an integer polynomial (low degree
    first), each member scaled by a positive number to stay primitive over
    Z.  The last member is gcd(f, f') up to a constant factor."""
    chain = [f, _primitive_part([i * c for i, c in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _pseudo_remainder(a, b)
        if not r:
            break
        # the Sturm member is -(r / lc^(deg a - deg b + 1))
        flip = b[-1] < 0 and (len(a) - len(b)) % 2 == 0
        chain.append(_primitive_part(r if flip else [-x for x in r]))
    return chain


def squarefree(f):
    """True when f in Z[x] has no repeated roots over the algebraic closure:
    the last member of its integer Sturm chain, gcd(f, f') up to a
    constant, is a constant."""
    if f.ring != ZZ:
        raise RingMismatchError("squarefree takes a polynomial over ZZ")
    if f.degree <= 0:
        return not f.is_zero()
    return len(_sturm_chain(list(f.coeffs))[-1]) == 1


def compose_x_plus_inverse(f):
    """x^n f(x + 1/x) for f of degree n, a polynomial over f's ring.

    Horner with x^2 + 1: if A = x^k g(x + 1/x) for g of degree k, then
    x^(k+1) (u g + c)(x + 1/x) = (x^2 + 1) A + c x^(k+1).  Multiplying an
    identity in x + 1/x by the unit x^n leaves it exact and makes both
    sides polynomials.
    """
    ring = f.ring
    square_plus_one = UniPolynomial(ring, (ring.one, ring.zero, ring.one))
    acc = UniPolynomial(ring, ())
    for k, c in enumerate(reversed(f.coeffs)):
        acc = acc * square_plus_one + UniPolynomial(ring, (ring.zero,) * k + (c,))
    return acc


# --- integer-list polynomials over F_p ---------------------------------------

def _int_poly_divmod(a, b, p):
    # b monic; coefficient lists low degree first; the remainder is reduced
    # mod p with trailing zeros stripped
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _reduce_mod(a, p)
    quot = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] % p
        if c:
            quot[k] = c
            # reduced once at the end: Python ints do not overflow
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    while a and a[-1] % p == 0:
        a.pop()
    return quot, [c % p for c in a]


def _reduce_mod(a, p):
    """a mod p, low degree first, trailing zeros stripped."""
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic_mod(a, p):
    a = _reduce_mod(a, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _gcd_mod(a, b, p):
    """Monic gcd over F_p; [1] for coprime a, b."""
    a, b = _monic_mod(a, p), _monic_mod(b, p)
    while b:
        a, b = b, _monic_mod(_int_poly_divmod(a, b, p)[1], p)
    return a


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


def _monics(p, k):
    """Monic degree-k coefficient lists, low degree first, in the order of
    their encodings m = c_0 + c_1 p + ... + c_(k-1) p^(k-1)."""
    for m in range(p**k):
        coeffs = []
        for _ in range(k):
            coeffs.append(m % p)
            m //= p
        yield coeffs + [1]


def _factor_degrees_mod(h, p):
    """Degrees of the irreducible factors of the monic integer h mod p,
    by distinct-degree factorization; None when h mod p has a repeated
    factor."""
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


@lru_cache(maxsize=None)
def field_tower(p, k):
    """Modulus m of F_(p^k) = F_p[x]/(m), F_p itself at k = 1, low degree
    first: the first monic m of degree k in the order of the encodings
    c_0 + c_1 p + ... + c_(k-1) p^(k-1) whose only factor degree mod p is
    k, so two runs (and two platforms) always agree on the presentation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for coeffs in _monics(p, k):
        if _factor_degrees_mod(coeffs, p) == [k]:
            return tuple(coeffs)
    raise AssertionError("no irreducible monic found (unreachable)")
