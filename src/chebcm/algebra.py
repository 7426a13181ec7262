"""Exact arithmetic substrate: coefficient rings and dense polynomials.

Rings are lightweight descriptors whose elements overload the usual
operators; everything is immutable after construction.  ZZ and QQ use
plain ``int`` / ``fractions.Fraction`` as element types.  Polynomials are
dense coefficient tuples indexed by degree; degrees in this package stay
below a few hundred, so schoolbook algorithms are used throughout.

Rings given in a power basis (F_(p^k) = F_p[x]/(m) here, Z[zeta_n] in
cyclotomic) share one element base, PowerBasisElement, which writes the
ring operators once; each ring supplies its multiplication.  F_p is
field_tower(p, 1), the degree-one case of the same class.

Polynomials over F_p also have a plain integer-list layer (_int_poly_divmod,
_gcd_mod, _mulmod, _powmod, _factor_degrees_mod): coefficient lists low
degree first, no element objects.  field_tower proves its moduli
irreducible with it, and zeta uses it for good_reduction, for the
primitive modulus behind its field tables and for the factor degrees of
the real Weil polynomial mod small primes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class RingMismatchError(TypeError):
    """Operands belong to different coefficient rings."""


class IntegerRing:
    is_field = False
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, bool):
            raise RingMismatchError("bool is not a ring element")
        if isinstance(v, int):
            return v
        if isinstance(v, Fraction) and v.denominator == 1:
            return int(v)
        raise RingMismatchError(f"cannot coerce {v!r} into ZZ")

    def __call__(self, v):
        return self.coerce(v)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


class RationalField:
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, bool):
            raise RingMismatchError("bool is not a ring element")
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise RingMismatchError(f"cannot coerce {v!r} into QQ")

    def __call__(self, v):
        return self.coerce(v)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


ZZ = IntegerRing()
QQ = RationalField()


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
        if self.ring.is_field:
            lc_inv = self.ring.one / lc
        elif lc == self.ring.one or lc == -self.ring.one:
            lc_inv = lc
        else:
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
            q = c * lc_inv
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

    def monic(self):
        lc = self.leading_coefficient()
        if lc == self.ring.zero:
            raise ZeroDivisionError("monic of zero polynomial")
        if lc == self.ring.one:
            return self
        return UniPolynomial(self.ring, [c / lc for c in self.coeffs])

    def map_coefficients(self, func, new_ring):
        return UniPolynomial(new_ring, [func(c) for c in self.coeffs])

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


def poly_gcd(a, b):
    """Monic gcd over a coefficient field."""
    if not a.ring.is_field:
        raise RingMismatchError("gcd needs a field of coefficients")
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_xgcd(a, b):
    """Extended gcd over a field: returns (g, u, v) with u*a + v*b = g, g monic."""
    ring = a.ring
    one = UniPolynomial(ring, (ring.one,))
    zero = UniPolynomial(ring, ())
    r0, r1 = a, b
    u0, u1 = one, zero
    v0, v1 = zero, one
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lc = r0.leading_coefficient()
    inv = ring.one / lc
    scale = UniPolynomial(ring, (inv,))
    return r0.monic(), u0 * scale, v0 * scale


def squarefree(f):
    """True when f has no repeated roots over the algebraic closure.

    Over ZZ the check is done in QQ.  In characteristic p a vanishing
    derivative (f a polynomial in x^p) reports non-squarefree rather
    than crashing.
    """
    if f.ring == ZZ:
        f = f.map_coefficients(Fraction, QQ)
    if f.degree <= 0:
        return not f.is_zero()
    g = poly_gcd(f, f.derivative())
    return g.degree == 0


class LaurentPolynomial:
    """Finite Z-indexed coefficient window; used for substitutions x -> c*x^(+-1)."""

    __slots__ = ("ring", "minexp", "coeffs")

    def __init__(self, ring, minexp, coeffs):
        cs = [ring.coerce(c) for c in coeffs]
        lo = 0
        while lo < len(cs) and cs[lo] == ring.zero:
            lo += 1
        hi = len(cs)
        while hi > lo and cs[hi - 1] == ring.zero:
            hi -= 1
        if lo == hi:
            self.ring = ring
            self.minexp = 0
            self.coeffs = ()
        else:
            self.ring = ring
            self.minexp = minexp + lo
            self.coeffs = tuple(cs[lo:hi])

    @classmethod
    def from_poly(cls, f):
        return cls(f.ring, 0, f.coeffs)

    @classmethod
    def monomial(cls, ring, coeff, exp):
        return cls(ring, exp, (coeff,))

    def is_zero(self):
        return not self.coeffs

    @property
    def maxexp(self):
        return self.minexp + len(self.coeffs) - 1

    def coefficient(self, k):
        i = k - self.minexp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def support(self):
        return tuple(
            self.minexp + i for i, c in enumerate(self.coeffs) if c != self.ring.zero
        )

    def _coerce_operand(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.ring != self.ring:
                raise RingMismatchError("Laurent polynomials over different rings")
            return other
        try:
            return LaurentPolynomial(self.ring, 0, (self.ring.coerce(other),))
        except RingMismatchError:
            return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        lo = min(self.minexp, o.minexp)
        hi = max(self.maxexp, o.maxexp)
        return LaurentPolynomial(
            self.ring,
            lo,
            [self.coefficient(k) + o.coefficient(k) for k in range(lo, hi + 1)],
        )

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.ring, self.minexp, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return LaurentPolynomial(self.ring, 0, ())
        out = [self.ring.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == self.ring.zero:
                continue
            for j, b in enumerate(o.coeffs):
                if b == self.ring.zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return LaurentPolynomial(self.ring, self.minexp + o.minexp, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPolynomial(self.ring, 0, (self.ring.one,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self.minexp == o.minexp and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ring, self.minexp, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(self.maxexp, self.minexp - 1, -1):
            c = self.coefficient(k)
            if c == self.ring.zero:
                continue
            terms.append(_format_term(c, k, self.ring))
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPolynomial({self.ring!r}, {self})"


def laurent_compose(f):
    """f(x + 1/x) as a Laurent polynomial over f's coefficient ring."""
    u = LaurentPolynomial(f.ring, -1, (f.ring.one, f.ring.zero, f.ring.one))
    acc = LaurentPolynomial(f.ring, 0, ())
    for c in reversed(f.coeffs):
        acc = acc * u + c
    return acc


def monomial_substitute(L, gamma, s, ring):
    """Substitute x -> gamma * x^s (s = +1 or -1) into a Laurent polynomial.

    gamma must be an invertible element of ring when negative powers of
    it are needed; the coefficients of L are coerced into ring.
    """
    if s not in (1, -1):
        raise ValueError("s must be +1 or -1")
    out = LaurentPolynomial(ring, 0, ())
    for k in L.support():
        c = ring.coerce(L.coefficient(k)) * gamma**k
        out = out + LaurentPolynomial.monomial(ring, c, s * k)
    return out


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


# --- power-basis elements and finite fields ----------------------------------

class PowerBasisElement:
    """Element of a ring presented in a power basis, as a coefficient tuple.

    The ring supplies _mul (on coefficient sequences), zero and one.  A
    subclass normalizes coefficients in __init__ and defines inverse,
    __hash__ and printing.  Plain ints lift into the ring; elements of
    different rings never mix.
    """

    __slots__ = ("ring", "coeffs")

    def _lift(self, other):
        if isinstance(other, PowerBasisElement):
            if other.ring != self.ring:
                raise RingMismatchError(f"elements of {self.ring!r} and {other.ring!r}")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return type(self)(self.ring, (other,))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return type(self)(self.ring, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return type(self)(self.ring, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return type(self)(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return type(self)(self.ring, self.ring._mul(self.coeffs, o.coeffs))

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


class ExtensionFieldElement(PowerBasisElement):
    __slots__ = ()

    def __init__(self, ring, coeffs):
        if len(coeffs) > ring.k:
            coeffs = _int_poly_divmod(coeffs, ring.modulus_coeffs, ring.p)[1]
        cs = [c % ring.p for c in coeffs]
        cs += [0] * (ring.k - len(cs))
        self.ring = ring
        self.coeffs = tuple(cs)

    def inverse(self):
        f = self.ring
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero in extension field")
        if f.k == 1:
            return ExtensionFieldElement(f, (pow(self.coeffs[0], -1, f.p),))
        fp = field_tower(f.p, 1)
        a = UniPolynomial(fp, self.coeffs)
        m = UniPolynomial(fp, f.modulus_coeffs)
        g, u, _ = poly_xgcd(a, m)
        if g.degree != 0:
            raise ZeroDivisionError("modulus not coprime to element")
        return ExtensionFieldElement(f, [c.coeffs[0] for c in (u % m).coeffs])

    def __hash__(self):
        return hash((self.ring.p, self.ring.k, self.coeffs))

    def __repr__(self):
        return f"ExtElement{self.coeffs}"


class ExtensionField:
    """F_{p^k} presented as F_p[x] modulo a fixed monic irreducible; F_p
    itself at k = 1.

    The modulus is the first monic irreducible of degree k in the scan
    over integer encodings m = c_0 + c_1 p + ... + c_{k-1} p^{k-1}, so
    two runs (and two platforms) always agree on the presentation.
    """

    def __init__(self, p, k, modulus_coeffs):
        self.p = p
        self.k = k
        self.modulus_coeffs = tuple(modulus_coeffs)  # length k+1, monic
        # rows[j] = x^(k+j) reduced mod the modulus, as a length-k vector
        rows = []
        if k > 1:
            r = [(-c) % p for c in modulus_coeffs[:k]]
            rows.append(tuple(r))
            for _ in range(k - 2):
                top = r[-1]
                r = [0] + r[:-1]
                r = [(a + top * b) % p for a, b in zip(r, rows[0])]
                rows.append(tuple(r))
        self.reduction_rows = tuple(rows)
        self.zero = ExtensionFieldElement(self, ())
        self.one = ExtensionFieldElement(self, (1,))

    is_field = True

    @property
    def order(self):
        return self.p**self.k

    def gen(self):
        return ExtensionFieldElement(self, (0, 1))

    def _mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = [c % p for c in conv[:k]]
        for j in range(k - 1):
            c = conv[k + j] % p
            if c:
                row = self.reduction_rows[j]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return out

    def coerce(self, v):
        out = self.one._lift(v)
        if out is None:
            raise RingMismatchError(f"cannot coerce {v!r} into GF({self.p}^{self.k})")
        return out

    def __call__(self, v):
        return self.coerce(v)

    def from_index(self, m):
        digits = []
        for _ in range(self.k):
            digits.append(m % self.p)
            m //= self.p
        return ExtensionFieldElement(self, digits)

    def elements(self):
        for m in range(self.order):
            yield self.from_index(m)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.k == self.k
            and other.modulus_coeffs == self.modulus_coeffs
        )

    def __hash__(self):
        return hash(("GFext", self.p, self.k, self.modulus_coeffs))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


@lru_cache(maxsize=None)
def field_tower(p, k):
    """F_{p^k} with the deterministic smallest-encoding monic modulus: the
    first encoding whose only factor degree mod p is k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for coeffs in _monics(p, k):
        if _factor_degrees_mod(coeffs, p) == [k]:
            return ExtensionField(p, k, coeffs)
    raise AssertionError("no irreducible monic found (unreachable)")
