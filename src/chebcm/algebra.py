"""Exact arithmetic substrate: dense polynomials with integer coefficients.

UniPolynomial is a polynomial in Z[x] whose coefficients are plain
``int``; the CM layer carries units of Z[zeta_n] as exponents mod n and
other elements as coefficient vectors (cyclotomic), never polynomials
over that ring.
Polynomials are dense coefficient tuples indexed by degree; degrees in
this package stay below a few hundred, so schoolbook algorithms are used
throughout.  No rational arithmetic is used: a polynomial divisor must
have leading coefficient +-1, and squarefree reads lc(f) disc(f) from a
subresultant PRS over Z (_lc_discriminant, which zeta's good_reduction
reads too).  Identities in x + 1/x are checked as polynomial
identities: compose_x_plus_inverse returns x^n f(x + 1/x) for f of
degree n.

Polynomials over F_p are plain integer lists (_int_poly_divmod, _gcd_mod,
_mulmod, _powmod, _berlekamp_massey, _factor_degrees_mod): coefficients
low degree first, no element objects.  An element of F_(p^k) =
F_p[x]/(m) is such a list reduced mod m, with m = field_tower(p, k),
which this layer proves irreducible.  zeta uses the layer for
good_reduction, for the primitive modulus behind its field tables and
the recurrence of its norm sequences, for the factor degrees of the real
Weil polynomial mod small primes and for its slow oracle
count_points_naive.
"""

from __future__ import annotations

from functools import lru_cache


class UniPolynomial:
    """Dense univariate polynomial over Z.

    Coefficients are plain ints stored low degree first; trailing zeros
    are stripped, so the zero polynomial has an empty tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an int")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def _coerce_operand(self, other):
        if isinstance(other, UniPolynomial):
            return other
        if type(other) is int:
            return UniPolynomial((other,))
        return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPolynomial([self.coefficient(i) + o.coefficient(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPolynomial([self.coefficient(i) - o.coefficient(i) for i in range(n)])

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return UniPolynomial(())
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b == 0:
                    continue
                out[i + j] += a * b
        return UniPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPolynomial((1,))
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
        lc = o.coeffs[-1]
        if lc not in (1, -1):
            raise ValueError("leading coefficient not invertible over Z")
        rem = list(self.coeffs)
        db = o.degree
        if self.degree < db:
            return UniPolynomial(()), self
        quot = [0] * (self.degree - db + 1)
        for k in range(self.degree - db, -1, -1):
            c = rem[k + db]
            if c == 0:
                continue
            q = c * lc  # lc = +-1 is its own inverse
            quot[k] = q
            for i, b in enumerate(o.coeffs):
                rem[k + i] -= q * b
        return UniPolynomial(quot), UniPolynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, v):
        """Horner at v, an int or a UniPolynomial."""
        if not self.coeffs:
            return v * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def __eq__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return format_polynomial(self.coeffs, "x")

    def __repr__(self):
        return f"UniPolynomial({self})"


def format_polynomial(coeffs, var: str, ascending: bool = False) -> str:
    """Integer coefficients, low degree first, as text in var: highest
    power first ("z^3 - 2*z + 1") unless ascending ("1 - 2*T + 3*T^2").
    A unit coefficient prints as a sign; the zero polynomial is "0"."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
            continue
        e = var if k == 1 else f"{var}^{k}"
        terms.append(e if c == 1 else f"-{e}" if c == -1 else f"{c}*{e}")
    if not ascending:
        terms.reverse()
    return " + ".join(terms).replace("+ -", "- ") or "0"


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


@lru_cache(maxsize=None)
def _lc_discriminant(f: tuple[int, ...]) -> int:
    """lc(f) disc(f) = (-1)^(n(n-1)/2) Res(f, f') for f in Z[x] of degree
    n >= 1, low degree first, by the subresultant PRS over Z (Collins;
    Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    3.3.7): every division below is exact, and the coefficients stay the
    size of minors of the Sylvester matrix.  f' has degree n - 1 over Z,
    so each step lowers the degree by delta >= 1."""
    n = len(f) - 1
    a, b = list(f), [i * c for i, c in enumerate(f)][1:]
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1)
    da = len(a) - 1
    return sign * b[0] ** da // h ** (da - 1)


def squarefree(f: UniPolynomial) -> bool:
    """True when f in Z[x] has no repeated roots over the algebraic closure,
    that is, when lc(f) disc(f) != 0.  The PRS behind it is cached per
    coefficient tuple, so zeta.good_reduction reuses it."""
    if f.degree <= 0:
        return not f.is_zero()
    return _lc_discriminant(f.coeffs) != 0


def compose_x_plus_inverse(f: UniPolynomial) -> UniPolynomial:
    """x^n f(x + 1/x) for f of degree n.

    Horner with x^2 + 1: if A = x^k g(x + 1/x) for g of degree k, then
    x^(k+1) (u g + c)(x + 1/x) = (x^2 + 1) A + c x^(k+1).  Multiplying an
    identity in x + 1/x by the unit x^n leaves it exact and makes both
    sides polynomials.
    """
    square_plus_one = UniPolynomial((1, 0, 1))
    acc = UniPolynomial(())
    for k, c in enumerate(reversed(f.coeffs)):
        acc = acc * square_plus_one + UniPolynomial((0,) * k + (c,))
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


def _berlekamp_massey(s, p):
    """Monic characteristic polynomial, low degree first, of least degree L
    such that s_(i+L) = -(c_1 s_(i+L-1) + ... + c_L s_i) for the whole list
    s over F_p (Massey 1969); it is that of the infinite sequence s begins
    whenever len(s) >= 2L for that sequence's least L."""
    c, b, L, gap, last = [1], [1], 0, 1, 1  # connection polynomials C, B
    for i, x in enumerate(s):
        d = (x + sum(c[j] * s[i - j] for j in range(1, min(len(c), i + 1)))) % p
        if d:  # d is the discrepancy; C - (d/last) z^gap B also gives s_i
            scale, old = d * pow(last, -1, p) % p, c
            c = c + [0] * (len(b) + gap - len(c))
            for j, y in enumerate(b):
                c[j + gap] = (c[j + gap] - scale * y) % p
        if d and 2 * L <= i:
            L, b, last, gap = i + 1 - L, old, d, 1
        else:
            gap += 1
    c += [0] * (L + 1 - len(c))
    return c[L::-1]


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
