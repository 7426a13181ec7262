"""Point counts over small finite fields and exact L-polynomials.

Counting is exhaustive enumeration: N_k = sum over x in F_(p^k) of
(1 + chi(f(x))) plus the points at infinity, with chi the quadratic
character (chi(0) = 0).  The engine has two parts, chosen by k.

- k = 1: integer Horner, acc = (acc * x + c) mod p, over numpy int64
  chunks of F_p, and a squares table that decides chi by lookup.
- k >= 2: Zech logarithms.  For a primitive element g of F_(p^k) (over
  the deterministic modulus from field_tower) two int32 tables give
  log(y) and Z(n) = log(1 + g^n).  At x = g^i each term c x^e has log
  (e i + log c) mod (q - 1), a sum of logs a, b is a + Z(b - a), and
  chi(y) = +1 exactly when log y is even.  x = 0 is counted apart.

The tables are built per call, in chunks, and freed on return; fields
of 2^31 elements or more are refused.  Counting uses integers only, and
count_points_naive is the independent slow oracle.  All pass/fail logic
downstream uses exact integer identities; floating point appears only
in the root-modulus sanity check and in proposing factor candidates.

Sign conventions: L(T) = prod (1 - alpha_i T), s_k = sum alpha_i^k =
q^k + 1 - N_k, and Newton's identities with that sign give the b_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

import numpy as np

from .algebra import PrimeField, QQ, UniPolynomial, field_tower, poly_gcd, squarefree
from .chebyshev import classify_d, is_prime
from .curves import HyperellipticCurve, VerificationError, make_cd, make_dm

COUNT_CAP = 10**7

_CHUNK = 1 << 16
_TABLE_LIMIT = 2**31  # field sizes the int32 tables and int64 Horner can hold
_ZERO_LOG = -1  # log-domain code for 0; odd, so never a square


class CapExceededError(RuntimeError):
    """Requested field is larger than the enumeration cap."""


class BadReductionError(ValueError):
    """The reduced model is not a smooth curve of the same degree."""


@dataclass(frozen=True)
class PointCount:
    curve: str
    p: int
    k: int
    count: int


def good_reduction(curve: HyperellipticCurve, p: int) -> bool:
    """True iff p is odd, deg(f mod p) = deg f, and f mod p is squarefree."""
    if p == 2 or not is_prime(p):
        return False
    fp = PrimeField(p)
    coeffs = [fp.coerce(int(c)) for c in curve.f.coeffs]
    if coeffs[-1] == fp.zero:
        return False
    return squarefree(UniPolynomial(fp, coeffs))


def _reduced_coeffs(curve: HyperellipticCurve, p: int) -> list[int]:
    return [int(c) % p for c in curve.f.coeffs]


def _infinity_points(curve: HyperellipticCurve, p: int, k: int) -> int:
    if curve.f.degree % 2 == 1:
        return 1
    lc = int(curve.f.coeffs[-1]) % p
    # lc in F_p*; square in F_(p^k) iff lc^((q-1)/2) = 1, exponent taken mod p-1
    e = ((p**k - 1) // 2) % (p - 1) if p > 2 else 0
    return 2 if pow(lc, e, p) == 1 else 0


def _prime_factors(n: int) -> list[int]:
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


def _primitive_element(field):
    """First generator of F_q^* in index order (k >= 2, so the scan starts
    at x): g^((q-1)/r) != 1 for every prime r dividing q - 1."""
    q = field.order
    cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
    for m in range(field.p, q):
        g = field.from_index(m)
        if all(g**c != field.one for c in cofactors):
            return g
    raise AssertionError("F_q^* is cyclic (unreachable)")


def _mul_matrix(c) -> np.ndarray:
    """Row i is x^i * c, so (v @ M) % p is the coefficient vector of v * c."""
    x = c.field.gen()
    rows = []
    for _ in range(c.field.k):
        rows.append(c.coeffs)
        c = c * x
    return np.array(rows, dtype=np.int64)


def _zech_tables(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 (log, zech) tables of F_(p^k), k >= 2, for a primitive g.

    log[index(g^i)] = i, with index(v) = v_0 + v_1 p + ... over the
    field_tower(p, k) basis, and log[0] = _ZERO_LOG.  zech[n] is
    log(1 + g^n), or _ZERO_LOG where 1 + g^n = 0.  zech is first filled
    with the antilogs index(g^i), block by block, then rewritten in place,
    so the peak is the two tables plus one block of vectors.
    """
    field = field_tower(p, k)
    q, n = p**k, p**k - 1
    g = _primitive_element(field)
    pows = p ** np.arange(k, dtype=np.int64)
    block = np.zeros((1, k), dtype=np.int64)  # g^0 .. g^(B-1), by doubling
    block[0, 0] = 1
    step = g
    while len(block) < min(_CHUNK, n):
        block = np.concatenate([block, block @ _mul_matrix(step) % p])
        step = step * step
    size = len(block)
    advance = _mul_matrix(g**size)
    zech = np.empty(n, dtype=np.int32)
    for start in range(0, n, size):
        stop = min(start + size, n)
        zech[start:stop] = block[: stop - start] @ pows
        block = block @ advance % p
    log = np.empty(q, dtype=np.int32)
    log[0] = _ZERO_LOG
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        log[zech[start:stop]] = np.arange(start, stop, dtype=np.int32)
    for start in range(0, n, _CHUNK):
        idx = zech[start : start + _CHUNK]
        # 1 + g^n: add 1 to the constant digit, mod p
        zech[start : start + _CHUNK] = log[idx - idx % p + (idx + 1) % p]
    return log, zech


def _affine_count_prime(coeffs: list[int], p: int) -> int:
    """sum over x in F_p of (1 + chi(f(x))): integer Horner on int64 and a
    squares table."""
    square = np.zeros(p, dtype=bool)
    for start in range(0, p // 2 + 1, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, p // 2 + 1), dtype=np.int64)
        square[x * x % p] = True
    square[0] = False
    total = 0
    for start in range(0, p, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, p), dtype=np.int64)
        acc = np.full(len(x), coeffs[-1], dtype=np.int64)
        for c in reversed(coeffs[:-1]):
            acc *= x
            acc += c
            acc %= p
        total += int((acc == 0).sum()) + 2 * int(square[acc].sum())
    return total


def _affine_count_extension(coeffs: list[int], p: int, k: int) -> int:
    """sum over x in F_(p^k), k >= 2, of (1 + chi(f(x))) in the log domain.

    x = g^i; each term c x^e has log (e i + log c) mod (q-1), a sum of
    logs a, b is a + zech[b - a], and chi(y) = +1 exactly when log y is
    even.  _ZERO_LOG is odd, so zeros never count as squares.
    """
    log, zech = _zech_tables(p, k)
    n = p**k - 1
    (e0, l0), *terms = [(e % n, int(log[c])) for e, c in enumerate(coeffs) if c]
    c0 = coeffs[0]
    total = 1 if c0 == 0 else 2 * (int(log[c0]) % 2 == 0)  # x = 0
    for start in range(0, n, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, n), dtype=np.int64)
        acc = (e0 * i + l0) % n
        for e, lc in terms:
            t = (e * i + lc) % n
            z = zech[(t - acc) % n]
            s = np.where(z == _ZERO_LOG, _ZERO_LOG, (acc + z) % n)
            acc = np.where(acc == _ZERO_LOG, t, s)
        total += int((acc == _ZERO_LOG).sum()) + 2 * int(((acc & 1) == 0).sum())
    return total


def count_points(
    curve: HyperellipticCurve,
    p: int,
    k: int = 1,
    cap: int = COUNT_CAP,
    threads: int = 1,
) -> PointCount:
    """Number of points of the smooth projective model over F_(p^k).

    Counting runs on one thread; `threads` is accepted and never changes
    the count.
    """
    if not good_reduction(curve, p):
        raise BadReductionError(f"{curve.label} has bad reduction at p={p}")
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p**k
    if q > cap:
        raise CapExceededError(f"field size {p}^{k} = {q} exceeds cap {cap}")
    if q >= _TABLE_LIMIT:
        raise CapExceededError(
            f"field size {p}^{k} = {q} does not fit the int32 tables (< 2^31)"
        )

    coeffs = _reduced_coeffs(curve, p)
    if k == 1:
        affine = _affine_count_prime(coeffs, p)
    else:
        affine = _affine_count_extension(coeffs, p, k)

    n = affine + _infinity_points(curve, p, k)
    g = curve.genus
    if (n - q - 1) ** 2 > 4 * g * g * q:
        raise VerificationError(
            f"count N_{k}({curve.label}/F_{p}) = {n} violates the Weil bound"
        )
    return PointCount(curve.label, p, k, n)


def count_points_naive(curve: HyperellipticCurve, p: int, k: int = 1) -> int:
    """Pure-Python enumeration oracle; only sensible for tiny fields."""
    if not good_reduction(curve, p):
        raise BadReductionError(f"{curve.label} has bad reduction at p={p}")
    if k == 1:
        field = PrimeField(p)
        elems = [field.coerce(a) for a in range(p)]
    else:
        field = field_tower(p, k)
        elems = list(field.elements())
    squares = {z * z for z in elems}
    zero = field.zero
    f = curve.f
    total = 0
    for x in elems:
        v = f(x)
        if v == zero:
            total += 1
        elif v in squares:
            total += 2
    return total + _infinity_points(curve, p, k)


class LPolynomial:
    """Integer polynomial L(T) = prod (1 - alpha_i T) of degree 2g over F_q.

    Validates on construction: b_0 = 1, the functional equation
    b_(2g-i) = q^(g-i) b_i, and |alpha_i| = sqrt(q) numerically to 1e-6.
    """

    __slots__ = ("q", "genus", "coeffs")

    def __init__(self, coeffs, q: int):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) % 2 == 0 or not coeffs:
            raise ValueError("L-polynomial must have odd length 2g+1")
        self.q = q
        self.genus = (len(coeffs) - 1) // 2
        self.coeffs = coeffs
        g = self.genus
        if coeffs[0] != 1:
            raise VerificationError("b_0 != 1")
        for i in range(g + 1):
            if coeffs[2 * g - i] != q ** (g - i) * coeffs[i]:
                raise VerificationError(
                    f"functional equation fails at i={i}: "
                    f"{coeffs[2 * g - i]} != {q}^{g - i} * {coeffs[i]}"
                )
        if g > 0:
            # coeffs read high-first are the monic reciprocal T^2g L(1/T),
            # whose roots are the alpha_i themselves; repeated roots ruin
            # double-precision conditioning, so find roots of the
            # squarefree part (same root set)
            f = UniPolynomial(QQ, coeffs)
            common = poly_gcd(f, f.derivative())
            if common.degree > 0:
                f = divmod(f, common)[0]
            roots = np.roots(np.array([float(c) for c in f.coeffs], dtype=float))
            if np.max(np.abs(np.abs(roots) ** 2 - q)) > 1e-6 * q:
                raise VerificationError("some reciprocal root is off |alpha| = sqrt q")

    def power_sums(self, kmax: int) -> list[int]:
        """s_1..s_kmax with s_k = sum alpha_i^k, by Newton's identities."""
        b = self.coeffs
        s: list[int] = []
        for k in range(1, kmax + 1):
            acc = k * b[k] if k < len(b) else 0
            for j in range(1, k):
                if j < len(b):
                    acc += b[j] * s[k - j - 1]
            s.append(-acc)
        return s

    def point_count(self, k: int) -> int:
        """N_k implied by this L-polynomial: q^k + 1 - s_k."""
        return self.q**k + 1 - self.power_sums(k)[-1]

    def __mul__(self, other: "LPolynomial") -> "LPolynomial":
        if self.q != other.q:
            raise ValueError("L-polynomials over different fields")
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LPolynomial(out, self.q)

    def __eq__(self, other):
        if not isinstance(other, LPolynomial):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __repr__(self):
        terms = []
        for i, b in enumerate(self.coeffs):
            if b == 0:
                continue
            if i == 0:
                terms.append(str(b))
            else:
                mag = f"{abs(b)}*" if abs(b) != 1 else ""
                var = "T" if i == 1 else f"T^{i}"
                terms.append(("- " if b < 0 else "+ ") + mag + var)
        return " ".join(terms)

    def serialize(self) -> dict:
        return {
            "q": self.q,
            "genus": self.genus,
            "coefficients": [str(b) for b in self.coeffs],
        }


def l_polynomial(
    curve: HyperellipticCurve,
    p: int,
    cap: int = COUNT_CAP,
    threads: int = 1,
) -> LPolynomial:
    """Assemble L from the counts N_1..N_g; genus 0 gives [1]."""
    if not good_reduction(curve, p):
        raise BadReductionError(f"{curve.label} has bad reduction at p={p}")
    g = curve.genus
    if g == 0:
        return LPolynomial((1,), p)
    if p**g > cap:
        raise CapExceededError(
            f"L({curve.label}, {p}) needs counts over F_{p}^{g} "
            f"= {p**g} elements, above cap {cap}"
        )
    s = [
        p**k + 1 - count_points(curve, p, k, cap=cap, threads=threads).count
        for k in range(1, g + 1)
    ]
    b = [1]
    for k in range(1, g + 1):
        acc = s[k - 1] + sum(b[j] * s[k - j - 1] for j in range(1, k))
        if acc % k != 0:
            raise VerificationError(f"Newton recurrence not integral at k={k}")
        b.append(-acc // k)
    for i in range(g - 1, -1, -1):
        b.append(p ** (g - i) * b[i])
    return LPolynomial(b, p)


def _exact_int_division(num: list[int], den: list[int]):
    """num, den low-first integer coeffs, den monic; (quotient, exact?)."""
    rem = list(num)
    dd = len(den) - 1
    if len(rem) - 1 < dd:
        return None, False
    quot = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1 - dd, -1, -1):
        c = rem[k + dd]
        quot[k] = c
        if c:
            for i, bc in enumerate(den):
                rem[k + i] -= c * bc
    return quot, all(c == 0 for c in rem)


def lpoly_is_irreducible(lp: LPolynomial):
    """Exact irreducibility over Q; returns (verdict, integer factor or None).

    A degree <= g integer factor, if one exists, is the product of a
    subset of the reciprocal roots alpha_i; each subset product is rounded
    to an integer polynomial and decided by exact trial division, so
    floating point only proposes candidates.
    """
    g = lp.genus
    if g == 0:
        return False, None
    f = UniPolynomial(QQ, lp.coeffs)
    common = poly_gcd(f, f.derivative())
    if common.degree > 0:
        mult = 1
        for c in common.coeffs:
            mult = mult * c.denominator // gcd(mult, c.denominator)
        return False, [int(c * mult) for c in common.coeffs]
    if g == 1 and lp.coeffs[1] * lp.coeffs[1] < 4 * lp.q:
        return True, None  # negative discriminant, no real (hence rational) root
    roots = np.roots(np.array(lp.coeffs, dtype=float))
    # work on the monic reciprocal T^2g L(1/T); its roots are the alpha_i,
    # and a monic integer factor h of it mirrors to the L-side factor
    # with h's coefficients reversed
    rec = list(reversed(lp.coeffs))
    for size in range(1, g + 1):
        for subset in combinations(range(2 * g), size):
            cand_hi = np.poly(roots[list(subset)])
            ints = [int(round(float(np.real(c)))) for c in cand_hi]
            if np.max(np.abs(cand_hi - np.array(ints))) > 0.3:
                continue
            quot, exact = _exact_int_division(rec, list(reversed(ints)))
            if exact:
                return False, ints
    return True, None


def simplicity_evidence(
    curve: HyperellipticCurve,
    primes,
    cap: int = COUNT_CAP,
    threads: int = 1,
) -> dict:
    """Irreducibility verdict of L(curve, q) per prime; any hit is evidence
    that the Jacobian is simple."""
    verdicts = []
    for q in primes:
        if not good_reduction(curve, q):
            verdicts.append({"p": q, "good_reduction": False})
            continue
        lp = l_polynomial(curve, q, cap=cap, threads=threads)
        irr, factor = lpoly_is_irreducible(lp)
        verdicts.append(
            {
                "p": q,
                "good_reduction": True,
                "lpolynomial": lp.serialize(),
                "irreducible": irr,
                "factor": [str(c) for c in factor] if factor else None,
            }
        )
    return {
        "curve": curve.label,
        "verdicts": verdicts,
        "evidence_simple": any(v.get("irreducible") for v in verdicts),
    }


def remark_lpolys(d: int, q: int, cap: int = COUNT_CAP, threads: int = 1) -> dict:
    """L-polynomials of C_d, D_d, D_2d at q plus the two equalities:
    L(C_d) = L(D_d) and L(D_2d) = L(D_d) * L(C_d)."""
    if classify_d(d) != 2:
        raise ValueError("d must be an odd prime")
    cd, dd, d2d = make_cd(d), make_dm(d), make_dm(2 * d)
    for c in (cd, dd, d2d):
        if not good_reduction(c, q):
            raise BadReductionError(f"{c.label} has bad reduction at q={q}")
    worst = q**d2d.genus
    if worst > cap:
        raise CapExceededError(
            f"L(D_{2*d}, {q}) needs counts over {q}^{d2d.genus} = {worst} "
            f"elements, above cap {cap}"
        )
    l_cd = l_polynomial(cd, q, cap=cap, threads=threads)
    l_dd = l_polynomial(dd, q, cap=cap, threads=threads)
    l_d2d = l_polynomial(d2d, q, cap=cap, threads=threads)
    return {
        "d": d,
        "q": q,
        "l_cd": l_cd,
        "l_dd": l_dd,
        "l_d2d": l_d2d,
        "curves_agree": l_cd == l_dd,
        "product_ok": l_dd * l_cd == l_d2d,
    }


def remark_isogeny_check(d: int, q: int, cap: int = COUNT_CAP, threads: int = 1) -> bool:
    r = remark_lpolys(d, q, cap=cap, threads=threads)
    return r["curves_agree"] and r["product_ok"]


def cm_trace_pattern_c2(bound: int, cap: int = COUNT_CAP, threads: int = 1) -> bool:
    """a_q(C_2) = 0 exactly when -2 is a non-square mod q, for odd q <= bound."""
    c2 = make_cd(2)
    for q in range(3, bound + 1, 2):
        if not is_prime(q):
            continue
        try:
            a = q + 1 - count_points(c2, q, 1, cap=cap, threads=threads).count
        except BadReductionError:
            continue
        nonsquare = pow(-2 % q, (q - 1) // 2, q) == q - 1
        if (a == 0) != nonsquare:
            return False
    return True
