"""Point counts over small finite fields and exact L-polynomials.

Counting is exhaustive enumeration: N_k = sum over x in F_(p^k) of
(1 + chi(f(x))) plus the points at infinity, with chi the quadratic
character (chi(0) = 0).  The engine has two parts, chosen by k.

- k = 1: integer Horner acc = acc * x + c over numpy int64 chunks of F_p,
  reduced mod p by floor division (a scalar // is a multiply in numpy) only
  before a step that could pass 2^63, and a squares table for chi.  Every
  chunk is computed in place in int64 rows that each thread makes on its
  first count and reuses across chunks and calls (threading.local), so a
  count allocates only the p-byte squares table and two bool masks of a
  chunk.
- k >= 2: F_(p^k) = F_p[x]/(m) for the first monic m in encoding order
  modulo which x is primitive (_primitive_modulus), and g = x.  An int32
  table gives the index of g^i, and adding 1 to an element adds 1 to the
  constant digit of its index.  Two routes, chosen by the shape of f:
  - f = c0 + c1 x^e with c0 != 0, such as every D_m: with L = log c1 -
    log c0, chi(f(g^i)) = chi(c0) chi(1 + g^(L + e i)).  As i runs over
    Z/(q - 1), L + e i runs G = gcd(q - 1, e) times over one coset of
    G Z/(q - 1), a strided view of the index table.  chi(1 + y) is read
    from a q-byte bitmap of the squares, the even powers of g; no log
    table is built.
  - any other f, in the log domain: an int32 table gives log(y), and the
    index table is rewritten into Z(n) = log(1 + g^n).  At x = g^i each
    term c x^e has log (e i + log c) mod (q - 1), a sum of logs a, b is
    a + Z(b - a), and chi(y) = +1 exactly when log y is even.  With G the
    gcd of q - 1 and the exponents of f, i runs over one period
    (q - 1)/G, counted G times.
  x = 0 is counted apart.

The tables are built per call from the linear recurring sequence
s_i = L(x^i) of F_p (see _index_table): one chunk of s gives the next by
k multiply-adds over int32, with no field arithmetic, at about 3-8 ns per
element on a 2-CPU machine.  They are freed on return; fields of 2^31
elements or more are refused.  Counting uses integers only and does not
call field_tower; count_points_naive, which enumerates field_tower(p, k)
for every k (F_p is k = 1), is the independent slow oracle.

L-polynomials are checked through the real Weil polynomial h, with
T^(2g) L(1/T) = T^g h(T + q/T): the Weil bound |alpha| = sqrt q is an
exact Sturm count of the roots of h in [-2 sqrt q, 2 sqrt q], and
irreducibility is proved from the factor degrees of h mod small primes.
That proof and good_reduction (deg f mod p = deg f, gcd(f, f') = 1 mod p)
use the integer-list polynomial layer over F_p in algebra; a repeated
factor of L is the last member of its integer Sturm chain.
All pass/fail logic uses exact integer arithmetic; floating point
appears only in the candidate factors that the fallback subset scan of
lpoly_is_irreducible proposes, each decided by exact trial division.

Sign conventions: L(T) = prod (1 - alpha_i T), s_k = sum alpha_i^k =
q^k + 1 - N_k, and Newton's identities with that sign give the b_k.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt

import numpy as np

from .algebra import (
    _factor_degrees_mod,
    _gcd_mod,
    _monics,
    _mulmod,
    _powmod,
    field_tower,
)
from .chebyshev import classify_d, is_prime
from .curves import HyperellipticCurve, VerificationError, make_cd, make_dm
from .unitgroups import prime_factors

COUNT_CAP = 10**7

_CHUNK = 1 << 16
# q refused before any table is built: for k >= 2 the int32 tables index
# the field, for k = 1 the squares table takes p bytes
_TABLE_LIMIT = 2**31
_ZERO_LOG = -1  # log-domain code for 0; odd, so never a square
_workspace = threading.local()  # per-thread chunk rows, see _chunk_rows
# primes l at which lpoly_is_irreducible reads the factor degrees of h mod l
_PROOF_PRIMES = tuple(ell for ell in range(2, 200) if is_prime(ell))
# usable primes in a row that may rule out no degree before the proof
# gives up; twice the longest such run (8, L(C_23, 3)) seen before a
# proof that succeeded, over every in-cap L of C_d (d <= 64), D_m
# (m <= 26) and X_d (d = 2, 4, 8) at odd q < 60
_PROOF_PATIENCE = 16


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
    f = _reduced_coeffs(curve, p)
    if f[-1] == 0:
        return False
    # f' = 0 mod p leaves gcd(f, f') = f, which is [1] only for constant f
    return _gcd_mod(f, [i * c for i, c in enumerate(f)][1:], p) == [1]


def _reduced_coeffs(curve: HyperellipticCurve, p: int) -> list[int]:
    return [c % p for c in curve.f.coeffs]


def _infinity_points(curve: HyperellipticCurve, p: int, k: int) -> int:
    if curve.f.degree % 2 == 1:
        return 1
    lc = curve.f.coeffs[-1] % p
    # lc in F_p*; square in F_(p^k) iff lc^((q-1)/2) = 1, exponent taken mod p-1
    e = ((p**k - 1) // 2) % (p - 1) if p > 2 else 0
    return 2 if pow(lc, e, p) == 1 else 0


@lru_cache(maxsize=None)
def _primitive_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic m of degree k, low degree first, in encoding order
    (algebra._monics) that is irreducible mod p and modulo which x has
    order exactly n = p^k - 1.

    The norm of x, (-1)^k m_0 = x^(n/(p-1)), then has order p - 1; that
    cheap necessary condition is tested first and changes no result.  It
    also makes x nonzero in the field F_p[x]/(m), so x^n = 1, and the
    order is n exactly when x^(n/r) != 1 for every prime r | n; the norm
    test has decided it for r | p - 1.  Irreducibility is Ben-Or's test,
    which stops at the first d <= k/2 with gcd(m, x^(p^d) - x) != 1.
    """
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


def _jump(
    s: np.ndarray, a: list[int], p: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """out[t] = s_(J+t) = sum_j a_j s_(t+j) mod p for t < len(out), a = x^J
    mod m, over int32 rows with 0 <= s < p.  A term adds at most a_j (p - 1)
    and (p - 1)^2 < 2^31 on every field _TABLE_LIMIT lets through at k >= 2,
    so out is reduced (_reduce) only before a term that could pass 2^31,
    and once at the end; scratch holds len(out) int32."""
    count = len(out)
    (j, c), *terms = [(j, c) for j, c in enumerate(a) if c]
    np.multiply(s[j : j + count], c, out=out)
    bound = c * (p - 1)
    for j, c in terms:
        if bound + c * (p - 1) >= 2**31:
            _reduce(out, p, scratch)
            bound = p - 1
        out += np.multiply(s[j : j + count], c, out=scratch[:count])
        bound += c * (p - 1)
    return _reduce(out, p, scratch)


def _index_table(p: int, k: int) -> np.ndarray:
    """int32 index[i] = index(g^i), i < n = p^k - 1, in F_(p^k) = F_p[x]/(m)
    for g = x, with m = _primitive_modulus(p, k).

    Elements are indexed in the window basis of the linear recurring
    sequence s_i = L(x^i), where L is the F_p-linear form with s_0 = 1
    and s_1 = ... = s_(k-1) = 0: v has index sum_j L(x^j v) p^j, so g^i
    has index sum_j s_(i+j) p^j.  The map is linear and sends 1 to 1, so
    a constant c has index c and adding 1 adds 1 to digit 0, mod p
    (_add_one).  Since x^(i+J) = x^i a for a = x^J mod m, s_(i+J) =
    sum_j a_j s_(i+j): s is produced in chunks of _CHUNK windows, each
    chunk from the last by _jump, in two int32 rows that take turns, and
    each chunk of index by Horner over its windows, in place.  About 3-8
    ns per element on a 2-CPU machine (F_43^4 to F_3^12); the peak is the
    table plus three int32 rows of a chunk.
    """
    m = _primitive_modulus(p, k)
    n = p**k - 1
    size = min(_CHUNK, n)
    # cur holds s_i .. s_(i+size+k-2), the digits of the windows i ..
    # i+size-1; the first chunk grows from s_0 .. s_(k-1) by doubling
    cur, nxt, scratch = np.zeros((3, size + k - 1), dtype=np.int32)
    cur[0] = 1
    filled, xw = k, [0, 1]  # xw = x^w mod m
    while filled - k + 1 < size:
        w = filled - k + 1
        a = _mulmod(xw, [0] * (k - 1) + [1], m, p)  # x^(w+k-1) = x^filled
        grow = min(w, size - w)
        _jump(cur, a, p, cur[filled : filled + grow], scratch)
        filled += grow
        xw = _mulmod(xw, xw, m, p)
    a = _powmod([0, 1], size + k - 1, m, p)
    index = np.empty(n, dtype=np.int32)
    for start in range(0, n, size):
        count = min(size, n - start)
        idx = index[start : start + count]
        idx[:] = cur[k - 1 : k - 1 + count]
        for j in range(k - 2, -1, -1):
            idx *= p
            idx += cur[j : j + count]
        if start + size < n:
            nxt[: k - 1] = cur[size:]
            _jump(cur, a, p, nxt[k - 1 :], scratch)
            cur, nxt = nxt, cur
    return index


def _zech_tables(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 (log, index) tables of F_(p^k): index from _index_table, and
    log[index(g^i)] = i with log[0] = _ZERO_LOG, filled by a scatter of q
    int32.  Zech logs are looked up from the two tables (_zech)."""
    index = _index_table(p, k)
    n = len(index)
    log = np.empty(p**k, dtype=np.int32)
    log[0] = _ZERO_LOG
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        log[index[start:stop]] = np.arange(start, stop, dtype=np.int32)
    return log, index


def _add_one(idx: np.ndarray, p: int) -> np.ndarray:
    """index(1 + y) from index(y): 1 is added to the constant digit, mod p."""
    out = idx + 1
    return np.subtract(out, p, out=out, where=idx % p == p - 1)


def _zech(log: np.ndarray, index: np.ndarray, pos, p: int) -> np.ndarray:
    """Zech logs log(1 + g^i) for i in pos (an index array or a slice), or
    _ZERO_LOG where 1 + g^i = 0."""
    return log[_add_one(index[pos], p)]


def _reduce(a: np.ndarray, p: int, scratch: np.ndarray) -> np.ndarray:
    """a %= p in place for a >= 0 as a -= (a // p) * p; numpy's // multiplies."""
    quot = np.floor_divide(a, p, out=scratch[: len(a)])
    quot *= p
    a -= quot
    return a


def _chunk_rows() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """This thread's int64 rows of _CHUNK elements, made on its first count
    over F_p and reused by every later one: the ramp 0, 1, ..., _CHUNK - 1,
    x, acc and the quotient scratch of _reduce."""
    rows = getattr(_workspace, "rows", None)
    if rows is None:
        ramp = np.arange(_CHUNK, dtype=np.int64)
        rows = _workspace.rows = (ramp, *np.empty((3, _CHUNK), dtype=np.int64))
    return rows


def _affine_count_prime(coeffs: list[int], p: int) -> int:
    """sum over x in F_p of (1 + chi(f(x))) by integer Horner on int64 and a
    squares table.  From acc <= bound, acc * x + c <= bound * p, so acc is
    reduced only before a step with bound * p >= 2^63, and once at the end.
    Each chunk is computed in place in this thread's _chunk_rows."""
    ramp, x_row, acc_row, scratch = _chunk_rows()
    square = np.zeros(p, dtype=bool)
    for start in range(0, p // 2 + 1, _CHUNK):
        n = min(_CHUNK, p // 2 + 1 - start)
        x = np.add(ramp[:n], start, out=x_row[:n])
        square[_reduce(np.multiply(x, x, out=x), p, scratch)] = True
    square[0] = False
    total = 0
    for start in range(0, p, _CHUNK):
        n = min(_CHUNK, p - start)
        x = np.add(ramp[:n], start, out=x_row[:n])
        acc = acc_row[:n]
        acc.fill(coeffs[-1])
        bound = p - 1
        for c in reversed(coeffs[:-1]):
            if bound * p >= 2**63:
                _reduce(acc, p, scratch)
                bound = p - 1
            acc *= x
            acc += c
            bound *= p
        _reduce(acc, p, scratch)
        total += np.count_nonzero(acc == 0) + 2 * np.count_nonzero(square[acc])
    return int(total)


def _binomial_count(c0: int, c1: int, e: int, p: int, k: int) -> int:
    """sum over x in F_(p^k), k >= 2, of (1 + chi(f(x))) for f = c0 + c1 x^e
    with c0, c1 nonzero in F_p, from the index table and a q-byte bitmap.

    f(g^i) = c0 (1 + g^(L + e i)) with L = log c1 - log c0, so chi(f(g^i))
    = chi(c0) chi(1 + g^(L + e i)).  As i runs below n = q - 1, L + e i
    runs over the coset L + G Z/n exactly G = gcd(n, e) times, and that
    coset is the strided view index[L mod G :: G].  1 + y is a nonzero
    square exactly when square[index(1 + y)], where square is set at the
    even powers index[0::2], and zero exactly when y = -1, of index p - 1.
    The constants of F_p^* are the p - 1 powers g^(j n/(p-1)).
    """
    index = _index_table(p, k)
    n = len(index)
    square = np.zeros(p**k, dtype=bool)
    for start in range(0, n, 2 * _CHUNK):
        np.put(square, index[start : start + 2 * _CHUNK : 2], True)
    step = n // (p - 1)
    constants = index[::step]
    log0, log1 = (step * int(np.flatnonzero(constants == c)[0]) for c in (c0, c1))
    chi0 = 1 if log0 % 2 == 0 else -1
    G = gcd(n, e)
    coset = index[(log1 - log0) % G :: G]
    zeros = squares = 0
    for start in range(0, len(coset), _CHUNK):
        idx = coset[start : start + _CHUNK]
        zeros += np.count_nonzero(idx == p - 1)
        squares += np.count_nonzero(square[_add_one(idx, p)])
    # x = 0 counts 1 + chi0; x = g^i counts 1 where f(x) = 0, else
    # 1 + chi0 chi(1 + y) for its y in the coset
    nonsquares = len(coset) - zeros - squares
    return int(1 + chi0 + G * (len(coset) + chi0 * (squares - nonsquares)))


def _affine_count_extension(coeffs: list[int], p: int, k: int) -> int:
    """sum over x in F_(p^k), k >= 2, of (1 + chi(f(x))) in the log domain.

    x = g^i; each term c x^e has log (e i + log c) mod n, n = q - 1, a sum
    of logs a, b is a + Z(b - a), and chi(y) = +1 exactly when log y is
    even.  _ZERO_LOG is odd, so zeros never count as squares.  index is
    rewritten into Z once; with G = gcd(n, every exponent of f), f(g^i)
    has period n/G in i, so i runs below n/G and that sum counts G times.
    """
    log, index = _zech_tables(p, k)
    n = p**k - 1
    exponents = [e for e, c in enumerate(coeffs) if c]
    (e0, l0), *terms = [(e % n, int(log[coeffs[e]])) for e in exponents]
    period = n // gcd(n, *exponents)
    for start in range(0, n, _CHUNK):
        window = slice(start, start + _CHUNK)
        index[window] = _zech(log, index, window, p)
    c0 = coeffs[0]
    zero = 1 if c0 == 0 else 2 * (int(log[c0]) % 2 == 0)  # x = 0
    total = 0
    for start in range(0, period, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, period), dtype=np.int64)
        acc = (e0 * i + l0) % n
        for e, lc in terms:
            t = (e * i + lc) % n
            z = index[(t - acc) % n]
            s = np.where(z == _ZERO_LOG, _ZERO_LOG, (acc + z) % n)
            acc = np.where(acc == _ZERO_LOG, t, s)
        total += int((acc == _ZERO_LOG).sum()) + 2 * int(((acc & 1) == 0).sum())
    return zero + (n // period) * total


def count_points(
    curve: HyperellipticCurve,
    p: int,
    k: int = 1,
    cap: int = COUNT_CAP,
) -> PointCount:
    """Number of points of the smooth projective model over F_(p^k)."""
    if not good_reduction(curve, p):
        raise BadReductionError(f"{curve.label} has bad reduction at p={p}")
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p**k
    if q > cap:
        raise CapExceededError(f"field size {p}^{k} = {q} exceeds cap {cap}")
    if q >= _TABLE_LIMIT:
        table = "the int32 field tables" if k > 1 else "a p-byte squares table"
        raise CapExceededError(
            f"field size {p}^{k} = {q} is too large for {table} (< 2^31)"
        )

    coeffs = _reduced_coeffs(curve, p)
    exponents = [e for e, c in enumerate(coeffs) if c]
    if k == 1:
        affine = _affine_count_prime(coeffs, p)
    elif len(exponents) == 2 and exponents[0] == 0:
        affine = _binomial_count(coeffs[0], coeffs[-1], exponents[1], p, k)
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


def _primitive_part(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients (a positive number)."""
    c = 0
    for x in a:
        c = gcd(c, x)
    return [x // c for x in a] if c > 1 else a


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm sequence f, f', -rem, ... of an integer polynomial (low degree
    first), each member scaled by a positive number to stay primitive over
    Z.  The last member is gcd(f, f') up to a constant factor."""
    chain = [f, _primitive_part([i * c for i, c in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        # pseudo-division: r = lc(b)^(deg a - deg b + 1) a mod b
        r, db, lc = list(a), len(b) - 1, b[-1]
        for k in range(len(a) - 1 - db, -1, -1):
            c = r[k + db]
            r = [x * lc for x in r]
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
        r = r[:db]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        # the Sturm member is -(r / lc^(deg a - deg b + 1))
        flip = lc < 0 and (len(a) - len(b)) % 2 == 0
        chain.append(_primitive_part(r if flip else [-x for x in r]))
    return chain


def _surd_sign(a: int, b: int, q: int) -> int:
    """Exact sign of a + b sqrt(q)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa * ((a * a > b * b * q) - (a * a < b * b * q))


def _sign_at_two_sqrt_q(f: list[int], q: int, side: int) -> int:
    """Exact sign of f(side * 2 sqrt q), side = +1 or -1."""
    a = b = 0
    for j, c in enumerate(f):
        # (2 sqrt q)^j = 2^j q^(j // 2), times sqrt q when j is odd
        t = c * 2**j * q ** (j // 2)
        if j % 2:
            b += side * t
        else:
            a += t
    return _surd_sign(a, b, q)


def _weil_interval_ok(h: tuple[int, ...], q: int) -> bool:
    """Every root of the squarefree part s of h is real and lies in the
    closed interval [-2 sqrt q, 2 sqrt q].

    Sturm's theorem counts the distinct roots of s in (-2 sqrt q, 2 sqrt q]
    as V(-2 sqrt q) - V(2 sqrt q), V the sign changes of the chain; a root
    at -2 sqrt q is added apart.  The signs are those of a + b sqrt q with
    integer a, b, so the count is exact.
    """
    chain = _sturm_chain(list(h))
    common = chain[-1]
    if len(common) > 1:
        # h monic, so a primitive divisor has leading coefficient +-1
        if common[-1] < 0:
            common = [-c for c in common]
        s, exact = _exact_int_division(list(h), common)
        assert exact, "gcd(h, h') divides h"
        chain = _sturm_chain(s)

    def changes(side):
        signs = [x for x in (_sign_at_two_sqrt_q(f, q, side) for f in chain) if x]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    at_left_end = _sign_at_two_sqrt_q(chain[0], q, -1) == 0
    return changes(-1) - changes(1) + at_left_end == len(chain[0]) - 1


class LPolynomial:
    """Integer polynomial L(T) = prod (1 - alpha_i T) of degree 2g over F_q.

    Validates on construction: b_0 = 1, the functional equation
    b_(2g-i) = q^(g-i) b_i, and |alpha_i| = sqrt(q), decided exactly on
    the real Weil polynomial (see real_weil_polynomial): alpha lies on the
    circle exactly when alpha + q/alpha is real and in [-2 sqrt q, 2 sqrt q].
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
        if g > 0 and not _weil_interval_ok(self.real_weil_polynomial(), q):
            raise VerificationError("some reciprocal root is off |alpha| = sqrt q")

    def real_weil_polynomial(self) -> tuple[int, ...]:
        """The monic integer h of degree g, low degree first, with
        T^(2g) L(1/T) = T^g h(T + q/T).

        h = b_g + sum_(i<g) b_i D_(g-i)(x), where D_m(T + q/T) = T^m + (q/T)^m:
        D_0 = 2, D_1 = x, D_m = x D_(m-1) - q D_(m-2).
        """
        g, q, b = self.genus, self.q, self.coeffs
        h = [0] * (g + 1)
        h[0] = b[g]
        prev, cur = [2], [0, 1]
        for m in range(1, g + 1):
            for j, c in enumerate(cur):
                h[j] += b[g - m] * c
            nxt = [0] + cur
            for j, c in enumerate(prev):
                nxt[j] -= q * c
            prev, cur = cur, nxt
        return tuple(h)

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
        p**k + 1 - count_points(curve, p, k, cap=cap).count
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


def _proves_irreducible(h: tuple[int, ...]) -> bool:
    """True when the factor degrees of h mod the primes in _PROOF_PRIMES
    leave no degree for a proper factor over Q.

    A factor of degree k over Q reduces mod ell (ell not dividing the
    discriminant) to a product of some factors of h mod ell, so k is a
    subset sum of their degrees at every such ell.  The scan gives up
    after _PROOF_PATIENCE usable primes in a row that rule out no degree:
    the degrees of the factors of a reducible h stay possible at every
    prime, so from some prime on nothing more is ruled out.
    """
    g = len(h) - 1
    alone = 1 | 1 << g  # bit k set: degree k still possible
    possible = (1 << (g + 1)) - 1
    stalled = 0
    for ell in _PROOF_PRIMES:
        if possible == alone or stalled == _PROOF_PATIENCE:
            break
        degrees = _factor_degrees_mod(h, ell)
        if degrees is None:
            continue
        sums = 1
        for k in degrees:
            sums |= sums << k
        stalled = stalled + 1 if possible & sums == possible else 0
        possible &= sums
    return possible == alone


def lpoly_is_irreducible(lp: LPolynomial):
    """Exact irreducibility over Q; returns (verdict, integer factor or None).

    A repeated factor is found exactly, from gcd(L, L').  A squarefree L
    is irreducible over Q exactly when its real Weil polynomial h is
    (LPolynomial.real_weil_polynomial).  A factorization h = h1 h2 gives
    one of L.  Conversely, let h be irreducible, alpha a root of
    T^(2g) L(1/T) and x = alpha + q/alpha, a root of h.  Then
    alpha^2 - x alpha + q = 0, so [Q(alpha) : Q] is 2g or g.  It is not g:
    that would put alpha in Q(x), a real field because every root of h is
    real, so alpha = +-sqrt q = q/alpha, a double root of L.  The argument
    rests on the exact Weil check that every LPolynomial passes.

    Irreducibility of h is proved from its factor degrees mod small
    primes (_proves_irreducible).  Only when that is inconclusive does
    the subset scan (_subset_scan) run.
    """
    g = lp.genus
    if g == 0:
        return False, None
    # the last Sturm member is the primitive gcd of L and L' up to sign;
    # L(0) = 1, so its constant term is +-1
    common = _sturm_chain(list(lp.coeffs))[-1]
    if len(common) > 1:
        return False, common if common[0] == 1 else [-c for c in common]
    if _proves_irreducible(lp.real_weil_polynomial()):
        return True, None
    return _subset_scan(lp)


def _subset_scan(lp: LPolynomial):
    """Fallback of lpoly_is_irreducible for a squarefree L.

    A degree <= g integer factor, if one exists, is the product of a
    subset of the reciprocal roots alpha_i; each subset product is rounded
    to an integer polynomial and decided by exact trial division, so
    floating point only proposes candidates.  When no candidate divides,
    the verdict "irreducible" rests on that rounding.
    """
    g = lp.genus
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


def remark_lpolys(d: int, q: int, cap: int = COUNT_CAP, threads: int = 1) -> dict:
    """L-polynomials of C_d, D_d, D_2d at q plus the two equalities:
    L(C_d) = L(D_d) and L(D_2d) = L(D_d) * L(C_d).

    `threads` is accepted for callers that still pass it and is ignored;
    counting runs on one thread."""
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
    l_cd = l_polynomial(cd, q, cap=cap)
    l_dd = l_polynomial(dd, q, cap=cap)
    l_d2d = l_polynomial(d2d, q, cap=cap)
    return {
        "d": d,
        "q": q,
        "l_cd": l_cd,
        "l_dd": l_dd,
        "l_d2d": l_d2d,
        "curves_agree": l_cd == l_dd,
        "product_ok": l_dd * l_cd == l_d2d,
    }


def cm_trace_pattern_c2(bound: int, cap: int = COUNT_CAP) -> bool:
    """a_q(C_2) = 0 exactly when -2 is a non-square mod q, for odd q <= bound.
    The primes come from one sieve up to at most 2 cap, which holds a prime
    above cap (Bertrand) whenever bound does; that prime is refused first."""
    top = max(min(bound, 2 * cap), 4)
    sieve = np.ones(top + 1, dtype=bool)
    sieve[:3] = sieve[4::2] = False
    for i in range(3, isqrt(top) + 1, 2):
        if sieve[i]:
            sieve[i * i :: 2 * i] = False
    primes = [q for q in np.flatnonzero(sieve).tolist() if q <= bound]
    if primes and primes[-1] > cap:
        raise CapExceededError(f"field size {primes[-1]} exceeds cap {cap}")
    c2 = make_cd(2)
    for q in primes:
        try:
            a = q + 1 - count_points(c2, q, 1, cap=cap).count
        except BadReductionError:
            continue
        nonsquare = pow(-2 % q, (q - 1) // 2, q) == q - 1
        if (a == 0) != nonsquare:
            return False
    return True
