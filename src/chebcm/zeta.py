"""Point counts over small finite fields and exact L-polynomials.

Counting is exhaustive enumeration: N_k = sum over x in F_(p^k) of
(1 + chi(f(x))) plus the points at infinity, with chi the quadratic
character (chi(0) = 0).  The engine has two parts, chosen by k.

- k = 1: integer Horner acc = acc * x + c over uint64 numpy chunks of
  F_p, from f's integer coefficients.  The top steps, as many as keep
  |acc| below 2^63, run over Z in int64 and are kept as acc + 2^63, the
  sign bit flipped; on the first chunk, x = 0 .. n - 1 with n =
  min(_CHUNK, 2^ceil(log2 p)), they depend on f and n alone, so each
  thread keeps them in a row tagged (coefficients, n, steps) and refills
  it only when the tag changes: a curve counted again at primes of one
  bit length only reduces that row mod p.  Later chunks compute the same
  prefix on their own residues.  Every reduction is an unsigned a - (a //
  p) p (a scalar // is a multiply in numpy) and yields f(x) + K mod p, K
  = 2^63 mod p, so zeros are read at K and the squares table is set at
  x^2 + K; the remaining steps run on the reduced coefficients, reduced
  again only before a step that could reach 2^63, so C_2 runs all of
  Horner over Z for p <= 2^21.  chi is read from the squares table by
  take(mode="wrap"), whose indices are always reduced, so the wrap never
  fires.  Every chunk is computed in place in rows that each thread
  makes on its first count and reuses across chunks and calls
  (threading.local), so a count allocates only the p-byte squares table.
- k >= 2: F_(p^k) = F_p[x]/(m) for the first monic m in encoding order
  modulo which x is primitive (_primitive_modulus), and g = x.  The index
  of g^i comes in int32 chunks (_index_chunks), and adding 1 to an
  element adds 1 to the constant digit of its index.  One pass over them
  builds the field's two int32 tables (_zech_tables): log y at the index
  of y, and the Zech log Z(i) = log(1 + g^i), so chi(1 + g^i) = +1
  exactly when Z(i) is even.  A field keeps its modulus per process, as
  an int tuple, and, when it has one chunk, p^f - 1 <= _CHUNK, both
  tables, read-only, at most 512 KB (_tables), which every count over it
  shares: N_1 .. N_g of one L and the three curves of one (d, q).  Only a
  field that a count reads keeps them, F_(p^f) with f | k and k >= 2, so
  p <= isqrt(COUNT_CAP): however many counts run, that is at most 523
  fields (odd p <= 3162, p^f - 1 <= _CHUNK), 14.8 MB in all.  Two routes,
  chosen by the shape of f:
  - f = c0 + c1 x^e with c0 != 0, such as every D_m: with c = c1/c0,
    x^e runs G = gcd(q - 1, e) times over the T = (q - 1)/G powers of
    w = g^G, so a count is S = sum over t < T of chi(1 + c w^t).  The
    characters of order dividing G are defined over F_(p^f), f =
    ord_G(p), so the parities of the Zech logs of F_(p^f), summed over
    its G cosets, give S by Hasse-Davenport.  When f = k, q - 1 > _CHUNK
    and 8^f < T, S is read instead from the norms u_t = N(1 + c w^t), as
    chi = chi_p o N: they are a linear recurring sequence of F_p of order
    at most 2^f, which Berlekamp-Massey finds from 2^(f+1) norms, and no
    table of F_q is built.  For f < k, F_(p^f) has at most sqrt(q)
    elements.
  - any other f, in the log domain: at x = g^i each term c x^e has log
    (e i + log c) mod (q - 1), a sum of logs a, b is a + Z(b - a), and
    chi(y) = +1 exactly when log y is even.
  x = 0 is counted apart.

The index chunks and the norms both come from linear recurring sequences
of F_p (_recurrence_chunks; the index from s_i = L(x^i), see
_index_chunks): one chunk gives the next by L multiply-adds over int32,
with no field arithmetic.  Whatever a count holds (the tables of a field
of more than one chunk, 8 bytes per element, or the norms' three int32
rows of _CHUNK + L - 1) is made per call and freed on return, apart from
the kept tables above; fields of more than COUNT_CAP elements are
refused.  Field setup and the norms multiply in F_p[x]/(m) by algebra's
packed products _times and _power alone.  The independent slow oracle,
count_points_naive in tests/oracles.py, enumerates
F_p[x]/(field_tower(p, k)) on list products of its own.

L-polynomials are checked through the real Weil polynomial h, with
T^(2g) L(1/T) = T^g h(T + q/T): |alpha| = sqrt q for every alpha exactly
when the roots of h lie in [-2 sqrt q, 2 sqrt q], which a Sturm count on
H(y) = h(sqrt y) h(-sqrt y) at the integers 0 and 4q decides exactly, and
irreducibility is proved from the factor degrees of h mod small primes.
That proof runs on algebra's layer over F_p, whose x^(l^d) mod h are the
packed powers that field setup computes;
good_reduction reads p against lc(f) disc(f), computed once per curve by
a subresultant PRS over Z (algebra._lc_discriminant, which the curve's
squarefree check has already run); a repeated factor of L is the last
member of its integer Sturm chain.  Failing the proof, a factor of h of
a degree k <= g/2 the primes leave (h1 h2 has one) is sought among the
products of k roots of h, real by the Weil check and distinct as L is
squarefree: floats propose, exact division decides, and "undecided" is
the verdict when none divides.  No verdict rests on rounding.

Sign conventions: L(T) = prod (1 - alpha_i T), s_k = sum alpha_i^k =
q^k + 1 - N_k, and Newton's identities with that sign give the b_k.
"""

from __future__ import annotations

import threading
from functools import lru_cache, reduce
from itertools import combinations, islice
from math import gcd, isqrt, prod

import numpy as np

from .algebra import (
    UniPolynomial,
    _berlekamp_massey,
    _factor_degrees_mod,
    _gcd_mod,
    _lc_discriminant,
    _monics,
    _power,
    _pseudo_remainder,
    _times,
    format_polynomial,
)
from .chebyshev import classify_d, is_prime
from .curves import HyperellipticCurve, VerificationError, make_cd, make_dm
from .unitgroups import prime_factors

# the largest field a count enumerates, refused before any table is built.
# The engine relies on COUNT_CAP < 2^31: at k >= 2 field elements are
# indexed in int32, and at k = 1 the squares table takes p bytes and one
# Horner step from an acc below 2p, (2p - 2) p, stays below 2^63
COUNT_CAP = 10**7

_CHUNK = 1 << 16
_ZERO_LOG = -1  # log-domain code for 0; odd, so never a square
_workspace = threading.local()  # per-thread chunk rows, see _chunk_rows
# primes l at which lpoly_is_irreducible reads the factor degrees of h mod l
_PROOF_PRIMES = tuple(ell for ell in range(2, 200) if is_prime(ell))
# usable primes in a row that may rule out no degree before the proof
# gives up; twice the longest such run (8, L(C_23, 3)) seen before a
# proof that succeeded, over every in-cap L of C_d (d <= 64), D_m
# (m <= 26) and X_d (d = 2, 4, 8) at odd q < 60
_PROOF_PATIENCE = 16
# root subsets that lpoly_is_irreducible tries before it answers None: 100
# times the most that any test or report --dmax 64 tries (40, L(C_29, 3)).
# At genus 48 they take about 1 s, where all C(48, 16) would take years
_SCAN_BUDGET = 4000


class CapExceededError(RuntimeError):
    """Requested field is larger than the enumeration cap."""


def _int_name(n: int, var: str) -> str:
    """n as a refusal names it: in decimal, or by its bit length when it is
    longer than 64 bits, since an int of more than 4300 digits cannot be
    written out and a shorter one can still fill kilobytes."""
    return str(n) if n.bit_length() <= 64 else f"({n.bit_length()}-bit {var})"


def _cap_error(p: int, k: int | None = None, curve: str | None = None):
    """The refusal of the field F_p^k (of p itself when k is None), or of
    L(curve, p), which needs counts over it, with p and k named by
    _int_name."""
    prime = _int_name(p, "p")
    field = prime if k is None else f"F_{prime}^{_int_name(k, 'k')}"
    if curve is None:
        return CapExceededError(f"field size {field} exceeds cap {COUNT_CAP}")
    return CapExceededError(
        f"L({curve}, {prime}) needs counts over {field}, "
        f"which exceeds cap {COUNT_CAP}"
    )


def power_exceeds(p: int, g: int) -> bool:
    """p^g > COUNT_CAP, by a product that stops once it passes the cap: a
    huge genus costs at most log_2(COUNT_CAP) + 1 steps, and p^g is never
    written out.  False for p < 2, which is no field (good_reduction
    refuses it), so such a p is bad reduction and not a cap excess."""
    if p < 2:
        return False
    q = 1
    for _ in range(g):
        q *= p
        if q > COUNT_CAP:
            return True
    return False


class BadReductionError(ValueError):
    """The reduced model is not a smooth curve of the same degree."""


def good_reduction(curve: HyperellipticCurve, p: int) -> bool:
    """True iff p is an odd prime and p does not divide lc(f) disc(f).

    That is the same as deg(f mod p) = deg f with f mod p squarefree.  For
    p | lc both are false.  Otherwise disc(f mod p) = disc(f) mod p: with
    n = deg f, lc disc = (-1)^(n(n-1)/2) Res(f, f'), where the Sylvester
    determinant takes f' at the formal degree n - 1, so it is an integer
    polynomial in the coefficients of f, and reduction mod p commutes
    with it.  When p | n, f' mod p drops to degree n - 1 - j; the
    determinant is then +-lc^j times the resultant at the true degree, a
    nonzero factor, or 0 when f' = 0 mod p, where f is a p-th power.  So
    p | disc exactly when f mod p has a repeated root.  lc disc is
    computed once per coefficient tuple (_lc_discriminant), so a repeated
    check costs one modulo and is_prime.
    """
    return p > 2 and _lc_discriminant(curve.f.coeffs) % p != 0 and is_prime(p)


def _infinity_points(curve: HyperellipticCurve, p: int, k: int) -> int:
    if curve.f.degree % 2 == 1:
        return 1
    lc = curve.f.coeffs[-1] % p
    # lc in F_p*; square in F_(p^k) iff lc^((q-1)/2) = 1, exponent taken mod p-1
    e = ((p**k - 1) // 2) % (p - 1)
    return 2 if pow(lc, e, p) == 1 else 0


@lru_cache(maxsize=None)
def _primitive_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic m of degree k, low degree first, in encoding order
    (algebra._monics) that is irreducible mod p and modulo which x has
    order exactly n = p^k - 1; tests/oracles.py keeps the search that
    tests every monic.  Each test below is exact, so none changes which m
    comes first, and they run cheapest first.

    - m = h(x^t) with t > 1 is skipped: were it irreducible, x^t would be
      a root of h, of degree k/t, so x^t lies in F_(p^(k/t)) and the order
      of x divides t (p^(k/t) - 1) < n.  That depends on the top part
      c_1 .. c_(k-1) of m alone, and the encoding runs c_0 fastest, so one
      test passes p monics at once.
    - The norm of x, (-1)^k m_0 = x^(n/(p-1)), has order p - 1.
    - Ben-Or: m is irreducible unless gcd(m, x^(p^d) - x) != 1 for some d
      <= k/2.  The first step, d = 1, asks for a root in F_p: m = c_0 +
      t(x) has one exactly when -c_0 is a value of t, so the p values of
      t, taken once per top part, decide it for p monics.  For k <= 3
      that is the whole test.
    - In the field F_p[x]/(m), x^n = 1, and the order is n exactly when
      x^(n/r) != 1 for every prime r | n; the norm has decided r | p - 1.
      The other primes, of product R, share one power y = x^(n/R):
      x^(n/r) = y^(R/r), tried from the largest r down.

    Powers are _power's: of x, square-then-shift.
    """
    n = p**k - 1
    primes = [r for r in prime_factors(n) if (p - 1) % r][::-1]
    R = prod(primes)
    norm_cofactors = [(p - 1) // r for r in prime_factors(p - 1)]
    one = [1] + [0] * (k - 1)

    def primitive(m):
        xq = None  # x^(p^d) mod m, from d = 2: d = 1 is the root test
        for _ in range(2, k // 2 + 1):
            xq = _power(p if xq else p * p, m, p, xq)
            if _gcd_mod(m, [c - (j == 1) for j, c in enumerate(xq)], p) != [1]:
                return False
        y = _power(n // R, m, p) if primes else one
        return all(_power(R // r, m, p, y) != one for r in primes)

    roots = ()  # k = 1: Ben-Or has no step
    for top in _monics(p, k - 1):
        if gcd(*(j for j, c in enumerate(top, 1) if c)) > 1:
            continue
        if k > 1:  # m = c_0 + t(x) has a root in F_p iff c_0 = -t(a) for some a
            roots = {-reduce(lambda v, c: v * a + c, reversed(top), 0) * a % p for a in range(p)}
        for c0 in range(1, p):
            norm = (-1) ** k * c0 % p
            if c0 not in roots and all(pow(norm, e, p) != 1 for e in norm_cofactors):
                if primitive((c0, *top)):
                    return (c0, *top)
    raise AssertionError("F_q^* is cyclic (unreachable)")


def _jump(
    s: np.ndarray, a: list[int], p: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """out[t] = s_(J+t) = sum_j a_j s_(t+j) mod p for t < len(out), a = x^J
    mod the characteristic polynomial of s, over int32 rows with 0 <= s <
    p.  The sum has at most L terms, each at most (p - 1)^2, and is reduced
    (_reduce) once, at the end; scratch holds len(out) int32.  A count
    runs sequences of F_(p^f) with L = f (the index) or L <= 2^f (the
    norms), and p^2 <= COUNT_CAP (F_p is read only as a subfield), so L
    (p - 1)^2 < 2^31: it is below 4 COUNT_CAP for f <= 2, and below 2^f
    p^2 <= 2^14 COUNT_CAP^(2/3) for 3 <= f < 15 (3^15 > COUNT_CAP)."""
    count = len(out)
    (j, c), *terms = [(j, c) for j, c in enumerate(a) if c]
    np.multiply(s[j : j + count], c, out=out)
    for j, c in terms:
        out += np.multiply(s[j : j + count], c, out=scratch[:count])
    return _reduce(out, p, scratch)


def _recurrence_chunks(first: list[int], m: tuple[int, ...] | list[int], p: int, n: int):
    """Yield (start, row) for the chunks of i < n of the linear recurring
    sequence s of F_p with s_0 .. s_(L-1) = first and monic characteristic
    polynomial m of degree L, low degree first: row holds s_start ..
    s_(start+count+L-2), the terms that the count windows s_i .. s_(i+L-1)
    of the chunk read, and is rewritten after each yield.

    As x^(i+J) = x^i a for a = x^J mod m, s_(i+J) = sum_j a_j s_(i+j): the
    first chunk grows from the first L terms by doubling, and each chunk
    comes from the last by one _jump, in two int32 rows that take turns
    (three rows of _CHUNK + L - 1 with the scratch of _jump).  The jump
    polynomials are built per pass by _times and _power, about 2 log_2
    _CHUNK products."""
    L = len(m) - 1
    size = min(_CHUNK, n)
    cur, nxt, scratch = np.zeros((3, size + L - 1), dtype=np.int32)
    cur[:L] = first
    # xw = x^w, w = filled - L + 1, so a step jumps by x^filled; a first
    # chunk of one term, as the zero sequence (L = 0) has, takes no step
    filled, lift = L, [0] * (L - 1) + [1]  # x^(L-1)
    xw = _power(1, m, p) if size > 1 else None
    while filled - L + 1 < size:
        grow = min(filled - L + 1, size - filled + L - 1)
        _jump(cur, _times(xw, lift, m, p), p, cur[filled : filled + grow], scratch)
        filled += grow
        xw = _times(xw, xw, m, p)
    onward = _power(size + L - 1, m, p) if n > size else None
    for start in range(0, n, size):
        yield start, cur[: min(size, n - start) + L - 1]
        if start + size < n:
            nxt[: L - 1] = cur[size:]
            _jump(cur, onward, p, nxt[L - 1 :], scratch)
            cur, nxt = nxt, cur


def _index_chunks(p: int, k: int):
    """Yield (start, idx) with int32 idx[t] = index(g^(start+t)) for the
    chunks of i < n = p^k - 1, in F_(p^k) = F_p[x]/(m) for g = x, with
    m = _primitive_modulus(p, k).  idx is one row, rewritten after each
    yield, so the caller reads it before asking for the next chunk.

    Elements are indexed in the window basis of the linear recurring
    sequence s_i = L(x^i), where L is the F_p-linear form with s_0 = 1
    and s_1 = ... = s_(k-1) = 0: v has index sum_j L(x^j v) p^j, so g^i
    has index sum_j s_(i+j) p^j.  The map is linear and sends 1 to 1, so
    a constant c has index c and adding 1 adds 1 to digit 0, mod p
    (_add_one).  s has characteristic polynomial m and comes in chunks
    from _recurrence_chunks; each chunk of index is Horner over its
    windows.  About 2-5 ns per element on a 2-CPU machine (F_43^4 to
    F_3^12).  The pass holds four int32 rows of a chunk.
    """
    n = p**k - 1
    row = np.empty(min(_CHUNK, n), dtype=np.int32)
    for start, s in _recurrence_chunks([1] + [0] * (k - 1), _primitive_modulus(p, k), p, n):
        idx = row[: len(s) - k + 1]
        idx[:] = s[k - 1 :]
        for j in range(k - 2, -1, -1):
            idx *= p
            idx += s[j : j + len(idx)]
        yield start, idx


# (p, k) -> the read-only (log, zech) of F_(p^k) when p^k - 1 <= _CHUNK
_tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _zech_tables(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 (log, zech) tables of F_(p^k): log[index(g^i)] = i with
    log[0] = _ZERO_LOG, and zech[i] = log(1 + g^i), the Zech log, or
    _ZERO_LOG where 1 + g^i = 0.  Each chunk of _index_chunks is copied
    into zech and scattered into log; then zech is rewritten in windows of
    _CHUNK as log[index(1 + g^i)] (_add_one).

    These are the only tables of a field, and the only pass over its
    index.  A field of one chunk, n = p^k - 1 <= _CHUNK, is built once per
    process: both tables are kept read-only in _tables (at most 512 KB)
    and returned to every later count, binomial or log domain, so the
    counts N_1 .. N_g of one L and the curves of one (d, q) share them.  A
    larger field is built per call and freed with it."""
    if (p, k) in _tables:
        return _tables[p, k]
    n = p**k - 1
    zech = np.empty(n, dtype=np.int32)
    log = np.empty(n + 1, dtype=np.int32)
    log[0] = _ZERO_LOG
    for start, idx in _index_chunks(p, k):
        stop = start + len(idx)
        zech[start:stop] = idx
        log[idx] = np.arange(start, stop, dtype=np.int32)
    for start in range(0, n, _CHUNK):
        window = zech[start : start + _CHUNK]
        window[:] = log[_add_one(window, p)]
    if n <= _CHUNK:
        log.flags.writeable = zech.flags.writeable = False
        _tables[p, k] = log, zech
    return log, zech


def _add_one(idx: np.ndarray, p: int) -> np.ndarray:
    """index(1 + y) from index(y): 1 is added to the constant digit, mod p."""
    out = idx + 1
    return np.subtract(out, p, out=out, where=idx % p == p - 1)


def _reduce(
    a: np.ndarray, p: int, scratch: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """a mod p as a - (a // p) * p, for a >= 0, into out, or in place when
    out is None.  numpy's // by a scalar is a multiply, and on uint64 rows
    it skips the floor rule for negatives that int64 needs."""
    quot = np.floor_divide(a, p, out=scratch[: len(a)])
    quot *= p
    return np.subtract(a, quot, out=a if out is None else out)


def _chunk_rows() -> tuple[np.ndarray, ...]:
    """This thread's rows for a count over F_p, made on its first count and
    reused by every later one: uint64 rows of _CHUNK elements, the ramp 0,
    1, ..., _CHUNK - 1, x, acc, the quotient scratch of _reduce and the
    Horner prefix of the first chunk (see _affine_count_prime), a bool row
    for the lookup, and a uint64 row of x^2 + 2^63 for x < _CHUNK, filled
    only as far as a count has needed."""
    rows = getattr(_workspace, "rows", None)
    if rows is None:
        ramp = np.arange(_CHUNK, dtype=np.uint64)
        x, acc, scratch, prefix = np.empty((4, _CHUNK), dtype=np.uint64)
        squared = np.empty(_CHUNK, dtype=np.uint64)
        rows = _workspace.rows = (ramp, x, acc, scratch, prefix, np.empty(_CHUNK, dtype=bool), squared)
        _workspace.prefix_of = ((), 0, 0)  # (coefficients, span, steps) of the prefix row
        _workspace.squared = 0  # how many x the squared row holds
    return rows


def _steps_that_fit(bound: int, coeffs, top: int) -> int:
    """How many Horner steps acc = acc * x + c, for c in coeffs in turn, keep
    |acc| below 2^63 at every 0 <= x <= top, from |acc| <= bound.  A step
    takes the bound to bound * top + |c|, which also bounds acc * x and c."""
    for steps, c in enumerate(coeffs):
        bound = bound * top + abs(c)
        if bound >= 2**63:
            return steps
    return len(coeffs)


def _horner(acc, coeffs, x: np.ndarray, out: np.ndarray):
    """acc = acc * x + c for each c of coeffs in turn, in place in the row
    out; acc is an int or out itself, and is returned as it is when coeffs
    is empty.  The caller keeps |acc| below 2^63 (_steps_that_fit)."""
    for c in coeffs:
        acc = np.multiply(acc, x, out=out)
        acc += c
    return acc


def _shifted_prefix(lc: int, coeffs, x: np.ndarray, out: np.ndarray) -> None:
    """P + 2^63 into the uint64 row out, for P the Horner steps over Z from
    lc through coeffs at the uint64 row x, run on int64 views of both."""
    _horner(lc, coeffs, x.view(np.int64), out.view(np.int64))
    out += 1 << 63


def _affine_count_prime(coeffs: tuple[int, ...], p: int) -> int:
    """sum over x in F_p of (1 + chi(f(x))), f given by its integer
    coefficients, by Horner acc = acc * x + c from acc = lc on uint64 rows,
    and a squares table.

    The top s steps run over Z.  At 0 <= x <= X a step takes |acc| <=
    bound to |acc| <= bound * X + |c|, a bound on acc * x too, so from
    bound = |lc| the top s steps keep every value below 2^63 while |lc|
    X^s + |c_(deg-1)| X^(s-1) + ... + |c_(deg-s)| < 2^63; s is the largest
    such count (_steps_that_fit), and s = 0 when |lc| >= 2^63.  They run
    in int64, with the coefficients as Python-int scalars, and their value
    P is kept as the uint64 P + 2^63, its sign bit flipped.  On the first
    chunk, x = 0, ..., n - 1 with n = min(_CHUNK, 2^ceil(log2 p)), so that
    row depends on f and n alone: it is this thread's prefix row, filled
    at X = n - 1 only when (coefficients, n) differs from its last fill and
    tagged with s too, so a curve counted again at primes of the same bit
    length skips the Horner pass there.  Chunks after the first compute
    the same prefix on their own residues, at X = p - 1.

    Every reduction (_reduce) divides a uint64 row and gives r = (f + K)
    mod p, K = 2^63 mod p, from the flipped prefix or from the last
    coefficient, reduced as (c_0 + K) mod p.  So f(x) = 0 exactly when r =
    K, and the squares table is set at (x^2 + 2^63) mod p, read on the
    first chunk from this thread's row of x^2 + 2^63, which is independent
    of p too.  Steps after a prefix start from acc + p - K, in [1, 2p - 2],
    which undoes K; they run on the reduced coefficients, reduced again
    only after the steps that fit.  One step fits, (2p - 2) p < 2^63, for
    every p <= COUNT_CAP < 2^31.  C_2, f = x^3 + 2x^2 - 2x - 4, runs all
    three steps over Z while X^3 + 2X^2 + 2X + 4 < 2^63, that is on every
    chunk for p <= 2^21.

    chi is read by square.take(r, mode="wrap", out=...), which skips the
    bounds check and the buffered output of the default mode.  Its indices
    are always reduced into [0, p), so the wrap never fires: numpy wraps
    an index by subtracting p once per wrap, and an unreduced acc would
    take minutes.  Take and scatter index by int64 views of r, since numpy
    first casts a uint64 index to intp.
    """
    ramp, x_row, acc_row, scratch, prefix_row, hit_row, squared = _chunk_rows()
    shift = (1 << 63) % p  # K
    modulus = np.array(p, dtype=np.uint64)  # a ufunc takes a 0-d array faster than an int
    square = np.zeros(p, dtype=bool)
    half = p // 2 + 1
    need = min(_CHUNK, 1 << (half - 1).bit_length())  # x of the first chunk
    if _workspace.squared < need:
        np.multiply(ramp[:need], ramp[:need], out=squared[:need])
        squared[:need] += 1 << 63
        _workspace.squared = need
    for start in range(0, half, _CHUNK):
        n = min(_CHUNK, half - start)
        if start:
            x = np.add(ramp[:n], start, out=x_row[:n])
            x2 = np.multiply(x, x, out=acc_row[:n])
            x2 += 1 << 63
        else:
            x2 = squared[:n]
        square[_reduce(x2, modulus, scratch, out=acc_row[:n]).view(np.int64)] = True
    square[shift] = False
    lc, lower = coeffs[-1], coeffs[-2::-1]
    span = min(_CHUNK, 1 << (p - 1).bit_length())
    tag = _workspace.prefix_of
    if tag[:2] != (coeffs, span):
        _workspace.prefix_of = ((), 0, 0)  # a fill cut short leaves no stale tag
        steps = _steps_that_fit(abs(lc), lower, span - 1)
        if steps:
            _shifted_prefix(lc, lower[:steps], ramp[:span], prefix_row[:span])
        tag = _workspace.prefix_of = (coeffs, span, steps)
    later = reduced = None
    total = 0
    for start in range(0, p, _CHUNK):
        n = min(_CHUNK, p - start)
        if start == 0:
            x, s, prefix = ramp[:n], tag[2], prefix_row[:n]
        else:
            x = np.add(ramp[:n], start, out=x_row[:n])
            if later is None:
                later = _steps_that_fit(abs(lc), lower, p - 1)
            s, prefix = later, acc_row[:n]
            if s:
                _shifted_prefix(lc, lower[:s], x, prefix)
        acc = _reduce(prefix, modulus, scratch, out=acc_row[:n]) if s else lc % p
        if s < len(lower):
            if reduced is None:
                reduced = [c % p for c in lower[:-1]] + [(lower[-1] + shift) % p]
            if s:
                acc += p - shift
            rest, bound = reduced[s:], 2 * p - 2
            while rest:
                steps = _steps_that_fit(bound, rest, p - 1)
                acc = _reduce(_horner(acc, rest[:steps], x, acc_row[:n]), modulus, scratch)
                rest, bound = rest[steps:], p - 1
        hit = hit_row[:n]
        total += np.count_nonzero(np.equal(acc, shift, out=hit))
        total += 2 * np.count_nonzero(square.take(acc.view(np.int64), mode="wrap", out=hit))
    return int(total)


def _binomial_count(c0: int, c1: int, e: int, p: int, k: int) -> int:
    """sum over x in F_(p^k), k >= 2, of (1 + chi(f(x))) for f = c0 + c1 x^e
    with c0, c1 nonzero in F_p.

    Over F_q, q = p^k, with g a generator of F_q^*: as x runs over F_q^*,
    x^e runs G = gcd(q - 1, e) times over the T = (q - 1)/G powers w^t of
    w = g^G.  With c = c1/c0, chi(c0) = chi_p(c0)^k = chi0 and x = 0
    counting 1 + chi0,

        sum = q + chi0 + G chi0 S,  S = sum over t < T of chi(1 + c w^t).

    S comes from the Zech logs of F_(p^f), f the least with G | p^f - 1
    (_coset_sum_from_logs), or from the norms of 1 + c w^t
    (_coset_sum_from_norms) where those logs would be F_q's own (f = k),
    F_q has more than one chunk and 8^f < T.  The logs cost one build of
    two int32 tables, 8 bytes per element, kept when F_(p^f) has one
    chunk; the norms 2^(f+1) products of f conjugates and 2^f
    multiply-adds per term, in three int32 rows of a chunk.  Logs / norms,
    ms, from no kept table, best of 3 on a 2-CPU machine: F_1009^2 (G = 5)
    35 / 2.4, F_47^4 (G = 10) 197 / 9.6, F_23^4 8.0 / 3.7, F_13^4 1.1 /
    3.1; and where 8^f >= T, F_11^6 (G = 18) 62 / 25, F_5^9 (G = 19) 78 /
    368, F_3^11 (G = 23) 7.0 / 2,268.
    """
    q = p**k
    G = gcd(q - 1, e)
    f = next(f for f in range(1, k + 1) if (p**f - 1) % G == 0)
    c = c1 * pow(c0, -1, p) % p
    chi0 = 1 if pow(c0, (p - 1) // 2 * k, p) == 1 else -1
    if f == k and _CHUNK < q - 1 and 8**f < (q - 1) // G:
        S = _coset_sum_from_norms(c, G, p, k)
    else:
        S = _coset_sum_from_logs(c, G, p, f, k)
    return q + chi0 + G * chi0 * S


def _coset_sum_from_norms(c: int, G: int, p: int, k: int) -> int:
    """S = sum over t < T = (q - 1)/G of chi(1 + c w^t), q = p^k, for c in
    F_p^* and w = x^G in F_q = F_p[x]/(m), m = _primitive_modulus(p, k),
    from the norms u_t = N(1 + c w^t) to F_p, with no table of F_q.

    chi = chi_p o N: N(y) = y^((q - 1)/(p - 1)), so by Euler's criterion in
    both fields chi_p(N(y)) = N(y)^((p - 1)/2) = y^((q - 1)/2) = chi(y),
    and u_t = 0 exactly when 1 + c w^t = 0.  N(y) is the product of the
    conjugates y^(p^i), i < k, so u_t = prod_i (1 + c (w^(p^i))^t), which
    is how the first norms are computed (_times), and expands to the sum
    over A in {0, .., k - 1} of c^|A| b_A^t, b_A = prod over i in A of
    w^(p^i): u satisfies the recurrence of P(z) = prod_A (z - b_A), of
    order 2^k.  Frobenius sends b_A to b_(A+1), A shifted mod k, so it
    permutes the roots of P, and P is over F_p.  The polynomials over F_p
    whose recurrence u satisfies form an ideal that holds P, so u's least
    recurrence, its generator, has order L <= 2^k.  Two recurrences of
    orders L, L' that agree on L + L' terms generate the same sequence, so
    Berlekamp-Massey on the first 2^(k+1) norms finds that of u;
    _recurrence_chunks gives the rest.
    """
    q, m = p**k, _primitive_modulus(p, k)
    # ys[i] = (w^(p^i))^t, each stepped by one product per t
    steps = [_power(G * p**i, m, p) for i in range(k)]
    ys, first = [[1] + [0] * (k - 1)] * k, []
    for _ in range(2 ** (k + 1)):
        factors = [[(1 + c * y[0]) % p] + [c * v % p for v in y[1:]] for y in ys]
        first.append(reduce(lambda u, v: _times(u, v, m, p), factors)[0])
        ys = [_times(y, w, m, p) for y, w in zip(ys, steps)]
    char = _berlekamp_massey(first, p)
    L = len(char) - 1
    square = np.zeros(p, dtype=bool)
    square[np.arange(1, p) ** 2 % p] = True
    total = 0
    for _, u in _recurrence_chunks(first[:L], char, p, (q - 1) // G):
        u = u[: len(u) - L + 1]
        total += 2 * np.count_nonzero(square[u]) + np.count_nonzero(u == 0) - len(u)
    return int(total)


def _coset_sum_from_logs(c: int, G: int, p: int, f: int, k: int) -> int:
    """S = sum over t < T = (q - 1)/G of chi(1 + c w^t), q = p^k, as in
    _binomial_count, from the Zech logs of F_(p^f), where f is the least
    with G | p^f - 1 (so f | k).  With S_a = sum over j = a mod G,
    j < q - 1, of chi(1 + g^j) and c = g^l, S = S_l.

    The lift (Weil 1949; Hasse-Davenport 1935).  Let F = F_(p^f), s = k/f,
    N the norm from F_q to F, h a generator of F^* and g one with N(g) = h
    (a count does not depend on g).  The characters of F_q^* of order
    dividing G are psi o N, psi(h) = z a G-th root of unity, and chi =
    chi_F o N.  K(psi) = sum over y != 0 of psi(y) chi(1 + y) is psi(-1)
    times the Jacobi sum J(psi, chi), and N(-1) = (-1)^s, so the
    Hasse-Davenport relation -J_(F_q)(psi o N, chi o N) = (-J_F(psi,
    chi))^s gives K_(F_q)(psi o N) = -(-K_F(psi))^s; for psi = 1 and
    psi = chi both sides are -1, the sums of chi(1 + y) and chi(y + y^2).
    Now K_(F_q)(psi o N) = sum_a S_a z^a and K_F(psi) = C(z) for C(z) =
    sum_a c_a z^a, c_a = sum over i = a mod G, i < p^f - 1, of
    chi_F(1 + h^i).  Both sides agree at every z with z^G = 1, so

        sum_a S_a z^a = -(-C(z))^s mod (z^G - 1),

    and S_a = c_a for s = 1.  Since N(c) = c^s for c in F_p, l = s log_h c
    mod G.  The power is exact in int64: a coefficient of (-C)^j is at most
    |C|_1^j <= (p^f - 1)^s < p^k <= COUNT_CAP.

    The sums: chi_F(1 + h^i) is +1 where zech[i] is even, and -1 where it
    is odd, but for the one i = n/2 with h^i = -1, where it is 0; zech
    comes from _zech_tables(p, f), and a constant c has index c, so log_h
    c = log[c].  G divides n, so column a of zech seen as n/G rows of G
    holds the coset of a: c_a = n/G - 2 (odd entries of column a), plus 1
    at a = n/2 mod G.  For s > 1, F has at most sqrt(q) elements.
    """
    s, n = k // f, p**f - 1
    log, zech = _zech_tables(p, f)
    ell = s * int(log[c]) % G
    del log  # unless kept, freed before the sums take a row of n int32
    odd = np.bitwise_and(zech, 1).reshape(-1, G).sum(axis=0, dtype=np.int64)
    coeffs = n // G - 2 * odd
    coeffs[n // 2 % G] += 1
    # lifted = (-C)^s mod (z^G - 1), so S_l = -lifted[l]
    lifted = np.zeros(G, dtype=np.int64)
    lifted[0] = 1
    for _ in range(s):
        full = np.convolve(lifted, -coeffs)
        lifted = full[:G]
        lifted[: G - 1] += full[G:]
    return -int(lifted[ell])


def _affine_count_extension(coeffs: list[int], p: int, k: int) -> int:
    """sum over x in F_(p^k), k >= 2, of (1 + chi(f(x))) in the log domain.

    x = g^i; each term c x^e has log (e i + log c) mod n, n = q - 1, a sum
    of logs a, b is a + Z(b - a), and chi(y) = +1 exactly when log y is
    even.  _ZERO_LOG is odd, so zeros never count as squares.
    """
    log, zech = _zech_tables(p, k)
    n = p**k - 1
    (e0, l0), *terms = [(e % n, int(log[c])) for e, c in enumerate(coeffs) if c]
    c0 = coeffs[0]
    zero = 1 if c0 == 0 else 2 * (int(log[c0]) % 2 == 0)  # x = 0
    total = 0
    for start in range(0, n, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, n), dtype=np.int64)
        acc = (e0 * i + l0) % n
        for e, lc in terms:
            t = (e * i + lc) % n
            z = zech[(t - acc) % n]
            s = np.where(z == _ZERO_LOG, _ZERO_LOG, (acc + z) % n)
            acc = np.where(acc == _ZERO_LOG, t, s)
        total += int((acc == _ZERO_LOG).sum()) + 2 * int(((acc & 1) == 0).sum())
    return zero + total


def count_points(curve: HyperellipticCurve, p: int, k: int = 1) -> int:
    """Number of points of the smooth projective model over F_(p^k).

    The field size is refused before good_reduction, so a huge p gets
    CapExceededError rather than is_prime's ValueError, and p^k is compared
    with COUNT_CAP by power_exceeds, so a huge k is refused at once."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if power_exceeds(p, k):
        raise _cap_error(p, k)
    if not good_reduction(curve, p):
        raise BadReductionError(f"{curve.label} has bad reduction at p={p}")

    if k == 1:
        affine = _affine_count_prime(curve.f.coeffs, p)
    else:
        coeffs = [c % p for c in curve.f.coeffs]
        exponents = [e for e, c in enumerate(coeffs) if c]
        if len(exponents) == 2 and exponents[0] == 0:
            affine = _binomial_count(coeffs[0], coeffs[-1], exponents[1], p, k)
        else:
            affine = _affine_count_extension(coeffs, p, k)

    q = p**k
    n = affine + _infinity_points(curve, p, k)
    g = curve.genus
    if (n - q - 1) ** 2 > 4 * g * g * q:
        raise VerificationError(
            f"count N_{k}({curve.label}/F_{p}) = {n} violates the Weil bound"
        )
    return n


def _primitive_part(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients (a positive number)."""
    c = gcd(*a)
    return [x // c for x in a] if c > 1 else a


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


def _weil_interval_ok(h: tuple[int, ...], q: int) -> bool:
    """Every root of h is real and lies in [-2 sqrt q, 2 sqrt q].

    Split h = E(x^2) + x O(x^2).  Then h(x) h(-x) = H(x^2) with
    H(y) = E(y)^2 - y O(y)^2, whose coefficient of y^m is the sum of
    (-1)^i h_i h_j over i + j = 2m.  The roots of H are the squares x_i^2
    of the roots x_i of h, and x_i is real with x_i^2 <= 4q exactly when
    x_i^2 is real and in [0, 4q].  Sturm's theorem counts the distinct
    roots of the squarefree part s of H in (0, 4q] as V(0) - V(4q), V the
    sign changes of the chain at an integer, and a root at 0, h(0) = 0, is
    added apart.  H is a square when h has both x and -x as roots, such as
    x^2 - 5, so s is H divided by gcd(H, H'), exactly over Z since H has
    degree g and leading coefficient (-1)^g h_g^2 = (-1)^g.
    """
    H = [0] * len(h)
    for i, a in enumerate(h):
        a = -a if i % 2 else a
        for j in range(i % 2, len(h), 2):
            H[(i + j) // 2] += a * h[j]
    chain = _sturm_chain(H)
    common = chain[-1]
    if len(common) > 1:
        # the sign of s changes no count of sign changes
        s, r = divmod(UniPolynomial(H), UniPolynomial(common))
        assert r.is_zero(), "gcd(H, H') divides H"
        chain = _sturm_chain(list(s.coeffs))

    def changes(values):
        signs = [v > 0 for v in values if v]
        return sum(x != z for x, z in zip(signs, signs[1:]))

    y = 4 * q
    at_4q = [reduce(lambda v, c: v * y + c, reversed(f), 0) for f in chain]  # Horner
    return changes(f[0] for f in chain) - changes(at_4q) + (h[0] == 0) == len(chain[0]) - 1


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
        product = UniPolynomial(self.coeffs) * UniPolynomial(other.coeffs)
        return LPolynomial(product.coeffs, self.q)

    def __eq__(self, other):
        if not isinstance(other, LPolynomial):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __repr__(self):
        return format_polynomial(self.coeffs, "T", ascending=True)


def l_polynomial(curve: HyperellipticCurve, p: int) -> LPolynomial:
    """Assemble L from the counts N_1..N_g; genus 0 gives [1].  As in
    count_points, the largest field is refused before good_reduction.  At
    genus 0 there is no field to refuse, and a p beyond is_prime's
    deterministic range raises its ValueError."""
    g = curve.genus
    if power_exceeds(p, g):
        raise _cap_error(p, g, curve.label)
    if not good_reduction(curve, p):
        raise BadReductionError(f"{curve.label} has bad reduction at p={p}")
    if g == 0:
        return LPolynomial((1,), p)
    s = [p**k + 1 - count_points(curve, p, k) for k in range(1, g + 1)]
    b = [1]
    for k in range(1, g + 1):
        acc = s[k - 1] + sum(b[j] * s[k - j - 1] for j in range(1, k))
        if acc % k != 0:
            raise VerificationError(f"Newton recurrence not integral at k={k}")
        b.append(-acc // k)
    for i in range(g - 1, -1, -1):
        b.append(p ** (g - i) * b[i])
    return LPolynomial(b, p)


def _possible_degrees(h: tuple[int, ...]) -> int:
    """Bit mask of the degrees k <= g = deg h that the factor degrees of h
    mod the primes in _PROOF_PRIMES leave possible for a factor over Q.

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
    return possible


def lpoly_is_irreducible(lp: LPolynomial):
    """Exact irreducibility over Q: (True, None), (False, f) with f a
    factor of L in Z[T], f(0) = 1, or (None, None) when neither is found.

    A repeated factor is found exactly, from gcd(L, L').  A squarefree L
    is irreducible over Q exactly when its real Weil polynomial h is
    (LPolynomial.real_weil_polynomial): a factor h1 of h of degree k gives
    the factor T^k h1(T + q/T) of T^(2g) L(1/T).  Conversely, let h be
    irreducible, alpha a root of T^(2g) L(1/T) and x = alpha + q/alpha, a
    root of h.  Then alpha^2 - x alpha + q = 0, so [Q(alpha) : Q] is 2g or
    g.  It is not g: that would put alpha in Q(x), a real field because
    every root of h is real, so alpha = +-sqrt q = q/alpha, a double root
    of L.  The argument rests on the exact Weil check that every
    LPolynomial passes.

    h is proved irreducible from its factor degrees mod small primes
    (_possible_degrees).  Otherwise the monic products of k roots of h are
    tried for the degrees k <= g/2 that the primes leave, smallest first:
    if h = h1 h2, both degrees survive every prime and one is at most g/2.
    The roots are real and distinct, since a root x of h lifts to the
    roots of T^2 - x T + q in the squarefree L, a double one at x = +-2
    sqrt q.  A product is rounded to integers and kept only if it divides
    h exactly: floating point proposes candidates and never decides.  The
    search stops after _SCAN_BUDGET products, and the verdict is then
    (None, None).
    """
    g, q = lp.genus, lp.q
    if g == 0:
        return False, None
    # the last Sturm member is the primitive gcd of L and L' up to sign;
    # L(0) = 1, so its constant term is +-1
    common = _sturm_chain(list(lp.coeffs))[-1]
    if len(common) > 1:
        return False, common if common[0] == 1 else [-c for c in common]
    h = UniPolynomial(lp.real_weil_polynomial())
    possible = _possible_degrees(h.coeffs)
    if possible == 1 | 1 << g:
        return True, None
    roots = np.roots(np.array(h.coeffs[::-1], dtype=float)).real
    subsets = (s for k in range(1, g // 2 + 1) if possible >> k & 1 for s in combinations(roots, k))
    for subset in islice(subsets, _SCAN_BUDGET):
        h1 = UniPolynomial(int(round(c)) for c in np.poly(subset)[::-1])
        if (h % h1).is_zero():
            # f is T^k h1(T + q/T) = sum_j c_j (T^2 + q)^j T^(k-j) reversed
            k = len(subset)
            lift = sum((UniPolynomial((q, 0, 1)) ** j * UniPolynomial((0,) * (k - j) + (c,))
                        for j, c in enumerate(h1.coeffs)), UniPolynomial(()))
            return False, list(reversed(lift.coeffs))
    return None, None


def remark_lpolys(d: int, q: int, threads: int = 1) -> dict:
    """L-polynomials of C_d, D_d, D_2d at q plus the two equalities:
    L(C_d) = L(D_d) and L(D_2d) = L(D_d) * L(C_d).

    `threads` is accepted for callers that still pass it and is ignored;
    counting runs on one thread."""
    if classify_d(d) != 2:
        raise ValueError("d must be an odd prime")
    # refused before the curves are built; D_2d has genus d - 1
    if power_exceeds(q, d - 1):
        raise _cap_error(q, d - 1, f"D_{2 * d}")
    cd, dd, d2d = make_cd(d), make_dm(d), make_dm(2 * d)
    for c in (cd, dd, d2d):
        if not good_reduction(c, q):
            raise BadReductionError(f"{c.label} has bad reduction at q={q}")
    l_cd = l_polynomial(cd, q)
    l_dd = l_polynomial(dd, q)
    l_d2d = l_polynomial(d2d, q)
    return {
        "d": d,
        "q": q,
        "l_cd": l_cd,
        "l_dd": l_dd,
        "l_d2d": l_d2d,
        "curves_agree": l_cd == l_dd,
        "product_ok": l_dd * l_cd == l_d2d,
    }


def cm_trace_pattern_c2(bound: int) -> bool:
    """a_q(C_2) = 0 exactly when -2 is a non-square mod q, for odd q <= bound.
    A bound below 3, which holds no odd prime, is refused first, and a bound
    that reaches the least prime above COUNT_CAP, found by is_prime, before
    any sieve; the primes then come from one sieve up to bound."""
    if bound < 3:
        raise ValueError(f"bound must be >= 3, the least odd prime; got {bound}")
    if bound > COUNT_CAP:
        least = COUNT_CAP + 1
        while not is_prime(least):
            least += 1
        if bound >= least:
            raise _cap_error(least)
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:3] = sieve[4::2] = False
    for i in range(3, isqrt(bound) + 1, 2):
        if sieve[i]:
            sieve[i * i :: 2 * i] = False
    primes = np.flatnonzero(sieve).tolist()
    c2 = make_cd(2)
    for q in primes:
        try:
            a = q + 1 - count_points(c2, q)
        except BadReductionError:
            continue
        # (-2/q) = (-1/q)(2/q) = -1 exactly when q = 5, 7 (mod 8)
        if (a == 0) != (q % 8 >= 5):
            return False
    return True
