"""Hyperelliptic curve models, their monomial automorphisms, and the action
on the basis of regular differentials.

A monomial automorphism is (x, y) -> (zeta_n^a * x^s, zeta_n^b * x^t * y)
with s = +-1 and n even; this covers the rotations (zeta^a x, zeta^b y)
and the inversions (zeta^a/x, zeta^b y/x^m) that occur here.  Each
coefficient is a unit +-zeta^k, and as -1 = zeta^(n/2) it is carried as
one exponent mod n, so maps compose by integer arithmetic.  A map
preserves y^2 = f(x) when zeta^(2b) x^(2t) f(x) = f(zeta^a x^s), and
automorphism_valid compares the two sides term by term, from exponent of
x to coefficient.  The map sends each differential omega_j =
x^(j-1) dx / y (j = 1..g) to a unit multiple of another, so
pullback_matrix gives its pullback in closed form as a monomial matrix,
one (index, exponent) pair per omega_j.  Index reflections and signs
follow from s, t, a and b; the tests check the closed form against
formal substitution into h(x) dx / y, computed with coefficient vectors
in Z[zeta_n].
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import UniPolynomial, compose_x_plus_inverse, squarefree
from .chebyshev import classify_d, curve_polynomial, genus_of_cd
from .cyclotomic import zeta_difference


class MapNotValidError(ValueError):
    """The candidate map does not preserve the curve equation."""


class VerificationError(AssertionError):
    """An exact identity that the construction promises failed to hold."""


class HyperellipticCurve:
    """y^2 = f(x) with f in Z[x] squarefree; genus floor((deg f - 1) / 2).

    Degree 1 and 2 models (genus 0) are accepted so that the zeta layer
    can exercise its trivial case.  Curves are never mutated, so make_cd,
    make_dm and make_xd build each one once per process.
    """

    def __init__(self, f: UniPolynomial, label: str | None = None):
        if f.degree < 1:
            raise ValueError("deg f must be >= 1")
        if not squarefree(f):
            raise ValueError("f must be squarefree")
        self.f = f
        self.label = label or f"y^2 = {f}"
        self.genus = (f.degree - 1) // 2

    def __eq__(self, other):
        return isinstance(other, HyperellipticCurve) and other.f == self.f

    def __hash__(self):
        return hash(self.f)

    def __repr__(self):
        return f"HyperellipticCurve({self.label})"


@lru_cache(maxsize=None)
def make_cd(d: int) -> HyperellipticCurve:
    """C_d : v^2 = (u+2) * phi_d(u), for d >= 2."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return HyperellipticCurve(curve_polynomial(d), label=f"C_{d}")


@lru_cache(maxsize=None)
def make_dm(m: int) -> HyperellipticCurve:
    """D_m : y^2 = x^m + 1, for m >= 3."""
    if m < 3:
        raise ValueError("m must be >= 3")
    f = UniPolynomial((1,) + (0,) * (m - 1) + (1,))
    return HyperellipticCurve(f, label=f"D_{m}")


@lru_cache(maxsize=None)
def make_xd(d: int) -> HyperellipticCurve:
    """X_d : y^2 = x * (x^(2d) + 1), for even d >= 2; genus d."""
    if d < 2 or d % 2 != 0:
        raise ValueError("even d >= 2 required")
    f = UniPolynomial((0, 1) + (0,) * (2 * d - 1) + (1,))
    c = HyperellipticCurve(f, label=f"X_{d}")
    assert c.genus == d
    return c


class MonomialAutomorphism:
    """(x, y) -> (zeta_n^a * x^s, zeta_n^b * x^t * y), with s = +-1.

    Every coefficient is a unit of Z[zeta_n], carried as its exponent mod
    n.  n is even, so -1 = zeta_n^(n/2) is one of them too, and composing,
    inverting and comparing maps is integer arithmetic mod n.
    """

    __slots__ = ("n", "a", "s", "b", "t")

    def __init__(self, n: int, a: int, s: int, b: int, t: int):
        if n < 2 or n % 2:
            raise ValueError(f"n must be even, so that -1 = zeta_n^(n/2); got {n}")
        if s not in (1, -1):
            raise ValueError("s must be +1 or -1")
        self.n, self.a, self.s, self.b, self.t = n, a % n, s, b % n, t

    @classmethod
    def scale(cls, n, a, b):
        """(x, y) -> (zeta^a x, zeta^b y)."""
        return cls(n, a, 1, b, 0)

    @classmethod
    def invert(cls, n, a, b, m: int):
        """(x, y) -> (zeta^a / x, zeta^b y / x^m)."""
        return cls(n, a, -1, b, -m)

    @classmethod
    def identity(cls, n):
        return cls(n, 0, 1, 0, 0)

    @classmethod
    def hyperelliptic_involution(cls, n):
        return cls(n, 0, 1, n // 2, 0)

    def _key(self):
        return (self.n, self.a, self.s, self.b, self.t)

    def is_identity(self) -> bool:
        return (self.a, self.s, self.b, self.t) == (0, 1, 0, 0)

    def compose(self, other: "MonomialAutomorphism") -> "MonomialAutomorphism":
        """self after other: returns the map p -> self(other(p))."""
        if other.n != self.n:
            raise ValueError("automorphisms over different cyclotomic fields")
        f, g = self, other
        # f(g(x, y)): x -> zeta^(f.a) (zeta^(g.a) x^(g.s))^(f.s), and y picks
        # up zeta^(f.b) (zeta^(g.a) x^(g.s))^(f.t) zeta^(g.b) x^(g.t)
        a = f.a + f.s * g.a
        b = f.b + f.t * g.a + g.b
        return MonomialAutomorphism(f.n, a, f.s * g.s, b, g.s * f.t + g.t)

    def inverse(self) -> "MonomialAutomorphism":
        a, s, b, t = self.a, self.s, self.b, self.t
        return MonomialAutomorphism(self.n, -s * a, s, t * s * a - b, -t * s)

    def power(self, k: int) -> "MonomialAutomorphism":
        if k < 0:
            return self.inverse().power(-k)
        result = MonomialAutomorphism.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def order(self) -> int:
        """The least k >= 1 with self^k the identity.  With s = 1, self^k
        multiplies y by x^(kt), so t != 0 means infinite order (ValueError),
        and with t = 0 it scales x and y by units of order dividing n.  With
        s = -1, self^2 is such a scaling, so every finite order is <= 2n."""
        if self.s == 1 and self.t:
            raise ValueError(f"infinite order: y picks up x^{self.t} at each step")
        cur = self
        for k in range(1, 2 * self.n + 1):
            if cur.is_identity():
                return k
            cur = cur.compose(self)
        raise AssertionError("a finite order exceeds 2n")

    def __eq__(self, other):
        if not isinstance(other, MonomialAutomorphism):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        z = f"zeta_{self.n}"
        x = f"{z}^{self.a} * x^{self.s}" if self.s != 1 else f"{z}^{self.a} * x"
        y = f"{z}^{self.b} * x^{self.t} * y" if self.t else f"{z}^{self.b} * y"
        return f"(x, y) -> ({x}, {y})"


def _unit_multiple(n: int, u: int, c: int) -> tuple:
    """zeta_n^u * c, c a nonzero int, as the pair (u mod n/2, +-c): a
    zeta^(n/2) = -1 moves into the sign."""
    half, r = divmod(u % n, n // 2)
    return r, -c if half else c


@lru_cache(maxsize=None)
def automorphism_valid(curve: HyperellipticCurve, auto: MonomialAutomorphism) -> bool:
    """Exact check that (zeta^b x^t y)^2 = f(zeta^a x^s) given y^2 = f(x);
    run once per (curve, map), as pullback_matrix re-checks the maps that
    the case constructors have checked.  With f = sum c_i x^i, the two
    sides are sum zeta^(2b) c_i x^(i+2t) and sum zeta^(a i) c_i x^(s i),
    each with distinct exponents and no zero term.  They are compared as
    maps from an exponent of x to _unit_multiple's pair (u mod n/2, +-c).
    The pair is canonical: for nonzero ints c, c', zeta^u c = zeta^v c'
    makes zeta^(u-v) = c'/c a rational root of unity, so +-1, so n/2
    divides u - v and c' = +-c with the sign of zeta^(u-v); conversely
    such a pair of terms is equal."""
    n = auto.n
    terms = [(i, c) for i, c in enumerate(curve.f.coeffs) if c]
    lhs = {i + 2 * auto.t: _unit_multiple(n, 2 * auto.b, c) for i, c in terms}
    rhs = {auto.s * i: _unit_multiple(n, auto.a * i, c) for i, c in terms}
    return lhs == rhs


def pullback_matrix(curve: HyperellipticCurve, auto: MonomialAutomorphism) -> list:
    """Pullback of auto on the basis omega_j = x^(j-1) dx / y, as a
    monomial matrix: entry j - 1 is the pair (i, u) with
    auto^* omega_j = zeta_n^u * omega_(i+1).

    Substituting x -> zeta^a x^s, y -> zeta^b x^t y gives
    (zeta^a x^s)^(j-1) d(zeta^a x^s) / (zeta^b x^t y)
    = s zeta^(a j - b) x^(sj-t-1) dx/y, so i = sj - t - 1 and u = a j - b,
    plus n/2 (the sign) when s = -1.  Pullbacks compose contravariantly:
    pullback_matrix(f after g) is
    compose_pullbacks(pullback_matrix(f), pullback_matrix(g), n).
    Raises MapNotValidError when the map does not preserve the curve, or
    when some omega_j lands outside the regular basis (i not in [0, g)).
    """
    if not automorphism_valid(curve, auto):
        raise MapNotValidError(f"{auto!r} does not preserve {curve.label}")
    n, g = auto.n, curve.genus
    sign = 0 if auto.s == 1 else n // 2
    out = []
    for j in range(1, g + 1):
        i = auto.s * j - auto.t - 1
        if not 0 <= i < g:
            raise MapNotValidError(
                f"pullback of omega_{j} is not in the regular basis span"
            )
        out.append((i, (auto.a * j - auto.b + sign) % n))
    return out


def compose_pullbacks(first: list, second: list, n: int) -> list:
    """Pull back by first, then by second: the matrix product second . first,
    whose unit entries zeta_n^u multiply by adding exponents mod n."""
    return [(second[i][0], (u + second[i][1]) % n) for i, u in first]


@lru_cache(maxsize=None)
def case1_automorphisms(d: int):
    """The order-4d rotation and the inversion tau on X_d (even d).

    The rotation is lifted as (x, y) -> (zeta_4d^2 x, zeta_4d y): the lift
    (zeta_4d x, zeta_4d y) does not preserve y^2 = x^(2d+1) + x, so the
    valid lift doubles the exponent on x.  Verifies order 4d, that the
    2d-th power is the hyperelliptic involution, that tau is an involution
    and tau zeta tau = zeta^(2d-1), all as exact maps, once per d.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("even d >= 2 required")
    curve = make_xd(d)
    n = 4 * d
    z = MonomialAutomorphism.scale(n, 2, 1)
    tau = MonomialAutomorphism.invert(n, 0, 0, d + 1)
    if not automorphism_valid(curve, z):
        raise MapNotValidError("rotation does not preserve X_d")
    if not automorphism_valid(curve, tau):
        raise MapNotValidError("tau does not preserve X_d")
    if z.order() != 4 * d:
        raise VerificationError("rotation does not have order 4d")
    if z.power(2 * d) != MonomialAutomorphism.hyperelliptic_involution(n):
        raise VerificationError("zeta^(2d) is not the hyperelliptic involution")
    if not tau.compose(tau).is_identity():
        raise VerificationError("tau is not an involution")
    if tau.compose(z).compose(tau) != z.power(2 * d - 1):
        raise VerificationError("tau zeta tau != zeta^(2d-1)")
    return curve, z, tau


@lru_cache(maxsize=None)
def case2_automorphisms(p: int):
    """The order-2p rotation (zeta_2p x, y) and sigma (1/x, y/x^p) on D_2p,
    verified once per p."""
    if classify_d(p) != 2:
        raise ValueError("odd prime p required")
    curve = make_dm(2 * p)
    z = MonomialAutomorphism.scale(2 * p, 1, 0)
    sigma = MonomialAutomorphism.invert(2 * p, 0, 0, p)
    if not automorphism_valid(curve, z):
        raise MapNotValidError("rotation does not preserve D_2p")
    if not automorphism_valid(curve, sigma):
        raise MapNotValidError("sigma does not preserve D_2p")
    if z.order() != 2 * p:
        raise VerificationError("rotation does not have order 2p")
    if not sigma.compose(sigma).is_identity():
        raise VerificationError("sigma is not an involution")
    return curve, z, sigma


def quotient_identity(d: int) -> bool:
    """Exact check that the substitution u = x + 1/x, with
    v = y*(1+x)*x^(-(d+2)/2) on X_d (d even) or v = y*(1+x)*x^(-(d+1)/2)
    on D_2d (d odd prime), lands on v^2 = (u+2)*phi_d(u).  With
    F = (u+2) phi_d of degree d + 1 and x^shift the denominator of v^2,
    src (1+x)^2 x^(-shift) = F(x + 1/x) is checked multiplied by x^shift:
    src (1+x)^2 = x^(shift-d-1) compose_x_plus_inverse(F)."""
    found = classify_d(d)
    if found is None:
        raise ValueError(f"d={d} is not 2^e or an odd prime")
    if found == 1:
        src = make_xd(d).f  # x^(2d+1) + x
        shift = d + 2
    else:
        src = make_dm(2 * d).f  # x^(2d) + 1
        shift = d + 1
    lhs = src * UniPolynomial((1, 2, 1))
    lift = UniPolynomial((0,) * (shift - d - 1) + (1,))  # x, or 1 for odd d
    return lhs == lift * compose_x_plus_inverse(curve_polynomial(d))


def endo_quotient_details(d: int) -> dict:
    """Action of [zeta] - [zeta^(-1)] on the involution-invariant differentials.

    Works on the monomial pullbacks of pullback_matrix in O(g) steps.  A
    rotation has s = 1, t = 0, so it fixes every index and
    e = [zeta]^* - [zeta^(-1)]^* is diagonal, e_j = zeta^u_j - zeta^v_j
    read from the power table; if either permutation is not the
    identity, "diagonal" is false.

    Commutation: the involution pullback P is monomial, P omega_j =
    zeta^(w_j) omega_(pi(j)).  So P e omega_j = e_j zeta^(w_j)
    omega_(pi(j)) and e P omega_j = zeta^(w_j) e_(pi(j)) omega_(pi(j)),
    and as zeta^(w_j) is a unit of the domain Z[zeta_n], eP = Pe exactly
    when e_j = e_(pi(j)) for every j.

    Invariant dimension: the involution squares to the identity (the case
    constructors check it), so P^2 = 1 and pi is an involution on
    indices.  On a 2-cycle a -> b, P omega_a = c_a omega_b and
    P omega_b = c_b omega_a with c_a c_b = 1, and x omega_a + y omega_b
    is fixed exactly when y = c_a x: one dimension.  On a fixed point,
    P omega_a = c_a omega_a, and omega_a is fixed exactly when c_a = 1,
    that is w_a = 0.  The dimension is therefore the number of 2-cycles
    plus the fixed points with w = 0.

    The expected invariant vectors are omega_j - omega_(g+1-j), and their
    eigenvalues under e are compared against the closed forms
    zeta_4d^(2j-1) - zeta_4d^(1-2j) (d even) or zeta_2d^j - zeta_2d^(-j)
    (d an odd prime).  "operator" is e as a monomial matrix of
    coefficient vectors.
    """
    case = classify_d(d)
    if case is None:
        raise ValueError(f"d={d} is not 2^e or an odd prime")
    if case == 1:
        curve, z, invol = case1_automorphisms(d)
        half = d // 2
    else:
        curve, z, invol = case2_automorphisms(d)
        half = (d - 1) // 2
    n, g = z.n, curve.genus
    mz = pullback_matrix(curve, z)
    mzi = pullback_matrix(curve, z.inverse())
    diagonal = all(i == k == j for j, ((i, _), (k, _)) in enumerate(zip(mz, mzi)))
    e = [(j, zeta_difference(n, u, v)) for j, ((_, u), (_, v)) in enumerate(zip(mz, mzi))]
    m_invol = pullback_matrix(curve, invol)
    commutes = all(e[j][1] == e[i][1] for j, (i, _) in enumerate(m_invol))

    # the case constructors verify that invol is an involution
    dimension = sum(i > j or (i == j and w == 0) for j, (i, w) in enumerate(m_invol))

    def fixes(a, b):
        """P (omega_(a+1) - omega_(b+1)) == omega_(a+1) - omega_(b+1), a != b."""
        (ia, wa), (ib, wb) = m_invol[a], m_invol[b]
        return {ia: wa, ib: (wb + n // 2) % n} == {a: 0, b: n // 2}

    pairs = [(j - 1, g - j) for j in range(1, half + 1)]
    span_ok = dimension == half == genus_of_cd(d) and all(fixes(a, b) for a, b in pairs)

    eigenvalues = [
        e[a][1] if diagonal and e[a][1] == e[b][1] else None for a, b in pairs
    ]
    diagonal = diagonal and all(v is not None for v in eigenvalues)

    if case == 1:
        closed = [zeta_difference(n, 2 * j - 1, 1 - 2 * j) for j in range(1, half + 1)]
    else:
        closed = [zeta_difference(n, j, -j) for j in range(1, half + 1)]
    closed_match = diagonal and eigenvalues == closed

    return {
        "curve": curve,
        "n": n,
        "operator": e,
        "commutes": commutes,
        "invariant_dimension": dimension,
        "invariant_ok": span_ok,
        "diagonal": diagonal,
        "eigenvalues": eigenvalues,
        "closed_form_match": closed_match,
        "ok": commutes and span_ok and closed_match,
    }
