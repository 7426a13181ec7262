"""Hyperelliptic curve models, their monomial automorphisms, and the action
on the basis of regular differentials.

A monomial automorphism is (x, y) -> (gamma * x^s, delta * x^t * y) with
s = +-1; this covers the rotations (alpha*x, beta*y) and the inversions
(gamma/x, delta*y/x^m) that occur here.  It preserves y^2 = f(x) when
delta^2 x^(2t) f(x) = f(gamma x^s), and automorphism_valid compares the
two sides term by term, from exponent to coefficient.  The map sends
each differential omega_j = x^(j-1) dx / y (j = 1..g) to one multiple of
another, so pullback_matrix gives its pullback in closed form as a
monomial matrix, one (index, coefficient) pair per omega_j.  Index reflections and signs
follow from s, t, gamma and delta; the tests check the closed form
against formal substitution into h(x) dx / y.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import UniPolynomial, compose_x_plus_inverse, squarefree
from .chebyshev import classify_d, curve_polynomial, genus_of_cd
from .cyclotomic import CyclotomicContext


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
    """(x, y) -> (gamma * x^s, delta * x^t * y), coefficients in Z[zeta_n].

    gamma and delta are units +-zeta^k wherever a map is inverted or
    pulled back (CyclotomicElement.inverse).
    """

    __slots__ = ("context", "gamma", "s", "delta", "t")

    def __init__(self, context: CyclotomicContext, gamma, s: int, delta, t: int):
        if s not in (1, -1):
            raise ValueError("s must be +1 or -1")
        self.context = context
        self.gamma = context.coerce(gamma)
        self.s = s
        self.delta = context.coerce(delta)
        self.t = t

    @classmethod
    def scale(cls, context, alpha, beta):
        """(x, y) -> (alpha*x, beta*y)."""
        return cls(context, alpha, 1, beta, 0)

    @classmethod
    def invert(cls, context, gamma, delta, m: int):
        """(x, y) -> (gamma/x, delta*y/x^m)."""
        return cls(context, gamma, -1, delta, -m)

    @classmethod
    def identity(cls, context):
        return cls(context, context.one, 1, context.one, 0)

    @classmethod
    def hyperelliptic_involution(cls, context):
        return cls(context, context.one, 1, -context.one, 0)

    def is_identity(self) -> bool:
        ctx = self.context
        return (
            self.s == 1
            and self.t == 0
            and self.gamma == ctx.one
            and self.delta == ctx.one
        )

    def compose(self, other: "MonomialAutomorphism") -> "MonomialAutomorphism":
        """self after other: returns the map p -> self(other(p))."""
        if other.context != self.context:
            raise ValueError("automorphisms over different cyclotomic fields")
        a, b = self, other
        gamma = a.gamma * b.gamma**a.s
        s = a.s * b.s
        delta = a.delta * b.gamma**a.t * b.delta
        t = b.s * a.t + b.t
        return MonomialAutomorphism(self.context, gamma, s, delta, t)

    def inverse(self) -> "MonomialAutomorphism":
        gamma = self.gamma ** (-self.s)
        t = -self.t * self.s
        delta = self.gamma ** (self.t * self.s) / self.delta
        return MonomialAutomorphism(self.context, gamma, self.s, delta, t)

    def power(self, k: int) -> "MonomialAutomorphism":
        if k < 0:
            return self.inverse().power(-k)
        result = MonomialAutomorphism.identity(self.context)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def order(self, limit: int = 10000) -> int:
        k = 1
        cur = self
        while not cur.is_identity():
            cur = cur.compose(self)
            k += 1
            if k > limit:
                raise ValueError("order exceeds limit")
        return k

    def __eq__(self, other):
        if not isinstance(other, MonomialAutomorphism):
            return NotImplemented
        return (
            self.context == other.context
            and self.s == other.s
            and self.t == other.t
            and self.gamma == other.gamma
            and self.delta == other.delta
        )

    def __hash__(self):
        return hash((self.context, self.gamma, self.s, self.delta, self.t))

    def __repr__(self):
        x = f"{self.gamma} * x^{self.s}" if self.s != 1 else f"{self.gamma} * x"
        y = f"{self.delta} * x^{self.t} * y" if self.t else f"{self.delta} * y"
        return f"(x, y) -> ({x}, {y})"


@lru_cache(maxsize=None)
def automorphism_valid(curve: HyperellipticCurve, auto: MonomialAutomorphism) -> bool:
    """Exact check that (delta*x^t*y)^2 = f(gamma*x^s) given y^2 = f(x);
    run once per (curve, map), as pullback_matrix re-checks the maps that
    the case constructors have checked.  With f = sum c_i x^i, the two
    sides are sum delta^2 c_i x^(i+2t) and sum gamma^i c_i x^(s i), compared
    as maps from exponent to coefficient over the nonzero c_i."""
    zero = auto.context.zero
    terms = [(i, c) for i, c in enumerate(curve.f.coeffs) if c]
    square = auto.delta * auto.delta
    lhs = {i + 2 * auto.t: square * c for i, c in terms}
    rhs = {auto.s * i: auto.gamma**i * c for i, c in terms}
    return {k: v for k, v in lhs.items() if v != zero} == {
        k: v for k, v in rhs.items() if v != zero
    }


def pullback_matrix(curve: HyperellipticCurve, auto: MonomialAutomorphism) -> list:
    """Pullback of auto on the basis omega_j = x^(j-1) dx / y, as a
    monomial matrix: entry j - 1 is the pair (i, c) with
    auto^* omega_j = c * omega_(i+1).

    Substituting x -> gamma x^s, y -> delta x^t y gives
    (gamma x^s)^(j-1) d(gamma x^s) / (delta x^t y) = (s gamma^j / delta) x^(sj-t-1) dx/y,
    so i = sj - t - 1 and c = s gamma^j / delta.  Pullbacks compose
    contravariantly: pullback_matrix(a after b) is
    compose_pullbacks(pullback_matrix(a), pullback_matrix(b)).
    Raises MapNotValidError when the map does not preserve the curve, or
    when some omega_j lands outside the regular basis (i not in [0, g)).
    """
    if not automorphism_valid(curve, auto):
        raise MapNotValidError(f"{auto!r} does not preserve {curve.label}")
    g = curve.genus
    c = auto.s / auto.delta
    out = []
    for j in range(1, g + 1):
        c = c * auto.gamma
        i = auto.s * j - auto.t - 1
        if not 0 <= i < g:
            raise MapNotValidError(
                f"pullback of omega_{j} is not in the regular basis span"
            )
        out.append((i, c))
    return out


def compose_pullbacks(first: list, second: list) -> list:
    """Pull back by first, then by second: the matrix product second . first."""
    return [(second[i][0], c * second[i][1]) for i, c in first]


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
    ctx = CyclotomicContext(4 * d)
    z = MonomialAutomorphism.scale(ctx, ctx.zeta_power(2), ctx.zeta_power(1))
    tau = MonomialAutomorphism.invert(ctx, ctx.one, ctx.one, d + 1)
    if not automorphism_valid(curve, z):
        raise MapNotValidError("rotation does not preserve X_d")
    if not automorphism_valid(curve, tau):
        raise MapNotValidError("tau does not preserve X_d")
    if z.order(limit=8 * d) != 4 * d:
        raise VerificationError("rotation does not have order 4d")
    if z.power(2 * d) != MonomialAutomorphism.hyperelliptic_involution(ctx):
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
    ctx = CyclotomicContext(2 * p)
    z = MonomialAutomorphism.scale(ctx, ctx.zeta_power(1), ctx.one)
    sigma = MonomialAutomorphism.invert(ctx, ctx.one, ctx.one, p)
    if not automorphism_valid(curve, z):
        raise MapNotValidError("rotation does not preserve D_2p")
    if not automorphism_valid(curve, sigma):
        raise MapNotValidError("sigma does not preserve D_2p")
    if z.order(limit=8 * p) != 2 * p:
        raise VerificationError("rotation does not have order 2p")
    if not sigma.compose(sigma).is_identity():
        raise VerificationError("sigma is not an involution")
    return curve, z, sigma


def quotient_identity(d: int, case: int | None = None) -> bool:
    """Exact check that the substitution u = x + 1/x, with
    v = y*(1+x)*x^(-(d+2)/2) on X_d (d even) or v = y*(1+x)*x^(-(d+1)/2)
    on D_2d (d odd prime), lands on v^2 = (u+2)*phi_d(u).  With
    F = (u+2) phi_d of degree d + 1 and x^shift the denominator of v^2,
    src (1+x)^2 x^(-shift) = F(x + 1/x) is checked multiplied by x^shift:
    src (1+x)^2 = x^(shift-d-1) compose_x_plus_inverse(F)."""
    found = classify_d(d)
    if found is None:
        raise ValueError(f"d={d} is not 2^e or an odd prime")
    if case is not None and case != found:
        raise ValueError(f"d={d} belongs to case {found}, not case {case}")
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

    Works on the monomial pullbacks of pullback_matrix in O(g) ring
    operations.  A rotation has s = 1, t = 0, so it fixes every index and
    e = [zeta]^* - [zeta^(-1)]^* is diagonal; if either permutation is not
    the identity, "diagonal" is false.  Commutation with the involution
    pullback P is checked entrywise through compose_pullbacks.

    Invariant dimension: the involution squares to the identity (the case
    constructors check it), so P^2 = 1 and its permutation pi is an
    involution on indices.  On a 2-cycle a -> b, P omega_a = c_a omega_b
    and P omega_b = c_b omega_a with c_a c_b = 1, and x omega_a + y omega_b
    is fixed exactly when y = c_a x: one dimension.  On a fixed point,
    P omega_a = c_a omega_a with c_a^2 = 1, so c_a = +-1 in the domain
    Z[zeta_n], and omega_a is fixed exactly when c_a = 1.  The dimension
    is therefore the number of 2-cycles plus the fixed points with c = 1.

    The expected invariant vectors are omega_j - omega_(g+1-j), and their
    eigenvalues under e are compared against the closed forms
    zeta_4d^(2j-1) - zeta_4d^(1-2j) (d even) or zeta_2d^j - zeta_2d^(-j)
    (d an odd prime).  "operator" is e as a monomial matrix.
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
    ctx = z.context
    g = curve.genus
    mz = pullback_matrix(curve, z)
    mzi = pullback_matrix(curve, z.inverse())
    diagonal = all(i == k == j for j, ((i, _), (k, _)) in enumerate(zip(mz, mzi)))
    e = [(j, a - b) for j, ((_, a), (_, b)) in enumerate(zip(mz, mzi))]
    m_invol = pullback_matrix(curve, invol)
    commutes = compose_pullbacks(e, m_invol) == compose_pullbacks(m_invol, e)

    # the case constructors verify that invol is an involution
    dimension = sum(i > j or (i == j and c == ctx.one) for j, (i, c) in enumerate(m_invol))

    def fixes(a, b):
        """P (omega_(a+1) - omega_(b+1)) == omega_(a+1) - omega_(b+1), a != b."""
        (ia, ca), (ib, cb) = m_invol[a], m_invol[b]
        return {ia: ca, ib: -cb} == {a: ctx.one, b: -ctx.one}

    pairs = [(j - 1, g - j) for j in range(1, half + 1)]
    span_ok = dimension == half == genus_of_cd(d) and all(fixes(a, b) for a, b in pairs)

    eigenvalues = [
        e[a][1] if diagonal and e[a][1] == e[b][1] else None for a, b in pairs
    ]
    diagonal = diagonal and all(v is not None for v in eigenvalues)

    if case == 1:
        closed = [
            ctx.zeta_power(2 * j - 1) - ctx.zeta_power(1 - 2 * j)
            for j in range(1, half + 1)
        ]
    else:
        closed = [
            ctx.zeta_power(j) - ctx.zeta_power(-j) for j in range(1, half + 1)
        ]
    closed_match = diagonal and eigenvalues == closed

    return {
        "curve": curve,
        "context": ctx,
        "operator": e,
        "commutes": commutes,
        "invariant_dimension": dimension,
        "invariant_ok": span_ok,
        "diagonal": diagonal,
        "eigenvalues": eigenvalues,
        "closed_form_match": closed_match,
        "ok": commutes and span_ok and closed_match,
    }
