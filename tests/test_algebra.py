from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebcm.algebra import (
    UniPolynomial,
    _factor_degrees_mod,
    _gcd_mod,
    _int_poly_divmod,
    _monics,
    _power,
    _reduce_mod,
    _times,
    compose_x_plus_inverse,
    field_tower,
    squarefree,
)
from chebcm.chebyshev import curve_polynomial, in_scope_family
from chebcm.curves import make_cd, make_dm, make_xd
from chebcm.zeta import _PROOF_PRIMES
from oracles import _mulmod, _powmod, divmod_q, factor_degrees_mod, gcd_mod, gcd_q


def zpoly(*coeffs):
    return UniPolynomial(coeffs)


def _encoding(m, p, k):
    """The monic degree-k polynomial with integer encoding m (low first)."""
    return [m // p**i % p for i in range(k)] + [1]


def _has_monic_divisor(f, p):
    """Brute force: some monic g of degree 1..deg(f) // 2 divides f mod p,
    that is, f is reducible over F_p."""
    for d in range(1, (len(f) - 1) // 2 + 1):
        for m in range(p**d):
            rem = list(f)
            g = _encoding(m, p, d)
            for top in range(len(rem) - 1, d - 1, -1):
                c = rem[top] % p
                for i, gc in enumerate(g):
                    rem[top - d + i] -= c * gc
            if all(c % p == 0 for c in rem[:d]):
                return True
    return False


# every extension field with p^k <= 5^4
SMALL_TOWERS = [
    (p, k)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for k in range(2, 10)
    if p**k <= 5**4
]


class TestUniPolynomial:
    def test_normalization_strips_trailing_zeros(self):
        assert zpoly(1, 2, 0, 0).coeffs == (1, 2)
        assert zpoly(0, 0).degree == -1

    def test_arithmetic(self):
        f = zpoly(1, 1)  # 1 + x
        g = zpoly(-1, 1)  # -1 + x
        assert (f * g).coeffs == (-1, 0, 1)
        assert (f + g).coeffs == (0, 2)
        assert (f - f).degree == -1
        assert (f**3).coeffs == (1, 3, 3, 1)

    def test_call_horner(self):
        f = zpoly(-4, 0, 1)
        assert f(3) == 5
        assert f(zpoly(1, 1)) == zpoly(-3, 2, 1)  # (x + 1)^2 - 4
        assert zpoly()(zpoly(0, 1)) == zpoly()

    def test_ring_mismatch_rejected(self):
        # coefficients are plain ints: anything else, bool included, is
        # refused when the polynomial is built, and does not mix with one
        for bad in (True, 1.0, Fraction(1, 2)):
            with pytest.raises(TypeError):
                UniPolynomial((1, bad))
            with pytest.raises(TypeError):
                zpoly(1, 1) + bad
        assert zpoly(1, 1) + 2 == zpoly(3, 1)

    def test_divmod_over_field(self):
        # over Z by a divisor with leading coefficient +-1, the division
        # over the field Q; a polynomial over Q cannot be built
        for g in (zpoly(1, 1), zpoly(1, 0, -1)):
            f = zpoly(2, 0, 1, 1)
            q, r = divmod(f, g)
            assert (list(q.coeffs), list(r.coeffs)) == divmod_q(f.coeffs, g.coeffs)
            assert q * g + r == f
            assert r.degree < g.degree
        with pytest.raises(TypeError):
            UniPolynomial((Fraction(1, 2), 1))
        # a leading coefficient other than +-1 has no inverse in the ring
        with pytest.raises(ValueError):
            divmod(zpoly(1, 2, 3), zpoly(1, 2))

    def test_compose(self):
        f = zpoly(0, 0, 1)
        g = zpoly(1, 1)
        assert f(g).coeffs == (1, 2, 1)

    def test_str_omits_unit_coefficients(self):
        assert str(zpoly(1, 0, -1, 1)) == "x^3 - x^2 + 1"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.sampled_from((1, -1)),
)
def test_divmod_identity_property(a, b, lead):
    f = zpoly(*a)
    g = zpoly(*b, lead)
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree
    assert (list(q.coeffs), list(r.coeffs)) == divmod_q(a, b + [lead])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.integers(-4, 4),
)
def test_evaluation_is_ring_homomorphism(a, b, x):
    f, g = zpoly(*a), zpoly(*b)
    assert (f * g)(x) == f(x) * g(x)
    assert (f + g)(x) == f(x) + g(x)


class TestGcd:
    def test_gcd_monic(self):
        # the Euclid oracles over Q and F_p that the integer routes are
        # checked against, and algebra's own gcd over F_p
        assert gcd_q([-1, 0, 1], [1, 2, 1]) == [1, 1]  # (x-1)(x+1), (x+1)^2
        assert gcd_q([-2, 0, 2], [3, 3]) == [1, 1]
        assert gcd_q([1, 1], [2]) == [1]
        assert gcd_mod([-1, 0, 1], [1, 2, 1], 5) == [1, 1] == _gcd_mod(
            [-1, 0, 1], [1, 2, 1], 5
        )
        # x^2 + 1 = (x + 2)(x + 3) mod 5
        assert gcd_mod([1, 0, 1], [3, 1], 5) == [3, 1] == _gcd_mod([1, 0, 1], [3, 1], 5)

    def test_squarefree(self):
        assert squarefree(zpoly(-2, 0, 1))
        assert not squarefree(zpoly(1, 2, 1))
        # x^3 + 1 = (x+1)^3 over F_3; the derivative 3x^2 vanishes, and the
        # gcd with it is the whole polynomial
        assert gcd_mod([1, 0, 0, 1], [0, 0, 3], 3) == [1, 0, 0, 1]
        assert _gcd_mod([1, 0, 0, 1], [0, 0, 3], 3) == [1, 0, 0, 1]
        # only polynomials over Z exist: x^3 + 1/3 is refused when built
        with pytest.raises(TypeError):
            squarefree(UniPolynomial((Fraction(1, 3), 0, 0, 1)))

    def test_integer_route_matches_the_gcd_over_q_on_every_model(self):
        models = [make_cd(d).f for d in in_scope_family(64)]
        models += [make_dm(m).f for m in range(3, 131)]
        models += [make_xd(d).f for d in range(2, 65, 2)]
        models += [curve_polynomial(d) for d in range(1, 65)]
        for f in models:
            assert squarefree(f) == squarefree_over_q(f), f

    def test_integer_route_small_degrees(self):
        assert not squarefree(zpoly())
        assert squarefree(zpoly(-6))
        assert squarefree(zpoly(4, 6))  # content 2, leading coefficient 6
        assert not squarefree(zpoly(0, 0, 3))  # 3x^2
        assert squarefree(zpoly(0, 6))  # 6x, the derivative of 3x^2


def squarefree_over_q(f):
    """The gcd-over-Q route the integer Sturm chain replaced."""
    if f.degree <= 0:
        return not f.is_zero()
    return len(gcd_q(f.coeffs, [i * c for i, c in enumerate(f.coeffs)][1:])) == 1


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.integers(-12, 12).filter(bool),
)
def test_squarefree_integer_route_matches_q_on_square_factors(a, b, content):
    f, g = zpoly(*a), zpoly(*b)
    for h in (content * f, content * f * g * g):
        assert squarefree(h) == squarefree_over_q(h)
    if g.degree >= 1 and not f.is_zero():
        assert not squarefree(content * f * g * g)


class TestLaurent:
    # identities in x + 1/x, checked as x^n f(x + 1/x) for deg f = n
    def test_x_plus_xinv_square(self):
        # x^2 (x + 1/x)^2 = x^4 + 2x^2 + 1
        assert compose_x_plus_inverse(zpoly(0, 0, 1)) == zpoly(1, 0, 2, 0, 1)

    def test_compose_chebyshev_shape(self):
        # x^2 ((x + 1/x)^2 - 2) = x^4 + 1
        assert compose_x_plus_inverse(zpoly(-2, 0, 1)) == zpoly(1, 0, 0, 0, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=11).filter(lambda a: a[-1]),
    st.integers(-50, 50).filter(bool),
)
def test_compose_x_plus_inverse_evaluates_f_at_t_plus_inverse(a, t):
    f = zpoly(*a)
    assert compose_x_plus_inverse(f)(t) == t**f.degree * f(Fraction(t * t + 1, t))


class TestExtensionFields:
    # F_(p^k) = F_p[x]/(field_tower(p, k)), its elements reduced integer
    # lists, as count_points_naive enumerates it
    def test_deterministic_moduli(self):
        assert field_tower(3, 2) == (1, 0, 1)  # x^2 + 1
        assert field_tower(5, 2) == (2, 0, 1)  # x^2 + 2
        assert field_tower(13, 3) == (2, 0, 0, 1)  # x^3 + 2
        # the modulus is the first irreducible in scan order: every smaller
        # encoding has a monic divisor of degree at most k // 2
        for p, k in SMALL_TOWERS:
            chosen = field_tower(p, k)
            for m in range(p**k):
                f = _encoding(m, p, k)
                if tuple(f) == chosen:
                    break
                assert _has_monic_divisor(f, p), (p, k, m)
        for p, k in ((2, 30), (3, 18)):
            assert len(field_tower(p, k)) == k + 1

    def test_modulus_certified_irreducible(self):
        for p, k in SMALL_TOWERS:
            m = field_tower(p, k)
            assert len(m) == k + 1 and m[-1] == 1
            assert not _has_monic_divisor(m, p), (p, k)

    def test_field_axioms_sampled(self):
        m = field_tower(3, 2)
        elems = _field_elements(3, 2)
        assert len(elems) == 9 == len({tuple(a) for a in elems})
        for a in elems:
            for b in elems:
                assert _mulmod(a, b, m, 3) == _mulmod(b, a, m, 3)
        for a in elems:
            if a:  # a^(q-2) is the inverse of a nonzero a
                assert _mulmod(a, _powmod(a, 7, m, 3), m, 3) == [1]

    def test_generator_order_in_f9(self):
        # x^2 = -1 modulo x^2 + 1, so x has multiplicative order 4
        m = field_tower(3, 2)
        assert _powmod([0, 1], 2, m, 3) == [2]
        assert _powmod([0, 1], 4, m, 3) == [1]

    def test_frobenius_is_additive(self):
        m = field_tower(5, 2)
        elems = _field_elements(5, 2)
        frob = {tuple(a): _powmod(a, 5, m, 5) for a in elems}
        for a in elems[::3]:
            for b in elems[::4]:
                total = frob[tuple(_add(a, b, 5))]
                assert total == _add(frob[tuple(a)], frob[tuple(b)], 5)


def _field_elements(p, k):
    """Every element of F_(p^k) as a reduced list, in encoding order."""
    return [_reduce_mod(c[:-1], p) for c in _monics(p, k)]


def _add(a, b, p):
    return _reduce_mod([x + y for x, y in zip_longest(a, b, fillvalue=0)], p)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-40, 40), max_size=7),
    st.lists(st.integers(-40, 40), max_size=7),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.sampled_from((2, 3, 5, 7, 13)),
    st.integers(0, 9),
)
def test_integer_list_layer_matches_unipolynomial(a, b, low, p, e):
    """_mulmod, _powmod and _int_poly_divmod against UniPolynomial over Z:
    the product (or power) divided by the monic m = low + x^len(low), the
    coefficients of the remainder then reduced mod p."""
    m = zpoly(*low, 1)

    def reference(f):
        q, r = divmod(f, m)
        assert q * m + r == f and r.degree < m.degree
        return _reduce_mod(r.coeffs, p)

    assert _int_poly_divmod(a, m.coeffs, p)[1] == reference(zpoly(*a))
    assert _mulmod(a, b, m.coeffs, p) == reference(zpoly(*a) * zpoly(*b))
    assert _powmod(a, e, m.coeffs, p) == reference(zpoly(*a) ** e)


@st.composite
def _packed_operands(draw):
    """(p, m, a, b, e): a monic m of degree k mod p, operands a and b of k
    coefficients in [0, p) and an exponent; k is 1 .. 32 for p < 200, and
    2 at p = 3137, the largest p of a quadratic field a count sets up."""
    p = draw(st.sampled_from(_PROOF_PRIMES + (3137,)))
    k = 2 if p == 3137 else draw(st.integers(1, 32))
    digits = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    m = (*draw(digits), 1)
    return p, m, draw(digits), draw(digits), draw(st.integers(0, 2 * p))


# the largest digits: every coefficient p - 1, and every -m_j = p - 1
@example((3137, (1, 1, 1), [3136] * 2, [3136] * 2, 3137))
@example((199, (1,) * 33, [198] * 32, [198] * 32, 199))
@settings(max_examples=120, deadline=None)
@given(_packed_operands())
def test_packed_products_match_the_list_products(operands):
    """_times and _power, of x and of a given base, give the k
    coefficients of the oracle's _mulmod and _powmod."""
    p, m, a, b, e = operands
    k = len(m) - 1

    def padded(v):
        return v + [0] * (k - len(v))

    assert _times(a, b, m, p) == padded(_mulmod(a, b, m, p))
    assert _times(a, a, m, p) == padded(_mulmod(a, a, m, p))
    assert _power(e, m, p) == padded(_powmod([0, 1], e, m, p))
    assert _power(e, m, p, a) == padded(_powmod(a, e, m, p))


@st.composite
def _monic_integer_polynomials(draw):
    """Monic h in Z[x] of degree 1 .. 32, as a coefficient tuple; about
    half are u r^2, with a repeated factor r at every prime."""
    def monic(lo, hi):
        return zpoly(*draw(st.lists(st.integers(-50, 50), min_size=lo, max_size=hi)), 1)

    h = monic(1, 31)
    if h.degree <= 30 and draw(st.booleans()):
        r = monic(1, (32 - h.degree) // 2)
        h = h * r * r
    return h.coeffs


@example((-6, 0, 1))
@example((0,) * 32 + (1,))
@settings(max_examples=40, deadline=None)
@given(_monic_integer_polynomials())
def test_factor_degrees_match_the_list_reference(h):
    """_factor_degrees_mod on _power gives the degrees, or None for a
    repeated factor, that its former body on _powmod gives, at every
    prime of the irreducibility proof."""
    for ell in _PROOF_PRIMES:
        assert _factor_degrees_mod(h, ell) == factor_degrees_mod(h, ell), ell
