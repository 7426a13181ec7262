from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chebcm.algebra as algebra
from chebcm.algebra import (
    ExtensionField,
    ExtensionFieldElement,
    LaurentPolynomial,
    QQ,
    RingMismatchError,
    UniPolynomial,
    ZZ,
    field_tower,
    laurent_compose,
    monomial_substitute,
    poly_gcd,
    poly_xgcd,
    squarefree,
)
from chebcm.chebyshev import curve_polynomial, in_scope_family
from chebcm.curves import make_cd, make_dm, make_xd
from chebcm.cyclotomic import CyclotomicContext


def zpoly(*coeffs):
    return UniPolynomial(ZZ, coeffs)


def qpoly(*coeffs):
    return UniPolynomial(QQ, coeffs)


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
        assert qpoly(Fraction(1, 2), 1)(Fraction(1, 2)) == 1

    def test_ring_mismatch_rejected(self):
        with pytest.raises(RingMismatchError):
            zpoly(1, 1) + qpoly(1, 1)

    def test_divmod_over_field(self):
        f = qpoly(2, 0, 1, 1)
        g = qpoly(1, 1)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_compose(self):
        f = zpoly(0, 0, 1)
        g = zpoly(1, 1)
        assert f(g).coeffs == (1, 2, 1)

    def test_derivative(self):
        assert zpoly(5, 3, 0, 2).derivative().coeffs == (3, 0, 6)

    def test_str_omits_unit_coefficients(self):
        assert str(zpoly(1, 0, -1, 1)) == "x^3 - x^2 + 1"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=2, max_size=5),
)
def test_divmod_identity_property(a, b):
    f = UniPolynomial(QQ, a)
    g = UniPolynomial(QQ, b)
    if g.degree < 0:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


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
        f = qpoly(-1, 0, 1)  # (x-1)(x+1)
        g = qpoly(1, 2, 1)  # (x+1)^2
        assert poly_gcd(f, g).coeffs == (1, 1)

    def test_xgcd_bezout(self):
        f = qpoly(-1, 0, 1)
        g = qpoly(2, 1)
        d, u, v = poly_xgcd(f, g)
        assert u * f + v * g == d

    def test_squarefree(self):
        assert squarefree(zpoly(-2, 0, 1))
        assert not squarefree(zpoly(1, 2, 1))
        # x^3 + 1 = (x+1)^3 over F_3; derivative vanishes on the cube
        fp = field_tower(3, 1)
        f3 = UniPolynomial(fp, [fp.coerce(1), fp.zero, fp.zero, fp.coerce(1)])
        assert not squarefree(f3)

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
        assert squarefree(zpoly(0, 0, 3).derivative())


def squarefree_over_q(f):
    """The gcd-over-Q route the integer Sturm chain replaced."""
    fq = UniPolynomial(QQ, f.coeffs)
    if fq.degree <= 0:
        return not fq.is_zero()
    return poly_gcd(fq, fq.derivative()).degree == 0


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


class TestPrimeField:
    # F_p is the degree-one case of the power-basis extension field
    def test_arithmetic_matches_int_mod_p(self):
        fp = field_tower(7, 1)
        a, b = fp.coerce(3), fp.coerce(5)
        assert (a * b).coeffs[0] == 1
        assert (a - b).coeffs[0] == 5
        assert (a / b).coeffs[0] == (3 * pow(5, -1, 7)) % 7
        assert (a ** (-1)) * a == fp.one

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_hom_from_z(self, a, b):
        fp = field_tower(13, 1)
        assert fp.coerce(a) + fp.coerce(b) == fp.coerce(a + b)
        assert fp.coerce(a) * fp.coerce(b) == fp.coerce(a * b)

    def test_inverse_with_modulus_other_than_x(self):
        # F_7 = F_7[x]/(x + 2): x is -2 = 5, whose inverse is 3
        x = ExtensionField(7, 1, (2, 1)).gen()
        assert x.inverse() == 3
        assert x * x.inverse() == 1


def test_elements_of_different_rings_do_not_mix():
    f9, f25 = field_tower(3, 2).gen(), field_tower(5, 2).gen()
    z5, z7 = CyclotomicContext(5).zeta, CyclotomicContext(7).zeta
    for a, b in ((f9, f25), (f9, z5), (z5, z7)):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(RingMismatchError):
                x + y


class TestLaurent:
    def test_normalization(self):
        L = LaurentPolynomial(ZZ, -2, (0, 1, 0, 3, 0))
        assert L.minexp == -1 and L.coeffs == (1, 0, 3)

    def test_x_plus_xinv_square(self):
        sq = laurent_compose(zpoly(0, 0, 1))
        assert sq == LaurentPolynomial(ZZ, -2, (1, 0, 2, 0, 1))

    def test_compose_chebyshev_shape(self):
        # (x + 1/x)^2 - 2 = x^2 + x^(-2)
        f = zpoly(-2, 0, 1)
        assert laurent_compose(f) == LaurentPolynomial(ZZ, -2, (1, 0, 0, 0, 1))

    def test_monomial_substitute_inversion_is_involution(self):
        L = LaurentPolynomial(QQ, -1, (2, 0, 5, 7))
        gamma = Fraction(1)
        back = monomial_substitute(monomial_substitute(L, gamma, -1, QQ), gamma, -1, QQ)
        assert back == L

    def test_monomial_substitute_scales_by_gamma_power(self):
        L = LaurentPolynomial(QQ, 2, (1,))  # x^2
        out = monomial_substitute(L, Fraction(3), 1, QQ)
        assert out == LaurentPolynomial(QQ, 2, (9,))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
def test_laurent_embedding_is_multiplicative(a, b):
    f, g = zpoly(*a), zpoly(*b)
    lf, lg = LaurentPolynomial.from_poly(f), LaurentPolynomial.from_poly(g)
    assert lf * lg == LaurentPolynomial.from_poly(f * g)
    assert lf + lg == LaurentPolynomial.from_poly(f + g)


class TestExtensionFields:
    def test_deterministic_moduli(self):
        assert field_tower(3, 2).modulus_coeffs == (1, 0, 1)  # x^2 + 1
        assert field_tower(5, 2).modulus_coeffs == (2, 0, 1)  # x^2 + 2
        assert field_tower(13, 3).modulus_coeffs == (2, 0, 0, 1)  # x^3 + 2
        # the modulus is the first irreducible in scan order: every smaller
        # encoding has a monic divisor of degree at most k // 2
        for p, k in SMALL_TOWERS:
            chosen = field_tower(p, k).modulus_coeffs
            for m in range(p**k):
                f = _encoding(m, p, k)
                if tuple(f) == chosen:
                    break
                assert _has_monic_divisor(f, p), (p, k, m)
        for p, k in ((2, 30), (3, 18)):
            assert len(field_tower(p, k).modulus_coeffs) == k + 1

    def test_long_coefficient_lists_reduce_mod_modulus(self, monkeypatch):
        assert ExtensionField(7, 1, (2, 1)).gen().coeffs == (5,)  # x = -2 mod x + 2
        f = field_tower(5, 2)  # x^2 + 2
        x = f.gen()
        assert ExtensionFieldElement(f, (0, 0, 1)) == x * x == f(3)
        # _mul and the additive operations pass at most k coefficients
        monkeypatch.setattr(algebra, "_int_poly_divmod", None)
        assert x * x + x - 1 == ExtensionFieldElement(f, (2, 1))

    def test_modulus_certified_irreducible(self):
        for p, k in SMALL_TOWERS:
            m = field_tower(p, k).modulus_coeffs
            assert len(m) == k + 1 and m[-1] == 1
            assert not _has_monic_divisor(m, p), (p, k)

    def test_field_axioms_sampled(self):
        field = field_tower(3, 2)
        elems = list(field.elements())
        assert len(elems) == 9
        for a in elems:
            for b in elems:
                assert a * b == b * a
        for a in elems:
            if a != field.zero:
                assert a * a.inverse() == field.one

    def test_generator_order_in_f9(self):
        # gen = x with x^2 = -1, so the generator has multiplicative order 4
        g = field_tower(3, 2).gen()
        assert g * g == -field_tower(3, 2).one
        assert g**4 == field_tower(3, 2).one

    def test_frobenius_is_additive(self):
        field = field_tower(5, 2)
        elems = list(field.elements())
        for a in elems[::3]:
            for b in elems[::4]:
                assert (a + b) ** 5 == a**5 + b**5

    def test_from_index_enumerates_without_repeats(self):
        field = field_tower(2, 3)
        seen = {field.from_index(m) for m in range(8)}
        assert len(seen) == 8
