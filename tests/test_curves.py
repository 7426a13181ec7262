from fractions import Fraction

import pytest

import chebcm.curves as curves
from chebcm.algebra import UniPolynomial
from chebcm.curves import (
    HyperellipticCurve,
    MapNotValidError,
    MonomialAutomorphism,
    VerificationError,
    automorphism_valid,
    case1_automorphisms,
    case2_automorphisms,
    compose_pullbacks,
    endo_quotient_details,
    make_cd,
    make_dm,
    make_xd,
    pullback_matrix,
    quotient_identity,
)
from chebcm.chebyshev import classify_d, genus_of_cd, in_scope_family
from chebcm.cmtypes import paper_type_case1, paper_type_case2, sum_criterion
from chebcm.report import build_batch
from chebcm.cyclotomic import (
    cyclotomic_polynomial,
    eta_minimal_polynomial,
    zeta_difference,
    zeta_powers,
)
from oracles import cyc_int, cyc_mul


class TestCurveModels:
    def test_genus_frozen(self):
        assert make_xd(2).genus == 2
        assert make_xd(4).genus == 4
        assert make_dm(6).genus == 2
        assert make_dm(7).genus == 3
        assert make_cd(2).genus == 1
        assert make_cd(3).genus == 1
        assert make_cd(8).genus == 4

    def test_equations_frozen(self):
        assert make_xd(2).f.coeffs == (0, 1, 0, 0, 0, 1)
        assert make_dm(4).f.coeffs == (1, 0, 0, 0, 1)
        assert make_cd(2).f.coeffs == (-4, -2, 2, 1)  # (x+2)(x^2-2)

    def test_rejects_bad_models(self):
        with pytest.raises(ValueError):
            HyperellipticCurve(UniPolynomial((1, 2, 1)))  # (x+1)^2
        with pytest.raises(ValueError):
            HyperellipticCurve(UniPolynomial((5,)))  # constant
        with pytest.raises(TypeError):
            # models are integral: x^3 + x + 1/2 cannot even be built,
            # though its coefficients other than 1/2 are integers
            HyperellipticCurve(UniPolynomial((Fraction(1, 2), 1, 0, 1)))
        with pytest.raises(ValueError):
            make_xd(3)
        with pytest.raises(ValueError):
            make_dm(2)

    def test_genus_zero_model_accepted(self):
        c = HyperellipticCurve(UniPolynomial((2, 1)))
        assert c.genus == 0


class TestAutomorphismGroupLaw:
    def setup_method(self):
        self.curve, self.z, self.tau = case1_automorphisms(4)

    def test_compose_with_inverse_is_identity(self):
        for a in (self.z, self.tau, self.z.compose(self.tau)):
            assert a.compose(a.inverse()).is_identity()
            assert a.inverse().compose(a).is_identity()

    def test_associativity_spot(self):
        a, b, c = self.z, self.tau, self.z.power(3)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_inverse_of_composite(self):
        a, b = self.z, self.tau
        assert a.compose(b).inverse() == b.inverse().compose(a.inverse())

    def test_power_matches_repeated_compose(self):
        acc = MonomialAutomorphism.identity(self.z.n)
        for k in range(6):
            assert self.z.power(k) == acc
            acc = acc.compose(self.z)

    def test_orders(self):
        assert self.z.order() == 16
        assert self.tau.order() == 2
        assert MonomialAutomorphism.hyperelliptic_involution(self.z.n).order() == 2

    def test_odd_n_is_refused(self):
        # -1 = zeta_n^(n/2) needs n even; for odd n, -1 is no power of zeta_n
        for n in (1, 3, 5, 15):
            with pytest.raises(ValueError, match="even"):
                MonomialAutomorphism(n, 1, 1, 0, 0)
        with pytest.raises(ValueError):
            MonomialAutomorphism(8, 1, 2, 0, 0)

    def test_exponents_reduce_mod_n(self):
        assert MonomialAutomorphism(8, 9, 1, -1, 0) == MonomialAutomorphism(8, 1, 1, 7, 0)
        assert MonomialAutomorphism(8, 1, 1, 0, 0) != MonomialAutomorphism(16, 1, 1, 0, 0)


class TestValidity:
    def test_printed_single_zeta_lift_fails(self):
        # (zeta*x, zeta*y) does not preserve y^2 = x^(2d+1) + x; the
        # working lift squares the x-scaling
        for d in (2, 4, 8):
            curve = make_xd(d)
            bad = MonomialAutomorphism.scale(4 * d, 1, 1)
            good = MonomialAutomorphism.scale(4 * d, 2, 1)
            assert not automorphism_valid(curve, bad)
            assert automorphism_valid(curve, good)
            with pytest.raises(MapNotValidError):
                pullback_matrix(curve, bad)

    def test_case_constructors_verify_relations(self):
        curve, z, tau = case1_automorphisms(2)
        assert z.power(4) == MonomialAutomorphism.hyperelliptic_involution(z.n)
        assert tau.compose(z).compose(tau) == z.power(3)
        curve, z, sigma = case2_automorphisms(5)
        assert z.order() == 10
        assert sigma.compose(sigma).is_identity()


GENERATED = [(case1_automorphisms, d) for d in (2, 4, 8)] + [
    (case2_automorphisms, p) for p in (3, 5, 7)
]


def composites(z, invol):
    """Every rotation z^a, with the involution before or after it."""
    out = []
    for a in range(z.order()):
        rot = z.power(a)
        out += [rot, rot.compose(invol), invol.compose(rot)]
    return out


def one_field_changes(z, invol):
    """Maps one field away from z, invol and z after invol: t +- 1, -s,
    zeta^(b+1) and zeta^(a+1)."""
    out = []
    for auto in (z, invol, z.compose(invol)):
        n, a, s, b, t = auto.n, auto.a, auto.s, auto.b, auto.t
        out += [
            MonomialAutomorphism(n, a, s, b, t + 1),
            MonomialAutomorphism(n, a, s, b, t - 1),
            MonomialAutomorphism(n, a, -s, b, t),
            MonomialAutomorphism(n, a, s, b + 1, t),
            MonomialAutomorphism(n, a + 1, s, b, t),
        ]
    return out


def valid_by_vectors(curve, auto):
    """automorphism_valid's comparison with each side's coefficients as
    vectors of Z[zeta_n]: zeta^(2b) c_i at x^(i+2t) against gamma^i c_i
    at x^(s i), gamma = zeta^a, zero terms dropped."""
    n, table = auto.n, zeta_powers(auto.n)
    square = cyc_mul(n, table[auto.b], table[auto.b])
    lhs, rhs = {}, {}
    power = cyc_int(n, 1)  # gamma^i
    for i, c in enumerate(curve.f.coeffs):
        if c:
            lhs[i + 2 * auto.t] = cyc_mul(n, square, cyc_int(n, c))
            rhs[auto.s * i] = cyc_mul(n, power, cyc_int(n, c))
        power = cyc_mul(n, power, table[auto.a])
    return {k: v for k, v in lhs.items() if any(v)} == {k: v for k, v in rhs.items() if any(v)}


class TestAutomorphismValid:
    # X_d and D_2p with the rotation z and involution of their constructors

    @pytest.mark.parametrize("build, n", GENERATED)
    def test_every_composite_of_the_generators_is_accepted(self, build, n):
        curve, z, invol = build(n)
        for auto in composites(z, invol):
            assert automorphism_valid(curve, auto), (curve.label, auto)

    @pytest.mark.parametrize("build, n", GENERATED)
    def test_changing_one_field_is_rejected(self, build, n):
        curve, z, invol = build(n)
        changes = one_field_changes(z, invol)
        for k in range(0, len(changes), 5):
            *bad, moved = changes[k : k + 5]
            for auto in bad:
                assert not automorphism_valid(curve, auto), (curve.label, auto)
            # zeta^(a+1): x^1 in X_d picks up zeta, but D_2p has only x^0
            # and x^2p, and zeta_2p^2p = 1, so there it is a rotation
            assert automorphism_valid(curve, moved) == (build is case2_automorphisms)

    @pytest.mark.parametrize("build, n", GENERATED)
    def test_exponent_check_agrees_with_vectors(self, build, n):
        curve, z, invol = build(n)
        maps = composites(z, invol) + one_field_changes(z, invol)
        verdicts = [automorphism_valid(curve, auto) for auto in maps]
        assert verdicts == [valid_by_vectors(curve, auto) for auto in maps]
        assert True in verdicts and False in verdicts


class TestBuiltOnce:
    def test_batch_builds_and_checks_each_map_once(self, monkeypatch):
        for cached in (case1_automorphisms, case2_automorphisms, automorphism_valid):
            cached.cache_clear()
        pairs = []
        valid = curves.automorphism_valid

        def spy(curve, auto):
            pairs.append((curve, auto))
            return valid(curve, auto)

        monkeypatch.setattr(curves, "automorphism_valid", spy)
        assert build_batch(16)["ok"]
        # d = 2, 4, 8, 16 and 3, 5, 7, 11, 13, each built by the rotation-relations check
        # and endo_quotient_details
        assert case1_automorphisms.cache_info().misses == 4
        assert case2_automorphisms.cache_info().misses == 5
        assert case1_automorphisms.cache_info().hits >= 4
        assert case2_automorphisms.cache_info().hits >= 5
        assert valid.cache_info().misses == len(set(pairs)) < len(pairs)

    def test_invalid_map_raises_on_every_call(self):
        curve = make_xd(4)
        bad = MonomialAutomorphism.scale(16, 1, 1)
        for _ in range(2):
            with pytest.raises(MapNotValidError):
                pullback_matrix(curve, bad)
        assert automorphism_valid.cache_info().hits >= 1


def substitution_pullback(curve, auto):
    """Dense g x g matrix of delta times the pullback of auto, by formal
    substitution into h(x) dx / y with gamma = zeta^a and delta = zeta^b
    as vectors of Z[zeta_n]: the oracle for the closed form.  Entry (i, j)
    is delta times the coefficient of omega_(i+1) in the pullback of
    omega_(j+1); scaling by delta leaves no inverse to take.  x-terms are
    (exponent, coefficient) pairs, multiplied by adding exponents."""
    assert automorphism_valid(curve, auto)
    n, g, table = auto.n, curve.genus, zeta_powers(auto.n)
    gamma = table[auto.a]
    # delta * dx / y -> d(gamma x^s) / (x^t y) = (s gamma) x^(s-1-t) dx / y
    dx_factor = (auto.s - 1 - auto.t, cyc_mul(n, gamma, cyc_int(n, auto.s)))
    cols = []
    h = (0, cyc_int(n, 1))  # x^(j-1) -> (gamma x^s)^(j-1)
    for _ in range(g):
        exp, coeff = h[0] + dx_factor[0], cyc_mul(n, h[1], dx_factor[1])
        assert 0 <= exp <= g - 1
        cols.append([coeff if i == exp else cyc_int(n, 0) for i in range(g)])
        h = (h[0] + auto.s, cyc_mul(n, h[1], gamma))
    return [[cols[j][i] for j in range(g)] for i in range(g)]


def dense_times_delta(monomial, auto):
    """The closed-form monomial pullback as a dense matrix of vectors,
    each entry zeta^u multiplied by delta = zeta^b."""
    n, table = auto.n, zeta_powers(auto.n)
    g = len(monomial)
    out = [[cyc_int(n, 0)] * g for _ in range(g)]
    for j, (i, u) in enumerate(monomial):
        out[i][j] = cyc_mul(n, table[u], table[auto.b])
    return out


class TestPullbacks:
    def test_inversion_matrix_on_genus_two_frozen(self):
        # tau on y^2 = x^5 + x sends omega_1 -> -omega_2, omega_2 -> -omega_1
        curve, _, tau = case1_automorphisms(2)
        m = pullback_matrix(curve, tau)
        assert m == [(1, 4), (0, 4)]  # -1 = zeta_8^4

    def test_rotation_matrix_diagonal_frozen(self):
        # zeta on X_2 acts as diag(zeta_8, zeta_8^3) on (omega_1, omega_2)
        curve, z, _ = case1_automorphisms(2)
        m = pullback_matrix(curve, z)
        assert m == [(0, 1), (1, 3)]

    def test_case2_rotation_diagonal_frozen(self):
        # (zeta_6 x, y) on y^2 = x^6 + 1 acts as diag(zeta_6, zeta_6^2)
        curve, z, _ = case2_automorphisms(3)
        m = pullback_matrix(curve, z)
        assert m == [(0, 1), (1, 2)]

    def test_hyperelliptic_involution_pulls_back_to_minus_identity(self):
        for make, arg in ((make_xd, 4), (make_dm, 10), (make_cd, 5)):
            curve = make(arg)
            w = MonomialAutomorphism.hyperelliptic_involution(4)
            m = pullback_matrix(curve, w)
            assert m == [(j, 2) for j in range(curve.genus)]  # -1 = zeta_4^2

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_contravariant_functoriality_case1(self, d):
        curve, z, tau = case1_automorphisms(d)
        pairs = [(z, tau), (tau, z), (z, z), (tau, tau), (z.power(3), tau.compose(z))]
        for a, b in pairs:
            lhs = pullback_matrix(curve, a.compose(b))
            rhs = compose_pullbacks(pullback_matrix(curve, a), pullback_matrix(curve, b), z.n)
            assert lhs == rhs

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_contravariant_functoriality_case2(self, p):
        curve, z, sigma = case2_automorphisms(p)
        for a, b in [(z, sigma), (sigma, z), (z.power(2), sigma)]:
            lhs = pullback_matrix(curve, a.compose(b))
            rhs = compose_pullbacks(pullback_matrix(curve, a), pullback_matrix(curve, b), z.n)
            assert lhs == rhs

    def test_pullback_of_inverse_is_matrix_inverse(self):
        curve, z, _ = case1_automorphisms(4)
        m = pullback_matrix(curve, z)
        mi = pullback_matrix(curve, z.inverse())
        assert compose_pullbacks(m, mi, z.n) == [(j, 0) for j in range(curve.genus)]

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_conjugation_relation_on_matrices(self, d):
        # tau zeta tau = zeta^(2d-1) transfers to pullbacks in reverse order
        curve, z, tau = case1_automorphisms(d)
        mz = pullback_matrix(curve, z)
        mt = pullback_matrix(curve, tau)
        rhs = pullback_matrix(curve, z.power(2 * d - 1))
        assert compose_pullbacks(compose_pullbacks(mt, mz, z.n), mt, z.n) == rhs

    def test_closed_form_matches_substitution_oracle(self):
        # every in-scope d <= 64: seven automorphisms each, from the
        # rotation and the involution of the ambient curve
        for d in in_scope_family(64):
            if classify_d(d) == 1:
                curve, z, invol = case1_automorphisms(d)
            else:
                curve, z, invol = case2_automorphisms(d)
            autos = (
                z,
                z.inverse(),
                invol,
                z.compose(invol),
                invol.compose(z),
                z.power(3),
                MonomialAutomorphism.hyperelliptic_involution(z.n),
            )
            for auto in autos:
                closed = dense_times_delta(pullback_matrix(curve, auto), auto)
                assert closed == substitution_pullback(curve, auto), (d, auto)


class TestQuotientIdentity:
    @pytest.mark.parametrize("d", [2, 4, 8, 16, 3, 5, 7, 11, 13])
    def test_holds_in_scope(self, d):
        assert quotient_identity(d)

    def test_out_of_scope_rejected(self):
        with pytest.raises(ValueError):
            quotient_identity(6)


class TestQuotientEndomorphism:
    def test_genus_one_eigenvalue_squares_to_minus_two(self):
        vals = endo_quotient_details(2)["eigenvalues"]
        assert len(vals) == 1
        assert cyc_mul(8, vals[0], vals[0]) == cyc_int(8, -2)

    def test_case2_smallest_eigenvalue_squares_to_minus_three(self):
        vals = endo_quotient_details(3)["eigenvalues"]
        assert len(vals) == 1
        assert cyc_mul(6, vals[0], vals[0]) == cyc_int(6, -3)

    @pytest.mark.parametrize("d", [2, 4, 8, 3, 5, 7, 11, 13])
    def test_details_all_green(self, d):
        det = endo_quotient_details(d)
        assert det["ok"]
        assert det["commutes"]
        assert det["invariant_dimension"] == genus_of_cd(d)
        assert det["diagonal"]
        assert len(det["eigenvalues"]) == genus_of_cd(d)

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("d", [2, 4, 8, 3, 5, 7])
    def test_commutes_is_the_matrix_product_check(self, monkeypatch, d, shift):
        # e_j = e_pi(j) against P e == e P with vector entries; shift = 1
        # builds e_j = zeta^u - zeta^(v+1), which commutes with P nowhere
        monkeypatch.setattr(
            curves, "zeta_difference", lambda n, u, v: zeta_difference(n, u, v + shift)
        )
        det = endo_quotient_details(d)
        n, e = det["n"], det["operator"]
        build = case1_automorphisms if classify_d(d) == 1 else case2_automorphisms
        curve, _, invol = build(d)
        p, table = pullback_matrix(curve, invol), zeta_powers(n)
        pe = [(p[i][0], cyc_mul(n, c, table[p[i][1]])) for i, c in e]
        ep = [(e[i][0], cyc_mul(n, table[w], e[i][1])) for i, w in p]
        assert det["commutes"] == (pe == ep) == (shift == 0)

    @pytest.mark.parametrize("d", [13, 16])
    def test_coefficients_stay_integers(self, d):
        det = endo_quotient_details(d)
        elements = [c for _, c in det["operator"]] + det["eigenvalues"]
        assert all(type(c) is int for x in elements for c in x)

    def test_eigenvalues_distinct(self):
        for d in (8, 7):
            vals = endo_quotient_details(d)["eigenvalues"]
            assert len(set(vals)) == len(vals)

    def test_out_of_scope_rejected(self):
        with pytest.raises(ValueError):
            endo_quotient_details(6)


class TestCmSummary:
    """The CM data of C_d, from the functions the registry claims call:
    the eta field, the paper's CM type and the differential eigenvalues."""

    def test_d2_frozen(self):
        assert classify_d(2) == 1
        assert genus_of_cd(2) == 1
        field_poly = eta_minimal_polynomial(8)  # n = 4d
        assert field_poly.coeffs == (2, 0, 1)
        assert field_poly.degree == 2 * genus_of_cd(2)
        t = paper_type_case1(1)
        assert (t.group.n, sorted(t.group.kernel), sorted(t.s)) == (8, [1, 3], [1])
        assert t.is_valid() and t.is_primitive()
        assert endo_quotient_details(2)["ok"]

    def test_d5_frozen(self):
        assert classify_d(5) == 2
        assert genus_of_cd(5) == 2
        assert eta_minimal_polynomial(10).degree == 4  # n = 2d
        field_poly = cyclotomic_polynomial(5)
        assert field_poly.coeffs == (1, 1, 1, 1, 1)
        assert field_poly.degree == 4
        t = paper_type_case2(5)
        assert (t.group.n, sorted(t.group.kernel), sorted(t.s)) == (5, [1], [1, 2])
        assert t.is_valid() and t.is_primitive()
        assert sum_criterion(5) == (3, True)
        assert endo_quotient_details(5)["ok"]

    def test_d8_degrees(self):
        assert genus_of_cd(8) == 4
        assert eta_minimal_polynomial(32).degree == 8
        t = paper_type_case1(3)
        assert t.is_valid() and t.is_primitive()
        assert endo_quotient_details(8)["ok"]

    def test_out_of_scope_rejected(self):
        assert classify_d(12) is None
        with pytest.raises(ValueError):
            endo_quotient_details(12)
