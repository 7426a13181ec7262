"""End-to-end acceptance suite: one test per advertised criterion.

Each test prints a single [PASS]/[FAIL] line for its criterion (shown
with pytest -s, or in the captured-output block when the test fails)
and then asserts the same condition, so pytest -v doubles as the
criterion checklist.
"""

import time

import numpy as np

from chebcm.chebyshev import (
    classify_d,
    genus_of_cd,
    is_power_of_two,
    is_prime,
    verify_functional_equation,
)
from chebcm.cmtypes import paper_type_case1, paper_type_case2, sum_criterion
from chebcm.curves import (
    case1_automorphisms,
    compose_pullbacks,
    endo_quotient_details,
    make_cd,
    make_dm,
    pullback_matrix,
    quotient_identity,
)
from chebcm.cyclotomic import eta_stabilizer
from chebcm.unitgroups import (
    case1_cm_criterion,
    case2_cm_criterion,
    eta_fixers_congruence,
    kd_galois_structure,
    kd_is_cm,
    kd_kernel,
    proper_subfields_totally_real,
    subgroup_generated,
)
from chebcm.zeta import (
    COUNT_CAP,
    cm_trace_pattern_c2,
    good_reduction,
    l_polynomial,
    lpoly_is_irreducible,
    remark_lpolys,
)
from oracles import count_points_naive, divmod_q, gcd_q

# L-polynomials computed by criteria 8 and 10, re-inspected by criterion 11
_COMPUTED: list = []


def _criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}{suffix}"
    print(line)
    assert ok, line


def _odd_primes(bound: int):
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


def test_criterion_01_functional_equation():
    t0 = time.time()
    ok = all(verify_functional_equation(d) for d in range(0, 65))
    elapsed = time.time() - t0
    _criterion(
        1,
        "phi_d(x + 1/x) = x^d + x^(-d) for d <= 64",
        ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_quotient_identities():
    t0 = time.time()
    ds = [2, 4, 8, 16, 32, 64] + _odd_primes(61)
    ok = all(quotient_identity(d) for d in ds)
    elapsed = time.time() - t0
    _criterion(
        2,
        "involution quotients land on v^2 = (u+2)phi_d(u)",
        ok and elapsed < 5.0,
        f"{len(ds)} indices, {elapsed:.2f}s",
    )


def test_criterion_03_field_structure_items():
    ok = True
    # items (1)-(4): CM property, full degree when 4 does not divide n,
    # kernel generated by n/2 - 1 when it does, kernel size 1 or 2
    for n in range(3, 513):
        stab = eta_stabilizer(n)
        if not kd_is_cm(n):
            ok = False
            break
        if n % 4 != 0:
            if stab != {1}:
                ok = False
                break
        else:
            if stab != subgroup_generated(n, (n // 2 - 1,)):
                ok = False
                break
            if len(stab) != (1 if n == 4 else 2):
                ok = False
                break
    # item (5): cyclic Galois group of order 2^(e-2) with generator class 5
    for e in range(3, 13):
        _, gen, order = kd_galois_structure(1 << e)
        if gen != 5 or order != 1 << (e - 2):
            ok = False
    # item (6): proper subfields all totally real
    ok = ok and all(proper_subfields_totally_real(e) for e in range(1, 9))
    _criterion(
        3,
        "eta-field structure: items (1)-(4) to n=512, (5) to e=12, (6) to e=8",
        ok,
    )


def test_criterion_04_stabilizer_two_routes():
    ok = all(
        eta_stabilizer(n) == kd_kernel(n) == eta_fixers_congruence(n)
        for n in range(3, 257)
    )
    _criterion(
        4,
        "Galois stabilizer of eta matches the congruence kernel, 3 <= n <= 256",
        ok,
    )


def test_criterion_05_totient_criteria():
    ok = all(
        case1_cm_criterion(d) == is_power_of_two(d) for d in range(2, 4097, 2)
    )
    ok = ok and all(
        case2_cm_criterion(d) == is_prime(d) for d in range(3, 10000, 2)
    )
    _criterion(
        5,
        "phi(4d) = 2d iff d = 2^e (d <= 4096); phi(d) = d-1 iff d prime (d <= 9999)",
        ok,
    )


def test_criterion_06_differential_eigenvalues():
    ok = True
    checked = 0
    for d in [2, 4, 8, 16, 32] + _odd_primes(31):
        det = endo_quotient_details(d)
        vals = det["eigenvalues"]
        if not (det["ok"] and len(vals) == genus_of_cd(d) == len(set(vals))):
            ok = False
        checked += 1
    for d in (2, 4, 8, 16):
        curve, z, tau = case1_automorphisms(d)
        mz = pullback_matrix(curve, z)
        mt = pullback_matrix(curve, tau)
        lhs = compose_pullbacks(compose_pullbacks(mt, mz, z.n), mt, z.n)
        if lhs != pullback_matrix(curve, z.power(2 * d - 1)):
            ok = False
    _criterion(
        6,
        "closed-form eigenvalues, commutation, dimensions; tau.zeta.tau on matrices",
        ok,
        f"{checked} curves",
    )


def test_criterion_07_cm_types_primitive():
    ok = True
    for p in _odd_primes(199):
        t = paper_type_case2(p)
        s, unit = sum_criterion(p)
        if not (t.is_valid() and t.is_primitive() and not t.induced_oracle() and unit):
            ok = False
    for e in range(1, 9):
        t = paper_type_case1(e)
        if not (t.is_valid() and t.is_primitive() and not t.induced_oracle()):
            ok = False
    _criterion(
        7,
        "half-system CM types primitive (p <= 199 and e <= 8), two routes + sum unit",
        ok,
    )


def test_criterion_08_isogeny_equalities():
    t0 = time.time()
    ok = True
    cells = 0
    skipped = []
    for d in (3, 5, 7):
        curves = (make_cd(d), make_dm(d), make_dm(2 * d))
        g2 = curves[2].genus
        for q in _odd_primes(50):
            if not all(good_reduction(c, q) for c in curves):
                continue
            if q**g2 > COUNT_CAP:
                # d=7: genus-6 counts for q in {17..47} are beyond the cap
                skipped.append((d, q))
                continue
            r = remark_lpolys(d, q, threads=2)
            ok = ok and r["curves_agree"] and r["product_ok"]
            _COMPUTED.extend([r["l_cd"], r["l_dd"], r["l_d2d"]])
            cells += 1
    elapsed = time.time() - t0
    _criterion(
        8,
        "L(C_d) = L(D_d) and L(D_2d) = L(D_d)L(C_d) for d in {3,5,7}, good q <= 50",
        ok and elapsed < 60.0,
        f"{cells} (d, q) cells, {len(skipped)} above cap, {elapsed:.1f}s",
    )


def test_criterion_09_c2_trace_pattern():
    ok = cm_trace_pattern_c2(200)
    ok = ok and count_points_naive(make_cd(2), 3) == 2
    ok = ok and count_points_naive(make_cd(2), 5) == 6
    _criterion(
        9,
        "a_q(C_2) = 0 iff -2 is a non-square mod q, q <= 200; spot counts vs oracle",
        ok,
    )


def test_criterion_10_simplicity_evidence():
    t0 = time.time()
    ok = True
    hits = []
    for d in (2, 4, 8, 3, 5, 7):
        curve = make_cd(d)
        hit = None
        for q in _odd_primes(50):
            if not good_reduction(curve, q) or q**curve.genus > COUNT_CAP:
                continue
            lp = l_polynomial(curve, q)
            _COMPUTED.append(lp)
            if lpoly_is_irreducible(lp)[0]:
                hit = q
                break
        hits.append(f"C_{d}@q={hit}")
        ok = ok and hit is not None
    elapsed = time.time() - t0
    _criterion(
        10,
        "each C_d has a good q <= 50 with L irreducible over Q",
        ok and elapsed < 120.0,
        "; ".join(hits) + f", {elapsed:.1f}s",
    )


def test_criterion_11_weil_invariants():
    lps = list(_COMPUTED)
    if not lps:  # standalone run of this test
        lps = [l_polynomial(make_cd(d), q) for d, q in ((2, 3), (2, 5), (5, 11))]
    ok = True
    for lp in lps:
        g, q = lp.genus, lp.q
        if lp.coeffs[0] != 1:
            ok = False
        for i in range(g + 1):
            if lp.coeffs[2 * g - i] != q ** (g - i) * lp.coeffs[i]:
                ok = False
        if g > 0:
            f = list(lp.coeffs)
            common = gcd_q(f, [i * c for i, c in enumerate(f)][1:])
            if len(common) > 1:
                f = divmod_q(f, common)[0]
            roots = np.roots([float(c) for c in f])
            if np.max(np.abs(np.abs(roots) ** 2 - q)) > 1e-6 * q:
                ok = False
    _criterion(
        11,
        "every computed L passes the functional equation and |alpha| = sqrt(q) to 1e-6",
        ok,
        f"{len(lps)} polynomials",
    )
