"""Claim registry and per-d verification reports.

A row of CLAIM_REGISTRY is (claim id, statement, check), and check(d)
returns (status, details) with status "pass", "fail" or "skip" for one
d in the family (d a power of 2, or an odd prime).  A report runs every
row in registry order; a check that raises fails, or skips when the
counting cap refuses it.  A claim that only makes sense for one of the
two cases skips on the other, so every report carries the full registry
exactly once.  A report is the plain dict that is emitted as JSON, with
a stable key order.
"""

from __future__ import annotations

import json

from . import __version__ as VERSION
from .algebra import format_polynomial
from .chebyshev import (
    classify_d,
    genus_of_cd,
    is_prime,
    in_scope_family,
    verify_functional_equation,
)
from .cmtypes import paper_type_case1, paper_type_case2, sum_criterion
from .curves import (
    case1_automorphisms,
    case2_automorphisms,
    compose_pullbacks,
    endo_quotient_details,
    make_cd,
    pullback_matrix,
    quotient_identity,
)
from .cyclotomic import (
    eta_minimal_polynomial,
    eta_stabilizer,
    kd_degree_check,
)
from .unitgroups import (
    case1_cm_criterion,
    case2_cm_criterion,
    eta_fixers_congruence,
    euler_phi,
    galois_group,
    kd_galois_structure,
    kd_is_cm,
    kd_kernel,
    proper_subfields_totally_real,
)
from .zeta import (
    COUNT_CAP,
    CapExceededError,
    good_reduction,
    l_polynomial,
    lpoly_is_irreducible,
    power_exceeds,
    remark_lpolys,
)

# the largest d a run checks: report --dmax 64 is the full golden, and a
# large prime d would build x^(2d) - 1 in memory for Phi_(2d)
D_MAX = 64


def _modulus(d: int) -> int:
    """n with Q(eta_n), eta_n = zeta_n - zeta_n^(-1), the CM field of C_d."""
    return 4 * d if d % 2 == 0 else 2 * d


def _functional_equation(d: int):
    ok = verify_functional_equation(d)
    return ("pass" if ok else "fail"), f"checked at d={d}"


def _genus(d: int):
    curve = make_cd(d)  # raises if the model is not squarefree
    ok = curve.genus == genus_of_cd(d) == d // 2
    return ("pass" if ok else "fail"), f"genus {curve.genus}, model degree {curve.f.degree}"


def _phi(d: int):
    if d % 2 == 0:
        ok = case1_cm_criterion(d)
        detail = f"phi({4 * d}) = {euler_phi(4 * d)}, 2d = {2 * d}"
    else:
        ok = case2_cm_criterion(d)
        detail = f"phi({d}) = {euler_phi(d)}, d-1 = {d - 1}"
    return ("pass" if ok else "fail"), detail


def _field_structure(d: int):
    n = _modulus(d)
    kernel = kd_kernel(n)
    ok = kd_is_cm(n) and kd_degree_check(n) and eta_stabilizer(n) == kernel == eta_fixers_congruence(n)
    return ("pass" if ok else "fail"), f"n={n}, kernel={sorted(kernel)}, degree {euler_phi(n) // len(kernel)}"


def _galois_cyclic(d: int):
    if d % 2 == 0:
        n = _modulus(d)
        _, gen, order = kd_galois_structure(n)
        return "pass", f"quotient of (Z/{n})^* cyclic of order {order}, generated by the class of {gen}"
    group = galois_group(d)
    for a in range(2, d):
        if group.coset_order(a) == d - 1:
            return "pass", f"(Z/{d})^* cyclic of order {d - 1}, generator {a}"
    return "fail", f"no generator found in (Z/{d})^*"


def _subfields(d: int):
    if d % 2:
        return "skip", "odd case: primitivity is decided by the sum criterion instead"
    ok = proper_subfields_totally_real(_modulus(d).bit_length() - 1)
    return ("pass" if ok else "fail"), f"all nontrivial subgroups of the order-{d} quotient contain conjugation"


def _quotient_model(d: int):
    ok = quotient_identity(d)
    src = f"D_{2 * d}" if d % 2 else f"X_{d}"
    return ("pass" if ok else "fail"), f"u = x + 1/x substitution from {src}"


def _rotation(d: int):
    if d % 2:
        case2_automorphisms(d)  # raises on any broken relation
        return "pass", f"order {2 * d} rotation and involution sigma on D_{2 * d}"
    curve, z, tau = case1_automorphisms(d)  # raises on any broken relation
    mz = pullback_matrix(curve, z)
    mt = pullback_matrix(curve, tau)
    lhs = compose_pullbacks(compose_pullbacks(mt, mz, z.n), mt, z.n)
    ok = lhs == pullback_matrix(curve, z.power(2 * d - 1))
    return ("pass" if ok else "fail"), f"order {4 * d} lift (z^2 x, z y) on X_{d}; matrix identity checked"


def _eigenvalues(d: int):
    det = endo_quotient_details(d)
    eigs = ", ".join("None" if v is None else format_polynomial(v, "z") for v in det["eigenvalues"][:4])
    if len(det["eigenvalues"]) > 4:
        eigs += ", ..."
    detail = f"invariant dimension {det['invariant_dimension']} = genus; diagonal [{eigs}]"
    return ("pass" if det["ok"] else "fail"), detail


def _cm_degree(d: int):
    n = _modulus(d)
    mp = eta_minimal_polynomial(n)
    ok = mp.degree == 2 * (d // 2)
    return ("pass" if ok else "fail"), f"deg minpoly(eta({n})) = {mp.degree}, 2g = {2 * (d // 2)}"


def _primitive(d: int):
    if d % 2 == 0:
        t = paper_type_case1(d.bit_length() - 1)
        detail = f"type on the order-{t.group.order} quotient group"
    else:
        t = paper_type_case2(d)
        s, is_unit = sum_criterion(d)
        if not is_unit:
            return "fail", f"sum criterion: {s} = 0 mod {d}"
        detail = f"type {{1..{(d - 1) // 2}}} mod {d}; sum = {s} nonzero mod {d}"
    ok = t.is_valid() and t.is_primitive() and not t.induced_oracle()
    return ("pass" if ok else "fail"), detail


def _zeta_prime(d: int) -> int:
    """The least good prime 3 <= q <= 50 of C_d with q^genus under the
    counting cap; CapExceededError (a skip) when there is none."""
    curve, genus = make_cd(d), d // 2
    for q in range(3, 51):
        if is_prime(q) and not power_exceeds(q, genus) and good_reduction(curve, q):
            return q
    raise CapExceededError(f"no good prime q <= 50 with q^{genus} under cap {COUNT_CAP}")


def _zeta(d: int):
    q = _zeta_prime(d)
    r = None
    if d % 2 and not power_exceeds(q, d - 1):
        r = remark_lpolys(d, q)
        lp = r["l_cd"]
    else:
        lp = l_polynomial(make_cd(d), q)
    irr, _ = lpoly_is_irreducible(lp)
    detail = f"L(C_{d}, {q}) = {lp!r}; irreducible: {irr}"
    if r is not None:
        if not (r["curves_agree"] and r["product_ok"]):
            return "fail", detail + "; isogeny equalities FAILED"
        detail += f"; L(C_{d}) = L(D_{d}) and L(D_{2 * d}) = L(D_{d})L(C_{d}) at q={q}"
    return "pass", detail


# (claim id, statement checked, check), in report order
CLAIM_REGISTRY = (
    ("functional-equation", "phi_d(x + 1/x) = x^d + x^(-d) as Laurent polynomials", _functional_equation),
    ("genus-formula", "C_d: v^2 = (u+2)phi_d(u) is squarefree of genus floor(d/2)", _genus),
    ("phi-criterion", "phi(4d) = 2d for even d / phi(d) = d-1 for odd d", _phi),
    (
        "eta-field-structure",
        "Q(zeta_n - zeta_n^(-1)) is a CM field of degree phi(n)/|kernel|, "
        "kernel = <-1 + n/2> when 4 | n else trivial, "
        "matched by three independent stabilizer computations",
        _field_structure,
    ),
    ("galois-cyclic", "the Galois group of the eta field is cyclic with an exhibited generator", _galois_cyclic),
    (
        "subfields-totally-real",
        "every nontrivial subgroup of the Galois group contains complex "
        "conjugation, so all proper subfields are totally real",
        _subfields,
    ),
    (
        "quotient-model",
        "the involution quotient of the ambient curve is C_d, as an exact Laurent identity",
        _quotient_model,
    ),
    (
        "rotation-relations",
        "the rotation lift preserves the curve with the right order; "
        "its half power is the hyperelliptic involution and "
        "tau.zeta.tau = zeta^(2d-1), as maps and on differentials (even case)",
        _rotation,
    ),
    (
        "differential-eigenvalues",
        "[zeta] - [zeta^(-1)] commutes with the involution and acts on the "
        "invariant differentials diagonally with the closed-form entries",
        _eigenvalues,
    ),
    ("cm-degree", "the eigenvalue generates a field of degree exactly 2 * genus", _cm_degree),
    (
        "cm-type-primitive",
        "the attached CM type is valid and primitive: trivial stabilizer, "
        "brute-force induced-type oracle agrees, sum criterion a unit (odd case)",
        _primitive,
    ),
    (
        "zeta-consistency",
        "at a small good prime: L-polynomial passes its exact invariants; "
        "odd case: L(C_d) = L(D_d) and L(D_2d) = L(D_d)L(C_d)",
        _zeta,
    ),
)


def emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def _run(check, d: int):
    """Run one claim's check on d; map exceptions to a fail with the message."""
    try:
        return check(d)
    except CapExceededError as exc:
        return "skip", str(exc)
    except Exception as exc:  # noqa: BLE001 - any breakage is a claim failure
        return "fail", f"{type(exc).__name__}: {exc}"


def build_report(d: int) -> dict:
    """The report for one d, as the JSON document it is emitted as: keys
    version, d, case, ok and claims, each claim with keys claim,
    statement, status and details.  ValueError for a d past D_MAX or
    outside the family, before any claim runs."""
    if d > D_MAX:
        raise ValueError(f"d must be <= {D_MAX}")
    case = classify_d(d)
    if case is None:
        raise ValueError(f"d={d} is not a power of 2 or an odd prime")
    claims = []
    for claim_id, statement, check in CLAIM_REGISTRY:
        status, details = _run(check, d)
        claims.append({"claim": claim_id, "statement": statement, "status": status, "details": details})
    return {
        "version": VERSION,
        "d": d,
        "case": case,
        "ok": all(c["status"] != "fail" for c in claims),
        "claims": claims,
    }


def build_batch(dmax: int) -> dict:
    """Reports for every in-scope d <= dmax, as one JSON-ready document."""
    if dmax > D_MAX:
        raise ValueError(f"dmax must be <= {D_MAX}")
    family = in_scope_family(dmax)
    reports = [build_report(d) for d in family]
    return {
        "version": VERSION,
        "dmax": dmax,
        "family": family,
        "ok": all(r["ok"] for r in reports),
        "reports": reports,
    }
