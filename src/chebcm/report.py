"""Claim registry and per-d verification reports.

Each report runs a fixed list of named claims for one d in the family
(d a power of 2, or an odd prime) and records pass/fail/skip with
details.  A report is the plain dict that is emitted as JSON, with a
stable key order.  Claims that only make sense for one of the two cases
are reported as "skip" on the other so that every report carries the
full registry exactly once.
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
    element_order,
    eta_fixers_congruence,
    euler_phi,
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

# (claim id, statement checked) - in fixed registry order
CLAIM_REGISTRY = (
    ("functional-equation", "phi_d(x + 1/x) = x^d + x^(-d) as Laurent polynomials"),
    ("genus-formula", "C_d: v^2 = (u+2)phi_d(u) is squarefree of genus floor(d/2)"),
    ("phi-criterion", "phi(4d) = 2d for even d / phi(d) = d-1 for odd d"),
    (
        "eta-field-structure",
        "Q(zeta_n - zeta_n^(-1)) is a CM field of degree phi(n)/|kernel|, "
        "kernel = <-1 + n/2> when 4 | n else trivial, "
        "matched by three independent stabilizer computations",
    ),
    ("galois-cyclic", "the Galois group of the eta field is cyclic with an exhibited generator"),
    (
        "subfields-totally-real",
        "every nontrivial subgroup of the Galois group contains complex "
        "conjugation, so all proper subfields are totally real",
    ),
    ("quotient-model", "the involution quotient of the ambient curve is C_d, as an exact Laurent identity"),
    (
        "rotation-relations",
        "the rotation lift preserves the curve with the right order; "
        "its half power is the hyperelliptic involution and "
        "tau.zeta.tau = zeta^(2d-1), as maps and on differentials (even case)",
    ),
    (
        "differential-eigenvalues",
        "[zeta] - [zeta^(-1)] commutes with the involution and acts on the "
        "invariant differentials diagonally with the closed-form entries",
    ),
    ("cm-degree", "the eigenvalue generates a field of degree exactly 2 * genus"),
    (
        "cm-type-primitive",
        "the attached CM type is valid and primitive: trivial stabilizer, "
        "brute-force induced-type oracle agrees, sum criterion a unit (odd case)",
    ),
    (
        "zeta-consistency",
        "at a small good prime: L-polynomial passes its exact invariants; "
        "odd case: L(C_d) = L(D_d) and L(D_2d) = L(D_d)L(C_d)",
    ),
)


def emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def _run(check):
    """Run one claim body; map exceptions to a fail with the message."""
    try:
        return check()
    except CapExceededError as exc:
        return "skip", str(exc)
    except Exception as exc:  # noqa: BLE001 - any breakage is a claim failure
        return "fail", f"{type(exc).__name__}: {exc}"


def build_report(d: int) -> dict:
    """The report for one d, as the JSON document it is emitted as: keys
    version, d, case, ok and claims, each claim with keys claim,
    statement, status and details."""
    case = classify_d(d)
    if case is None:
        raise ValueError(f"d={d} is not a power of 2 or an odd prime")
    n = 4 * d if case == 1 else 2 * d
    genus = genus_of_cd(d)

    def claim_functional_equation():
        ok = verify_functional_equation(d)
        return ("pass" if ok else "fail"), f"checked at d={d}"

    def claim_genus():
        curve = make_cd(d)  # raises if the model is not squarefree
        ok = curve.genus == genus == d // 2
        return ("pass" if ok else "fail"), f"genus {curve.genus}, model degree {curve.f.degree}"

    def claim_phi():
        if case == 1:
            ok = case1_cm_criterion(d)
            detail = f"phi({4 * d}) = {euler_phi(4 * d)}, 2d = {2 * d}"
        else:
            ok = case2_cm_criterion(d)
            detail = f"phi({d}) = {euler_phi(d)}, d-1 = {d - 1}"
        return ("pass" if ok else "fail"), detail

    def claim_field_structure():
        kernel = kd_kernel(n)
        ok = (
            kd_is_cm(n)
            and kd_degree_check(n)
            and eta_stabilizer(n) == kernel == eta_fixers_congruence(n)
        )
        return (
            ("pass" if ok else "fail"),
            f"n={n}, kernel={sorted(kernel)}, degree {euler_phi(n) // len(kernel)}",
        )

    def claim_galois_cyclic():
        if case == 1:
            _, gen, order = kd_galois_structure(n)
            return "pass", f"quotient of (Z/{n})^* cyclic of order {order}, generated by the class of {gen}"
        for a in range(2, d):
            if element_order(d, a) == d - 1:
                return "pass", f"(Z/{d})^* cyclic of order {d - 1}, generator {a}"
        return "fail", f"no generator found in (Z/{d})^*"

    def claim_subfields():
        if case == 2:
            return "skip", "odd case: primitivity is decided by the sum criterion instead"
        e = n.bit_length() - 1
        ok = proper_subfields_totally_real(e)
        return ("pass" if ok else "fail"), f"all nontrivial subgroups of the order-{d} quotient contain conjugation"

    def claim_quotient_model():
        ok = quotient_identity(d)
        src = f"X_{d}" if case == 1 else f"D_{2 * d}"
        return ("pass" if ok else "fail"), f"u = x + 1/x substitution from {src}"

    def claim_rotation():
        if case == 1:
            curve, z, tau = case1_automorphisms(d)  # raises on any broken relation
            mz = pullback_matrix(curve, z)
            mt = pullback_matrix(curve, tau)
            lhs = compose_pullbacks(compose_pullbacks(mt, mz, z.n), mt, z.n)
            rhs = pullback_matrix(curve, z.power(2 * d - 1))
            ok = lhs == rhs
            return ("pass" if ok else "fail"), f"order {4 * d} lift (z^2 x, z y) on X_{d}; matrix identity checked"
        curve, z, sigma = case2_automorphisms(d)
        return "pass", f"order {2 * d} rotation and involution sigma on D_{2 * d}"

    def claim_eigenvalues():
        det = endo_quotient_details(d)
        ok = det["ok"]
        eigs = ", ".join(
            "None" if v is None else format_polynomial(v, "z") for v in det["eigenvalues"][:4]
        )
        if len(det["eigenvalues"]) > 4:
            eigs += ", ..."
        return (
            ("pass" if ok else "fail"),
            f"invariant dimension {det['invariant_dimension']} = genus; diagonal [{eigs}]",
        )

    def claim_cm_degree():
        mp = eta_minimal_polynomial(n)
        ok = mp.degree == 2 * genus
        return ("pass" if ok else "fail"), f"deg minpoly(eta({n})) = {mp.degree}, 2g = {2 * genus}"

    def claim_primitive():
        if case == 1:
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

    def claim_zeta():
        curve = make_cd(d)
        q = next(
            (
                q
                for q in range(3, 51)
                if is_prime(q)
                and not power_exceeds(q, genus)
                and good_reduction(curve, q)
            ),
            None,
        )
        if q is None:
            raise CapExceededError(
                f"no good prime q <= 50 with q^{genus} under cap {COUNT_CAP}"
            )
        r = None
        if case == 2 and not power_exceeds(q, d - 1):
            r = remark_lpolys(d, q)
            lp = r["l_cd"]
        else:
            lp = l_polynomial(curve, q)
        irr, _ = lpoly_is_irreducible(lp)
        detail = f"L(C_{d}, {q}) = {lp!r}; irreducible: {irr}"
        if r is not None:
            if not (r["curves_agree"] and r["product_ok"]):
                return "fail", detail + "; isogeny equalities FAILED"
            detail += f"; L(C_{d}) = L(D_{d}) and L(D_{2 * d}) = L(D_{d})L(C_{d}) at q={q}"
        return "pass", detail

    bodies = {
        "functional-equation": claim_functional_equation,
        "genus-formula": claim_genus,
        "phi-criterion": claim_phi,
        "eta-field-structure": claim_field_structure,
        "galois-cyclic": claim_galois_cyclic,
        "subfields-totally-real": claim_subfields,
        "quotient-model": claim_quotient_model,
        "rotation-relations": claim_rotation,
        "differential-eigenvalues": claim_eigenvalues,
        "cm-degree": claim_cm_degree,
        "cm-type-primitive": claim_primitive,
        "zeta-consistency": claim_zeta,
    }
    claims = []
    for claim_id, statement in CLAIM_REGISTRY:
        status, details = _run(bodies[claim_id])
        claims.append(
            {"claim": claim_id, "statement": statement, "status": status, "details": details}
        )
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
