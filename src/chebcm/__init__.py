"""Exact-arithmetic verification toolkit for the hyperelliptic families
C_d : v^2 = (u+2) phi_d(u), their quotient constructions, CM structure,
and finite-field zeta data."""

__version__ = "0.1.0"  # the one version source; pyproject.toml reads it

from .algebra import (
    LaurentPolynomial,
    PrimeField,
    QQ,
    RingMismatchError,
    UniPolynomial,
    ZZ,
    field_tower,
    laurent_compose,
    squarefree,
)
from .chebyshev import (
    chebyshev,
    classify_d,
    curve_polynomial,
    genus_of_cd,
    in_scope_family,
    verify_functional_equation,
)
from .cmtypes import CMGroup, CMType, paper_type_case1, paper_type_case2, sum_criterion
from .curves import (
    HyperellipticCurve,
    MapNotValidError,
    MonomialAutomorphism,
    PullbackMatrix,
    VerificationError,
    automorphism_valid,
    case1_automorphisms,
    case2_automorphisms,
    cm_summary,
    endo_on_quotient,
    invariant_subspace,
    make_cd,
    make_dm,
    make_xd,
    pullback_matrix,
    quotient_identity,
    zeta_case1,
)
from .cyclotomic import (
    CyclotomicContext,
    CyclotomicElement,
    cyclotomic_polynomial,
    eta,
    eta_stabilizer,
    galois_apply,
    kd_degree_check,
    minimal_polynomial,
)
from .report import CLAIM_REGISTRY, VerificationReport, build_batch, build_report
from .unitgroups import (
    case1_cm_criterion,
    case2_cm_criterion,
    euler_phi,
    kd_galois_structure,
    kd_is_cm,
    kd_kernel,
    unit_group,
)
from .zeta import (
    BadReductionError,
    CapExceededError,
    LPolynomial,
    PointCount,
    cm_trace_pattern_c2,
    count_points,
    count_points_naive,
    good_reduction,
    l_polynomial,
    lpoly_is_irreducible,
    remark_isogeny_check,
    simplicity_evidence,
)
