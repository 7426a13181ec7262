"""Command-line front end.

Exit codes: 0 all checks pass, 1 at least one claim or verdict failed,
2 usage errors and out-of-scope inputs (d outside the family, p not
prime, bad reduction, enumeration cap, an --out that cannot be opened).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from math import isqrt

from .chebyshev import classify_d, is_prime
from .curves import make_cd, make_dm, make_xd
from .report import D_MAX, VERSION, build_batch, build_report, emit_json
from .unitgroups import euler_phi
from .zeta import (
    COUNT_CAP,
    BadReductionError,
    CapExceededError,
    _cap_error,
    _int_name,
    count_points,  # noqa: F401 - kept as chebcm.cli.count_points, which perfbench wraps
    l_polynomial,
    lpoly_is_irreducible,
    power_exceeds,
    remark_lpolys,
)

_STATUS = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}


def _out_of_scope_message(d: int) -> str:
    if d < 2:
        return f"d={_int_name(d, 'd')} is out of scope: need d >= 2"
    if d > D_MAX:
        return f"d={_int_name(d, 'd')} is out of scope: need d <= {D_MAX}"
    if d % 2 == 0:
        return (
            f"d={d} is out of scope: phi(4d) = phi({4 * d}) = {euler_phi(4 * d)} "
            f"!= 2d = {2 * d}, so d is not a power of 2"
        )
    return (
        f"d={d} is out of scope: phi({d}) = {euler_phi(d)} != d-1 = {d - 1}, "
        f"so d is not prime"
    )


def _emit(args, doc: dict) -> str:
    """doc as JSON text, written to the --out file when given and printed
    under --json; every subcommand's document goes through here."""
    text = emit_json(doc)
    if args.out:
        args.out.write(text + "\n")
    if args.json:
        print(text)
    return text


def _cmd_verify(args) -> int:
    if args.d > D_MAX or classify_d(args.d) is None:
        print(_out_of_scope_message(args.d), file=sys.stderr)
        return 2
    report = build_report(args.d)
    _emit(args, report)
    if not args.json:
        print(f"C_{args.d} (case {report['case']}, genus {args.d // 2}) - claim checks:")
        for c in report["claims"]:
            print(f"  [{_STATUS[c['status']]:4}] {c['claim']}: {c['details']}")
        print(f"result: {'all claims passed' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def _make_curve(kind: str, d: int):
    if kind == "C":
        return make_cd(d)
    if kind == "D":
        return make_dm(d)
    return make_xd(d)


def _cmd_lpoly(args) -> int:
    # every curve here has genus >= 1, so a p above the cap is refused
    # before anything else
    if args.p > COUNT_CAP:
        print(_cap_error(args.p), file=sys.stderr)
        return 2
    if not is_prime(args.p):
        print(f"p must be prime, got {_int_name(args.p, 'p')}", file=sys.stderr)
        return 2
    # the genus of C_d, D_m or X_d from --d alone, so that a p^g above
    # the cap is refused before a huge model is built
    genus = {"C": args.d // 2, "D": (args.d - 1) // 2, "X": args.d}[args.curve]
    label = f"{args.curve}_{_int_name(args.d, 'd')}"
    if power_exceeds(args.p, genus):
        print(_cap_error(args.p, genus, label), file=sys.stderr)
        return 2
    try:
        curve = _make_curve(args.curve, args.d)
    except ValueError as exc:
        print(f"cannot build {label}: {exc}", file=sys.stderr)
        return 2
    try:
        # checks reduction and the cap before counting anything
        lp = l_polynomial(curve, args.p)
    except (BadReductionError, CapExceededError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    counts = [lp.point_count(k) for k in range(1, curve.genus + 1)]
    irr, _ = lpoly_is_irreducible(lp)
    doc = {
        "curve": curve.label,
        "p": args.p,
        "counts": [{"k": k + 1, "N": n} for k, n in enumerate(counts)],
        "L": [str(b) for b in lp.coeffs],
        "irreducible": irr,
    }
    _emit(args, doc)
    if not args.json:
        print(f"{curve.label} over F_{args.p} (genus {curve.genus})")
        for k, n in enumerate(counts):
            print(f"  N_{k + 1} = {n}")
        print(f"  L(T) = {lp!r}")
        print(f"  coefficients: {list(lp.coeffs)}")
        print(f"  irreducible over Q: {irr}")
    return 0


def _cmd_remark(args) -> int:
    # D_2d has genus d - 1, so past D_MAX every q would be skipped on the
    # cap; refusing first also keeps a huge d away from is_prime
    if args.d > D_MAX or classify_d(args.d) != 2:
        d = _int_name(args.d, "d")
        print(f"remark needs an odd prime d <= {D_MAX}, got {d}", file=sys.stderr)
        return 2
    if args.pmax < 3:
        pmax = _int_name(args.pmax, "pmax")
        print(f"pmax must be >= 3, the least odd prime; got {pmax}", file=sys.stderr)
        return 2
    # D_2d has genus d - 1 >= 2; this also keeps a huge pmax from is_prime
    if args.pmax > isqrt(COUNT_CAP):
        print(f"pmax must be <= {isqrt(COUNT_CAP)}: for q > {isqrt(COUNT_CAP)}, L(D_{2 * args.d}, q) "
              f"needs counts over F_q^2, which exceeds cap {COUNT_CAP}", file=sys.stderr)
        return 2
    rows = []
    failed = False
    for q in (q for q in range(3, args.pmax + 1) if is_prime(q)):
        try:
            r = remark_lpolys(args.d, q)
        except BadReductionError:
            rows.append({"q": q, "status": "skip", "reason": "bad reduction"})
            continue
        except CapExceededError as exc:
            rows.append({"q": q, "status": "skip", "reason": str(exc)})
            continue
        ok = r["curves_agree"] and r["product_ok"]
        failed = failed or not ok
        rows.append(
            {
                "q": q,
                "status": "ok" if ok else "fail",
                "L_Cd": [str(b) for b in r["l_cd"].coeffs],
                "L_Dd": [str(b) for b in r["l_dd"].coeffs],
                "L_D2d": [str(b) for b in r["l_d2d"].coeffs],
            }
        )
    doc = {"d": args.d, "pmax": args.pmax, "rows": rows}
    _emit(args, doc)
    if not args.json:
        print(
            f"isogeny consistency for d={args.d}: "
            f"L(C_{args.d}) = L(D_{args.d}) and "
            f"L(D_{2 * args.d}) = L(D_{args.d})*L(C_{args.d})"
        )
        for row in rows:
            note = row.get("reason", "")
            print(f"  q={row['q']:3}  {row['status']}  {note}")
    return 1 if failed else 0


def _cmd_report(args) -> int:
    if args.dmax > D_MAX:
        print(f"dmax must be <= {D_MAX}", file=sys.stderr)
        return 2
    doc = build_batch(args.dmax)
    if not doc["family"]:
        print(f"warning: no d in scope with d <= {args.dmax}", file=sys.stderr)
    text = _emit(args, doc)
    if not args.json:
        print(f"wrote {args.out.name}" if args.out else text)
    for rep in doc["reports"]:
        statuses = [c["status"] for c in rep["claims"]]
        print(
            f"d={rep['d']}: {statuses.count('pass')} pass, "
            f"{statuses.count('fail')} fail, {statuses.count('skip')} skip",
            file=sys.stderr,
        )
    return 0 if doc["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chebcm",
        description=(
            "Exact verification of the CM, quotient, and zeta properties of "
            "the curves v^2 = (u+2)phi_d(u)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full claim suite for one d")
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.set_defaults(handler=_cmd_verify)

    p_lpoly = sub.add_parser("lpoly", help="point counts and L-polynomial of one curve")
    p_lpoly.add_argument("--curve", choices=("C", "D", "X"), required=True)
    p_lpoly.add_argument("--d", type=int, required=True, help="family index (m for D_m)")
    p_lpoly.add_argument("--p", type=int, required=True, help="prime of good reduction")
    p_lpoly.set_defaults(handler=_cmd_lpoly)

    p_remark = sub.add_parser("remark", help="isogeny L-polynomial equalities for odd prime d")
    p_remark.add_argument("--d", type=int, required=True)
    p_remark.add_argument("--pmax", type=int, default=50)
    p_remark.set_defaults(handler=_cmd_remark)

    p_report = sub.add_parser("report", help="batch JSON report for all in-scope d <= dmax")
    p_report.add_argument("--dmax", type=int, required=True)
    p_report.set_defaults(handler=_cmd_report)

    for p in (p_verify, p_lpoly, p_remark, p_report):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", type=str, default=None, help="write JSON to this path")

    args = parser.parse_args(argv)
    try:  # opened before any work, so a bad path costs none; closed on return
        args.out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        print(f"cannot open --out: {exc}", file=sys.stderr)
        return 2
    with args.out or nullcontext():
        return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
