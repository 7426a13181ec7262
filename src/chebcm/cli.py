"""Command-line front end.

Exit codes: 0 all checks pass, 1 at least one claim or verdict failed,
2 usage errors and out-of-scope inputs (d outside the family, bad
reduction, enumeration cap).
"""

from __future__ import annotations

import argparse
import sys

from .chebyshev import classify_d, is_prime
from .curves import make_cd, make_dm, make_xd
from .report import VERSION, build_batch, build_report, emit_json
from .unitgroups import euler_phi
from .zeta import (
    BadReductionError,
    CapExceededError,
    count_points,  # noqa: F401 - kept as chebcm.cli.count_points, which perfbench wraps
    good_reduction,
    l_polynomial,
    lpoly_is_irreducible,
    remark_lpolys,
)

_STATUS = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}


def _out_of_scope_message(d: int) -> str:
    if d < 2:
        return f"d={d} is out of scope: need d >= 2"
    if d % 2 == 0:
        return (
            f"d={d} is out of scope: phi(4d) = phi({4 * d}) = {euler_phi(4 * d)} "
            f"!= 2d = {2 * d}, so d is not a power of 2"
        )
    return (
        f"d={d} is out of scope: phi({d}) = {euler_phi(d)} != d-1 = {d - 1}, "
        f"so d is not prime"
    )


def _write_out(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _cmd_verify(args) -> int:
    if classify_d(args.d) is None:
        print(_out_of_scope_message(args.d), file=sys.stderr)
        return 2
    report = build_report(args.d, threads=args.threads)
    text = emit_json(report.to_dict())
    if args.out:
        _write_out(args.out, text)
    if args.json:
        print(text)
    else:
        print(f"C_{args.d} (case {report.case}, genus {args.d // 2}) - claim checks:")
        for c in report.claims:
            print(f"  [{_STATUS[c.status]:4}] {c.claim_id}: {c.details}")
        verdict = "FAILED" if report.failed else "all claims passed"
        print(f"result: {verdict}")
    return 1 if report.failed else 0


def _make_curve(kind: str, d: int):
    if kind == "C":
        return make_cd(d)
    if kind == "D":
        return make_dm(d)
    return make_xd(d)


def _cmd_lpoly(args) -> int:
    try:
        curve = _make_curve(args.curve, args.d)
    except ValueError as exc:
        print(f"cannot build {args.curve}_{args.d}: {exc}", file=sys.stderr)
        return 2
    try:
        # checks reduction and the cap before counting anything
        lp = l_polynomial(curve, args.p, threads=args.threads)
    except (BadReductionError, CapExceededError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    counts = [lp.point_count(k) for k in range(1, curve.genus + 1)]
    irr, _ = lpoly_is_irreducible(lp)
    if args.json:
        doc = {
            "curve": curve.label,
            "p": args.p,
            "counts": [{"k": k + 1, "N": n} for k, n in enumerate(counts)],
            "L": [str(b) for b in lp.coeffs],
            "irreducible": irr,
        }
        text = emit_json(doc)
        print(text)
        if args.out:
            _write_out(args.out, text)
    else:
        print(f"{curve.label} over F_{args.p} (genus {curve.genus})")
        for k, n in enumerate(counts):
            print(f"  N_{k + 1} = {n}")
        print(f"  L(T) = {lp!r}")
        print(f"  coefficients: {list(lp.coeffs)}")
        print(f"  irreducible over Q: {irr}")
    return 0


def _cmd_remark(args) -> int:
    if classify_d(args.d) != 2:
        print(f"remark needs an odd prime d, got {args.d}", file=sys.stderr)
        return 2
    rows = []
    failed = False
    for q in (q for q in range(3, args.pmax + 1) if is_prime(q)):
        curves = (make_cd(args.d), make_dm(args.d), make_dm(2 * args.d))
        if not all(good_reduction(c, q) for c in curves):
            rows.append({"q": q, "status": "skip", "reason": "bad reduction"})
            continue
        try:
            r = remark_lpolys(args.d, q, threads=args.threads)
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
    if args.json:
        text = emit_json(doc)
        print(text)
        if args.out:
            _write_out(args.out, text)
    else:
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
    if args.dmax > 64:
        print("dmax must be <= 64", file=sys.stderr)
        return 2
    doc = build_batch(args.dmax, threads=args.threads)
    if not doc["family"]:
        print(f"warning: no d in scope with d <= {args.dmax}", file=sys.stderr)
    text = emit_json(doc)
    if args.out:
        _write_out(args.out, text)
        print(f"wrote {args.out}")
    if args.json or not args.out:
        print(text)
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

    p_lpoly = sub.add_parser("lpoly", help="point counts and L-polynomial of one curve")
    p_lpoly.add_argument("--curve", choices=("C", "D", "X"), required=True)
    p_lpoly.add_argument("--d", type=int, required=True, help="family index (m for D_m)")
    p_lpoly.add_argument("--p", type=int, required=True, help="prime of good reduction")

    p_remark = sub.add_parser("remark", help="isogeny L-polynomial equalities for odd prime d")
    p_remark.add_argument("--d", type=int, required=True)
    p_remark.add_argument("--pmax", type=int, default=50)

    p_report = sub.add_parser("report", help="batch JSON report for all in-scope d <= dmax")
    p_report.add_argument("--dmax", type=int, required=True)

    for p in (p_verify, p_lpoly, p_remark, p_report):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", type=str, default=None, help="write JSON to this path")
        p.add_argument(
            "--threads", type=int, default=1, help="accepted; counting runs on one thread"
        )

    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "lpoly": _cmd_lpoly,
        "remark": _cmd_remark,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
