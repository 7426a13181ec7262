"""The three workloads: fixed inputs, a seeded item order, one pass each.

Each workload is a function of the seed that makes its calls through the
public API and returns its operations as `{operation id: JSON value}`
(see gate.py).  Modules are looked up at call time (`zeta.remark_lpolys`,
not an imported name), so a traced pass runs through the wrappers that
spans.install puts in the module namespaces.

The seed only shuffles the order of the `(d, q)` cells, so that caching
which depends on order shows; it never changes which operations run or
their expected outputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random

import gate

cli = importlib.import_module("chebcm.cli")
zeta = importlib.import_module("chebcm.zeta")

# Criterion 08's cells, d in {3, 5, 7} and odd primes q <= 50 at which C_d,
# D_d and D_2d all have good reduction, less the two whose largest field
# q^genus(D_2d) exceeds GRID_FIELD_MAX: D_10/F_47^4 and D_14/F_13^6.  Those
# two took 21 of the full grid's 39 s on a 2-CPU machine, and the full grid
# does not fit the benchmark's time budget (see README.md).  F_11^6 and
# F_43^4 still exercise the deep extension fields and the thread pool.
GRID_FIELD_MAX = 4 * 10**6
GRID_CELLS = tuple(
    [(3, q) for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]
    + [(5, q) for q in (3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)]
    + [(7, q) for q in (3, 5, 11)]
)
GRID_THREADS = 2

TRACE_BOUND = 30000

# threads each workload passes to chebcm; report-d16 takes the CLI default
THREADS = {"report-d16": 1, "isogeny-grid": GRID_THREADS, "trace-c2": 1}


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def report_d16(seed: int) -> dict:
    """`chebcm report --dmax 16` through cli.main; one batch, nothing to
    shuffle.  The report text is returned as printed, for the byte check."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["report", "--dmax", "16"])
    return {"rc": rc, "text": out.getvalue()}


def isogeny_grid(seed: int) -> dict:
    cells = list(GRID_CELLS)
    random.Random(seed).shuffle(cells)
    ops = {}
    for d, q in cells:
        try:
            r = zeta.remark_lpolys(d, q, threads=GRID_THREADS)
        except Exception as exc:  # noqa: BLE001 - a broken cell is a failed operation
            ops[f"d={d},q={q}"] = _error(exc)
            continue
        ops[f"d={d},q={q}"] = {
            "l_cd": [str(b) for b in r["l_cd"].coeffs],
            "l_dd": [str(b) for b in r["l_dd"].coeffs],
            "l_d2d": [str(b) for b in r["l_d2d"].coeffs],
            "curves_agree": r["curves_agree"],
            "product_ok": r["product_ok"],
        }
    return ops


def trace_c2(seed: int) -> dict:
    try:
        verdict = zeta.cm_trace_pattern_c2(TRACE_BOUND)
    except Exception as exc:  # noqa: BLE001
        return {f"c2-pattern-q<={TRACE_BOUND}": _error(exc)}
    return {f"c2-pattern-q<={TRACE_BOUND}": {"verdict": verdict}}


RUN = {
    "report-d16": report_d16,
    "isogeny-grid": isogeny_grid,
    "trace-c2": trace_c2,
}


def operations(workload: str, raw: dict) -> dict:
    """The pass's operations; the report is parsed outside the timed region."""
    if workload != "report-d16":
        return raw
    try:
        return gate.report_ops(raw["text"], raw["rc"])
    except (ValueError, KeyError, TypeError) as exc:
        return {"verdict": _error(exc)}
