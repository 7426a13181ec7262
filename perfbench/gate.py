"""Output gate: compare one pass's outputs with the committed expected result.

Outputs and expected results are both maps from an operation id to a JSON
value.  An operation is one claim (`d=13/cm-degree`), one `(d, q)` cell
(`d=7,q=11`), one pattern check or one batch verdict.  It fails on an
exception, a `fail` status, a false verdict or a mismatch with the
expected value.  Only the keys the expected value holds are compared, so
a field a later version adds to a claim (a timing, a counter) does not
fail the gate; the order of operations never matters.

Standard library only: run.py imports this without chebcm.
"""

from __future__ import annotations

import json

# value keys that must be true for an operation to pass
_VERDICT_KEYS = ("curves_agree", "product_ok", "verdict", "ok")


def report_ops(text: str, rc: int = 0) -> dict:
    """Operations of a batch report: one per claim, plus the batch verdict."""
    doc = json.loads(text)
    ops = {
        f"d={rep['d']}/{claim['claim']}": claim
        for rep in doc["reports"]
        for claim in rep["claims"]
    }
    ops["verdict"] = {
        "rc": rc,
        "ok": doc["ok"],
        "dmax": doc["dmax"],
        "family": doc["family"],
    }
    return ops


def passes(value) -> bool:
    """True when the value itself reports success, whatever was expected."""
    return (
        isinstance(value, dict)
        and "error" not in value
        and value.get("status") != "fail"
        and value.get("rc", 0) == 0
        and all(value.get(k, True) is True for k in _VERDICT_KEYS)
    )


def check(outputs: dict, expected: dict) -> tuple[int, list[str]]:
    """(operations attempted, ids of the failed ones).

    Every expected operation counts, produced or not; an operation the
    pass produced but the expected result lacks counts too, and fails only
    if it reports failure itself.
    """
    failed = []
    for op in sorted(set(expected) | set(outputs)):
        got = outputs.get(op)
        want = expected.get(op, {})
        if not passes(got) or any(got.get(k) != v for k, v in want.items()):
            failed.append(op)
    return len(set(expected) | set(outputs)), failed
