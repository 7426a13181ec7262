"""Write perfbench/expected/ from the current sources: one untraced pass
per workload, seed 0, each in a fresh interpreter.

    python3 perfbench/make_expected.py [WORKLOAD ...]

Run from a checkout root.  A workload whose outputs report any failure (an
exception, a `fail` claim, a false verdict) is not written.  Regenerate
only when a change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
import run


def main(argv: list[str]) -> int:
    root = Path.cwd()
    status = 0
    for workload in argv or run.WORKLOADS:
        doc = run.run_pass(root, workload, 0, False, timeout=600)
        ops = doc.get("ops", {})
        bad = sorted(op for op, value in ops.items() if not gate.passes(value))
        if "error" in doc or not ops or bad:
            print(f"{workload}: not written: {doc.get('error')} {bad[:5]}", file=sys.stderr)
            status = 1
            continue
        if workload == "report-d16":
            text = doc["text"]
        else:
            text = json.dumps(ops, indent=1, sort_keys=True) + "\n"
        (run.EXPECTED / f"{workload}.json").write_text(text, encoding="utf-8")
        print(f"{workload}: {len(ops)} operations, wall {doc['wall_s']:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
