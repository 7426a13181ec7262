"""chebcm benchmark: run one workload, print one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-d16 --seed 1 --seconds 30 --trace 0

Every timed pass runs in a fresh interpreter (worker.py) with `src/` on
PYTHONPATH, so the `field_tower` lru_cache and the CyclotomicContext
instance cache start cold, as they do for each CLI call.  Passes repeat,
with the same seeded inputs, until the next one would end after
`--seconds`; there is always at least one, and with `--trace 1` at least
one untraced and one traced.  Import-only interpreters, half before the
passes and half after, bring the `setup_s` samples up to SETUP_SAMPLES.
Every pass's operations go through the output gate (gate.py) against
`perfbench/expected/`.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With `--trace 0` the metrics are the end-to-end ones, medians over the
passes; with `--trace 1` they are the per-layer ones from the traced
passes.  The line before it is the provenance block, and both, with every
pass's figures and the per-function table, are written to
`.perfbench_out/<workload>-seed<seed>-trace<0|1>.json`; a traced run also
writes the spans of its first traced pass beside it, as `...-spans.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
WORKLOADS = ("report-d16", "isogeny-grid", "trace-c2")
SETUP_SAMPLES = 15
DEADLINE_S = 170  # a run ends well inside 180 s, whatever --seconds says

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("ns_per_element"):
        return "ns"
    return "count"


def load_expected(workload: str) -> dict:
    path = EXPECTED / f"{workload}.json"
    text = path.read_text(encoding="utf-8")
    if workload == "report-d16":
        return gate.report_ops(text)
    return json.loads(text)


def run_pass(root: Path, workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One fresh interpreter; its JSON document, or an `error` entry."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start_ns = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "worker.py"), str(start_ns), workload, str(seed), str(int(traced))]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the worker
        return {"error": f"timed out after {timeout:.0f} s",
                "wall_s": (time.monotonic_ns() - start_ns) / 1e9, "ops": {}}
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}",
                "wall_s": (time.monotonic_ns() - start_ns) / 1e9, "ops": {}}
    if proc.returncode != 0:
        doc["error"] = f"exit {proc.returncode}"
    return doc


def probe_setup(root: Path, seed: int, count: int, deadline: float) -> list:
    """setup_s of up to `count` import-only interpreters, each started
    before `deadline` (a time.monotonic() value)."""
    samples = []
    for _ in range(count):
        if time.monotonic() > deadline:
            break
        probe = run_pass(root, "setup", seed, False, 10)
        if "setup_s" in probe:
            samples.append(probe["setup_s"])
    return samples


def git_commit(root: Path):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(root: Path, workload: str, seed: int, seconds: float, traced: bool, expected: dict):
    """(result, record, spans): the result line, everything behind it, and
    the spans of the first traced pass (None when untraced)."""
    start = time.monotonic()

    def elapsed():
        return time.monotonic() - start

    run_pass(root, "setup", seed, False, DEADLINE_S)  # writes bytecode, warms the file cache
    # half the import-only samples before the passes and the rest after
    # them, so that setup_s does not rest on one moment of a machine whose
    # speed drifts from one half-minute to the next
    setups = probe_setup(root, seed, SETUP_SAMPLES // 2, start + DEADLINE_S - 10)
    passes, durations = [], []
    kinds = (False, True) if traced else (False,)
    while True:
        kind = kinds[len(passes) % len(kinds)]
        t0 = elapsed()
        doc = run_pass(root, workload, seed, kind, max(1.0, DEADLINE_S - t0))
        doc["traced"] = kind
        doc["attempted"], doc["failed_ops"] = gate.check(doc.get("ops", {}), expected)
        passes.append(doc)
        durations.append(elapsed() - t0)
        next_end = elapsed() + max(durations)
        if next_end > DEADLINE_S or (len(passes) >= len(kinds) and next_end > seconds):
            break
    setups += [p["setup_s"] for p in passes if "setup_s" in p]
    setups += probe_setup(root, seed, SETUP_SAMPLES - len(setups), start + DEADLINE_S - 10)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed_ops"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    if traced:
        with_trace = [p for p in passes if p["traced"] and "layers" in p]
        names = with_trace[0]["layers"] if with_trace else {}
        values = {n: statistics.median(p["layers"][n] for p in with_trace) for n in names}
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in passes if p["traced"])
            - statistics.median(walls)
        )
        values["fail_ratio"] = failed / attempted
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": max(p.get("peak_rss_mb", 0.0) for p in plain),
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in values.items()}
    result = {
        "correct": failed == 0 and not any("error" in p for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    first = next((p["provenance"] for p in passes if "provenance" in p), {})
    provenance = dict(
        first,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        git_commit=git_commit(root),
        workload=workload,
        seed=seed,
        traced=traced,
        seconds=seconds,
        passes=len(passes),
        setup_samples=len(setups),
    )
    if workload == "report-d16":
        want = (EXPECTED / "report-d16.json").read_text(encoding="utf-8")
        provenance["report_byte_identical"] = all(p.get("text") == want for p in passes)
    record = {
        "result": result,
        "provenance": provenance,
        "setup_s_samples": setups,
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "setup_s", "peak_rss_mb", "attempted",
                               "failed_ops", "error", "layers", "functions")
             if k in p}
            for p in passes
        ],
    }
    spans = next((p["spans"] for p in passes if "spans" in p), None)
    return result, record, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chebcm" / "__init__.py").is_file():
        print(f"no chebcm sources under {root / 'src'}: run from a checkout root", file=sys.stderr)
        return 2
    result, record, spans = measure(
        root, args.workload, args.seed, args.seconds, bool(args.trace), load_expected(args.workload)
    )
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
