"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py SPAWN_NS WORKLOAD SEED TRACED

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process.  CLOCK_MONOTONIC is system-wide, so `setup_s`, measured here when
`import chebcm` returns, covers process start, interpreter start and the
package import: what every CLI call pays.  WORKLOAD `setup` only measures
that and exits.  With TRACED 1 the pass runs under spans.install and also
reports the per-layer metrics.  The last line of stdout is one JSON object.
"""

import sys
import time

import chebcm  # noqa: E402 - setup_s ends when this import returns

SETUP_S = (time.monotonic_ns() - int(sys.argv[1])) / 1e9

import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

algebra = importlib.import_module("chebcm.algebra")
report = importlib.import_module("chebcm.report")
zeta = importlib.import_module("chebcm.zeta")
# taken before spans.install replaces it, to keep its cache_info()
field_tower = algebra.field_tower

# per-layer metrics read from the wrapper statistics: function -> fields
LAYER_FIELDS = {
    "zeta.count_points": ("calls", "busy_s", "self_s"),
    "zeta.l_polynomial": ("calls", "busy_s", "self_s"),
    "zeta.lpoly_is_irreducible": ("calls", "busy_s"),
    "zeta.remark_lpolys": ("busy_s", "self_s"),
    "zeta.good_reduction": ("calls", "busy_s"),
    "zeta.cm_trace_pattern_c2": ("busy_s", "self_s"),
    "algebra.squarefree": ("calls", "busy_s"),
    "curves.make_cd": ("calls", "busy_s"),
    "curves.pullback_matrix": ("calls", "busy_s"),
    "curves.endo_quotient_details": ("busy_s", "self_s"),
    "curves.quotient_identity": ("busy_s",),
    "cyclotomic.minimal_polynomial": ("calls", "busy_s"),
    "cyclotomic.kd_degree_check": ("busy_s", "self_s"),
    "cyclotomic.eta_stabilizer": ("busy_s",),
    "cmtypes.CMType.induced_oracle": ("busy_s",),
    "unitgroups.proper_subfields_totally_real": ("busy_s",),
    "chebyshev.verify_functional_equation": ("busy_s",),
    "report.build_report": ("calls", "busy_s", "self_s"),
    "report.emit_json": ("busy_s",),
    "cli.main": ("busy_s", "self_s"),
}


def layer_metrics(tracer: spans.Tracer, tower_before, ops: dict) -> dict:
    table = tracer.function_table()
    out = {}
    for func, fields in LAYER_FIELDS.items():
        row = table.get(func, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for f in fields:
            out[f"{func}.{f}"] = row[f]
    count_busy = out["zeta.count_points.busy_s"]
    out["zeta.count_points.elements"] = tracer.elements
    out["zeta.count_points.ns_per_element"] = (
        count_busy * 1e9 / tracer.elements if tracer.elements else 0.0
    )
    out["zeta.count_points.cap_refusals"] = tracer.cap_refusals
    out["zeta.count_points.field_repeat_ratio"] = tracer.repeat_ratio("field")
    out["zeta.count_points.curve_repeat_ratio"] = tracer.repeat_ratio("curve_field")
    out["zeta.l_polynomial.repeat_ratio"] = tracer.repeat_ratio("l_polynomial")
    out["curves.make_cd.repeat_ratio"] = tracer.repeat_ratio("make_cd")
    for name in ("zeta.lpoly_is_irreducible.max_genus", "cyclotomic.minimal_polynomial.max_degree"):
        out[name] = tracer.peaks.get(name, 0)
    tower = field_tower.cache_info()
    out["algebra.field_tower.hits"] = tower.hits - tower_before.hits
    out["algebra.field_tower.misses"] = tower.misses - tower_before.misses
    out["report.claims_skipped"] = sum(
        1 for v in ops.values() if isinstance(v, dict) and v.get("status") == "skip"
    )
    return out


def main() -> int:
    workload, seed, traced = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    doc = {"setup_s": SETUP_S}
    if workload == "setup":
        print(json.dumps(doc))
        return 0
    tower_before = field_tower.cache_info()
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    try:
        raw = workloads.RUN[workload](seed)
    except Exception as exc:  # noqa: BLE001 - reported as a failed pass
        raw = {"pass": {"error": f"{type(exc).__name__}: {exc}"}}
    wall = time.perf_counter() - start
    ops = workloads.operations(workload, raw)
    doc.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=ops,
        provenance={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "count_cap": zeta.COUNT_CAP,
            "report_version": report.VERSION,
            "chebcm_threads": workloads.THREADS[workload],
        },
    )
    if workload == "report-d16":
        doc["text"] = raw.get("text")
    if tracer is not None:
        doc["layers"] = layer_metrics(tracer, tower_before, ops)
        doc["functions"] = tracer.function_table()
        doc["spans"] = tracer.span_table()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
