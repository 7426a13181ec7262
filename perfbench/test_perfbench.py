"""Tests of the benchmark itself: fixed inputs, output gate, wrappers.

    PYTHONPATH=src python3 -m pytest perfbench -q

The test that runs a real pass and the result-line test take about
25 s together (three trace-c2 passes).
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
import run  # noqa: E402


def test_inputs_are_the_named_families():
    import workloads
    from chebcm.chebyshev import is_prime
    from chebcm.curves import make_cd, make_dm
    from chebcm.zeta import COUNT_CAP, good_reduction

    cells = []
    for d in (3, 5, 7):
        curves = (make_cd(d), make_dm(d), make_dm(2 * d))
        for q in range(3, 51, 2):
            if is_prime(q) and all(good_reduction(c, q) for c in curves):
                if q ** curves[2].genus <= min(COUNT_CAP, workloads.GRID_FIELD_MAX):
                    cells.append((d, q))
    assert workloads.GRID_CELLS == tuple(cells)
    assert len(cells) == 28


def test_expected_results_cover_every_operation():
    sizes = {w: len(run.load_expected(w)) for w in run.WORKLOADS}
    # 9 reports x 12 claims + the batch verdict; 28 cells; 1 check
    assert sizes == {"report-d16": 109, "isogeny-grid": 28, "trace-c2": 1}
    for w in run.WORKLOADS:
        assert all(gate.passes(v) for v in run.load_expected(w).values())


def test_gate_compares_expected_keys_only():
    expected = run.load_expected("report-d16")
    outputs = {op: dict(v, elapsed_s=0.5) for op, v in expected.items()}
    assert gate.check(outputs, expected) == (109, [])
    tampered = copy.deepcopy(expected)
    tampered["d=13/cm-degree"]["details"] += " (tampered)"
    assert gate.check(outputs, tampered) == (109, ["d=13/cm-degree"])
    del outputs["d=2/genus-formula"]
    outputs["d=2/new-claim"] = {"status": "fail", "details": ""}
    attempted, failed = gate.check(outputs, expected)
    assert attempted == 110
    assert failed == ["d=2/genus-formula", "d=2/new-claim"]


def test_tampered_expected_drives_fail_ratio_above_zero():
    expected = run.load_expected("trace-c2")
    (op,) = expected
    tampered = {op: {"verdict": False}}
    result, record, spans = run.measure(ROOT, "trace-c2", 1, 0, True, tampered)
    assert result["metrics"]["fail_ratio"]["value"] == 1.0
    assert result["failed"] == result["attempted"] == 2
    assert not result["correct"]
    assert all(p["failed_ops"] == [op] for p in record["passes"])
    traced = [p for p in record["passes"] if p["traced"]][0]
    assert traced["layers"]["zeta.count_points.calls"] > 3000
    assert traced["layers"]["zeta.count_points.field_repeat_ratio"] == 0.0
    names, rows = spans["names"], spans["rows"]
    assert sum(names[r[0]] == "zeta.count_points" for r in rows) == 3244
    # cm_trace_pattern_c2 calls count_points directly: its span is the parent
    (outer,) = [i for i, r in enumerate(rows) if names[r[0]] == "zeta.cm_trace_pattern_c2"]
    assert all(r[3] == outer for r in rows if names[r[0]] == "zeta.count_points")


def test_wrappers_reach_every_namespace():
    script = """
import chebcm, chebcm.cli as cli, chebcm.report as report, chebcm.zeta as zeta
import spans
t = spans.Tracer()
spans.install(t)
assert report.l_polynomial is zeta.l_polynomial is chebcm.l_polynomial
assert cli.count_points is zeta.count_points
assert zeta.count_points.__wrapped__.__module__ == "chebcm.zeta"
cli.count_points(zeta.make_cd(2), 5, 2)
report.l_polynomial(zeta.make_cd(2), 5)
table = t.function_table()
assert table["zeta.count_points"]["calls"] == 2, table
assert table["zeta.l_polynomial"]["calls"] == 1, table
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{HERE}")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.stdout.strip() == "ok", out.stderr


def test_result_line_shape(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "trace-c2", "--seed", "3", "--seconds", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb", "ok_ratio"}
