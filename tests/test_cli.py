import json
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest

from chebcm import __version__, cli
from chebcm.cli import main
from chebcm.zeta import COUNT_CAP, BadReductionError


def test_verify_in_scope_passes(capsys):
    assert main(["verify", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "result: all claims passed" in out
    assert out.count("[PASS]") == 12


def test_verify_case2_table_shows_skip(capsys):
    assert main(["verify", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 11
    assert out.count("[skip]") == 1


def test_verify_out_of_scope_messages(capsys):
    assert main(["verify", "--d", "6"]) == 2
    assert "phi(24) = 8" in capsys.readouterr().err
    assert main(["verify", "--d", "9"]) == 2
    assert "phi(9) = 6" in capsys.readouterr().err
    assert main(["verify", "--d", "1"]) == 2
    assert "d >= 2" in capsys.readouterr().err
    # refused before any work: Phi_(2d) alone would build x^(2d) - 1
    for d in (128, 257):
        assert main(["verify", "--d", str(d)]) == 2
        assert "d <= 64" in capsys.readouterr().err


def test_verify_json(capsys):
    assert main(["verify", "--d", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 4 and doc["case"] == 1 and doc["ok"] is True
    assert len(doc["claims"]) == 12


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "d2.json"
    assert main(["verify", "--d", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["d"] == 2 and doc["ok"] is True


def test_lpoly_table(capsys):
    assert main(["lpoly", "--curve", "C", "--d", "2", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "N_1 = 2" in out
    assert "1 - 2*T + 3*T^2" in out
    assert "irreducible over Q: True" in out


def test_lpoly_json(capsys):
    assert main(["lpoly", "--curve", "C", "--d", "5", "--p", "11", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curve"] == "C_5"
    assert doc["L"] == ["1", "-4", "6", "-44", "121"]
    assert [row["N"] for row in doc["counts"]] == [doc["counts"][0]["N"], doc["counts"][1]["N"]]
    assert doc["irreducible"] is True


def test_lpoly_out_file_without_json(tmp_path, capsys):
    # --out writes the JSON document whether or not --json prints it
    path = tmp_path / "l.json"
    assert main(["lpoly", "--curve", "C", "--d", "3", "--p", "5", "--out", str(path)]) == 0
    assert "irreducible over Q" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert doc["curve"] == "C_3" and doc["p"] == 5
    assert len(doc["L"]) == 3


def test_lpoly_bad_reduction(capsys):
    assert main(["lpoly", "--curve", "D", "--d", "3", "--p", "2"]) == 2
    assert "bad reduction" in capsys.readouterr().err


def test_lpoly_rejects_non_prime_p(capsys, monkeypatch):
    # refused before any curve is built: 9, -7 and 1 have no reduction
    def no_curve(*args, **kwargs):
        raise AssertionError("curve built")

    monkeypatch.setattr(cli, "_make_curve", no_curve)
    for p in ("9", "-7", "1"):
        assert main(["lpoly", "--curve", "D", "--d", "3", "--p", p]) == 2
        captured = capsys.readouterr()
        assert f"p must be prime, got {p}" in captured.err
        assert "bad reduction" not in captured.err
        assert captured.out == ""


def test_lpoly_refuses_a_huge_p_before_the_primality_test(capsys, monkeypatch):
    # 2^89 - 1 is prime and 2^89 + 1 is divisible by 3: both are above
    # the cap, and neither reaches is_prime, which would refuse 2^89 - 1
    # with a ValueError
    def no_primality_test(n):
        raise AssertionError("primality tested")

    monkeypatch.setattr(cli, "is_prime", no_primality_test)
    for p in (2**89 - 1, 2**89 + 1):
        assert main(["lpoly", "--curve", "C", "--d", "2", "--p", str(p)]) == 2
        captured = capsys.readouterr()
        # longer than 64 bits, so p is named by its bit length
        assert f"field size ({p.bit_length()}-bit p) exceeds cap" in captured.err
        assert captured.out == ""


def test_lpoly_unbuildable_curve(capsys):
    assert main(["lpoly", "--curve", "X", "--d", "3", "--p", "5"]) == 2
    assert "cannot build X_3" in capsys.readouterr().err


def test_lpoly_cap(capsys, monkeypatch):
    # 17^6 is above the cap: refused before any point is counted
    def no_counting(*args, **kwargs):
        raise AssertionError("counted before the cap check")

    monkeypatch.setattr("chebcm.zeta.count_points", no_counting)
    assert main(["lpoly", "--curve", "D", "--d", "14", "--p", "17"]) == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "curve, d",
    [
        ("D", "3317044064679887385961983"),  # built x^m + 1 and overflowed
        ("D", "100001"),  # wrote out 5^50000, past int-to-str's digit limit
        ("C", "5000"),  # built Phi_5000's (x + 2) phi_d before the cap check
        ("X", "2000"),  # refused, but printed 5^2000 in full
    ],
)
def test_lpoly_refuses_a_huge_genus_before_building_the_curve(curve, d):
    # the genus follows from --curve and --d, so p^g is refused first; a
    # subprocess, as building the curve would not end in time
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "chebcm.cli", "lpoly", "--curve", curve, "--d", d, "--p", "5"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 2, out.stderr[-500:]
    assert "exceeds cap" in out.stderr
    assert len(out.stderr.encode()) < 1024
    assert out.stdout == ""


_LONG = "9" * 4002  # below int()'s 4300-digit limit, so argparse takes it


@pytest.mark.parametrize(
    "argv",
    [
        ["lpoly", "--curve", "C", "--d", "2", "--p", _LONG],
        ["lpoly", "--curve", "C", "--d", "2", "--p", "-" + _LONG],
        ["lpoly", "--curve", "C", "--d", _LONG, "--p", "5"],
        ["lpoly", "--curve", "C", "--d", "-" + _LONG, "--p", "5"],
        ["verify", "--d", _LONG],
        ["verify", "--d", "-" + _LONG],
        ["remark", "--d", _LONG],
        ["remark", "--d", "3", "--pmax", "-" + _LONG],
    ],
    ids=[
        "lpoly-p", "lpoly-neg-p", "lpoly-d", "lpoly-neg-d",
        "verify-d", "verify-neg-d", "remark-d", "remark-neg-pmax",
    ],
)
def test_refusals_name_a_long_number_by_its_bit_length(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "(13295-bit " in captured.err
    assert len(captured.err.encode()) < 1024
    assert captured.out == ""


def test_remark_table(capsys):
    assert main(["remark", "--d", "3", "--pmax", "13"]) == 0
    out = capsys.readouterr().out
    assert "q=  3  skip  bad reduction" in out
    assert "q=  5  ok" in out
    assert "q=  7  ok" in out


def test_remark_json(capsys):
    assert main(["remark", "--d", "3", "--pmax", "7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    statuses = {row["q"]: row["status"] for row in doc["rows"]}
    assert statuses == {3: "skip", 5: "ok", 7: "ok"}


def test_remark_out_file_without_json(tmp_path, capsys):
    path = tmp_path / "remark.json"
    assert main(["remark", "--d", "3", "--pmax", "7", "--out", str(path)]) == 0
    assert "q=  5  ok" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert {row["q"]: row["status"] for row in doc["rows"]} == {3: "skip", 5: "ok", 7: "ok"}


def test_remark_rejects_non_prime(capsys):
    # 67 is prime but past D_MAX; 2^89 - 1 is past is_prime's range too
    for d in (4, 67, 2**89 - 1):
        assert main(["remark", "--d", str(d)]) == 2
        assert "odd prime d <= 64" in capsys.readouterr().err


def test_remark_rejects_pmax_below_three(capsys, monkeypatch):
    # no odd prime q <= pmax: refused before any curve is counted
    def no_work(*args, **kwargs):
        raise AssertionError("remark_lpolys called")

    monkeypatch.setattr(cli, "remark_lpolys", no_work)
    for pmax in ("2", "0", "-5"):
        assert main(["remark", "--d", "3", "--pmax", pmax]) == 2
        captured = capsys.readouterr()
        assert "pmax must be >= 3" in captured.err
        assert captured.out == ""


def test_remark_refuses_pmax_past_the_cap(capsys, monkeypatch):
    # D_2d has genus d - 1 >= 2, so every q > isqrt(COUNT_CAP) = 3162 is
    # refused on the cap: such a pmax is refused before any count, and a
    # huge one before is_prime runs on every integer below it
    def no_work(*args, **kwargs):
        raise AssertionError("remark_lpolys called")

    monkeypatch.setattr(cli, "remark_lpolys", no_work)
    assert isqrt(COUNT_CAP) == 3162
    for pmax in ("3163", "100000", str(10**12)):
        assert main(["remark", "--d", "3", "--pmax", pmax]) == 2
        captured = capsys.readouterr()
        assert "pmax must be <= 3162" in captured.err and f"exceeds cap {COUNT_CAP}" in captured.err
        assert captured.out == ""

    def bad_reduction(d, q):
        raise BadReductionError("bad reduction")

    monkeypatch.setattr(cli, "remark_lpolys", bad_reduction)
    assert main(["remark", "--d", "3", "--pmax", "3162", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][-1]["q"] == 3137


def test_report_warning_on_empty_family(capsys):
    assert main(["report", "--dmax", "1"]) == 0
    captured = capsys.readouterr()
    assert "no d in scope" in captured.err
    assert json.loads(captured.out)["family"] == []


def test_report_writes_file(tmp_path, capsys):
    path = tmp_path / "batch.json"
    assert main(["report", "--dmax", "5", "--out", str(path)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {path}" in captured.out
    doc = json.loads(path.read_text())
    assert doc["family"] == [2, 3, 4, 5]
    assert "d=5:" in captured.err
    # with --json as well, stdout is the document alone
    assert main(["report", "--dmax", "2", "--json", "--out", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(path.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--d", "2"],
        ["lpoly", "--curve", "C", "--d", "2", "--p", "5"],
        ["remark", "--d", "3", "--pmax", "7"],
        ["report", "--dmax", "64"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_refused_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def no_work(*args):
        raise AssertionError("work done before --out was opened")

    for name in ("build_report", "build_batch", "l_polynomial", "remark_lpolys"):
        monkeypatch.setattr(cli, name, no_work)
    bad = tmp_path / "missing" / "x.json"
    assert main(argv + ["--out", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and len(err.encode()) < 1024
    assert not bad.parent.exists()


def test_report_dmax_limit(capsys):
    assert main(["report", "--dmax", "65"]) == 2
    assert "dmax must be <= 64" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing --d
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["report", "--dmax", "2", "--threads", "2"])  # removed option
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"chebcm {__version__}"
    # the batch document and each per-d report carry the same version
    assert main(["report", "--dmax", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == __version__
    assert [r["version"] for r in doc["reports"]] == [__version__]
