import json

import pytest

from chebcm.cli import main


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


def test_lpoly_bad_reduction(capsys):
    assert main(["lpoly", "--curve", "D", "--d", "3", "--p", "2"]) == 2
    assert "bad reduction" in capsys.readouterr().err


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


def test_remark_rejects_non_prime(capsys):
    assert main(["remark", "--d", "4"]) == 2
    assert "odd prime" in capsys.readouterr().err


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "chebcm" in capsys.readouterr().out
