import json
from pathlib import Path

import pytest

import chebcm.algebra as algebra
import chebcm.curves as curves
import chebcm.cyclotomic as cyclotomic
import chebcm.report as report
import chebcm.unitgroups as unitgroups
from chebcm.report import (
    CLAIM_REGISTRY,
    VERSION,
    build_batch,
    build_report,
    emit_json,
)


def test_registry_shape():
    assert len(CLAIM_REGISTRY) == 12
    ids = [cid for cid, *_ in CLAIM_REGISTRY]
    assert len(set(ids)) == 12
    assert all(cid == cid.lower() and " " not in cid for cid in ids)


def test_report_d2_all_pass():
    rep = build_report(2)
    assert rep["case"] == 1
    assert rep["ok"] is True
    assert [c["claim"] for c in rep["claims"]] == [cid for cid, *_ in CLAIM_REGISTRY]
    assert all(c["status"] == "pass" for c in rep["claims"])


def test_a_registry_row_is_a_claim(monkeypatch):
    # adding a claim is one check and one row; build_report needs no edit
    row = ("extra-claim", "a claim added by one registry row", lambda d: ("skip", f"not run at d={d}"))
    monkeypatch.setattr(report, "CLAIM_REGISTRY", CLAIM_REGISTRY + (row,))
    rep = build_report(2)
    assert [c["claim"] for c in rep["claims"]] == [cid for cid, *_ in CLAIM_REGISTRY] + ["extra-claim"]
    assert rep["claims"][-1] == {
        "claim": "extra-claim",
        "statement": "a claim added by one registry row",
        "status": "skip",
        "details": "not run at d=2",
    }
    assert rep["ok"] is True


def test_report_d3_skips_only_subfields():
    rep = build_report(3)
    assert rep["case"] == 2
    assert rep["ok"] is True
    statuses = {c["claim"]: c["status"] for c in rep["claims"]}
    assert statuses.pop("subfields-totally-real") == "skip"
    assert set(statuses.values()) == {"pass"}


def test_report_builds_each_curve_once(monkeypatch):
    for make in (curves.make_cd, curves.make_dm, curves.make_xd):
        make.cache_clear()
    built = []
    init = curves.HyperellipticCurve.__init__

    def counting_init(self, f, label=None):
        built.append(label)
        init(self, f, label)

    monkeypatch.setattr(curves.HyperellipticCurve, "__init__", counting_init)
    # squarefree in HyperellipticCurve and good_reduction share one
    # lc(f) disc(f) per model: one PRS each for C_13, D_13 and D_26
    algebra._lc_discriminant.cache_clear()
    assert build_report(13)["ok"] is True
    assert sorted(built) == ["C_13", "D_13", "D_26"]
    assert algebra._lc_discriminant.cache_info().misses == 3


def test_genus_claim_fails_on_a_model_that_is_not_squarefree(monkeypatch):
    curves.make_cd.cache_clear()
    monkeypatch.setattr(curves, "squarefree", lambda f: False)
    statuses = {c["claim"]: c["status"] for c in build_report(2)["claims"]}
    assert statuses["genus-formula"] == "fail"


def test_report_finds_the_eta_minimal_polynomial_once(monkeypatch):
    # built once per n: cm-degree and eta-field-structure both read it
    cyclotomic.eta_minimal_polynomial.cache_clear()
    proofs = []
    rank = cyclotomic._eta_rank_mod
    monkeypatch.setattr(
        cyclotomic, "_eta_rank_mod", lambda n, *a: proofs.append(n) or rank(n, *a)
    )
    assert build_report(13)["ok"] is True
    assert proofs == [26]
    info = cyclotomic.eta_minimal_polynomial.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1


def test_report_builds_each_galois_group_once(monkeypatch):
    # galois-cyclic, subfields-totally-real and cm-type-primitive all read
    # Gal(Q(eta_32)/Q) at d = 8
    unitgroups.galois_group.cache_clear()
    built = []
    init = unitgroups.QuotientGroup.__init__

    def counting_init(self, n, kernel):
        built.append(n)
        init(self, n, kernel)

    monkeypatch.setattr(unitgroups.QuotientGroup, "__init__", counting_init)
    assert build_report(8)["ok"] is True
    assert built == [32]


def test_report_out_of_scope_rejected():
    with pytest.raises(ValueError):
        build_report(6)


def test_report_refuses_d_past_d_max_before_any_claim(monkeypatch):
    # 67 is the least prime past D_MAX; a huge prime d would otherwise
    # build phi_d of degree d in the first claim
    called = []
    monkeypatch.setattr(report, "verify_functional_equation", lambda d: called.append(d))
    with pytest.raises(ValueError, match=f"d must be <= {report.D_MAX}"):
        build_report(67)
    assert called == []


def test_zeta_claim_skips_past_the_cap():
    # C_31 has genus 15, and 3^15 > COUNT_CAP
    rep = build_report(31)
    statuses = {c["claim"]: c["status"] for c in rep["claims"]}
    assert statuses["zeta-consistency"] == "skip"
    assert rep["ok"] is True  # skip is not a failure


def test_failed_flag(monkeypatch):
    # one failing claim body makes the report fail; the others still pass
    monkeypatch.setattr(report, "verify_functional_equation", lambda d: False)
    rep = build_report(2)
    statuses = [c["status"] for c in rep["claims"]]
    assert statuses == ["fail"] + ["pass"] * 11
    assert rep["ok"] is False


def test_emit_json_round_trip():
    rep = build_report(2)
    doc = json.loads(emit_json(rep))
    assert doc == rep
    assert doc["version"] == VERSION
    assert doc["d"] == 2
    assert doc["ok"] is True
    assert len(doc["claims"]) == 12
    assert doc["claims"][0]["claim"] == "functional-equation"
    assert {"claim", "statement", "status", "details"} == set(doc["claims"][0])


def test_batch_family_and_shape():
    doc = build_batch(5)
    assert doc["family"] == [2, 3, 4, 5]
    assert doc["ok"] is True
    assert [r["d"] for r in doc["reports"]] == [2, 3, 4, 5]
    json.loads(emit_json(doc))


def test_batch_empty_family():
    doc = build_batch(1)
    assert doc["family"] == []
    assert doc["ok"] is True


def test_batch_dmax_limit():
    with pytest.raises(ValueError):
        build_batch(65)


def test_reports_match_the_full_golden():
    # the golden holds every in-scope d <= 64; d <= 16 covers both cases
    # and every claim body in well under the full run's time
    golden = json.loads((Path(__file__).parent / "golden" / "report-d64.json").read_text())
    by_d = {rep["d"]: rep for rep in golden["reports"] if rep["d"] <= 16}
    assert sorted(by_d) == [2, 3, 4, 5, 7, 8, 11, 13, 16]
    for d, expected in by_d.items():
        assert build_report(d) == expected, d
