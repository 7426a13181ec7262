import json

import pytest

import chebcm.algebra as algebra
import chebcm.curves as curves
import chebcm.cyclotomic as cyclotomic
from chebcm.report import (
    CLAIM_REGISTRY,
    ClaimResult,
    VerificationReport,
    VERSION,
    _json_safe,
    build_batch,
    build_report,
    emit_json,
)


def test_registry_shape():
    assert len(CLAIM_REGISTRY) == 12
    ids = [cid for cid, _ in CLAIM_REGISTRY]
    assert len(set(ids)) == 12
    assert all(cid == cid.lower() and " " not in cid for cid in ids)


def test_report_d2_all_pass():
    rep = build_report(2)
    assert rep.case == 1
    assert not rep.failed
    assert [c.claim_id for c in rep.claims] == [cid for cid, _ in CLAIM_REGISTRY]
    assert all(c.status == "pass" for c in rep.claims)


def test_report_d3_skips_only_subfields():
    rep = build_report(3)
    assert rep.case == 2
    assert not rep.failed
    statuses = {c.claim_id: c.status for c in rep.claims}
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
    assert not build_report(13).failed
    assert sorted(built) == ["C_13", "D_13", "D_26"]
    assert algebra._lc_discriminant.cache_info().misses == 3


def test_genus_claim_fails_on_a_model_that_is_not_squarefree(monkeypatch):
    curves.make_cd.cache_clear()
    monkeypatch.setattr(curves, "squarefree", lambda f: False)
    statuses = {c.claim_id: c.status for c in build_report(2).claims}
    assert statuses["genus-formula"] == "fail"


def test_report_finds_the_eta_minimal_polynomial_once(monkeypatch):
    # built once per n: cm-degree and eta-field-structure both read it
    cyclotomic.eta_minimal_polynomial.cache_clear()
    proofs = []
    rank = cyclotomic._eta_rank_mod
    monkeypatch.setattr(
        cyclotomic, "_eta_rank_mod", lambda n, *a: proofs.append(n) or rank(n, *a)
    )
    assert not build_report(13).failed
    assert proofs == [26]
    info = cyclotomic.eta_minimal_polynomial.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1


def test_report_out_of_scope_rejected():
    with pytest.raises(ValueError):
        build_report(6)


def test_zeta_claim_skips_past_the_cap():
    # C_31 has genus 15, and 3^15 > COUNT_CAP
    rep = build_report(31)
    statuses = {c.claim_id: c.status for c in rep.claims}
    assert statuses["zeta-consistency"] == "skip"
    assert not rep.failed  # skip is not a failure


def test_failed_flag():
    rep = VerificationReport(VERSION, 2, 1)
    rep.claims.append(ClaimResult("a", "s", "pass", ""))
    assert not rep.failed
    rep.claims.append(ClaimResult("b", "s", "fail", "boom"))
    assert rep.failed
    assert rep.to_dict()["ok"] is False


def test_json_safe_stringifies_only_big_ints():
    doc = {
        "big": 2**70,
        "neg": -(2**70),
        "small": 2**62,
        "flag": True,
        "nested": [2**80, {"x": 3}],
    }
    safe = _json_safe(doc)
    assert safe["big"] == str(2**70)
    assert safe["neg"] == str(-(2**70))
    assert safe["small"] == 2**62
    assert safe["flag"] is True
    assert safe["nested"][0] == str(2**80)
    assert safe["nested"][1] == {"x": 3}


def test_emit_json_round_trip():
    rep = build_report(2)
    doc = json.loads(emit_json(rep.to_dict()))
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
