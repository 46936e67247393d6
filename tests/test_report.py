import json
import re

import pytest

from qcalc import ENGINE_VERSION, CheckRecord, VerificationReport


def record(id, status="pass", residual="0", ms=3):
    return CheckRecord(id=id, paper_ref="ref", status=status,
                       residual=residual, ms=ms)


def test_status_vocabulary_is_closed():
    with pytest.raises(ValueError, match="unknown status"):
        record("x", status="warn")


def test_record_serialization_key_order():
    obj = record("x", status="finding", residual="q - 1").to_obj()
    assert list(obj) == ["id", "paper_ref", "status", "residual",
                         "corrections", "ms"]
    assert obj["residual"] == "q - 1"


def test_reports_sort_checks_and_reject_duplicates():
    rep = VerificationReport("s", [record("b"), record("a")])
    assert [c.id for c in rep.checks] == ["a", "b"]
    with pytest.raises(ValueError, match="duplicate check ids"):
        VerificationReport("s", [record("a"), record("a")])


def test_counts_and_failed_flag():
    rep = VerificationReport("s", [
        record("a"), record("b", status="finding", residual="q"),
        record("c")])
    assert rep.counts() == {"pass": 2, "fail": 0, "finding": 1}
    assert not rep.failed
    bad = VerificationReport("s", [record("a", status="fail", residual="q")])
    assert bad.failed


def test_volatile_fields_are_scrubbed_for_comparison():
    first = VerificationReport("s", [record("a", ms=17)])
    second = VerificationReport("s", [record("a", ms=4)])
    assert first.to_json(volatile=False) == second.to_json(volatile=False)
    assert first.to_obj(volatile=False)["generated_at"] == ""
    assert first.to_obj(volatile=False)["checks"][0]["ms"] == 0
    # the live form keeps them
    assert first.to_obj()["checks"][0]["ms"] == 17
    assert first.to_obj()["generated_at"]


def test_report_schema_and_round_trip():
    rep = VerificationReport("s", [record("a"), record("b", status="finding",
                                                       residual="q^2")])
    obj = json.loads(rep.to_json())
    assert set(obj) == {"suite", "engine_version", "generated_at", "checks"}
    assert obj["engine_version"] == ENGINE_VERSION
    back = VerificationReport.from_obj(obj)
    assert back.to_json() == rep.to_json()


def test_scrubbed_report_round_trip_keeps_its_empty_timestamp():
    scrubbed = VerificationReport("s", [record("a")]).to_obj(volatile=False)
    assert VerificationReport.from_obj(scrubbed).to_obj()["generated_at"] == ""


def test_fresh_timestamp_is_utc_to_the_second():
    stamp = VerificationReport("s", [record("a")]).generated_at
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)


def test_records_take_keywords_and_compare_field_wise():
    rec = CheckRecord(id="a", paper_ref="ref", status="pass", residual="0",
                      corrections=("x",), ms=3)
    assert rec == CheckRecord("a", "ref", "pass", "0", ("x",), 3)
    assert rec != CheckRecord("a", "ref", "pass", "0", ("x",), 4)
    assert repr(rec) == ("CheckRecord(id='a', paper_ref='ref', status='pass', "
                         "residual='0', corrections=('x',), ms=3)")
    rep = VerificationReport(suite="s", checks=[rec], engine_version="e",
                             generated_at="t")
    assert rep == VerificationReport("s", [rec], "e", "t")
    assert rep != VerificationReport("s", [rec], "e", "u")
    assert rep != VerificationReport("s", [record("a")], "e", "t")
    assert VerificationReport("s").checks == []


def test_render_table_summarizes():
    rep = VerificationReport("s", [
        record("a"), record("b", status="finding", residual="x" * 200)])
    table = rep.render_table()
    assert "2 checks: 1 pass, 0 fail, 1 findings" in table
    assert "..." in table
