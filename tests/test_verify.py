import json
from pathlib import Path

import pytest

from qcalc.verify import SUITES, run_suite

ORACLE = (Path(__file__).resolve().parents[1]
          / "perfbench" / "expected" / "verify_all.json")


def test_suite_names():
    assert SUITES == ("all", "hopf", "dga", "classical", "grassmann",
                      "vector-fields")


def test_all_checks_have_unique_ids_and_suites():
    reports = {name: run_suite(name) for name in SUITES if name != "all"}
    assert {name: len(r.checks) for name, r in reports.items()} == {
        "dga": 114, "hopf": 55, "classical": 11, "grassmann": 11,
        "vector-fields": 12}
    joined = sorted(c.id for r in reports.values() for c in r.checks)
    assert len(joined) == len(set(joined)) == 203
    assert joined == [c.id for c in run_suite("all").checks]
    oracle = json.loads(ORACLE.read_text())
    assert joined == [c["id"] for c in oracle["checks"]]


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="bogus") as exc:
        run_suite("bogus")
    assert str(SUITES) in str(exc.value)


def test_grassmann_suite_statuses_are_frozen():
    report = run_suite("grassmann")
    assert report.counts() == {"pass": 10, "fail": 0, "finding": 1}
    assert not report.failed
    by_id = {c.id: c for c in report.checks}
    flagged = by_id["grassmann.crosscheck.squares.common-coefficient"]
    assert flagged.status == "finding"
    assert flagged.residual != "0"
    assert by_id["confluence.grassmann"].status == "pass"


def test_suite_output_is_deterministic_across_runs():
    first = run_suite("grassmann").to_json(volatile=False)
    second = run_suite("grassmann").to_json(volatile=False)
    assert first == second


def test_full_suite_executes_and_renders_every_check():
    # runs every check end to end, including the ones whose residuals live
    # in working universes outside the catalog
    report = run_suite("all")
    assert report.counts() == {"pass": 184, "fail": 0, "finding": 19}
    assert not report.failed
    assert all(isinstance(c.residual, str) for c in report.checks)
    # the report must stay byte-identical to the benchmark's verify oracle
    assert report.to_json(volatile=False) == ORACLE.read_text()
