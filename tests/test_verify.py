from qcalc.verify import SUITES, build_checks, run_suite


def test_suite_names():
    assert SUITES == ("all", "hopf", "dga", "classical", "grassmann",
                      "vector-fields")


def test_all_checks_have_unique_ids_and_suites():
    checks = build_checks("all")
    ids = [c.id for c in checks]
    assert len(ids) == len(set(ids))
    assert len(ids) == 203
    partial = {name: len(build_checks(name)) for name in SUITES if name != "all"}
    assert sum(partial.values()) == 203
    assert partial["grassmann"] == 11


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
