"""The timed batches and their correctness oracles, run inside worker.py.

Loaded only after set-up has been timed.  run_round() runs one batch of
nf-mix or verify-all on a context that worker.setup() built; cli_main()
runs one in-process `qcalc` command.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
from fractions import Fraction
from time import perf_counter

from layers import SUITES

EXPECTED_VERIFY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "expected", "verify_all.json")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Per-request latencies, outputs and failures of one round."""

    def __init__(self, n):
        self.latency_s = [0.0] * n
        self.output = [""] * n
        self.failed = {}

    def fail(self, i, why):
        self.failed.setdefault(i, why)


def timed(outcome, i, fn, *args):
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed request is counted, not fatal
        outcome.latency_s[i] = perf_counter() - start
        outcome.fail(i, f"{type(exc).__name__}: {exc}")
        return None
    outcome.latency_s[i] = perf_counter() - start
    return result


# -- nf-mix -----------------------------------------------------------------


def nf_request(qcalc, pres, q0, text):
    """parse -> normal_form -> render_poly, as `qcalc nf [--at-q q0]` does."""
    p = qcalc.parse(text, pres)
    if q0 is not None:
        p = qcalc.NCPoly(dict(p.eval_at(Fraction(q0)).terms), pres.name)
    nf = pres.normal_form(p)
    return nf, qcalc.render_poly(nf, pres)


def run_nf_mix(ctx, batch, per_suite=False):
    qcalc, universes = ctx["qcalc"], ctx["universes"]
    requests = batch["requests"]
    outcome = Outcome(len(requests))
    results = [None] * len(requests)
    start = perf_counter()
    for i, (label, text) in enumerate(requests):
        pres, q0 = universes[label]
        results[i] = timed(outcome, i, nf_request, qcalc, pres, q0, text)
    wall = perf_counter() - start
    for i, r in enumerate(results):
        if r is not None:
            outcome.output[i] = r[1]
    return outcome, wall, results


def check_nf_mix(ctx, batch, outcome, results):
    """Oracles: normality, render/parse round trip, agreement across q0."""
    first = {}
    for i, (label, text) in enumerate(batch["requests"]):
        if results[i] is None:
            continue
        key = (label, text)
        if key in first:
            if results[i][1] != first[key]:
                outcome.fail(i, "repeat request gave another result")
            continue
        first[key] = results[i][1]
        try:
            check_nf_request(ctx, outcome, i, label, text, *results[i])
        except Exception as exc:  # the oracle's own reduction gave up
            outcome.fail(i, f"oracle raised {type(exc).__name__}: {exc}")
    return []


def check_nf_request(ctx, outcome, i, label, text, nf, rendered):
    qcalc, universes = ctx["qcalc"], ctx["universes"]
    pres, q0 = universes[label]
    if not pres.is_normal(nf):
        outcome.fail(i, "result is not in normal form")
    # the parser is slow on long results, so the round trip is sampled
    if i % 8 == 0 and qcalc.parse(rendered, pres) != nf:
        outcome.fail(i, "rendered result does not parse back to itself")
    base = label.split("@")[0]
    if base not in ("hq", "dga"):
        return
    generic = universes[base][0]
    if q0 is not None:
        ref = generic.normal_form(qcalc.parse(text, generic))
        if ref.eval_at(Fraction(q0)).terms != nf.terms:
            outcome.fail(i, f"generic normal form at q={q0} disagrees")
        return
    for at in ("2", "2/3"):
        special = universes[f"{base}@{at}"][0]
        p = qcalc.parse(text, special).eval_at(Fraction(at))
        got = special.normal_form(qcalc.NCPoly(dict(p.terms), special.name))
        if got.terms != nf.eval_at(Fraction(at)).terms:
            outcome.fail(i, f"specialized normal form at q={at} disagrees")


def corrupt(qcalc, results, i):
    """Make nf-mix request i's result wrong, to show the oracles count it."""
    nf, rendered = results[i]
    results[i] = (nf + qcalc.NCPoly.scalar(1, nf.universe), rendered)


# -- verify-all -------------------------------------------------------------


def run_verify_all(ctx, batch, per_suite=False):
    """One `verify all`: run_suite("all"), or each suite in turn.

    The per-suite form, used by both halves of the traced run, runs
    serially (jobs=1) so that traced counts repeat exactly; its
    per-suite times are returned in the third value.
    """
    qcalc = ctx["qcalc"]
    suites = {}
    start = perf_counter()
    if not per_suite:
        records = qcalc.run_suite("all").checks
    else:
        records = []
        for name in SUITES:
            t = perf_counter()
            part = qcalc.run_suite(name, jobs=1)
            part.to_json()
            part.render_table()
            suites[name] = perf_counter() - t
            records.extend(part.checks)
    wall = perf_counter() - start
    report = qcalc.VerificationReport(suite="all", checks=records)
    with open(EXPECTED_VERIFY, encoding="utf-8") as f:
        expected = json.load(f)
    # one request per check; run.py takes latency from the whole run
    outcome = Outcome(len(expected["checks"]))
    return outcome, wall, (report, expected, suites)


def compare_report(obj, expected):
    """Differences of a report from the seed report, check by check.

    obj and expected are `to_obj(volatile=False)` reports.  Every field
    but the timing counts (status, residual, paper_ref, corrections);
    the suite header must match too.  Returns ({index into expected
    checks: reason}, [reasons not tied to an expected check]).
    """
    got = {c["id"]: c for c in obj["checks"]}
    wrong = {}
    for i, want in enumerate(expected["checks"]):
        c = got.pop(want["id"], None)
        if c is None:
            wrong[i] = f"{want['id']}: missing from the report"
        elif c != want:
            wrong[i] = f"{want['id']}: {c['status']} {c['residual'][:60]}"
    extra = [f"{check_id}: not in the seed report" for check_id in sorted(got)]
    header = {k: v for k, v in obj.items() if k != "checks"}
    want_header = {k: v for k, v in expected.items() if k != "checks"}
    if header != want_header:
        extra.append(f"report header differs: {header}")
    return wrong, extra


def check_verify_all(ctx, batch, outcome, run):
    report, expected, _ = run
    wrong, extra = compare_report(report.to_obj(volatile=False), expected)
    for i, want in enumerate(expected["checks"]):
        if i in wrong:
            outcome.fail(i, wrong[i])
        else:
            outcome.output[i] = want["status"]
    return extra


# -- cli, in process ----------------------------------------------------------


def cli_main(cli, import_s, argv):
    """qcalc.cli.main(argv) with stdout captured, after a timed import."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    main_s = perf_counter() - start
    return {"import_s": import_s, "main_s": main_s, "exit": code,
            "stdout": out.getvalue()}


# -- entry ------------------------------------------------------------------


WORKLOADS = {
    "verify-all": (run_verify_all, check_verify_all),
    "nf-mix": (run_nf_mix, check_nf_mix),
}


def run_round(workload, job, ctx, setup_s, tracer):
    """The timed batch of job, then (if job["check"]) its oracles."""
    batch = job["batch"]
    runner, checker = WORKLOADS[workload]
    outcome, wall, run = runner(ctx, batch, per_suite=job.get("per_suite", False))
    rss = peak_rss_mb()
    layers = tracer.metrics() if tracer else None
    if job.get("inject_fault") is not None:
        corrupt(ctx["qcalc"], run, job["inject_fault"])
    # failures not tied to one request, such as a report header that
    # differs, are counted as extra attempted operations
    extra = checker(ctx, batch, outcome, run) if job["check"] else []
    n = len(outcome.latency_s)
    for k, why in enumerate(extra):
        outcome.fail(n + k, why)
    result = {
        "setup_s": setup_s, "wall_s": wall, "peak_rss_mb": rss,
        "attempted": n + len(extra), "latency_s": outcome.latency_s,
        "outputs": [digest(o) for o in outcome.output],
        "failed": {str(i): why for i, why in sorted(outcome.failed.items())},
    }
    if layers:
        result["layers"] = layers
    if workload == "verify-all":
        report = run[0]
        result["report_sha256"] = hashlib.sha256(
            report.to_json(volatile=False).encode()).hexdigest()
        result["counts"] = report.counts()
        result["suites"] = run[2]
    return result
