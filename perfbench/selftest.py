"""Quick self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Run from the root of a qcalc checkout.  Checks that metric names are
well formed, that the input stream is a function of the seed, that an
injected wrong output is counted as a failure, and that the tail
percentile leaves ten samples above it.
"""

import copy
import json
import re
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import make_stream, stream_hash  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402
from rounds import compare_report  # noqa: E402
from run import END_TO_END, HERE, WORKLOADS, Runner, Tally, check_cli, tail  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_names():
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == END_TO_END, "BENCHMARK.json end_to_end != run.py"
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == LAYER_METRICS, "BENCHMARK.json per_layer != layers.py"
    for name in list(END_TO_END) + list(LAYER_METRICS):
        assert NAME.fullmatch(name), f"bad metric name {name!r}"
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def check_seeding():
    a = stream_hash(make_stream("nf-mix", 7))
    assert a == stream_hash(make_stream("nf-mix", 7))
    assert a != stream_hash(make_stream("nf-mix", 8))


def check_tail():
    assert tail(list(range(11))) == (0, 100.0 * 1 / 11, 11)
    value, pct, n = tail(list(range(1000)))
    assert (value, n) == (989, 1000) and abs(pct - 99.0) < 1e-9
    assert tail([3, 1, 2])[:2] == (3, 100.0)


def counted(attempted, failures):
    tally = Tally()
    tally.add(attempted, failures)
    return tally.failed, tally.attempted


def check_injected_fault(root):
    """A wrong output must be counted as one failed operation."""
    # nf-mix: one request's result is corrupted inside the worker
    runner = Runner(root, "nf-mix", deadline=perf_counter() + 120)
    job = {"batch": {"requests": [["hq", "a0*a1"], ["dga@2/3", "q*a2*da1"],
                                  ["hq@2/3", "a1*a0*a1 - i*q*a3"]]},
           "check": True}
    clean = runner.worker("round", job)
    assert clean["failed"] == {}, clean["failed"]
    broken = runner.worker("round", dict(job, inject_fault=0))
    assert list(broken["failed"]) == ["0"], broken["failed"]
    assert counted(broken["attempted"], list(broken["failed"].values())) \
        == (1, clean["attempted"])

    # verify-all: one residual of the seed report is changed
    expected = json.loads((HERE / "expected" / "verify_all.json")
                          .read_text(encoding="utf-8"))
    assert compare_report(expected, expected) == ({}, [])
    got = copy.deepcopy(expected)
    got["checks"][5]["residual"] += " + 1"
    wrong, extra = compare_report(got, expected)
    assert list(wrong) == [5] and extra == [], (wrong, extra)
    assert counted(len(expected["checks"]), list(wrong.values())) \
        == (1, len(expected["checks"]))

    # the CLI commands of nf-mix's traced run: the output of a real
    # `python -m qcalc` is changed
    argv = ["check", "a2*a3", "a3*a2"]
    _, code, out = runner.cli_command(argv)
    assert check_cli(root, argv, code, out) is None
    why = check_cli(root, argv, code, out.replace("EQUAL", "NOT EQUAL"))
    assert why is not None
    assert counted(1, [why]) == (1, 1)


def main():
    root = Path.cwd()
    check_names()
    check_seeding()
    check_tail()
    check_injected_fault(root)
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
