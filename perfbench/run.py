"""The qcalc benchmark: one command, closed-loop workloads.

    python3 perfbench/run.py --workload nf-mix --seed 1 --seconds 15 --trace 0

Run from the root of a qcalc checkout.  Each workload is one client in
a closed loop: the next request goes out when the previous one is done.
A run executes rounds, each round one batch of the workload's seeded
input stream in a fresh process (so caches start cold, as in a user's
process), until every batch has run REPS times and --seconds have
passed.  The figures come from the first REPS rounds of each batch.
Outputs are checked against oracles that do not come from the code
under test.

--trace 0 prints the end-to-end metrics.  --trace 1 runs batch 0
untraced and with per-layer spans, TRACE_REPS times each, and prints
the per-layer metrics and the tracing overhead; nf-mix's traced run
also times the README's `qcalc` commands as the CLI layer.  It ignores
--seconds.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics (name -> value and unit).  See NOTES.md
for the choice of workloads, their sizes and the known cost cliffs.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import make_stream, stream_hash  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402
from layers import SUITES  # noqa: E402

WORKLOADS = ("verify-all", "nf-mix")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Repetitions of each batch that a run's figures are taken from.  The
# count is fixed, so that a faster program is not also measured on more
# repetitions (the least over more of them reads lower).  Rounds run
# after these only to fill --seconds are checked but not counted.
REPS = {"verify-all": 4, "nf-mix": 8}
SETUP_SAMPLES = 9
# Untraced and traced repetitions of batch 0 in a --trace 1 run, and
# of each CLI command in nf-mix's.
TRACE_REPS = {"verify-all": 1, "nf-mix": 3}
# A run starts no round that would not end within this many seconds;
# if a slow program leaves time for fewer rounds, the figures come from
# the rounds done (at least one per batch) and the run says so.
LIMIT_S = 165

# The README's `qcalc` commands, which nf-mix's traced run times as the
# CLI layer, with their README-derived expected results: (exit code,
# exact stdout).  dump-presentation must reproduce the shipped
# presentations/hq.json.
CLI_EXPECTED = {
    ("nf", "a0*a1"): (0, "-(1/2)*i*q*a3^2 + (1/2)*i*q^-1*a3^2 - (1/2)*i*q*a2^2"
                         " + (1/2)*i*q^-1*a2^2 + a1*a0\n"),
    ("nf", "--at-q", "2", "a0*a1"): (0, "-(3/4)*i*a3^2 - (3/4)*i*a2^2 + a1*a0\n"),
    ("check", "a2*a3", "a3*a2"): (0, "EQUAL\n"),
    ("apply", "d", "--algebra", "dga", "a0*a2"): (
        0, "q*da2*a0 + (1/2)*i*q^2*da1*a2 - (1/2)*i*da1*a2 + (1/2)*q^2*da0*a2"
           " + (1/2)*da0*a2\n"),
    ("apply", "coproduct", "a3"): (0, "a3 (x) a0 - a2 (x) a1 + a1 (x) a2"
                                      " + a0 (x) a3\n"),
    ("apply", "star", "--algebra", "cartan_maurer", "w0"): (
        0, "-i*w1 + i*q^-2*w1 + q^-2*w0\n"),
    # S(a1) = -a1 * N^-1, by hand from the antipode images
    ("apply", "antipode", "a1"): (0, "-a1*n_inv\n"),
    ("dump-presentation", "hq"): (0, None),
    ("load-presentation", "presentations/dga.json"): (
        0, "loaded 'dga': 8 generators, 32 rules, 0 failing overlaps\n"),
    ("load-presentation", "presentations/dga_literal.json"): (
        1, "loaded 'dga_literal': 8 generators, 32 rules, 64 failing overlaps\n"),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class OutOfTime(BenchError):
    """A round would not end before the run's time limit."""


class Runner:
    def __init__(self, root, workload, deadline):
        self.root = root
        self.workload = workload
        self.deadline = deadline
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
            if env.get("PYTHONPATH") else src
        # fixed hash seed: set and dict orders, hence cache traffic and
        # the traced counts, repeat from run to run
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def left(self):
        return self.deadline - perf_counter()

    def _timeout(self):
        left = self.left()
        if left <= 0:
            raise OutOfTime("run exceeded its time limit")
        return left

    def worker(self, phase, job, trace=False):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), phase, self.workload,
                 "1" if trace else "0"],
                input=json.dumps(job), capture_output=True, text=True,
                cwd=self.root, env=self.env, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            raise OutOfTime("run exceeded its time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def cli_command(self, argv):
        """One `python -m qcalc argv` process: (seconds, exit code, output)."""
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qcalc", *argv], stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, cwd=self.root, env=self.env,
                timeout=self._timeout())
        except subprocess.TimeoutExpired:
            raise OutOfTime("run exceeded its time limit") from None
        return perf_counter() - start, proc.returncode, proc.stdout.decode()


def check_cli(root, argv, code, out):
    want_code, want_out = CLI_EXPECTED[tuple(argv)]
    if want_out is None:
        want_out = (root / "presentations" / "hq.json").read_text(encoding="utf-8")
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if out != want_out:
        return f"unexpected output {out[:80]!r}"
    return None


def tail(samples):
    """Highest percentile leaving at least ten samples above it.

    Returns (value, percentile, sample count); with ten samples or fewer
    the tail is the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Tally:
    """Attempted and failed requests of a run, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(failures[:5 - len(self.reasons)])


def run_rounds(runner, stream, seconds, tally):
    """Closed loop over the stream, with set-up samples between rounds.

    Returns (rounds, set-up times, whether the time limit cut the run
    short).  Round r runs batch r mod len(stream).
    """
    planned = REPS[runner.workload] * len(stream)
    rounds, setups, first_outputs = [], [], {}
    start = perf_counter()
    longest = 0.0
    while len(rounds) < planned or perf_counter() - start < seconds:
        if len(rounds) >= len(stream) and runner.left() < 1.2 * longest:
            break
        b = len(rounds) % len(stream)
        t = perf_counter()
        try:
            rounds.append(one_round(runner, stream[b], b, first_outputs, tally))
            longest = max(longest, perf_counter() - t)
            if len(rounds) <= planned:
                # set-up samples spread over the counted rounds: each
                # round's own set-up, then set-up-only processes
                setups.append(rounds[-1]["setup_s"])
                while len(setups) < SETUP_SAMPLES * len(rounds) / planned:
                    setups.append(runner.worker("setup", {})["setup_s"])
        except OutOfTime:
            if len(rounds) < len(stream):
                raise
            break
    return rounds, setups, len(rounds) < planned


def one_round(runner, batch, b, first_outputs, tally):
    """One round of batch b.  A batch is checked by the oracles the first
    time it runs; later rounds must reproduce its outputs exactly."""
    rec = runner.worker("round", {
        "batch": batch,
        "check": b not in first_outputs or runner.workload == "verify-all"})
    failures = list(rec["failed"].values())
    if b in first_outputs:
        failures += [f"request {i}: result differs from an earlier round"
                     for i, (x, y) in enumerate(zip(rec["outputs"],
                                                    first_outputs[b]))
                     if x != y and str(i) not in rec["failed"]]
    else:
        first_outputs[b] = rec["outputs"]
    tally.add(rec["attempted"], failures)
    return rec


def end_to_end(runner, stream, seconds, tally):
    """Figures from the first REPS rounds of each batch.

    Other tenants of a shared machine slow the CPU by up to a half for
    stretches of seconds, so a request's latency is the least over its
    repetitions, which run at different times in different processes,
    and a batch's wall time is the sum of its requests' latencies.
    verify-all is one request: its 203 checks share lazily computed
    stages, so per-check times are not independent.
    """
    rounds, setups, cut = run_rounds(runner, stream, seconds, tally)
    counted = rounds[:REPS[runner.workload] * len(stream)]
    by_batch = [counted[b::len(stream)] for b in range(len(stream))]
    if runner.workload == "verify-all":
        best = [[min(r["wall_s"] for r in reps)] for reps in by_batch]
    else:
        best = [[min(x) for x in zip(*(r["latency_s"] for r in reps))]
                for reps in by_batch]
    walls = [sum(latencies) for latencies in best]
    completed = sum(reps[0]["attempted"] - max(len(r["failed"]) for r in reps)
                    for reps in by_batch)
    if runner.workload == "nf-mix":
        # half the requests are hot repeats that find their words in the
        # normal-form cache; a median over both would move with the
        # cache's share as much as with the cold path
        p50 = statistics.median(
            statistics.median(latencies[i] for i in batch["fresh"])
            for batch, latencies in zip(stream, best))
        p50_note = (f"latency p50 is the median over {len(best)} batches of "
                    "the p50 of fresh requests")
    else:
        p50 = best[0][0]
        p50_note = "latency p50 and tail are those of the one request"
    if all(len(latencies) > 10 for latencies in best):
        # The tail of everything pooled would sit at a percentile that
        # moves with the stream's length; take it per batch, then the median.
        tails = [tail(latencies) for latencies in best]
        tail_value = statistics.median(t[0] for t in tails)
        tail_note = (f"latency tail is the median over {len(tails)} batches of "
                     f"p{tails[0][1]:.2f} of {tails[0][2]} samples")
    else:
        tail_value, pct, n = tail([x for latencies in best for x in latencies])
        tail_note = f"latency tail is p{pct:.2f} of {n} samples"
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "ops_per_s": completed / sum(walls),
        "latency_p50_ms": 1000.0 * p50,
        "latency_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in counted),
    }
    notes = [f"rounds {len(rounds)} over {len(stream)} batches, "
             f"{len(counted)} counted, set-up samples {len(setups)}",
             p50_note, tail_note,
             f"error_rate {tally.failed}/{tally.attempted}"
             f" = {tally.failed / tally.attempted:.6f}"]
    if cut:
        notes.append(f"CUT SHORT by the {LIMIT_S} s limit: "
                     f"{len(counted)} of {REPS[runner.workload] * len(stream)}"
                     " planned rounds counted")
    if runner.workload == "verify-all":
        notes.append("report sha256 " + ", ".join(
            sorted({r["report_sha256"][:12] for r in rounds})))
    return metrics, notes


def traced(runner, stream, tally):
    """Batch 0 untraced and traced, TRACE_REPS times each, alternating.

    Per-layer metrics come from the fastest traced repetition; the
    overhead is the least traced time minus the least untraced one.
    nf-mix's traced run also times the CLI layer.
    """
    metrics = {name: 0 for name in LAYER_METRICS}
    reps = TRACE_REPS[runner.workload]
    job = {"batch": stream[0], "check": True, "per_suite": True}
    plain, layered = [], []
    for _ in range(reps):
        plain.append(runner.worker("round", job))
        layered.append(runner.worker("round", job, trace=True))
    for res in plain + layered:
        tally.add(res["attempted"], list(res["failed"].values()) + [
            f"request {i}: traced result differs from untraced"
            for i, (x, y) in enumerate(zip(res["outputs"], plain[0]["outputs"]))
            if x != y])
    best = min(layered, key=lambda r: r["wall_s"])
    metrics.update(best["layers"])
    overhead = best["wall_s"] - min(r["wall_s"] for r in plain)
    if runner.workload == "verify-all":
        for name in SUITES:
            metrics[f"verify.suite.{name}.s"] = best["suites"][name]
        for status in ("pass", "finding", "fail"):
            metrics[f"verify.checks.{status}"] = best["counts"][status]
    else:
        metrics.update(cli_layer(runner, reps, tally))
    metrics["trace.overhead_s"] = overhead
    return metrics, [f"tracing overhead {overhead:.3f} s on batch 0, "
                     f"least of {reps} traced and {reps} untraced runs",
                     f"error_rate {tally.failed}/{tally.attempted}"]


def cli_layer(runner, reps, tally):
    """The README commands: as `python -m qcalc` processes, then in process.

    Each figure is the sum over the commands of the command's least
    time over reps: the whole process (cli.process_s), the cold
    `import qcalc.cli` (cli.import_s) and qcalc.cli.main(argv) with
    stdout captured (cli.main.s).  Every output is checked against the
    README.
    """
    totals = {"cli.process_s": 0.0, "cli.import_s": 0.0, "cli.main.s": 0.0}
    for argv in map(list, CLI_EXPECTED):
        process, imports, mains = [], [], []
        for _ in range(reps):
            wall, code, out = runner.cli_command(argv)
            res = runner.worker("cli-main", {"argv": argv})
            why = (check_cli(runner.root, argv, code, out)
                   or check_cli(runner.root, argv, res["exit"], res["stdout"]))
            tally.add(2, [f"{' '.join(argv)}: {why}"] if why else [])
            process.append(wall)
            imports.append(res["import_s"])
            mains.append(res["main_s"])
        totals["cli.process_s"] += min(process)
        totals["cli.import_s"] += min(imports)
        totals["cli.main.s"] += min(mains)
    return totals


def environment(root):
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref
    step = os.environ.get("QCALC_STEP_LIMIT")
    return [
        f"nproc {len(os.sched_getaffinity(0))}",
        f"python {platform.python_version()} ({sys.executable})",
        f"platform {platform.platform()}",
        f"commit {commit}",
        "QCALC_STEP_LIMIT " + ("unset" if step is None else
                               f"SET to {step!r}: the engine's step budget "
                               "differs; do not compare with unset runs"),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so running children are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "qcalc" / "__init__.py").is_file() or \
            not (root / "presentations").is_dir():
        print("perfbench: run from the root of a qcalc checkout "
              "(src/qcalc and presentations/ not found)", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, perf_counter() + LIMIT_S)
    stream = make_stream(args.workload, args.seed)
    for line in environment(root):
        print("# " + line)
    print(f"# workload {args.workload} seed {args.seed} "
          f"input sha256 {stream_hash(stream)}")

    tally = Tally()
    try:
        if args.trace:
            values, notes = traced(runner, stream, tally)
            units = LAYER_METRICS
        else:
            values, notes = end_to_end(runner, stream, args.seconds, tally)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in notes + tally.reasons:
        print("# " + line)
    for name, unit in units.items():
        print(f"{name:<56} {values[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
