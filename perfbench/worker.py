"""One round of one workload, in a fresh interpreter.

    python3 worker.py <phase> <workload> <trace 0|1>  < job.json

The parent, run.py, starts it with src/ on PYTHONPATH; the job (JSON)
comes on stdin and one JSON result line goes to stdout.  Phases:

  setup     import qcalc and build the workload's presentations, timed
  round     setup, then the timed batch, then (if asked) the untimed
            correctness oracles
  cli-main  import qcalc, then qcalc.cli.main(argv) with stdout captured

Set-up is timed before anything else is imported: this module imports
only sys and time at the top, reads the job as raw text and parses it
after the clock stops, so qcalc's own imports (fractions, json, ...)
are part of the cold import that setup_s measures.  The rest of the
benchmark code is in rounds.py, loaded after set-up.
"""

import sys
from time import perf_counter

# Presentations each workload builds during set-up.
SETUP_NAMES = {
    "verify-all": ("hq", "units", "dga", "dga_literal", "cartan_maurer",
                   "grassmann", "hq_localized", "units_dga", "units_cm",
                   "classical-hq", "classical-units", "classical-dga",
                   "classical-cartan_maurer", "classical-grassmann"),
    "nf-mix": ("hq", "units", "dga", "cartan_maurer", "grassmann"),
}

# nf-mix universes: a catalog name, or name@q0 for its specialization.
NF_UNIVERSES = ("hq", "units", "dga", "cartan_maurer", "grassmann",
                "hq@2", "hq@2/3", "dga@2", "dga@2/3")


def setup(workload, trace=False):
    """Import qcalc and build what the workload uses; (ctx, seconds, tracer).

    With trace, a tracer is installed right after the import, so that
    building the presentations shows in the per-layer times (the traced
    run reports no setup_s).
    """
    start = perf_counter()
    import qcalc
    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install(qcalc)
    ctx = {"qcalc": qcalc}
    ctx["pres"] = {n: qcalc.get_presentation(n) for n in SETUP_NAMES[workload]}
    if workload == "nf-mix":
        universes = {}
        for label in NF_UNIVERSES:
            name, _, q0 = label.partition("@")
            base = ctx["pres"][name]
            universes[label] = ((qcalc.specialize(base, q0), q0) if q0
                                else (base, None))
        ctx["universes"] = universes
    return ctx, perf_counter() - start, tracer


def cli_import():
    """Cold `import qcalc.cli`; (module, seconds)."""
    start = perf_counter()
    import qcalc.cli
    return qcalc.cli, perf_counter() - start


def main():
    phase, workload, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    text = sys.stdin.read()
    # what is timed comes first, the benchmark's own modules after it
    if phase == "setup":
        setup_s = setup(workload)[1]
    elif phase == "round":
        ctx, setup_s, tracer = setup(workload, trace)
    elif phase == "cli-main":
        cli, import_s = cli_import()
    else:
        raise SystemExit(f"unknown phase {phase!r}")
    import json
    import rounds
    job = json.loads(text)
    if phase == "setup":
        result = {"setup_s": setup_s}
    elif phase == "round":
        result = rounds.run_round(workload, job, ctx, setup_s, tracer)
    else:
        result = rounds.cli_main(cli, import_s, job["argv"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
