"""Seeded input streams for the two workloads.

Standard library only: the inputs are fixed by the benchmark, not read
from the program, so a change to qcalc cannot change what it is asked.

Every workload's stream is a cycle of batches (BATCHES of them for
nf-mix, one for verify-all).  Round r of
a run executes batch r mod the cycle length in a fresh process, so the
stream, and its hash, depend on the seed alone and not on how many
rounds a run fits in.
Batch sizes are stratified (fixed counts of terms, word lengths and
universes, random words inside each stratum) so that the cost of a
batch moves little from one seed to the next.
"""

import hashlib
import json
import random

from worker import NF_UNIVERSES

BATCHES = 12

A = ("a0", "a1", "a2", "a3")

# Alphabets of the catalog presentations, in the benchmark's own copy.
ALPHABETS = {
    "hq": A,
    "units": A + ("e1", "e2", "e3"),
    "dga": A + ("da0", "da1", "da2", "da3"),
    "cartan_maurer": A + ("w0", "w1", "w2", "w3"),
    "grassmann": ("psi0", "psi1", "psi2", "psi3"),
}

# The coefficient pool of the property tests: 1, -1, 1/2, i, -i*q, q,
# q^-1, i*q^2 + 1.  Pairs of (expression prefix, scalar text).
COEFFS = (
    ("", "1"),
    ("-", "-1"),
    ("(1/2)*", "1/2"),
    ("i*", "i"),
    ("-i*q*", "-i*q"),
    ("q*", "q"),
    ("q^-1*", "q^-1"),
    ("(i*q^2+1)*", "i*q^2 + 1"),
)

# Longest word per universe.  Cold normal forms spread widely in cost
# beyond these lengths (see NOTES.md): hq words of length 5 take from
# 3 ms to 0.6 s (less at q = 2 and 2/3, but still up to 70 ms), dga and
# cartan_maurer words of length 4 from 25 ms to 2 s, and of length 5 up
# to 5 s or past the default step limit.  A batch's cost and its latency
# tail would then hang on the few words a seed draws, and a workload
# must not fail at the seed.  A longer draw is cut to the maximum.
NF_MAX_LENGTH = {"hq": 4, "units": 5, "grassmann": 5, "hq@2": 4, "hq@2/3": 4,
                 "dga": 3, "cartan_maurer": 3, "dga@2": 3, "dga@2/3": 3}

NF_FRESH = 12          # fresh requests per batch and universe: 4 each
                       # of 1, 2 and 3 terms
NF_HOT = 3             # distinct hot expressions per batch and universe,
                       # of 1, 2 and 3 terms
# Word lengths of the 24 terms of one universe's fresh requests in one
# batch, before shuffling: mostly 2-4, a few percent 5.
NF_LENGTHS = (2,) * 7 + (3,) * 8 + (4,) * 8 + (5,) * 1

def _nf_expression(rng, label, lengths, seen):
    """A sum of coefficient * word terms not in seen, which it joins."""
    alphabet = ALPHABETS[label.split("@")[0]]
    while True:
        terms = [rng.choice(COEFFS)[0]
                 + "*".join(rng.choice(alphabet) for _ in range(n))
                 for n in lengths]
        expr = " + ".join(terms).replace("+ -", "- ")
        if (label, expr) not in seen:
            seen.add((label, expr))
            return [label, expr]


def nf_mix_batch(rng):
    """One batch: requests [universe label, expression], half hot, half fresh.

    Every universe gets the same strata: NF_FRESH fresh requests, a
    third each of 1, 2 and 3 terms, with the word lengths NF_LENGTHS,
    and NF_HOT hot expressions of 1, 2 and 3 terms.  "fresh" lists the
    positions of the fresh requests, each of which occurs once in the
    batch.
    """
    seen = set()
    fresh, hot = [], []
    for label in NF_UNIVERSES:
        lengths = [min(n, NF_MAX_LENGTH[label]) for n in NF_LENGTHS]
        rng.shuffle(lengths)
        for k in range(NF_FRESH):
            n_terms = k % 3 + 1
            want, lengths = lengths[:n_terms], lengths[n_terms:]
            fresh.append(_nf_expression(rng, label, want, seen))
        for k in range(NF_HOT):
            want = [min(n, NF_MAX_LENGTH[label]) for n in (2, 3, 4)[:k % 3 + 1]]
            hot.append(_nf_expression(rng, label, want, seen))
    tagged = [(r, True) for r in fresh] + [(list(rng.choice(hot)), False)
                                           for _ in fresh]
    rng.shuffle(tagged)
    return {"requests": [r for r, _ in tagged],
            "fresh": [i for i, (_, new) in enumerate(tagged) if new]}


def make_stream(workload, seed):
    """The cycle of batches for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        return [{"requests": [["run_suite", "all"]]}]
    if workload == "nf-mix":
        return [nf_mix_batch(rng) for _ in range(BATCHES)]
    raise ValueError(f"unknown workload {workload!r}")


def stream_hash(stream):
    text = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
