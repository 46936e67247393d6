"""Structured verification reports.

A report is a list of check records under a suite header.  The JSON
serialization is canonical: records sorted by id, keys in a fixed
order, and a volatile-field scrub for byte-level comparisons.  A report
built without a generated_at gets the current UTC time, to the second;
one given a generated_at, even the scrubbed "", keeps it.
"""

import time

ENGINE_VERSION = "0.1.0"

STATUSES = ("pass", "fail", "finding")

# the suites `qcalc verify` runs; here, not in verify, so that naming
# them does not load the verification code
SUITES = ("all", "hopf", "dga", "classical", "grassmann", "vector-fields")

__all__ = ["CheckRecord", "VerificationReport", "ENGINE_VERSION", "STATUSES",
           "SUITES"]


class _Record:
    """Field-wise == and repr over the attributes, in the order set."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({body})"


class CheckRecord(_Record):
    """Outcome of one named check.

    status is pass (contract held), fail (contract broken), or finding
    (a documented discrepancy or informational value; never a failure).
    residual holds the rendered leftover, "0" when the check is exact.
    corrections lists the rule repairs in effect during the check.
    """

    def __init__(self, id: str, paper_ref: str, status: str, residual: str,
                 corrections: tuple = (), ms: int = 0):
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.id = id
        self.paper_ref = paper_ref
        self.status = status
        self.residual = residual
        self.corrections = corrections
        self.ms = ms

    def to_obj(self) -> dict:
        return {
            "id": self.id,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "residual": self.residual,
            "corrections": list(self.corrections),
            "ms": self.ms,
        }


class VerificationReport(_Record):
    def __init__(self, suite: str, checks: list = (),
                 engine_version: str = ENGINE_VERSION, generated_at: str = None):
        if generated_at is None:
            generated_at = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
        seen, dupes = set(), set()
        for c in checks:
            (dupes if c.id in seen else seen).add(c.id)
        if dupes:
            raise ValueError(f"duplicate check ids: {sorted(dupes)}")
        self.suite = suite
        self.checks = sorted(checks, key=lambda c: c.id)
        self.engine_version = engine_version
        self.generated_at = generated_at

    # -- aggregation ----------------------------------------------------

    def counts(self) -> dict:
        out = {s: 0 for s in STATUSES}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    # -- serialization --------------------------------------------------

    def to_obj(self, volatile: bool = True) -> dict:
        obj = {
            "suite": self.suite,
            "engine_version": self.engine_version,
            "generated_at": self.generated_at if volatile else "",
            "checks": [c.to_obj() for c in self.checks],
        }
        if not volatile:
            for c in obj["checks"]:
                c["ms"] = 0
        return obj

    def to_json(self, volatile: bool = True) -> str:
        import json  # here, not at the top: `import qcalc` never needs it
        return json.dumps(self.to_obj(volatile), indent=2) + "\n"

    @staticmethod
    def from_obj(obj: dict) -> "VerificationReport":
        checks = [
            CheckRecord(
                id=c["id"],
                paper_ref=c["paper_ref"],
                status=c["status"],
                residual=c["residual"],
                corrections=tuple(c.get("corrections", ())),
                ms=c.get("ms", 0),
            )
            for c in obj["checks"]
        ]
        return VerificationReport(
            suite=obj["suite"],
            checks=checks,
            engine_version=obj.get("engine_version", ENGINE_VERSION),
            generated_at=obj.get("generated_at", "-"),
        )

    # -- display ----------------------------------------------------------

    def render_table(self) -> str:
        width = 100
        id_w = max([len(c.id) for c in self.checks] + [len("check")])
        lines = [
            f"suite: {self.suite}   engine: {self.engine_version}   "
            f"generated: {self.generated_at}",
            f"{'check':<{id_w}}  {'status':<7}  residual",
            "-" * width,
        ]
        for c in self.checks:
            residual = c.residual
            room = width - id_w - 11
            if len(residual) > room > 3:
                residual = residual[:room - 3] + "..."
            lines.append(f"{c.id:<{id_w}}  {c.status:<7}  {residual}")
        counts = self.counts()
        lines.append("-" * width)
        lines.append(
            f"{len(self.checks)} checks: {counts['pass']} pass, "
            f"{counts['fail']} fail, {counts['finding']} findings")
        return "\n".join(lines)
