"""Shared fixtures.

The Lie-algebra tabulations are the only expensive computations in the
suite, so they are built once per session and shared between the module
tests and the acceptance criteria.  run_cold runs code in a fresh
interpreter, for the tests of what a cold `import qcalc` loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcalc
from qcalc import verify_hopf_axioms, verify_lie_algebra
from qcalc.verify import CLASSICAL_FIELD_CAP, QUANTUM_FIELD_CAP


@pytest.fixture(scope="session")
def classical_lie_records():
    return verify_lie_algebra(CLASSICAL_FIELD_CAP, classical=True)["bracket"]


@pytest.fixture(scope="session")
def quantum_lie_records():
    return verify_lie_algebra(QUANTUM_FIELD_CAP)


@pytest.fixture(scope="session")
def hopf_records():
    return verify_hopf_axioms()


@pytest.fixture
def run_cold():
    """Standard output of code run in a fresh interpreter, without bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(qcalc.__file__).parents[1]))

    def run(code):
        return subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", code], env=env,
            check=True, capture_output=True, text=True, timeout=120).stdout
    return run
