"""Shared fixtures.

The Lie-algebra tabulations are the only expensive computations in the
suite, so they are built once per session and shared between the module
tests and the acceptance criteria.
"""

import pytest

from qcalc import verify_hopf_axioms, verify_lie_algebra
from qcalc.verify import QUANTUM_FIELD_CAP


@pytest.fixture(scope="session")
def classical_lie_records():
    return verify_lie_algebra(3, "classical")["bracket"]


@pytest.fixture(scope="session")
def quantum_lie_records():
    return verify_lie_algebra(QUANTUM_FIELD_CAP, "quantum")


@pytest.fixture(scope="session")
def hopf_records():
    return verify_hopf_axioms()
