"""Shared fixtures for the test suite.

``smpi_transport`` parameterizes a test over both simulated-MPI
transports by setting ``REPRO_SMPI_TRANSPORT`` — the default every
``run_ranks`` call (and the coupled driver) resolves when no explicit
``transport=`` is passed. Distributed suites opt in by taking the
fixture; tests that need the thread-only deterministic scheduler
either skip on ``"process"`` or pass ``transport="thread"`` explicitly.
Fault plans and traced coupled runs work on both transports
(``crash_hard`` faults are process-only).
"""

import pytest


@pytest.fixture(params=["thread", "process"])
def smpi_transport(request, monkeypatch):
    """Run the test once per transport via the env-default mechanism."""
    monkeypatch.setenv("REPRO_SMPI_TRANSPORT", request.param)
    return request.param


@pytest.fixture(params=["native", "native-atomics"])
def native_chain_backend(request):
    """Parameterize a test over both compiled backends' chain paths.

    Application-level equivalence suites take this fixture to certify
    the block-color-plan and omp-atomic compiled strategies alike.
    """
    return request.param
