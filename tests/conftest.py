"""Shared fixtures for the test suite.

``smpi_transport`` parameterizes a test over both simulated-MPI
transports by setting ``REPRO_SMPI_TRANSPORT`` — the default every
``run_ranks`` call (and the coupled driver) resolves when no explicit
``transport=`` is passed. Distributed suites opt in by taking the
fixture; tests that need the thread-only deterministic scheduler
either skip on ``"process"`` or pass ``transport="thread"`` explicitly.
Fault plans and traced coupled runs work on both transports
(``crash_hard`` faults are process-only).

The numpy race-strategy simulations ``coloring``, ``atomics`` and
``blockcolor`` live in ``tests/oracles/backends.py``, the compiled
``native-atomics``, ``native-atomics-unhoisted``, ``native-unhoisted``
and ``native-uncached`` in ``tests/oracles/compiled.py``; importing this
file registers them into ``repro.op2.BACKENDS`` so every test can
select them by name, as it selects ``src/`` backends.

``one_omp_thread`` (autouse) sets ``OMP_NUM_THREADS=1``: every compiled
region runs one thread, so compiled global reductions are bitwise
reproducible and no forked rank inherits a multi-threaded libgomp. A
test that varies the thread count sets the variable itself.
"""

import pytest

from tests.oracles.backends import register_oracle_backends

register_oracle_backends()


@pytest.fixture(autouse=True)
def one_omp_thread(monkeypatch):
    """One OpenMP thread per rank unless the test sets another count."""
    monkeypatch.setenv("OMP_NUM_THREADS", "1")


@pytest.fixture(params=["thread", "process"])
def smpi_transport(request, monkeypatch):
    """Run the test once per transport via the env-default mechanism."""
    monkeypatch.setenv("REPRO_SMPI_TRANSPORT", request.param)
    return request.param


@pytest.fixture(params=["native", "native-atomics"])
def compiled_backend(request):
    """Parameterize a test over both compiled strategies.

    Application-level equivalence suites take this fixture to certify
    the block-color-plan backend and the omp-atomic oracle alike.
    """
    return request.param
