"""Simulated MPI: message passing between cooperating ranks.

The paper's runs use real MPI on up to 65k cores of ARCHER2. Here
there is **one communicator** — :class:`SimComm`: communicators,
``split`` for the HS/CU sub-communicator layout of the coupled solver,
point-to-point and collective operations, fault hooks and *traffic
accounting* (per-phase message and byte counts that drive the
communication-optimization study, Table III of the paper) — written
once over a four-method channel, and **two channels**: ranks as
threads of this interpreter (default) or as forked OS processes with
true multi-core parallelism (``run_ranks(..., transport="process")``).
Blocking semantics are genuine: a misordered send/recv deadlocks — on
the thread channel the wait-for-graph detector reports the actual
blocked-on cycle, exactly what a hung cluster job would not tell you,
and a seeded :class:`DeterministicScheduler` serializes rank threads
into a replayable interleaving for sweeping message-race schedules.
"""

from repro.smpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Request,
    SimAbort,
    SimComm,
    SimMPIError,
    run_ranks,
    waitall,
)
from repro.smpi.deadlock import DeadlockError, WaitEdge, WaitRegistry, format_cycle
from repro.smpi.errors import ProcessRankDied, RankFailure, TransportError
from repro.smpi.faults import CrashFault, FaultPlan, FaultRecord, MessageFault
from repro.smpi.schedule import DeterministicScheduler, ScheduleRun, sweep_schedules
from repro.smpi.threads import omp_threads
from repro.smpi.traffic import Traffic, TrafficRecord
from repro.smpi.transport import (
    HEARTBEAT_ENV,
    TRANSPORTS,
    WATCHDOG_ENV,
    default_transport,
    heartbeat_seconds,
    resolve_transport,
    watchdog_seconds,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CrashFault",
    "DeadlockError",
    "DeterministicScheduler",
    "FaultPlan",
    "FaultRecord",
    "HEARTBEAT_ENV",
    "MessageFault",
    "ProcessRankDied",
    "RankFailure",
    "Request",
    "ScheduleRun",
    "SimAbort",
    "SimComm",
    "SimMPIError",
    "TRANSPORTS",
    "WATCHDOG_ENV",
    "Traffic",
    "TrafficRecord",
    "TransportError",
    "WaitEdge",
    "WaitRegistry",
    "default_transport",
    "format_cycle",
    "heartbeat_seconds",
    "omp_threads",
    "resolve_transport",
    "run_ranks",
    "sweep_schedules",
    "waitall",
    "watchdog_seconds",
]
