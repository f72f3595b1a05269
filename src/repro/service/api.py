"""Typed request/response API of the simulation service.

The request shape follows the engine-test-bench exemplars: a
parameterized engine operating point goes in (:class:`EngineCase` —
mesh resolution, row count, shaft speed, inlet state, outlet
pressure), a metric dict plus telemetry summary comes out
(:class:`JobResult`). Requests are namespaced by *tenant*: a tenant's
jobs share an admission quota and a checkpoint namespace, while the
expensive problem-setup products (meshes, partition layouts, interface
routing) are deduplicated *across* tenants by
:func:`~repro.coupler.setup.setup_fingerprint` — the second tenant
submitting an identical case pays ~zero setup.

Determinism contract: ``JobResult.digest`` hashes the run's monitor
payload (station pressures, mid-cut field, unsteadiness, interface
quality, CU accounting). Two digests are equal iff the runs produced
bitwise-identical monitors, so "a retried job is indistinguishable
from an undisturbed one" is a string comparison.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum

from repro.coupler.driver import CoupledRunConfig
from repro.coupler.setup import setup_fingerprint
from repro.hydra.gas import FlowState
from repro.hydra.solver import Numerics
from repro.mesh.rig250 import rig250_config

__all__ = [
    "AdmissionError", "EngineCase", "JobRequest", "JobResult", "JobStatus",
    "ProgressEvent", "ServiceError", "job_metrics", "result_digest",
]

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ServiceError(RuntimeError):
    """Base class of service-layer failures."""


class AdmissionError(ServiceError):
    """The admission controller declined a request; carries the reason."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


@dataclass(frozen=True)
class EngineCase:
    """One parameterized engine operating point, service-submittable.

    Maps one-to-one onto the coupled mini-Rig250: resolution and row
    count pick the mesh, ``rpm``/``inlet_ux``/``p_out`` the operating
    point, the rest the execution layout. Frozen so cases are hashable
    and reusable as cache keys.
    """

    nr: int = 3
    nt: int = 12
    nx: int = 4
    rows: int = 2
    steps_per_revolution: int = 64
    rpm: float = 11_000.0
    inlet_ux: float = 0.5
    p_out: float = 1.0
    inner_iters: int = 4
    cfl: float = 0.7
    ranks_per_row: int = 1
    cus_per_interface: int = 1
    search: str = "adt"
    partition_scheme: str = "rcb"
    couple_every: int = 1

    def rig(self):
        return rig250_config(nr=self.nr, nt=self.nt, nx=self.nx,
                             rpm=self.rpm, rows=self.rows,
                             steps_per_revolution=self.steps_per_revolution)

    def total_nodes(self) -> int:
        return self.rig().total_nodes

    def run_config(self, **overrides) -> CoupledRunConfig:
        """The coupled-driver config this case describes.

        ``overrides`` set run-time fields (checkpointing, fault plan,
        transport, guard numerics …) without touching the case
        identity — they never change :meth:`fingerprint`.
        """
        numerics = overrides.pop("numerics", None) or Numerics(
            inner_iters=self.inner_iters, cfl=self.cfl)
        cfg = CoupledRunConfig(
            rig=self.rig(),
            ranks_per_row=self.ranks_per_row,
            cus_per_interface=self.cus_per_interface,
            search=self.search,
            numerics=numerics,
            inlet=FlowState(ux=self.inlet_ux),
            p_out=self.p_out,
            partition_scheme=self.partition_scheme,
            couple_every=self.couple_every,
        )
        for name, value in overrides.items():
            if not hasattr(cfg, name):
                raise TypeError(f"unknown run_config override {name!r}")
            setattr(cfg, name, value)
        return cfg

    def fingerprint(self) -> str:
        """The setup identity shared-cache key (see
        :func:`~repro.coupler.setup.setup_fingerprint`)."""
        return setup_fingerprint(self.run_config())


@dataclass
class JobRequest:
    """One tenant's ask: run ``case`` for ``nsteps`` physical steps."""

    tenant: str
    case: EngineCase
    nsteps: int
    #: smaller runs first; ties broken by submission order
    priority: int = 0
    #: wall-clock budget in seconds from submission. Admission rejects
    #: requests whose predicted wait + run time exceeds it; a job whose
    #: deadline expires while still queued fails fast without running.
    #: A job already running is never killed by its deadline — the
    #: overrun is reported in ``JobResult.timings`` instead.
    deadline_s: float | None = None
    #: resume identity: resubmitting with the ``job_id`` of a suspended
    #: job (same service checkpoint root) continues it from its newest
    #: committed checkpoint instead of starting over
    job_id: str | None = None
    #: deterministic chaos hook (tests, resilience demos): injected
    #: into the run; crashes are retried by the supervisor invisibly
    fault_plan: object | None = None
    #: per-job smpi transport override: "thread", "process", or None =
    #: the scheduler's configured default. Process-transport jobs run
    #: the same supervised recovery (digests equal to thread runs);
    #: injected or real rank-process death stays invisible to clients.
    transport: str | None = None

    def validate(self) -> None:
        if not _TENANT_RE.match(self.tenant or ""):
            raise ValueError(
                f"tenant {self.tenant!r} must match {_TENANT_RE.pattern} "
                f"(it namespaces checkpoint directories)")
        if self.nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {self.nsteps}")
        if self.transport is not None:
            from repro.smpi.transport import TRANSPORTS
            if self.transport not in TRANSPORTS:
                raise ValueError(
                    f"transport {self.transport!r} must be one of "
                    f"{TRANSPORTS} (or None for the service default)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}")
        if self.job_id is not None and not _TENANT_RE.match(self.job_id):
            raise ValueError(
                f"job_id {self.job_id!r} must match {_TENANT_RE.pattern}")


class JobStatus(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.COMPLETED, JobStatus.FAILED,
                        JobStatus.CANCELLED, JobStatus.REJECTED,
                        JobStatus.SUSPENDED)


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed progress notification of one job."""

    job_id: str
    tenant: str
    kind: str          #: queued|started|progress|retrying|suspended|…
    step: int = 0
    nsteps: int = 0
    t: float = 0.0     #: monotonic service clock
    detail: dict = field(default_factory=dict)

    @property
    def fraction(self) -> float:
        return self.step / self.nsteps if self.nsteps else 0.0


@dataclass
class JobResult:
    """What the submitting client gets back."""

    job_id: str
    tenant: str
    status: JobStatus
    nsteps: int
    case_fingerprint: str
    #: headline physics metrics (pressure ratio, interface quality, …)
    metrics: dict = field(default_factory=dict)
    #: bitwise monitor digest (see :func:`result_digest`)
    digest: str = ""
    #: queued_s / setup_s / run_s / total_s (+ deadline overrun if any)
    timings: dict = field(default_factory=dict)
    #: supervisor telemetry: attempts, recoveries, recovery events
    recovery: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.COMPLETED


def result_digest(result) -> str:
    """Bitwise digest of a coupled run's monitors.

    ``json.dumps`` renders floats with ``repr`` (shortest round-trip),
    so two digests agree iff every monitored float is bit-identical —
    the same payload the resilience CLI proves recovery against.
    """
    blob = json.dumps(result.monitor_payload(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def job_metrics(result) -> dict:
    """The headline metric dict of a completed coupled run."""
    return {
        "pressure_ratio": result.pressure_ratio(),
        "interface_wiggle": result.interface_wiggle(),
        "interface_mass_mismatch": result.interface_mass_mismatch(),
        "coupler_wait_fraction": result.coupler_wait_fraction(),
        "checkpoint_overhead": result.checkpoint_overhead(),
        "unsteadiness": max((row["unsteadiness"] for row in result.rows),
                            default=0.0),
        "steps": result.nsteps,
        "resumed_from": result.resumed_from,
    }
