"""Supervised recovery for coupled runs.

The supervisor turns a fault inside the simulated-MPI world — a rank
crash (:class:`~repro.smpi.RankFailure`), a communication deadlock
(:class:`~repro.smpi.DeadlockError`), a wedged Coupler Unit surfacing
as a receive timeout, or a diverging solver
(:class:`~repro.hydra.SolverDivergence`) — into *retry from the
latest committed checkpoint* instead of a dead run:

1. run the coupled driver (fresh world per attempt);
2. on a recoverable failure, wait a capped exponential backoff,
   locate the newest intact checkpoint set (torn sets are discarded
   by sha verification) and restart from it — or from cold when no
   checkpoint survived;
3. after the retry budget is exhausted, raise :class:`RunAborted`
   carrying the whole failure chain.

Deterministic faults fire once (``FaultPlan`` marks them spent), so a
retry of the same configuration replays past the fault point and — by
the bitwise-restart guarantee of the checkpoint layer — produces
monitors identical to an uninterrupted run.

This module must not import :mod:`repro.coupler` at module level:
``coupler.driver`` imports the checkpoint layer from this package, so
the driver is pulled in lazily inside the entry points.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.hydra.solver import SolverDivergence
from repro.resilience.checkpoint import latest_valid_checkpoint
from repro.smpi.errors import DeadlockError, RankFailure, SimMPIError
from repro.telemetry.recorder import active_recorder

__all__ = ["RecoveryPolicy", "RecoveryEvent", "RecoveryLog", "RunAborted",
           "run_resilient", "resume_coupled"]

#: failure types the supervisor converts into a retry. RankFailure
#: covers :class:`~repro.smpi.errors.ProcessRankDied` (its subclass),
#: so abnormal process death on transport="process" — SIGKILL,
#: heartbeat silence, watchdog reap — recovers like an injected crash.
RECOVERABLE = (RankFailure, DeadlockError, SimMPIError, SolverDivergence)


@dataclass(frozen=True)
class RecoveryPolicy:
    """How hard the supervisor tries before giving up."""

    #: retries after the first failure (total attempts = max_retries+1)
    max_retries: int = 3
    #: first backoff sleep in seconds; doubles per retry
    backoff_base: float = 0.0
    #: cap on any single backoff sleep
    backoff_cap: float = 2.0
    #: CFL multiplier applied when the failure was a solver divergence
    cfl_backoff: float = 0.5
    recoverable: tuple = RECOVERABLE

    def backoff(self, retry_idx: int) -> float:
        """Sleep before retry ``retry_idx`` (0-based)."""
        if self.backoff_base <= 0.0:
            return 0.0
        return min(self.backoff_base * (2.0 ** retry_idx),
                   self.backoff_cap)


@dataclass
class RecoveryEvent:
    """One failure -> recovery decision, for the recovery timeline."""

    attempt: int                #: 0-based attempt that failed
    error_type: str
    error: str
    #: checkpoint step the next attempt restarts from (0 = cold)
    restart_step: int
    backoff: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RecoveryLog:
    """Recovery history of one supervised run."""

    events: list[RecoveryEvent] = field(default_factory=list)
    attempts: int = 0

    @property
    def recoveries(self) -> int:
        return len(self.events)

    def as_dict(self) -> dict:
        return {"attempts": self.attempts,
                "recoveries": self.recoveries,
                "events": [e.as_dict() for e in self.events]}


class RunAborted(RuntimeError):
    """The retry budget is spent; carries the whole failure chain."""

    def __init__(self, message: str, failures: list[BaseException],
                 log: RecoveryLog) -> None:
        super().__init__(message)
        self.failures = list(failures)
        self.log = log


def _reduced_cfl_cfg(cfg, policy: RecoveryPolicy):
    """A config whose numerics retry the run at a smaller CFL."""
    num = dataclasses.replace(
        cfg.numerics, cfl=cfg.numerics.cfl * policy.cfl_backoff)
    return dataclasses.replace(cfg, numerics=num)


def run_resilient(cfg, nsteps: int,
                  policy: RecoveryPolicy | None = None,
                  sleep=time.sleep, driver_factory=None):
    """Run a coupled simulation under supervision.

    ``cfg`` is a :class:`~repro.coupler.driver.CoupledRunConfig`;
    checkpointing should normally be on (``checkpoint_every`` +
    ``checkpoint_dir``) or every recovery restarts from step 0.
    Returns the :class:`~repro.coupler.driver.CoupledResult` of the
    successful attempt with ``result.recovery`` set to the
    :class:`RecoveryLog`. Raises :class:`RunAborted` once
    ``policy.max_retries`` retries are spent.

    ``driver_factory(cfg)`` overrides driver construction — the
    service layer passes a factory backed by its shared
    :class:`~repro.coupler.setup.DriverSetup` cache so retries (and
    concurrent tenants) skip mesh/problem setup. The factory is called
    once per attempt with the attempt's config (which may differ from
    the original, e.g. after a CFL backoff).
    """
    from repro.coupler.driver import CoupledDriver

    policy = policy or RecoveryPolicy()
    if driver_factory is None:
        driver_factory = CoupledDriver
    log = RecoveryLog()
    failures: list[BaseException] = []
    for attempt in range(policy.max_retries + 1):
        log.attempts = attempt + 1
        driver = driver_factory(cfg)
        resume = None
        if cfg.checkpoint_dir is not None:
            resume = latest_valid_checkpoint(cfg.checkpoint_dir)
        try:
            result = driver.run(nsteps, resume_from=resume)
        except policy.recoverable as exc:
            failures.append(exc)
            if attempt == policy.max_retries:
                raise RunAborted(
                    f"coupled run failed {len(failures)} times; "
                    f"last: {type(exc).__name__}: {exc}",
                    failures, log) from exc
            if isinstance(exc, SolverDivergence):
                cfg = _reduced_cfl_cfg(cfg, policy)
            pause = policy.backoff(attempt)
            restart = latest_valid_checkpoint(cfg.checkpoint_dir) \
                if cfg.checkpoint_dir is not None else None
            log.events.append(RecoveryEvent(
                attempt=attempt, error_type=type(exc).__name__,
                error=str(exc),
                restart_step=restart.step if restart else 0,
                backoff=pause))
            rec = active_recorder()
            if rec is not None:
                rec.counter("resilience.recoveries")
                rec.instant("recovery", "resilience.recoveries",
                            attempt=attempt,
                            error=type(exc).__name__)
            if pause > 0.0:
                sleep(pause)
            continue
        result.recovery = log
        return result
    raise AssertionError("unreachable")  # pragma: no cover


def resume_coupled(cfg, nsteps: int, resume_from="latest",
                   driver_factory=None):
    """Restart a coupled run from a committed checkpoint set.

    ``resume_from`` is ``"latest"`` (newest intact set under
    ``cfg.checkpoint_dir``), a path to a ``step-NNNNNN`` directory, or
    a :class:`~repro.resilience.checkpoint.CheckpointManifest`. With
    ``"latest"`` and no surviving checkpoint — or ``None`` — the run
    starts cold.
    ``driver_factory`` is as in :func:`run_resilient`.
    """
    from repro.coupler.driver import CoupledDriver

    if driver_factory is None:
        driver_factory = CoupledDriver
    if resume_from == "latest":
        if cfg.checkpoint_dir is None:
            raise ValueError(
                'resume_from="latest" requires cfg.checkpoint_dir')
        resume_from = latest_valid_checkpoint(cfg.checkpoint_dir)
    return driver_factory(cfg).run(nsteps, resume_from=resume_from)
