"""The four workloads of the end-to-end benchmark, as program inputs.

A workload is a size, a rank layout, a backend and a transport of the
coupled driver — nothing the program could recognise as "the
benchmark". The seed reaches the program only through generated inputs
(the fault plan's seed here, probe payloads in ``probes.py``); the
program never sees the seed or the workload name.

Step counts are cut so one timed run takes about 3.5 s on the 2-core
reference host and a driver invocation fits five or more of them
(README.md); ``quick`` shrinks every rig to <= 2k nodes and 3 steps for
the self-test only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.coupler import CoupledDriver, CoupledRunConfig
from repro.hydra import Numerics
from repro.mesh import rig250_config
from repro.resilience import FaultPlan, run_resilient


@dataclass(frozen=True)
class Workload:
    name: str
    rig: dict                   #: rig250_config keyword arguments
    nsteps: int
    ranks_per_row: int
    cus_per_interface: int
    backend: str
    lazy: bool
    transport: str
    checkpoint_every: int = 0
    #: (world rank, physical step) of the injected SIGKILL
    crash: tuple[int, int] | None = None
    #: rig and step count of the ``--quick`` self-test variant
    quick_rig: dict | None = None
    quick_nsteps: int = 3
    quick_crash: tuple[int, int] | None = None

    def sized(self, quick: bool) -> "Workload":
        """This workload at self-test size (``quick``) or as declared."""
        if not quick:
            return self
        return replace(
            self, rig=self.quick_rig, nsteps=self.quick_nsteps,
            checkpoint_every=1 if self.checkpoint_every else 0,
            crash=self.quick_crash)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rig250_full",
        rig=dict(nr=12, nt=96, nx=16, rows=10), nsteps=8,
        ranks_per_row=1, cus_per_interface=1,
        backend="native", lazy=False, transport="process",
        quick_rig=dict(nr=3, nt=8, nx=4, rows=10)),
    Workload(
        name="rows2_halo_thread",
        rig=dict(nr=8, nt=64, nx=10, rows=2), nsteps=6,
        ranks_per_row=2, cus_per_interface=1,
        backend="vectorized", lazy=True, transport="thread",
        quick_rig=dict(nr=4, nt=16, nx=6, rows=2)),
    Workload(
        name="sliding_coupler",
        rig=dict(nr=32, nt=384, nx=3, rows=3, steps_per_revolution=64),
        nsteps=6, ranks_per_row=1, cus_per_interface=2,
        backend="native", lazy=False, transport="process",
        quick_rig=dict(nr=4, nt=32, nx=3, rows=3, steps_per_revolution=16)),
    Workload(
        name="ckpt_recover",
        rig=dict(nr=12, nt=96, nx=24, rows=2), nsteps=20,
        ranks_per_row=2, cus_per_interface=1,
        backend="native", lazy=False, transport="process",
        checkpoint_every=4, crash=(1, 14),
        quick_rig=dict(nr=3, nt=16, nx=8, rows=2), quick_crash=(1, 3)),
)}

#: self-test only: a config the driver rejects (one rank count for a
#: two-row rig), proving a failing run is counted, not fatal
BROKEN = Workload(
    name="broken", rig=dict(nr=3, nt=8, nx=4, rows=2), nsteps=1,
    ranks_per_row=[1], cus_per_interface=1, backend="vectorized",
    lazy=False, transport="thread",
    quick_rig=dict(nr=3, nt=8, nx=4, rows=2))


def get(name: str, quick: bool = False) -> Workload:
    if name == BROKEN.name:
        return BROKEN.sized(quick)
    return WORKLOADS[name].sized(quick)


def build_config(w: Workload, seed: int = 0, checkpoint_dir=None,
                 faulted: bool = True, reference: bool = False,
                 trace: bool = False) -> CoupledRunConfig:
    """The program's input for one run of ``w``.

    Checkpointing (and with it the injected crash) is on only when a
    ``checkpoint_dir`` is given. ``reference`` gives the independent configuration the expected
    results are recorded from: same rig and rank layout, but the
    ``vectorized`` backend, eager loops, the thread transport and no
    checkpoints or faults — the paper's portability claim says the
    result must not depend on any of those.
    """
    if reference:
        backend, lazy, transport = "vectorized", False, "thread"
    else:
        backend, lazy, transport = w.backend, w.lazy, w.transport
    checkpointing = bool(w.checkpoint_every) and checkpoint_dir is not None \
        and not reference
    plan = None
    if checkpointing and faulted and w.crash is not None:
        plan = FaultPlan(seed).crash_hard(rank=w.crash[0], step=w.crash[1])
    return CoupledRunConfig(
        rig=rig250_config(**w.rig),
        ranks_per_row=w.ranks_per_row,
        cus_per_interface=w.cus_per_interface,
        numerics=Numerics(backend=backend), lazy=lazy, transport=transport,
        partial_halos=True, grouped_halos=True, trace=trace,
        checkpoint_every=w.checkpoint_every if checkpointing else 0,
        checkpoint_dir=checkpoint_dir if checkpointing else None,
        fault_plan=plan, timeout=150.0)


def run(cfg: CoupledRunConfig, nsteps: int):
    """The one public call a user makes for this configuration."""
    if cfg.checkpoint_every:
        return run_resilient(cfg, nsteps)
    return CoupledDriver(cfg).run(nsteps)


def monitor_digest(result) -> str:
    """sha256 over every row's station pressures and mid-cut field."""
    h = hashlib.sha256()
    for row in result.rows:
        h.update(np.asarray(row["stations_p"], dtype=np.float64).tobytes())
        h.update(np.asarray(row["midcut_p"], dtype=np.float64).tobytes())
    return h.hexdigest()
