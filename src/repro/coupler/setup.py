"""Problem setup of a coupled run: the one setup record and its routing.

Everything a case needs before any rank starts — row meshes, initial
problems, the world's rank layout, partition layouts and the static
sliding-plane routing (who owns which interface node, which CU serves
which target segment) — is built once by :func:`build_driver_setup`
into one :class:`DriverSetup`, the only copy the drivers, the rank
programs and the service's setup cache read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.coupler.interface import SideGeometry, SlidingInterface
from repro.coupler.partitioning import segment_targets
from repro.hydra.problem import row_owners, row_problem
from repro.mesh.annulus import make_row_mesh
from repro.mesh.rig250 import Rig250Config
from repro.op2.distribute import plan_distribution

if TYPE_CHECKING:
    from repro.coupler.driver import CoupledRunConfig


@dataclass
class Direction:
    """Static routing of one transfer direction of one interface."""

    k: int
    direction: int          #: 0 = up->down, 1 = down->up
    src_row: int
    dst_row: int
    src_side: str           #: session side name on the src row
    dst_side: str
    cu_targets: list[np.ndarray]          #: per CU: flat target positions
    cu_send: list[dict[int, np.ndarray]]  #: per CU: dst world rank -> positions
    expected_cus: dict[int, list[int]]    #: dst world rank -> CU indices

    #: message tags: donor pieces (HS -> CU), interpolated values (CU -> HS)
    donor_tag = property(lambda self: 9000 + 10 * self.k + self.direction)
    result_tag = property(lambda self: 9400 + 10 * self.k + self.direction)
    #: the src/dst side names on the SlidingInterface
    src_iface = property(lambda self: "up" if self.direction == 0 else "down")
    dst_iface = property(lambda self: "down" if self.direction == 0 else "up")


@dataclass(frozen=True)
class DriverSetup:
    """The shareable, read-only products of one case's problem setup.

    Identical cases (same :func:`setup_fingerprint`) can share one build
    instead of paying the setup cost per run. All members are treated
    as immutable: per-run state is copied out of ``problems`` by
    ``build_serial_problem``/``build_local_problem``, so concurrent
    runs over one setup are safe (the same contract the rank threads of
    a single run already rely on).
    """

    fingerprint: str
    meshes: list
    problems: list
    layouts: list            #: per row: list[RankLayout] or None (serial)
    node_owner_world: list   #: per row: owning world rank of every node
    row_ranks: list          #: per row: its world ranks
    cu_ranks: list           #: per interface: its CU world ranks
    n_world: int
    interfaces: list         #: per interface: SlidingInterface
    directions: list         #: two Direction records per interface


def _fingerprint_default(obj):
    """JSON fallback for config dataclass leaves (enums, odd types)."""
    name = getattr(obj, "name", None)
    return name if isinstance(name, str) else repr(obj)


def setup_fingerprint(cfg: CoupledRunConfig) -> str:
    """Stable digest of every config field the problem setup depends on.

    Two configs with equal fingerprints build identical meshes,
    initial problems, partition layouts and interface routing, so a
    :class:`DriverSetup` built for one can drive the other. Numerics,
    outlet pressure, checkpointing, tracing and transport are run-time
    concerns and deliberately excluded — a service layer can therefore
    share one setup across tenants that vary those knobs.
    """
    payload = {
        "rig": dataclasses.asdict(cfg.rig),
        "ranks_per_row": cfg.ranks_of(),
        "cus_per_interface": cfg.cus_per_interface,
        "partition_scheme": cfg.partition_scheme,
        "inlet": dataclasses.asdict(cfg.inlet),
    }
    blob = json.dumps(payload, sort_keys=True, default=_fingerprint_default)
    return hashlib.sha256(blob.encode()).hexdigest()


def balanced_ranks(rig: Rig250Config, total_ranks: int) -> list[int]:
    """Allocate HS ranks to rows proportional to their node counts.

    Load imbalance between Hydra Sessions "manifests as waiting times
    in the coupler due to the implicit synchronization" (paper §IV-B1);
    sizing each session's rank count by its mesh share is the first
    lever against it. Largest-remainder apportionment with a floor of
    one rank per row.
    """
    n_rows = rig.n_rows
    if total_ranks < n_rows:
        raise ValueError(
            f"need at least one rank per row: {total_ranks} < {n_rows}"
        )
    weights = np.array([
        row.n_nodes + (int(row.halo_in) + int(row.halo_out)) * row.nr * row.nt
        for row in rig.rows
    ], dtype=float)
    shares = weights / weights.sum() * total_ranks
    ranks = np.maximum(1, np.floor(shares).astype(int))
    # distribute the remainder to the largest fractional parts
    while ranks.sum() < total_ranks:
        frac = shares - ranks
        ranks[int(np.argmax(frac))] += 1
    while ranks.sum() > total_ranks:
        over = np.where(ranks > 1)[0]
        frac = shares[over] - ranks[over]
        ranks[over[int(np.argmin(frac))]] -= 1
    return ranks.tolist()


def build_driver_setup(cfg: CoupledRunConfig) -> DriverSetup:
    """Validate ``cfg``'s case and build its shareable setup products."""
    rig = cfg.rig
    if rig.n_rows < 2:
        raise ValueError("a coupled run needs at least 2 rows")
    for a, b in zip(rig.rows, rig.rows[1:]):
        if a.sector != b.sector:
            raise ValueError(
                f"adjacent rows {a.name!r}/{b.name!r} have different "
                f"sector angles (1/{a.sector} vs 1/{b.sector}); sliding "
                f"planes require matching sectors (paper §I)"
            )
    meshes = [make_row_mesh(r) for r in rig.rows]
    # initial state per row, in the row's frame
    problems = [row_problem(mesh, cfg.inlet.shifted_frame(row.wheel_speed))
                for row, mesh in zip(rig.rows, meshes)]

    # world layout: every row's HS ranks first, then every interface's CUs
    ranks = cfg.ranks_of()
    if min(ranks) < 1:
        raise ValueError("every row needs at least one rank")
    bounds = [0, *itertools.accumulate(
        ranks + [cfg.cus_per_interface] * rig.n_interfaces)]
    groups = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    row_ranks, cu_ranks = groups[:rig.n_rows], groups[rig.n_rows:]

    # distribution layouts + node owners (world ranks) per row
    layouts: list = []
    node_owner_world: list[np.ndarray] = []
    for i, (gp, mesh, n) in enumerate(zip(problems, meshes, ranks)):
        if n == 1:
            layouts.append(None)
            node_owner_world.append(np.full(mesh.n_nodes, row_ranks[i][0]))
        else:
            owners = row_owners(mesh, gp, n, cfg.partition_scheme)
            layouts.append(plan_distribution(gp, n, owners))
            node_owner_world.append(
                np.asarray(owners["nodes"]) + row_ranks[i][0])

    interfaces, directions = _build_interfaces(
        rig, meshes, node_owner_world, cfg.cus_per_interface)
    return DriverSetup(
        fingerprint=setup_fingerprint(cfg), meshes=meshes, problems=problems,
        layouts=layouts, node_owner_world=node_owner_world,
        row_ranks=row_ranks, cu_ranks=cu_ranks, n_world=bounds[-1],
        interfaces=interfaces, directions=directions)


def _side_geometry(rig: Rig250Config, meshes: list, row_idx: int,
                   side: str) -> SideGeometry:
    mesh = meshes[row_idx]
    cfgrow = rig.rows[row_idx]
    grid = (mesh.iface_out_donor if side == "out" else mesh.iface_in_donor)
    flat = grid.ravel()
    return SideGeometry(
        grid_shape=grid.shape,
        y=mesh.coords[flat, 1].copy(),
        z=mesh.coords[flat, 2].copy(),
        circumference=cfgrow.circumference,
        frame_velocity=cfgrow.wheel_speed,
    )


def _build_interfaces(rig: Rig250Config, meshes: list, node_owner_world: list,
                      n_cu: int
                      ) -> tuple[list[SlidingInterface], list[Direction]]:
    interfaces = []
    directions = []
    for k in range(rig.n_interfaces):
        up, down = k, k + 1
        iface = SlidingInterface(
            name=f"{rig.rows[up].name}/{rig.rows[down].name}",
            up=_side_geometry(rig, meshes, up, "out"),
            down=_side_geometry(rig, meshes, down, "in"),
        )
        interfaces.append(iface)
        for direction, (src_row, dst_row, src_side, dst_side,
                        halo_grid, geo) in enumerate((
                (up, down, "out", "in", meshes[down].iface_in_halo,
                 iface.down),
                (down, up, "in", "out", meshes[up].iface_out_halo,
                 iface.up))):
            owner = node_owner_world[dst_row][halo_grid.ravel()]
            cu_targets = segment_targets(geo.y, geo.circumference, n_cu)
            cu_send: list[dict[int, np.ndarray]] = []
            expected: dict[int, list[int]] = {}
            for c in range(n_cu):
                routing: dict[int, np.ndarray] = {}
                pos = cu_targets[c]
                for r in np.unique(owner[pos]):
                    routing[int(r)] = pos[owner[pos] == r]
                    expected.setdefault(int(r), []).append(c)
                cu_send.append(routing)
            directions.append(Direction(
                k=k, direction=direction, src_row=src_row,
                dst_row=dst_row, src_side=src_side, dst_side=dst_side,
                cu_targets=cu_targets, cu_send=cu_send,
                expected_cus=expected,
            ))
    return interfaces, directions
