"""The OP2 *airfoil* benchmark on repro.op2.

A faithful port of OP2's canonical demo (the nonlinear 2-D Euler
solver the paper's Fig. 3 excerpt comes from): cell-centred finite
volumes on an unstructured quadrilateral mesh, with the classic
five-kernel structure —

========== ==============================================================
save_soln  copy the cell state into the RK base
adt_calc   per-cell stable time step from the 4 corner nodes
res_calc   interior-edge flux: 2 nodes + both neighbour cells, indirect
           increments into both residuals (the data-race motif)
bres_calc  boundary-edge flux: airfoil wall (reflective) vs farfield
update     RK update + RMS reduction
========== ==============================================================

The mesh is an O-grid around a Joukowski airfoil (the conformal map
``zeta = z + c^2/z`` of circles to airfoil shapes), built as plain
unstructured sets/maps — node coordinates, edge->node, edge->cell,
cell->node — exactly the declaration pattern of the paper's Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import op2

GAM = 1.4
GM1 = GAM - 1.0


# --------------------------------------------------------------------------
# mesh generation
# --------------------------------------------------------------------------

@dataclass
class AirfoilMesh:
    """Unstructured O-grid around a Joukowski airfoil."""

    x: np.ndarray          #: (nnode, 2) node coordinates
    cell_nodes: np.ndarray  #: (ncell, 4)
    edge_nodes: np.ndarray  #: (nedge, 2) interior edges
    edge_cells: np.ndarray  #: (nedge, 2) left/right cells (n points l->r)
    bedge_nodes: np.ndarray  #: (nbedge, 2)
    bedge_cell: np.ndarray   #: (nbedge,)
    bound: np.ndarray        #: (nbedge,) 1 = airfoil wall, 2 = farfield

    @property
    def nnode(self) -> int:
        return self.x.shape[0]

    @property
    def ncell(self) -> int:
        return self.cell_nodes.shape[0]

    @property
    def nedge(self) -> int:
        return self.edge_nodes.shape[0]

    @property
    def nbedge(self) -> int:
        return self.bedge_nodes.shape[0]


def make_airfoil_mesh(ni: int = 64, nj: int = 16, r_far: float = 10.0,
                      camber: float = 0.08, thickness: float = 0.1
                      ) -> AirfoilMesh:
    """O-grid around a Joukowski airfoil.

    Circles of growing radius around the mapping's critical point are
    pushed through ``zeta = z + 1/z``; the innermost circle maps to the
    airfoil surface, the outermost approximates a farfield circle.
    ``ni`` points wrap the airfoil (periodic), ``nj`` layers go from
    the surface to the farfield with geometric stretching.
    """
    if ni < 8 or nj < 3:
        raise ValueError(f"need ni >= 8 and nj >= 3, got ni={ni}, nj={nj}")
    # circle center offset controls thickness (real) and camber (imag)
    mu = complex(-thickness, camber)
    r0 = abs(1.0 - mu)  # circle through the trailing-edge critical point z=1
    theta = 2.0 * np.pi * np.arange(ni) / ni
    # geometric radial stretching from the surface to the farfield
    stretch = np.geomspace(1.0, r_far / r0, nj)
    nodes = np.empty((nj, ni, 2))
    for j, s in enumerate(stretch):
        z = mu + r0 * s * np.exp(1j * theta)
        zeta = z + 1.0 / z
        nodes[j, :, 0] = zeta.real
        nodes[j, :, 1] = zeta.imag
    x = nodes.reshape(nj * ni, 2)

    def nid(j, i):
        return j * ni + (i % ni)

    def cid(j, i):
        return j * ni + (i % ni)

    ncell_j = nj - 1
    cell_nodes = np.empty((ncell_j * ni, 4), dtype=np.int64)
    for j in range(ncell_j):
        for i in range(ni):
            cell_nodes[cid(j, i)] = [nid(j, i), nid(j, i + 1),
                                     nid(j + 1, i + 1), nid(j + 1, i)]

    centers = x[cell_nodes].mean(axis=1)

    edge_nodes: list[list[int]] = []
    edge_cells: list[list[int]] = []
    bedge_nodes: list[list[int]] = []
    bedge_cell: list[int] = []
    bound: list[int] = []

    def orient(n1: int, n2: int, cl: int, cr: int) -> tuple[int, int]:
        """Order cells to match the kernels' normal convention.

        res_calc uses m = (dy, -dx) with dx = x1-x2, dy = y1-y2 — the
        +90° rotation of the edge vector n1->n2 — as cell 1's *outward*
        normal, so cell 1 must sit on the side m points away from.
        """
        d = x[n2] - x[n1]
        m = np.array([-d[1], d[0]])
        if np.dot(m, centers[cr] - centers[cl]) < 0.0:
            return cr, cl
        return cl, cr

    # radial edges: separate circumferential neighbours (all interior)
    for j in range(ncell_j):
        for i in range(ni):
            n1, n2 = nid(j, i), nid(j + 1, i)
            cl, cr = orient(n1, n2, cid(j, i - 1), cid(j, i))
            edge_nodes.append([n1, n2])
            edge_cells.append([cl, cr])
    # circumferential edges: interior between radial layers
    for j in range(1, ncell_j):
        for i in range(ni):
            n1, n2 = nid(j, i), nid(j, i + 1)
            cl, cr = orient(n1, n2, cid(j - 1, i), cid(j, i))
            edge_nodes.append([n1, n2])
            edge_cells.append([cl, cr])
    # boundaries: airfoil surface (j=0) and farfield (j=nj-1). The
    # kernels use m = rotate(n1->n2, +90°) as the *outward* normal of
    # the attached cell: the CCW-traversed inner ring already points
    # out of the fluid (into the airfoil); the outer ring must be
    # traversed clockwise so m points out of the farfield.
    for i in range(ni):
        n1, n2 = nid(0, i), nid(0, i + 1)
        c = cid(0, i)
        d = x[n2] - x[n1]
        m = np.array([-d[1], d[0]])
        if np.dot(m, centers[c] - 0.5 * (x[n1] + x[n2])) > 0.0:
            n1, n2 = n2, n1  # flip so m points away from the cell
        bedge_nodes.append([n1, n2])
        bedge_cell.append(c)
        bound.append(1)
    for i in range(ni):
        n1, n2 = nid(nj - 1, i), nid(nj - 1, i + 1)
        c = cid(ncell_j - 1, i)
        d = x[n2] - x[n1]
        m = np.array([-d[1], d[0]])
        if np.dot(m, centers[c] - 0.5 * (x[n1] + x[n2])) > 0.0:
            n1, n2 = n2, n1
        bedge_nodes.append([n1, n2])
        bedge_cell.append(c)
        bound.append(2)

    return AirfoilMesh(
        x=x,
        cell_nodes=cell_nodes,
        edge_nodes=np.array(edge_nodes, dtype=np.int64),
        edge_cells=np.array(edge_cells, dtype=np.int64),
        bedge_nodes=np.array(bedge_nodes, dtype=np.int64),
        bedge_cell=np.array(bedge_cell, dtype=np.int64),
        bound=np.array(bound, dtype=np.float64),
    )


# --------------------------------------------------------------------------
# the five kernels (adapted to the restricted kernel language)
# --------------------------------------------------------------------------

def save_soln(q, qold):
    for i in range(4):
        qold[i] = q[i]


def adt_calc(x1, x2, x3, x4, q, adt, cfl):
    """Stable time-step bound of one cell from its 4 corner nodes."""
    ri = 1.0 / q[0]
    u = ri * q[1]
    v = ri * q[2]
    # c^2 = gam * p / rho = 1.4 * 0.4 * (E - KE) / rho
    c = sqrt(0.56 * ri * (q[3] - 0.5 * ri * (q[1] * q[1] + q[2] * q[2])))  # noqa: F821,E501
    d1 = fabs((u * (x2[1] - x1[1]) - v * (x2[0] - x1[0]))) + c * sqrt((x2[0] - x1[0]) * (x2[0] - x1[0]) + (x2[1] - x1[1]) * (x2[1] - x1[1]))  # noqa: F821,E501
    d2 = fabs((u * (x3[1] - x2[1]) - v * (x3[0] - x2[0]))) + c * sqrt((x3[0] - x2[0]) * (x3[0] - x2[0]) + (x3[1] - x2[1]) * (x3[1] - x2[1]))  # noqa: F821,E501
    d3 = fabs((u * (x4[1] - x3[1]) - v * (x4[0] - x3[0]))) + c * sqrt((x4[0] - x3[0]) * (x4[0] - x3[0]) + (x4[1] - x3[1]) * (x4[1] - x3[1]))  # noqa: F821,E501
    d4 = fabs((u * (x1[1] - x4[1]) - v * (x1[0] - x4[0]))) + c * sqrt((x1[0] - x4[0]) * (x1[0] - x4[0]) + (x1[1] - x4[1]) * (x1[1] - x4[1]))  # noqa: F821,E501
    adt[0] = (d1 + d2 + d3 + d4) / cfl[0]


def res_calc(x1, x2, q1, q2, adt1, adt2, res1, res2):
    """Interior edge flux (the paper's Fig. 3 loop)."""
    dx = x1[0] - x2[0]
    dy = x1[1] - x2[1]
    ri1 = 1.0 / q1[0]
    p1 = 0.4 * (q1[3] - 0.5 * ri1 * (q1[1] * q1[1] + q1[2] * q1[2]))
    vol1 = ri1 * (q1[1] * dy - q1[2] * dx)
    ri2 = 1.0 / q2[0]
    p2 = 0.4 * (q2[3] - 0.5 * ri2 * (q2[1] * q2[1] + q2[2] * q2[2]))
    vol2 = ri2 * (q2[1] * dy - q2[2] * dx)
    mu = 0.5 * (adt1[0] + adt2[0]) * 0.05
    f = 0.5 * (vol1 * q1[0] + vol2 * q2[0]) + mu * (q1[0] - q2[0])
    res1[0] += f
    res2[0] -= f
    f = 0.5 * (vol1 * q1[1] + p1 * dy + vol2 * q2[1] + p2 * dy) \
        + mu * (q1[1] - q2[1])
    res1[1] += f
    res2[1] -= f
    f = 0.5 * (vol1 * q1[2] - p1 * dx + vol2 * q2[2] - p2 * dx) \
        + mu * (q1[2] - q2[2])
    res1[2] += f
    res2[2] -= f
    f = 0.5 * (vol1 * (q1[3] + p1) + vol2 * (q2[3] + p2)) \
        + mu * (q1[3] - q2[3])
    res1[3] += f
    res2[3] -= f


def bres_calc(x1, x2, q1, adt1, res1, bound, qinf):
    """Boundary edge flux: reflective wall (bound=1) or farfield (2)."""
    dx = x1[0] - x2[0]
    dy = x1[1] - x2[1]
    ri = 1.0 / q1[0]
    p1 = 0.4 * (q1[3] - 0.5 * ri * (q1[1] * q1[1] + q1[2] * q1[2]))
    wall = 1.0 if bound[0] < 1.5 else 0.0
    # wall: only pressure acts
    wall_f1 = p1 * dy
    wall_f2 = -p1 * dx
    # farfield: free-stream exchange with dissipation
    vol1 = ri * (q1[1] * dy - q1[2] * dx)
    ri2 = 1.0 / qinf[0]
    p2 = 0.4 * (qinf[3] - 0.5 * ri2 * (qinf[1] * qinf[1] + qinf[2] * qinf[2]))
    vol2 = ri2 * (qinf[1] * dy - qinf[2] * dx)
    mu = adt1[0] * 0.05
    far_f0 = 0.5 * (vol1 * q1[0] + vol2 * qinf[0]) + mu * (q1[0] - qinf[0])
    far_f1 = 0.5 * (vol1 * q1[1] + p1 * dy + vol2 * qinf[1] + p2 * dy) \
        + mu * (q1[1] - qinf[1])
    far_f2 = 0.5 * (vol1 * q1[2] - p1 * dx + vol2 * qinf[2] - p2 * dx) \
        + mu * (q1[2] - qinf[2])
    far_f3 = 0.5 * (vol1 * (q1[3] + p1) + vol2 * (qinf[3] + p2)) \
        + mu * (q1[3] - qinf[3])
    res1[0] += (1.0 - wall) * far_f0
    res1[1] += wall * wall_f1 + (1.0 - wall) * far_f1
    res1[2] += wall * wall_f2 + (1.0 - wall) * far_f2
    res1[3] += (1.0 - wall) * far_f3


def update(qold, q, res, adt, rms):
    """RK update towards steady state + RMS change reduction."""
    adti = 1.0 / adt[0]
    for i in range(4):
        ddt = adti * res[i]
        q[i] = qold[i] - ddt
        res[i] = 0.0
        rms[0] += ddt * ddt


# --------------------------------------------------------------------------
# the application
# --------------------------------------------------------------------------

def freestream(mach: float) -> np.ndarray:
    """Conserved free-stream state at the given Mach number."""
    p_inf = 1.0
    r_inf = 1.0
    c_inf = np.sqrt(GAM * p_inf / r_inf)
    u_inf = mach * c_inf
    e_inf = p_inf / GM1 + 0.5 * r_inf * u_inf**2
    return np.array([r_inf, r_inf * u_inf, 0.0, e_inf])


def airfoil_problem(mesh: AirfoilMesh, mach: float = 0.4):
    """The airfoil declaration as a distributable GlobalProblem."""
    from repro.op2.distribute import GlobalProblem

    gp = GlobalProblem()
    gp.add_set("nodes", mesh.nnode)
    gp.add_set("edges", mesh.nedge)
    gp.add_set("bedges", mesh.nbedge)
    gp.add_set("cells", mesh.ncell)
    gp.add_map("pedge", "edges", "nodes", mesh.edge_nodes)
    gp.add_map("pecell", "edges", "cells", mesh.edge_cells)
    gp.add_map("pbedge", "bedges", "nodes", mesh.bedge_nodes)
    gp.add_map("pbecell", "bedges", "cells", mesh.bedge_cell.reshape(-1, 1))
    gp.add_map("pcell", "cells", "nodes", mesh.cell_nodes)
    gp.add_dat("x", "nodes", mesh.x)
    qinf = freestream(mach)
    gp.add_dat("q", "cells", np.tile(qinf, (mesh.ncell, 1)))
    gp.add_dat("qold", "cells", np.zeros((mesh.ncell, 4)))
    gp.add_dat("res", "cells", np.zeros((mesh.ncell, 4)))
    gp.add_dat("adt", "cells", np.zeros((mesh.ncell, 1)))
    gp.add_dat("bound", "bedges", mesh.bound)
    return gp


def airfoil_owners(mesh: AirfoilMesh, nranks: int) -> dict:
    """Owner arrays for every airfoil set (RCB on cell centers)."""
    from repro.mesh.partition import partition_rcb
    from repro.op2.distribute import derive_owner_from_map

    centers = mesh.x[mesh.cell_nodes].mean(axis=1)
    cell_owner = partition_rcb(centers, nranks)
    node_owner = np.empty(mesh.nnode, dtype=np.int64)
    # nodes inherit the owner of some adjacent cell
    for c in range(mesh.ncell):
        node_owner[mesh.cell_nodes[c]] = cell_owner[c]
    return {
        "cells": cell_owner,
        "nodes": node_owner,
        "edges": cell_owner[mesh.edge_cells[:, 0]],
        "bedges": cell_owner[mesh.bedge_cell],
    }


class AirfoilApp:
    """The assembled airfoil solver (OP2's demo app, our DSL).

    Construct directly from a mesh for serial runs, or via
    :meth:`from_local` with a distributed LocalProblem for MPI runs.
    """

    def __init__(self, mesh: AirfoilMesh, mach: float = 0.4,
                 cfl: float = 0.9, backend: str | None = None,
                 local=None) -> None:
        from repro.op2.distribute import build_serial_problem

        self.mesh = mesh
        self.backend = backend
        if local is None:
            local = build_serial_problem(airfoil_problem(mesh, mach))
        self.local = local
        self.nodes = local.sets["nodes"]
        self.edges = local.sets["edges"]
        self.bedges = local.sets["bedges"]
        self.cells = local.sets["cells"]
        self.pedge = local.maps["pedge"]
        self.pecell = local.maps["pecell"]
        self.pbedge = local.maps["pbedge"]
        self.pbecell = local.maps["pbecell"]
        self.pcell = local.maps["pcell"]
        self.x = local.dats["x"].freeze()
        self.q = local.dats["q"]
        self.qold = local.dats["qold"]
        self.res = local.dats["res"]
        self.adt = local.dats["adt"]
        self.bound = local.dats["bound"].freeze()
        self.g_qinf = op2.Global(4, freestream(mach), "qinf", const=True)
        self.g_cfl = op2.Global(1, cfl, "cflnum")
        self.g_rms = op2.Global(1, 0.0, "rms")

        self.k_save = op2.Kernel(save_soln)
        self.k_adt = op2.Kernel(adt_calc)
        self.k_res = op2.Kernel(res_calc)
        self.k_bres = op2.Kernel(bres_calc)
        self.k_update = op2.Kernel(update)
        R, W, RW, INC = op2.READ, op2.WRITE, op2.RW, op2.INC
        x, q, adt, res = self.x, self.q, self.adt, self.res
        pcell, pedge, pecell = self.pcell, self.pedge, self.pecell
        self._sites = op2.LoopSites({
            "save_soln": (self.k_save, self.cells, q.arg(R),
                          self.qold.arg(W)),
            "adt_calc": (self.k_adt, self.cells,
                         *(x.arg(R, pcell, i) for i in range(4)), q.arg(R),
                         adt.arg(W), self.g_cfl.arg(R)),
            "res_calc": (self.k_res, self.edges, x.arg(R, pedge, 0),
                         x.arg(R, pedge, 1), q.arg(R, pecell, 0),
                         q.arg(R, pecell, 1), adt.arg(R, pecell, 0),
                         adt.arg(R, pecell, 1), res.arg(INC, pecell, 0),
                         res.arg(INC, pecell, 1)),
            "bres_calc": (self.k_bres, self.bedges, x.arg(R, self.pbedge, 0),
                          x.arg(R, self.pbedge, 1),
                          q.arg(R, self.pbecell, 0),
                          adt.arg(R, self.pbecell, 0),
                          res.arg(INC, self.pbecell, 0), self.bound.arg(R),
                          self.g_qinf.arg(R)),
            "update": (self.k_update, self.cells, self.qold.arg(R),
                       q.arg(W), res.arg(RW), adt.arg(R),
                       self.g_rms.arg(INC)),
        }, backend)

    @classmethod
    def from_local(cls, mesh: AirfoilMesh, local, mach: float = 0.4,
                   cfl: float = 0.9, backend: str | None = None
                   ) -> "AirfoilApp":
        """Build on an already-distributed LocalProblem (one rank)."""
        return cls(mesh, mach=mach, cfl=cfl, backend=backend, local=local)

    def iterate(self, niter: int, rk_stages: int = 2) -> list[float]:
        """Run ``niter`` pseudo-time iterations; returns the RMS history.

        Collective in distributed runs (the RMS reduction allreduces).
        """
        run = self._sites.run
        ncell_global = self.mesh.ncell
        history: list[float] = []
        for _ in range(niter):
            run("save_soln")
            self.g_rms.value = 0.0
            for _stage in range(rk_stages):
                for name in ("adt_calc", "res_calc", "bres_calc", "update"):
                    run(name)
            history.append(float(np.sqrt(self.g_rms.value / ncell_global)))
        return history

    def pressure(self) -> np.ndarray:
        """Static pressure per cell."""
        q = self.q.data_ro
        return GM1 * (q[:, 3] - 0.5 * (q[:, 1]**2 + q[:, 2]**2) / q[:, 0])

    def surface_pressure(self) -> np.ndarray:
        """Pressure on the airfoil-surface cells (ordered around)."""
        wall = self.mesh.bound < 1.5
        return self.pressure()[self.mesh.bedge_cell[wall]]
