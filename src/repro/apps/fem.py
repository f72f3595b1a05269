"""P1 finite-element Poisson solver — the FEM motif on repro.op2.

OP2 ships a second demo family (*aero*: a nonlinear FEM code) whose
defining pattern differs from airfoil's: loops over *cells* gathering
all of a cell's nodes at once (vector ``idx=ALL`` arguments) and
scattering element-matrix contributions back into nodal residuals.
This module reproduces that motif minimally and verifiably: assemble
and Jacobi-solve the Poisson problem -Lap(u) = f on a triangulated
unit square with homogeneous Dirichlet walls, where the exact solution
is a classical series.

Kernels:

============== =========================================================
``stiffness``  per-triangle: gather 3 node coords + 3 nodal u values
               (ALL), apply the P1 element stiffness, scatter 3
               residual increments (ALL INC) — the FEM data-race motif
``diag``       per-triangle: accumulate the stiffness diagonal (ALL INC)
``jacobi``     per-node: damped Jacobi update, Dirichlet mask applied
``resnorm``    per-node masked residual norm (global reduction)
============== =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import op2


# --------------------------------------------------------------------------
# mesh: structured triangulation of the unit square
# --------------------------------------------------------------------------

@dataclass
class TriMesh:
    """Triangulated unit square."""

    x: np.ndarray           #: (nnode, 2)
    cells: np.ndarray       #: (ncell, 3) node indices
    interior: np.ndarray    #: (nnode,) 1.0 interior / 0.0 Dirichlet wall

    @property
    def nnode(self) -> int:
        return self.x.shape[0]

    @property
    def ncell(self) -> int:
        return self.cells.shape[0]


def make_unit_square(n: int = 17) -> TriMesh:
    """n x n nodes, 2(n-1)^2 right triangles."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    coords = np.stack([X.ravel(), Y.ravel()], axis=1)

    def nid(i, j):
        return i * n + j

    cells = []
    for i in range(n - 1):
        for j in range(n - 1):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            cells.append([a, b, c])
            cells.append([a, c, d])
    interior = np.ones(n * n)
    border = (np.isclose(coords[:, 0], 0) | np.isclose(coords[:, 0], 1)
              | np.isclose(coords[:, 1], 0) | np.isclose(coords[:, 1], 1))
    interior[border] = 0.0
    return TriMesh(x=coords, cells=np.array(cells, dtype=np.int64),
                   interior=interior)


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

def stiffness(xs, u, r):
    """Apply the P1 element stiffness: r += K_e u over one triangle."""
    b0 = xs[1, 1] - xs[2, 1]
    b1 = xs[2, 1] - xs[0, 1]
    b2 = xs[0, 1] - xs[1, 1]
    c0 = xs[2, 0] - xs[1, 0]
    c1 = xs[0, 0] - xs[2, 0]
    c2 = xs[1, 0] - xs[0, 0]
    area2 = c2 * b1 - c1 * b2  # 2*area (positive for CCW cells)
    f = 0.25 / (0.5 * area2)
    r[0, 0] += f * ((b0 * b0 + c0 * c0) * u[0, 0]
                    + (b0 * b1 + c0 * c1) * u[1, 0]
                    + (b0 * b2 + c0 * c2) * u[2, 0])
    r[1, 0] += f * ((b1 * b0 + c1 * c0) * u[0, 0]
                    + (b1 * b1 + c1 * c1) * u[1, 0]
                    + (b1 * b2 + c1 * c2) * u[2, 0])
    r[2, 0] += f * ((b2 * b0 + c2 * c0) * u[0, 0]
                    + (b2 * b1 + c2 * c1) * u[1, 0]
                    + (b2 * b2 + c2 * c2) * u[2, 0])


def diag(xs, d):
    """Accumulate the stiffness diagonal of one triangle."""
    b0 = xs[1, 1] - xs[2, 1]
    b1 = xs[2, 1] - xs[0, 1]
    b2 = xs[0, 1] - xs[1, 1]
    c0 = xs[2, 0] - xs[1, 0]
    c1 = xs[0, 0] - xs[2, 0]
    c2 = xs[1, 0] - xs[0, 0]
    area2 = c2 * b1 - c1 * b2
    f = 0.25 / (0.5 * area2)
    d[0, 0] += f * (b0 * b0 + c0 * c0)
    d[1, 0] += f * (b1 * b1 + c1 * c1)
    d[2, 0] += f * (b2 * b2 + c2 * c2)


def load(xs, rhs, fsrc):
    """Lumped load vector: f * area/3 to each corner."""
    area2 = ((xs[1, 0] - xs[0, 0]) * (xs[2, 1] - xs[0, 1])
             - (xs[2, 0] - xs[0, 0]) * (xs[1, 1] - xs[0, 1]))
    w = fsrc[0] * 0.5 * area2 / 3.0
    rhs[0, 0] += w
    rhs[1, 0] += w
    rhs[2, 0] += w


def jacobi(r, rhs, d, mask, u, omega):
    """Damped Jacobi step on interior nodes; reset the residual."""
    du = omega[0] * (rhs[0] - r[0]) / d[0]
    u[0] = u[0] + mask[0] * du
    r[0] = 0.0


def resnorm(r, rhs, mask, norm):
    e = mask[0] * (rhs[0] - r[0])
    norm[0] += e * e


def fem_problem(mesh: TriMesh):
    """The FEM declaration as a distributable GlobalProblem."""
    from repro.op2.distribute import GlobalProblem

    gp = GlobalProblem()
    gp.add_set("nodes", mesh.nnode)
    gp.add_set("cells", mesh.ncell)
    gp.add_map("pcell", "cells", "nodes", mesh.cells)
    gp.add_dat("x", "nodes", mesh.x)
    for name in ("u", "r", "rhs", "d"):
        gp.add_dat(name, "nodes", np.zeros(mesh.nnode))
    gp.add_dat("mask", "nodes", mesh.interior)
    return gp


def fem_owners(mesh: TriMesh, nranks: int) -> dict:
    """Owner arrays (RCB on node coordinates; cells follow node 0)."""
    from repro.mesh.partition import partition_rcb

    node_owner = partition_rcb(mesh.x, nranks)
    return {"nodes": node_owner, "cells": node_owner[mesh.cells[:, 0]]}


class PoissonApp:
    """Assembled FEM Poisson solver (the aero-style vector-arg app)."""

    def __init__(self, mesh: TriMesh, source: float = 1.0,
                 backend: str | None = None, local=None) -> None:
        from repro.op2.distribute import build_serial_problem

        self.mesh = mesh
        self.backend = backend
        if local is None:
            local = build_serial_problem(fem_problem(mesh))
        self.local = local
        self.nodes = local.sets["nodes"]
        self.cells = local.sets["cells"]
        self.pcell = local.maps["pcell"]
        self.x = local.dats["x"].freeze()
        self.u = local.dats["u"]
        self.r = local.dats["r"]
        self.rhs = local.dats["rhs"]
        self.d = local.dats["d"]
        self.mask = local.dats["mask"].freeze()
        self.g_omega = op2.Global(1, 0.8, "omega", const=True)
        self.g_src = op2.Global(1, source, "fsrc", const=True)
        self.g_norm = op2.Global(1, 0.0, "norm")

        self.k_stiff = op2.Kernel(stiffness)
        self.k_diag = op2.Kernel(diag)
        self.k_load = op2.Kernel(load)
        self.k_jacobi = op2.Kernel(jacobi)
        self.k_norm = op2.Kernel(resnorm)

        # one-time assembly of the diagonal and load vector
        op2.par_loop(self.k_diag, self.cells,
                     self.x.arg(op2.READ, self.pcell, op2.ALL),
                     self.d.arg(op2.INC, self.pcell, op2.ALL),
                     backend=backend)
        op2.par_loop(self.k_load, self.cells,
                     self.x.arg(op2.READ, self.pcell, op2.ALL),
                     self.rhs.arg(op2.INC, self.pcell, op2.ALL),
                     self.g_src.arg(op2.READ), backend=backend)
        R, ALL = op2.READ, op2.ALL
        self._sites = op2.LoopSites({
            "stiffness": (self.k_stiff, self.cells,
                          self.x.arg(R, self.pcell, ALL),
                          self.u.arg(R, self.pcell, ALL),
                          self.r.arg(op2.INC, self.pcell, ALL)),
            "resnorm": (self.k_norm, self.nodes, self.r.arg(R),
                        self.rhs.arg(R), self.mask.arg(R),
                        self.g_norm.arg(op2.INC)),
            "jacobi": (self.k_jacobi, self.nodes, self.r.arg(op2.RW),
                       self.rhs.arg(R), self.d.arg(R), self.mask.arg(R),
                       self.u.arg(op2.RW), self.g_omega.arg(R)),
        }, backend)

    def iterate(self, niter: int) -> list[float]:
        """Damped Jacobi iterations; returns the residual-norm history."""
        history = []
        for _ in range(niter):
            self._sites.run("stiffness")
            self.g_norm.value = 0.0
            self._sites.run("resnorm")
            self._sites.run("jacobi")
            history.append(float(np.sqrt(self.g_norm.value)))
        return history

    @classmethod
    def from_local(cls, mesh: TriMesh, local, source: float = 1.0,
                   backend: str | None = None) -> "PoissonApp":
        """Build on an already-distributed LocalProblem (one rank)."""
        return cls(mesh, source=source, backend=backend, local=local)

    def solution(self) -> np.ndarray:
        return self.u.data_ro[:, 0].copy()


def exact_peak(terms: int = 60) -> float:
    """max u of -Lap(u) = 1 on the unit square, Dirichlet 0 (series)."""
    total = 0.0
    for m in range(1, terms, 2):
        for k in range(1, terms, 2):
            total += (16.0 / (np.pi**4 * m * k * (m * m + k * k))
                      * np.sin(m * np.pi / 2) * np.sin(k * np.pi / 2))
    return total
