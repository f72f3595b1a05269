"""Spalart-Allmaras-style turbulence working variable.

Hydra runs the one-equation Spalart-Allmaras model [paper §IV-A2]. We
transport the SA working variable nu_t with the same edge-based OP2
motif as the mean flow: first-order upwind convection along edges, a
gradient diffusion term, and the SA-shaped source (production
proportional to a shear estimate, wall destruction ~ (nu/d)^2 with d
the wall distance).

Substitution note (recorded in DESIGN.md): the mean flow here is
inviscid (Rusanov Euler), so nu_t is transported *passively* — it
exercises the complete second-equation code path (extra dat, extra
kernels, extra halo exchanges, its own reductions) without feeding an
eddy viscosity back. The paper's performance story depends on the code
path, not on the RANS closure fidelity.
"""

from __future__ import annotations

import numpy as np

from repro import op2
from repro.op2 import Kernel

#: SA-like model constants (cb1, cw1 analogues and diffusion sigma).
#: NOTE: kernels are written in the restricted OP2 language, which has
#: no free variables — the constants appear as literals in the kernel
#: bodies below and are mirrored here for tests and documentation.
CB1 = 0.1355
CW1 = 3.24
SIGMA_INV = 1.5


def nut_zero_res(r):
    r[0] = 0.0


def nut_flux_edge(q1, q2, n1, n2, w, r1, r2):
    """Upwind convective + gradient diffusion flux for nu_t along an edge."""
    u1 = q1[1] / q1[0]
    v1 = q1[2] / q1[0]
    s1 = q1[3] / q1[0]
    u2 = q2[1] / q2[0]
    v2 = q2[2] / q2[0]
    s2 = q2[3] / q2[0]
    vn1 = u1 * w[0] + v1 * w[1] + s1 * w[2]
    vn2 = u2 * w[0] + v2 * w[1] + s2 * w[2]
    vn = 0.5 * (vn1 + vn2)
    area = sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])  # noqa: F821
    # upwind convection + symmetric dissipation
    f = 0.5 * vn * (n1[0] + n2[0]) - 0.5 * fabs(vn) * (n2[0] - n1[0])  # noqa: F821
    # gradient diffusion (edge-difference approximation)
    nu_face = 0.5 * (n1[0] + n2[0])
    f = f - 1.5 * nu_face * area * (n2[0] - n1[0])
    r1[0] += f
    r2[0] -= f


def nut_source(q, nut, xyz, vol, r, prm):
    """SA-shaped source: production - wall destruction.

    ``prm = [r_inner, r_outer]`` gives the wall distance
    d = min(z - r_in, r_out - z); shear is estimated as |u|/d.
    """
    d_lo = xyz[2] - prm[0]
    d_hi = prm[1] - xyz[2]
    d = d_lo if d_lo < d_hi else d_hi
    d = d if d > 1e-6 else 1e-6
    rho = q[0]
    speed = sqrt((q[1] * q[1] + q[2] * q[2] + q[3] * q[3])) / rho  # noqa: F821
    shear = speed / d
    production = 0.1355 * shear * nut[0]
    destruction = 3.24 * (nut[0] / d) * (nut[0] / d)
    r[0] -= vol[0] * (production - destruction)


def nut_update(nutr, vol, mask, nut, coef):
    """Explicit update with positivity clipping (nu_t >= 0)."""
    value = nut[0] - mask[0] * coef[0] / vol[0] * nutr[0]
    nut[0] = value if value > 0.0 else 0.0


def nut_norm(nut, norm):
    norm[0] += nut[0] * nut[0]


KERNELS = {
    "nut_zero_res": Kernel(nut_zero_res),
    "nut_flux_edge": Kernel(nut_flux_edge),
    "nut_source": Kernel(nut_source),
    "nut_update": Kernel(nut_update),
    "nut_norm": Kernel(nut_norm),
}


class TurbulenceModel:
    """SA-like working-variable transport bolted onto a HydraSolver.

    Creates its own ``nut`` and ``nut_res`` dats on the solver's node
    set and advances once per physical step (loose coupling).
    """

    def __init__(self, solver, nut_inf: float = 1e-3) -> None:
        self.solver = solver
        nodes = solver.nodes
        self.nut = op2.Dat(nodes, 1,
                           data=np.full((nodes.total_size, 1), nut_inf),
                           name="nut")
        self.nut_res = op2.Dat(nodes, 1, name="nut_res")
        cfg = solver.config
        self.g_prm = op2.Global(2, [cfg.r_inner, cfg.r_outer], "sa_prm",
                                const=True)
        self.g_coef = op2.Global(1, 0.0, "sa_coef")
        self.g_norm = op2.Global(1, 0.0, "nut_l2")
        lp = solver.local
        pedge = lp.maps["pedge"]
        R, INC = op2.READ, op2.INC
        q, nut, res = solver.q, self.nut, self.nut_res
        sites = {
            "nut_zero_res": (solver.nodes, res.arg(op2.WRITE)),
            "nut_flux_edge": (solver.edges, q.arg(R, pedge, 0),
                              q.arg(R, pedge, 1), nut.arg(R, pedge, 0),
                              nut.arg(R, pedge, 1), lp.dats["edgew"].arg(R),
                              res.arg(INC, pedge, 0), res.arg(INC, pedge, 1)),
            "nut_source": (solver.nodes, q.arg(R), nut.arg(R),
                           lp.dats["xyz"].arg(R), lp.dats["vol"].arg(R),
                           res.arg(INC), self.g_prm.arg(R)),
            "nut_update": (solver.nodes, res.arg(R), lp.dats["vol"].arg(R),
                           lp.dats["mask"].arg(R), nut.arg(op2.RW),
                           self.g_coef.arg(R)),
            "nut_norm": (solver.nodes, nut.arg(R), self.g_norm.arg(INC)),
        }
        self._sites = op2.LoopSites(
            {name: (KERNELS[name], *site) for name, site in sites.items()},
            solver.num.backend)

    def advance(self) -> None:
        """One explicit transport step (call after each physical step)."""
        run = self._sites.run
        run("nut_zero_res")
        run("nut_flux_edge")
        run("nut_source")
        self.g_coef.value = self.solver.dt_outer
        run("nut_update")

    def norm(self) -> float:
        """Collective L2 norm of nu_t (distributed-safe)."""
        self.g_norm.value = 0.0
        self._sites.run("nut_norm")
        return float(np.sqrt(self.g_norm.value))
