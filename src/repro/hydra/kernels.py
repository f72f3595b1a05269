"""Mini-Hydra elemental kernels (the OP2 "science source").

Each function below is a restricted-language OP2 kernel describing the
computation for one mesh element. The code generator turns these into
sequential, vectorized and compiled block-color-plan
parallelizations; nothing here knows about parallelism — exactly the
paper's Fig. 3 discipline.

Conserved state layout: ``q = [rho, rho*ux, rho*uy, rho*uz, E]``.
Residual convention: ``res`` accumulates the net *outflow* plus dual
time-derivative terms; the RK stage subtracts ``coef/vol * res``.
"""

from repro.op2 import Kernel


# -- residual assembly ---------------------------------------------------

def zero_res(res):
    """Reset the residual accumulator of one node."""
    for i in range(5):
        res[i] = 0.0


def flux_edge(q1, q2, w, r1, r2, gam):
    """Rusanov (local Lax-Friedrichs) flux along one interior edge.

    ``w`` is the dual-face normal (magnitude = face area) oriented from
    node 1 to node 2; the flux leaves node 1's control volume and
    enters node 2's.
    """
    gm1 = gam[0] - 1.0
    rl = q1[0]
    il = 1.0 / rl
    ul = q1[1] * il
    vl = q1[2] * il
    sl = q1[3] * il
    pl = gm1 * (q1[4] - 0.5 * rl * (ul * ul + vl * vl + sl * sl))
    rr = q2[0]
    ir = 1.0 / rr
    ur = q2[1] * ir
    vr = q2[2] * ir
    sr = q2[3] * ir
    pr = gm1 * (q2[4] - 0.5 * rr * (ur * ur + vr * vr + sr * sr))
    vnl = ul * w[0] + vl * w[1] + sl * w[2]
    vnr = ur * w[0] + vr * w[1] + sr * w[2]
    area = sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])  # noqa: F821
    cl = sqrt(gam[0] * pl * il)  # noqa: F821
    cr = sqrt(gam[0] * pr * ir)  # noqa: F821
    lam = max(fabs(vnl) + cl * area, fabs(vnr) + cr * area)  # noqa: F821
    f0 = 0.5 * (rl * vnl + rr * vnr + lam * (q1[0] - q2[0]))
    f1 = 0.5 * (q1[1] * vnl + pl * w[0] + q2[1] * vnr + pr * w[0]
                + lam * (q1[1] - q2[1]))
    f2 = 0.5 * (q1[2] * vnl + pl * w[1] + q2[2] * vnr + pr * w[1]
                + lam * (q1[2] - q2[2]))
    f3 = 0.5 * (q1[3] * vnl + pl * w[2] + q2[3] * vnr + pr * w[2]
                + lam * (q1[3] - q2[3]))
    f4 = 0.5 * ((q1[4] + pl) * vnl + (q2[4] + pr) * vnr
                + lam * (q1[4] - q2[4]))
    r1[0] += f0
    r1[1] += f1
    r1[2] += f2
    r1[3] += f3
    r1[4] += f4
    r2[0] -= f0
    r2[1] -= f1
    r2[2] -= f2
    r2[3] -= f3
    r2[4] -= f4


def wall_flux(q, wz, r, gam):
    """Inviscid wall: only pressure acts, on the z-momentum.

    ``wz`` is the signed wall face area (outward z normal * area).
    """
    rho = q[0]
    ke = 0.5 * (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / rho
    p = (gam[0] - 1.0) * (q[4] - ke)
    r[3] += p * wz[0]


def inlet_flux(q, a, r, gam, qin):
    """Subsonic inlet: ghost carries the prescribed density/velocity,
    interior pressure floats out (one incoming characteristic relaxed).

    ``qin = [rho, ux, uy, uz]`` of the inflow; face normal is
    ``(-a, 0, 0)`` (outward), area ``a``.
    """
    gm1 = gam[0] - 1.0
    rho = q[0]
    inv = 1.0 / rho
    u = q[1] * inv
    v = q[2] * inv
    s = q[3] * inv
    p_int = gm1 * (q[4] - 0.5 * rho * (u * u + v * v + s * s))
    rg = qin[0]
    ug = qin[1]
    vg = qin[2]
    sg = qin[3]
    eg = p_int / gm1 + 0.5 * rg * (ug * ug + vg * vg + sg * sg)
    # Rusanov against the ghost through n = (-a, 0, 0)
    vni = -u * a[0]
    vng = -ug * a[0]
    ci = sqrt(gam[0] * p_int * inv)  # noqa: F821
    cg = sqrt(gam[0] * p_int / rg)  # noqa: F821
    lam = max(fabs(vni) + ci * a[0], fabs(vng) + cg * a[0])  # noqa: F821
    r[0] += 0.5 * (rho * vni + rg * vng + lam * (q[0] - rg))
    r[1] += 0.5 * (q[1] * vni - p_int * a[0] + rg * ug * vng - p_int * a[0]
                   + lam * (q[1] - rg * ug))
    r[2] += 0.5 * (q[2] * vni + rg * vg * vng + lam * (q[2] - rg * vg))
    r[3] += 0.5 * (q[3] * vni + rg * sg * vng + lam * (q[3] - rg * sg))
    r[4] += 0.5 * ((q[4] + p_int) * vni + (eg + p_int) * vng
                   + lam * (q[4] - eg))


def outlet_flux(q, a, r, gam, pout):
    """Subsonic outlet: static pressure pinned to ``pout``, everything
    else extrapolated. Face normal ``(+a, 0, 0)``."""
    gm1 = gam[0] - 1.0
    rho = q[0]
    inv = 1.0 / rho
    u = q[1] * inv
    v = q[2] * inv
    s = q[3] * inv
    p_int = gm1 * (q[4] - 0.5 * rho * (u * u + v * v + s * s))
    # ghost: same density/velocity, pressure pinned to pout
    eg = pout[0] / gm1 + 0.5 * rho * (u * u + v * v + s * s)
    vn = u * a[0]
    c = sqrt(gam[0] * p_int * inv)  # noqa: F821
    lam = fabs(vn) + c * a[0]  # noqa: F821
    r[0] += rho * vn
    r[1] += q[1] * vn + 0.5 * (p_int + pout[0]) * a[0]
    r[2] += q[2] * vn
    r[3] += q[3] * vn
    r[4] += 0.5 * ((q[4] + p_int) * vn + (eg + pout[0]) * vn
                   + lam * (q[4] - eg))


def blade_force(q, xyz, vol, r, prm):
    """Blade-row body force: relax swirl towards the row's target and
    apply the rotor work (axial) forcing, modulated by blade wakes.

    ``prm = [rate, v_target, wake_amp, k_wave, f_axial]`` with
    ``k_wave = blade_count / r_mid`` so the wake pattern is periodic
    over the annulus and stationary in this row's frame.
    """
    rho = q[0]
    u = q[1] / rho
    v = q[2] / rho
    mod = 1.0 + prm[2] * cos(prm[3] * xyz[1])  # noqa: F821
    fy = prm[0] * rho * (prm[1] * mod - v)
    fx = prm[4] * rho * mod
    r[1] -= vol[0] * fx
    r[2] -= vol[0] * fy
    r[4] -= vol[0] * (fx * u + fy * v)


# -- time integration ---------------------------------------------------

def local_dt(q, h, gam, cfl, dtmin):
    """Pseudo-time step bound of one node (global MIN reduction).

    ``h`` is the minimum grid spacing — the conservative length scale
    for anisotropic cells (vol^(1/3) would overestimate the stable
    step when one direction is much finer than the others).
    """
    rho = q[0]
    inv = 1.0 / rho
    u = q[1] * inv
    v = q[2] * inv
    s = q[3] * inv
    p = (gam[0] - 1.0) * (q[4] - 0.5 * rho * (u * u + v * v + s * s))
    c = sqrt(gam[0] * p * inv)  # noqa: F821
    lam = fabs(u) + fabs(v) + fabs(s) + c  # noqa: F821
    dtmin[0] = min(dtmin[0], cfl[0] * h[0] / lam)  # noqa: F821


def save_state(q, q0):
    """Copy q into the RK stage base."""
    for i in range(5):
        q0[i] = q[i]


def rk_stage(q0, res, vol, mask, q, coef):
    """One low-storage RK stage: q = q0 - mask * coef/vol * res.

    ``mask`` is 0 on sliding-plane halo nodes (the coupler owns them).
    """
    f = mask[0] * coef[0] / vol[0]
    for i in range(5):
        q[i] = q0[i] - f * res[i]


def dual_source(q, qn, qnm1, res, vol, w):
    """BDF physical-time derivative added to the pseudo-time residual.

    ``w = [a, b, c]`` are the BDF weights divided by the physical dt:
    BDF1 -> [1, -1, 0]/dt on the first step, BDF2 -> [1.5, -2, 0.5]/dt.
    """
    for i in range(5):
        res[i] += vol[0] * (w[0] * q[i] + w[1] * qn[i] + w[2] * qnm1[i])


def shift_history(q, qn, qnm1):
    """Advance the physical-time history: qnm1 <- qn <- q."""
    for i in range(5):
        qnm1[i] = qn[i]
        qn[i] = q[i]


def smooth_gather(rs1, rs2, acc1, acc2):
    """Gather neighbouring smoothed residuals (one Jacobi half-step)."""
    for i in range(5):
        acc1[i] += rs2[i]
        acc2[i] += rs1[i]


def smooth_update(res, acc, deg, prm, rs):
    """Jacobi update of implicit residual smoothing.

    Solves (I - eps*Lap) rs = res approximately:
    rs <- (res + eps * sum_nbr rs_nbr) / (1 + eps * degree).
    ``prm[0]`` is eps.
    """
    f = 1.0 / (1.0 + prm[0] * deg[0])
    for i in range(5):
        rs[i] = (res[i] + prm[0] * acc[i]) * f
        acc[i] = 0.0


# -- monitors ----------------------------------------------------------------

def residual_norm(res, mask, vol, norm):
    """Volume-weighted L2 residual accumulation (core nodes only)."""
    f = mask[0] / vol[0]
    for i in range(5):
        norm[0] += f * res[i] * res[i]


def total_pressure_sum(q, mask, gam, acc):
    """Accumulate isentropic stagnation pressure over core nodes.

    ``acc = [sum p0, count]`` — the mean stagnation pressure is the
    compressor's work-input measure (its rise across the machine is
    the real performance figure, robust to static-pressure recovery).
    """
    rho = q[0]
    inv = 1.0 / rho
    u = q[1] * inv
    v = q[2] * inv
    s = q[3] * inv
    ke = 0.5 * (u * u + v * v + s * s)
    p = (gam[0] - 1.0) * (q[4] - rho * ke)
    c2 = gam[0] * p * inv
    m2 = (u * u + v * v + s * s) / c2
    p0 = p * pow(1.0 + 0.5 * (gam[0] - 1.0) * m2,
                 gam[0] / (gam[0] - 1.0))  # noqa: F821
    acc[0] += mask[0] * p0
    acc[1] += mask[0]


def face_mass_flow(q, a, mdot):
    """Mass flow through an x-normal boundary face: rho*ux*A."""
    mdot[0] += q[1] * a[0]


# -- pre-built Kernel objects (shared, codegen cache lives on them) -------
KERNELS = {
    "zero_res": Kernel(zero_res),
    "flux_edge": Kernel(flux_edge),
    "wall_flux": Kernel(wall_flux),
    "inlet_flux": Kernel(inlet_flux),
    "outlet_flux": Kernel(outlet_flux),
    "blade_force": Kernel(blade_force),
    "local_dt": Kernel(local_dt),
    "save_state": Kernel(save_state),
    "rk_stage": Kernel(rk_stage),
    "dual_source": Kernel(dual_source),
    "shift_history": Kernel(shift_history),
    "smooth_gather": Kernel(smooth_gather),
    "smooth_update": Kernel(smooth_update),
    "residual_norm": Kernel(residual_norm),
    "total_pressure_sum": Kernel(total_pressure_sum),
    "face_mass_flow": Kernel(face_mass_flow),
}
