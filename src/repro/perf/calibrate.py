"""Calibration of the cost model against the paper's anchor numbers.

Every constant below is either (a) fixed from the implemented
algorithms / mini-scale measurements (search constants, optimization
traffic ratios), or (b) fitted by least squares to the paper's anchor
set — the Table IV step times, the Fig. 7-9 efficiencies and
coupler-wait fractions, the Cirrus/ARCHER2 speedups, and the
monolithic production baselines. ``fit()`` re-derives the fitted
constants from the anchors; the stored defaults are its output, and a
test asserts the two agree so the calibration stays reproducible.

Anchor provenance (paper section in brackets):

=====================  ====================================================
4.58B step times       166/256/512 ARCHER2 nodes -> 14.5/9.4/5.5 h per
                       2000-step revolution [Table IV]; 107-node point from
                       the 82% scaling efficiency [Fig 9]
wait fractions         4.58B: 8->15% over 107->512 nodes [Fig 9];
                       430M: ~7->20% over 10->82 [Fig 7]; 653M: 2->8% [Fig 8]
efficiencies           430M 10->34: 94%, 10->82: 82.4% [Fig 7];
                       653M 15->80: 88% [Fig 8]; Cirrus 17->29: 98% [Fig 8]
Cirrus anchors         653M @17 nodes: 7.1 s/step [IV-B4]; node-to-node
                       4.5-4.6x (653M) and 5.1-5.37x (430M) vs ARCHER2;
                       power-equivalent 3.3-3.4x / 3.75-3.95x [IV-B1/B3]
comm optimizations     PH: 5-7% gain on ARCHER2 low node counts; GG+GH:
                       60-70% runtime reduction on Cirrus [Table III]
monolithic             Haswell 8000 cores: 2000 s/step; ARCHER1 100k
                       cores: 9 days/rev [IV-B5]; mono ~9% slower than
                       coupled at small node counts [Table IV]
=====================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class Calibration:
    """All model constants. See module docstring for provenance."""

    #: seconds per mesh-node update per compute unit, by machine
    unit_seconds: dict[str, float] = field(default_factory=dict)

    # network / PCIe (seconds per surface unit, per log2(nodes) message wave)
    net_bw_cpu: float = 1e-4
    net_lat_cpu: float = 1e-2
    net_bw_gpu: float = 1e-4
    net_lat_gpu: float = 1e-2
    pcie: float = 1e-3

    # coupler costs
    cmp_seconds: float = 2e-8      #: per donor comparison (CU core)
    adt_build: float = 1.0         #: tree build ops per donor quad
    adt_leaf: float = 8.0          #: leaf scan comparisons per query
    interp_seconds: float = 4e-6   #: per-target interpolation+packing
    cu_comm_seconds: float = 5e-3  #: per-CU messaging overhead
    alpha_cpu: float = 0.05        #: coupling cost proportional to compute
    alpha_gpu: float = 0.08
    beta: float = 0.6              #: non-overlapped CU serve fraction

    # communication-optimization ratios (measured on the mini runs)
    ph_byte_ratio: float = 0.35    #: partial-halo bytes / full-halo bytes
    gh_msg_ratio: float = 0.15     #: grouped messages / per-dat messages
    gh_cpu_pack: float = 1.04      #: CPU packing penalty of grouping
    gg_pcie_ratio: float = 0.02    #: gathered PCIe bytes / full-array bytes

    # monolithic baseline
    mono_cmp_seconds: float = 2e-9
    mono_power: float = 1.7        #: interface work ~ iface_nodes^power
    trap_exponent: float = 0.63    #: trapped ranks ~ units^exp


def _anchors(model) -> list[tuple[float, float]]:
    """(modelled, observed) pairs for the fit; relative residuals."""
    from repro.perf.machine import ARCHER1, ARCHER2, CIRRUS, HASWELL_PROD
    from repro.perf.model import RunOptions
    from repro.perf.problems import P430M, P458B, P653M

    mono = RunOptions(mode="monolithic")
    out: list[tuple[float, float]] = []

    # 4.58B ARCHER2 step times [Table IV + Fig 9]
    for nodes, t_obs in [(107, 38.85), (166, 26.1), (256, 16.92),
                         (512, 9.9)]:
        out.append((model.time_per_step(P458B, ARCHER2, nodes), t_obs))
    # wait fractions [Fig 9 / Fig 7 / Fig 8]
    for problem, nodes, f_obs in [
        (P458B, 107, 0.08), (P458B, 512, 0.15),
        (P430M, 10, 0.075), (P430M, 82, 0.20),
        (P653M, 15, 0.03), (P653M, 80, 0.08),
    ]:
        wf = model.breakdown(problem, ARCHER2, nodes).wait_fraction
        out.append((wf, f_obs))
    # efficiencies on ARCHER2 [Figs 7, 8]
    for problem, n0, n1, e_obs in [(P430M, 10, 34, 0.94),
                                   (P430M, 10, 82, 0.824),
                                   (P653M, 15, 80, 0.88)]:
        out.append((model.parallel_efficiency(problem, ARCHER2, n0, n1),
                    e_obs))
    # Cirrus anchors [IV-B]
    out.append((model.time_per_step(P653M, CIRRUS, 17), 7.1))
    out.append((model.parallel_efficiency(P653M, CIRRUS, 17, 29), 0.98))
    out.append((model.breakdown(P653M, CIRRUS, 17).wait_fraction, 0.11))
    out.append((model.breakdown(P430M, CIRRUS, 20).wait_fraction, 0.17))
    # node-to-node speedups (same node counts)
    out.append((model.speedup(P653M, CIRRUS, 20, ARCHER2, 20), 4.55))
    out.append((model.speedup(P430M, CIRRUS, 20, ARCHER2, 20), 5.2))
    # power-equivalent speedups (1.36 ratio)
    out.append((model.speedup(P653M, CIRRUS, 20, ARCHER2, 27), 3.35))
    out.append((model.speedup(P430M, CIRRUS, 20, ARCHER2, 27), 3.85))
    # communication-optimization gains [Table III]
    ph_off = RunOptions(partial_halos=False)
    out.append((model.time_per_step(P430M, ARCHER2, 10, ph_off)
                / model.time_per_step(P430M, ARCHER2, 10), 1.06))
    out.append((model.time_per_step(P458B, ARCHER2, 107, ph_off)
                / model.time_per_step(P458B, ARCHER2, 107), 1.06))
    gpu_default = RunOptions(partial_halos=False, grouped_halos=False,
                             gpu_gather=False)
    out.append((model.time_per_step(P430M, CIRRUS, 15, gpu_default)
                / model.time_per_step(P430M, CIRRUS, 15), 3.0))
    # monolithic production baselines [IV-B5]
    out.append((model.time_per_step(P458B, HASWELL_PROD, 8000 // 24, mono),
                2000.0))
    out.append((model.time_per_step(P458B, ARCHER1, 100_000 // 24, mono),
                9 * 24 * 3600 / 2000.0))
    return out


#: parameter names optimized by fit(); everything else stays fixed
_FIT_PARAMS = [
    "w_cpu", "net_bw_cpu", "net_lat_cpu", "alpha_cpu",
    "interp_seconds", "cu_comm_seconds",
    "w_gpu", "net_bw_gpu", "net_lat_gpu", "pcie", "alpha_gpu",
    "mono_cmp_seconds",
]


def _build(values: dict[str, float]) -> Calibration:
    w_cpu = values.pop("w_cpu")
    w_gpu = values.pop("w_gpu")
    cal = Calibration(**values)
    cal.unit_seconds = {
        "ARCHER2": w_cpu,
        "Cirrus": w_gpu,
        # "2x to 3x of the 30x is due to next generation hardware" (paper):
        # prior-generation cores are ~2.5x / 2.2x slower than EPYC cores
        "Haswell-prod": 2.5 * w_cpu,
        "ARCHER1": 2.2 * w_cpu,
    }
    return cal


def fit(x0: dict[str, float] | None = None, verbose: bool = False
        ) -> Calibration:
    """Least-squares fit of the free constants to the paper anchors."""
    import numpy as np
    from scipy.optimize import least_squares

    from repro.perf.model import PerfModel

    start = dict(
        w_cpu=1.1e-4, net_bw_cpu=2e-4, net_lat_cpu=2e-2, alpha_cpu=0.05,
        interp_seconds=4e-6, cu_comm_seconds=5e-3,
        w_gpu=6e-4, net_bw_gpu=5e-5, net_lat_gpu=1e-2, pcie=2e-4,
        alpha_gpu=0.08, mono_cmp_seconds=2.5e-9,
    )
    if x0:
        start.update(x0)

    def residuals(logx):
        values = {name: float(np.exp(np.clip(v, -60.0, 10.0)))
                  for name, v in zip(_FIT_PARAMS, logx)}
        model = PerfModel(_build(values))
        pairs = _anchors(model)
        return [np.log(max(m, 1e-12) / o) for m, o in pairs]

    x0v = np.log([start[name] for name in _FIT_PARAMS])
    sol = least_squares(residuals, x0v, method="lm", max_nfev=4000)
    values = {name: float(np.exp(np.clip(v, -60.0, 10.0)))
              for name, v in zip(_FIT_PARAMS, sol.x)}
    if verbose:  # pragma: no cover
        print("fit cost:", sol.cost)
        for name, v in values.items():
            print(f"  {name} = {v:.6g}")
    return _build(values)


def unit_seconds_from_metrics(doc: dict) -> float:
    """Measured seconds per node update from a telemetry metrics doc.

    ``doc`` is a ``repro-telemetry-metrics-v1`` summary (see
    :mod:`repro.telemetry.metrics`): the per-kernel compute seconds and
    element counts give exactly the ``unit_seconds`` quantity the cost
    model is parameterized by — so the model can be calibrated from a
    recorded run instead of a separate ad-hoc timing pass.
    """
    kernels = doc.get("kernels") or {}
    compute = sum(k["compute_seconds"] for k in kernels.values())
    elements = sum(k["elements"] for k in kernels.values())
    if elements <= 0:
        raise ValueError("metrics doc records no loop elements; was the "
                         "run traced?")
    return compute / elements


def calibrate_unit_seconds(doc: dict, machine: str = "local",
                           base: Calibration | None = None) -> Calibration:
    """A copy of ``base`` with ``unit_seconds[machine]`` measured from
    a telemetry metrics doc (defaults to the paper-anchored
    :data:`CALIBRATION`)."""
    base = base if base is not None else CALIBRATION
    cal = replace(base)
    cal.unit_seconds = dict(base.unit_seconds)
    cal.unit_seconds[machine] = unit_seconds_from_metrics(doc)
    return cal


def _default_calibration() -> Calibration:
    """The baked output of ``fit()`` (see test_perf_calibration)."""
    return _build(dict(
        w_cpu=1.02948e-4,
        net_bw_cpu=5.08029e-4,
        net_lat_cpu=1e-12,      # fit drove the CPU latency term to zero
        alpha_cpu=4.30848e-2,
        interp_seconds=5.12223e-7,
        cu_comm_seconds=5.06380e-3,
        w_gpu=6.28468e-7,
        net_bw_gpu=1e-12,       # Cirrus loss is PCIe-dominated in the fit
        net_lat_gpu=1e-12,
        pcie=2.84569e-4,
        alpha_gpu=9.23916e-2,
        mono_cmp_seconds=1.96186e-6,
    ))


CALIBRATION = _default_calibration()
