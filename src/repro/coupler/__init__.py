"""JM76-style coupler: sliding planes between Hydra Sessions.

Reproduces the paper's coupler architecture: Hydra Sessions (HS)
exchange sliding-plane data through Coupler Units (CU) running on
dedicated ranks ("rendezvous" layout). Each CU owns a circumferential
segment of an interface, performs the moving donor search — brute
force or the alternating-digital-tree (ADT) binary search whose
introduction the paper credits with a 35% coupler speedup — and
interpolates flow values onto the neighbour row's halo layer with the
exact rotating-frame velocity transformation.

The :mod:`~repro.coupler.monolithic` baseline executes the same search
and interpolation inline on the solver ranks that own interface nodes
(no CUs, no segmentation) — the production configuration whose load
imbalance the paper identifies as the scaling bottleneck.
"""

from repro.coupler.adt import ADTree
from repro.coupler.search import (
    DEFAULT_EPS,
    ADTSearch,
    BatchHits,
    BruteForceSearch,
    DonorGeometry,
    IncrementalSearch,
    SearchStats,
    bilinear_weights_batch,
    make_search,
)
from repro.coupler.biquad import biquadratic_stencil, flux_error, grid_axes
from repro.coupler.fastpath import gather_apply, native_status
from repro.coupler.interface import SideGeometry, SlidingInterface
from repro.coupler.partitioning import segment_of, segment_targets
from repro.coupler.unit import CUTransferEngine, TransferResult
from repro.coupler.setup import (
    DriverSetup,
    balanced_ranks,
    build_driver_setup,
    setup_fingerprint,
)
from repro.coupler.driver import CoupledDriver, CoupledRunConfig, CoupledResult
from repro.coupler.monolithic import MonolithicDriver

__all__ = [
    "ADTree", "ADTSearch", "BatchHits", "BruteForceSearch", "CUTransferEngine",
    "DEFAULT_EPS", "DonorGeometry", "IncrementalSearch", "SearchStats",
    "TransferResult", "bilinear_weights_batch", "biquadratic_stencil",
    "flux_error", "gather_apply", "grid_axes", "make_search",
    "native_status", "SideGeometry", "SlidingInterface", "segment_of",
    "segment_targets", "CoupledDriver", "CoupledRunConfig", "CoupledResult",
    "DriverSetup", "MonolithicDriver", "balanced_ranks", "build_driver_setup",
    "setup_fingerprint",
]
