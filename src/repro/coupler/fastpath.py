"""Vectorized gather-apply for interface interpolation.

The inner operation of every transfer is, per target, a weighted sum
of a few donor grid points: ``out[i] = sum_s w[i,s] * vals[pts[i,s]]``.
The historical per-point loop accumulated this left-to-right, so both
implementations here reproduce that **fixed evaluation order**
(``((w0*v0 + w1*v1) + w2*v2) + ...``) elementwise:

* :func:`gather_apply` — numpy chain over the stencil axis; bitwise
  equal to the per-point loop by construction (same scalar ops in the
  same order per output element).
* the optional **native** variant — a small C kernel built and loaded
  by the op2 native backend's compile cache (same toolchain, compile
  lock, disk-cache counters and corrupt-entry rebuild), with the same
  sequential accumulation per output element (OpenMP across targets
  only, so determinism is unaffected) and ``-ffp-contract=off``.
  Unavailable toolchain, compile failure, or load failure all fall
  back to the numpy path silently; :func:`native_status` reports why.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.op2.backends.native import _Fallback, _load_compiled

_SOURCE = r"""
#include <stddef.h>

void gather_apply(long n, long S, long m,
                  const double *w,      /* (n, S) weights */
                  const long *pts,      /* (n, S) donor point indices */
                  const double *vals,   /* (npts, m) donor values */
                  double *out)          /* (n, m) */
{
    #pragma omp parallel for schedule(static)
    for (long i = 0; i < n; ++i) {
        const double *wi = w + i * S;
        const long *pi = pts + i * S;
        for (long c = 0; c < m; ++c) {
            double acc = wi[0] * vals[pi[0] * m + c];
            for (long s = 1; s < S; ++s)
                acc += wi[s] * vals[pi[s] * m + c];
            out[i * m + c] = acc;
        }
    }
}
"""

#: process-level cache: None = not attempted, (fn, lib) = compiled,
#: str = fallback reason
_native_fn: object | None = None


def native_status() -> str:
    """'compiled', 'unattempted', or the fallback reason."""
    if _native_fn is None:
        return "unattempted"
    if isinstance(_native_fn, str):
        return _native_fn
    return "compiled"


def _load_native():
    """Compile (or load cached) gather kernel; reason string on failure."""
    global _native_fn
    if _native_fn is None:
        loaded = _load_compiled(_SOURCE, "coupler_gather_apply",
                                "gather_apply")
        if isinstance(loaded, _Fallback):
            _native_fn = loaded.reason
        else:
            fn, _path, lib = loaded
            fn.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_long,
                           ctypes.POINTER(ctypes.c_double),
                           ctypes.POINTER(ctypes.c_long),
                           ctypes.POINTER(ctypes.c_double),
                           ctypes.POINTER(ctypes.c_double)]
            _native_fn = (fn, lib)  # keep dlopen handle alive
    return _native_fn


def gather_apply(weights: np.ndarray, pts: np.ndarray,
                 donor_values: np.ndarray, native: bool = False) -> np.ndarray:
    """``out[i] = sum_s weights[i, s] * donor_values[pts[i, s]]``.

    ``weights`` (n, S), ``pts`` (n, S) int, ``donor_values`` (npts, m).
    Accumulates the stencil axis left-to-right in a fixed chain, so the
    result is bitwise equal to the historical per-point loop. With
    ``native=True`` the compiled kernel is used when available (same
    per-element arithmetic; silent numpy fallback otherwise).
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    pts = np.ascontiguousarray(pts, dtype=np.int64)
    donor_values = np.ascontiguousarray(donor_values, dtype=np.float64)
    n, S = weights.shape
    m = donor_values.shape[1]
    if native and n:
        loaded = _load_native()
        if not isinstance(loaded, str):
            fn = loaded[0]
            out = np.empty((n, m))
            fn(n, S, m,
               weights.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
               pts.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
               donor_values.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
               out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
            return out
    out = weights[:, 0, None] * donor_values[pts[:, 0]]
    for s in range(1, S):
        out = out + weights[:, s, None] * donor_values[pts[:, s]]
    return out
