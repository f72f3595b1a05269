"""Machine-readable metrics: run summaries and benchmark records.

Two small JSON schemas, both versioned by a ``schema`` tag:

* ``repro-telemetry-metrics-v1`` — one run's merged telemetry: span
  counts, counters, per-category seconds, the paper-style
  compute/halo/coupler breakdown, per-kernel aggregates, structured
  cache hit/miss accounting (plan cache, compiled-kernel cache, the
  service setup cache), and (when supplied) the smpi traffic ledger's
  per-phase message/byte totals.
* ``repro-telemetry-bench-v1`` — one benchmark module's results
  (``benchmarks/out/BENCH_<name>.json``), a flat name → measurement map
  so perf trajectories can be diffed across commits.
"""

from __future__ import annotations

import json
import pathlib
import time

METRICS_SCHEMA = "repro-telemetry-metrics-v1"
BENCH_SCHEMA = "repro-telemetry-bench-v1"

#: cache name -> outcome field -> counter key. The structured
#: ``caches`` section of a metrics doc is distilled from these raw
#: counters so dedup/reuse claims (plan cache, compiled-kernel cache,
#: the service layer's shared problem-setup cache) are verifiable from
#: the summary alone instead of requiring span archaeology.
CACHE_COUNTER_MAP = {
    "plan": {
        "hits": ("op2.plan.cache_hit",),
        "misses": ("op2.plan.build",),
    },
    "kernel": {
        "hits": ("op2.native.cache_hit_mem", "op2.native.cache_hit_disk"),
        "misses": ("op2.native.compile",),
        "corrupt": ("op2.native.cache_corrupt",),
    },
    "setup": {
        "hits": ("service.setup.hit",),
        "misses": ("service.setup.miss",),
    },
}


#: the coupler transfer-engine counters promoted into the structured
#: ``coupler`` section: donor-cache effectiveness of the incremental
#: search plus interpolation throughput. Emitted by
#: :class:`~repro.coupler.unit.CUTransferEngine` during traced runs.
COUPLER_COUNTER_MAP = {
    "search": {
        "queries": "coupler.search.queries",
        "comparisons": "coupler.search.comparisons",
        "cache_hits": "coupler.search.cache_hits",
        "revalidated": "coupler.search.revalidated",
        "researched": "coupler.search.researched",
        "comparisons_saved": "coupler.search.comparisons_saved",
    },
    "interp": {
        "rounds": "coupler.interp.rounds",
        "bilinear_points": "coupler.interp.bilinear.points",
        "biquadratic_points": "coupler.interp.biquadratic.points",
    },
}


def cache_summary(counters) -> dict:
    """Structured hit/miss accounting per cache, from raw counters."""
    return {
        cache: {
            outcome: float(sum(counters.get(key, 0.0) for key in keys))
            for outcome, keys in fields.items()
        }
        for cache, fields in CACHE_COUNTER_MAP.items()
    }


def coupler_summary(counters) -> dict:
    """Structured coupler transfer-engine accounting, from raw counters."""
    return {
        group: {
            field: float(counters.get(key, 0.0))
            for field, key in fields.items()
        }
        for group, fields in COUPLER_COUNTER_MAP.items()
    }


def metrics_summary(timeline, traffic=None, meta=None) -> dict:
    """Render a Timeline (plus optional Traffic ledger) as a metrics doc."""
    doc = {
        "schema": METRICS_SCHEMA,
        "created_unix": time.time(),
        "meta": dict(meta or {}),
        "ranks": list(timeline.ranks),
        "span_count": len(timeline.spans),
        "counters": dict(timeline.counters),
        "caches": cache_summary(timeline.counters),
        "coupler": coupler_summary(timeline.counters),
        "categories": timeline.by_category(),
        "breakdown": timeline.breakdown(),
        "kernels": {
            name: {
                "calls": st.calls,
                "elements": st.elements,
                "compute_seconds": st.compute_seconds,
                "halo_seconds": st.halo_seconds,
            }
            for name, st in sorted(timeline.loop_stats.items())
        },
    }
    if traffic is not None:
        doc["traffic"] = {
            phase: dict(counts)
            for phase, counts in sorted(traffic.by_phase().items())
        }
    return doc


def validate_metrics(doc) -> None:
    """Raise :class:`ValueError` unless ``doc`` is a valid metrics doc."""
    if not isinstance(doc, dict):
        raise ValueError("metrics doc must be a JSON object")
    if doc.get("schema") != METRICS_SCHEMA:
        raise ValueError(f"expected schema {METRICS_SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    for key in ("breakdown", "categories", "kernels", "counters", "caches",
                "coupler"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"metrics doc missing object field {key!r}")
    for cache, fields in doc["caches"].items():
        if not isinstance(fields, dict):
            raise ValueError(f"caches[{cache!r}] must be an object")
        for outcome in ("hits", "misses"):
            v = fields.get(outcome)
            if not isinstance(v, (int, float)) or v < 0:
                raise ValueError(
                    f"caches[{cache!r}][{outcome!r}] must be >= 0")
    for group, fields in COUPLER_COUNTER_MAP.items():
        section = doc["coupler"].get(group)
        if not isinstance(section, dict):
            raise ValueError(f"coupler[{group!r}] must be an object")
        for field in fields:
            v = section.get(field)
            if not isinstance(v, (int, float)) or v < 0:
                raise ValueError(
                    f"coupler[{group!r}][{field!r}] must be >= 0")
    bd = doc["breakdown"]
    for bucket in ("compute", "halo", "coupler"):
        v = bd.get(bucket)
        if not isinstance(v, (int, float)) or v < 0:
            raise ValueError(f"breakdown[{bucket!r}] must be >= 0")
    for name, k in doc["kernels"].items():
        for f in ("calls", "elements", "compute_seconds", "halo_seconds"):
            if not isinstance(k.get(f), (int, float)):
                raise ValueError(f"kernel {name!r} missing numeric {f!r}")


def write_metrics(path, doc) -> dict:
    validate_metrics(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return doc


# --------------------------------------------------------------------------
# benchmark summaries
# --------------------------------------------------------------------------

def bench_summary(name: str, metrics: dict, meta=None) -> dict:
    """One benchmark module's machine-readable record.

    ``metrics`` maps measurement name → ``{"value": float, "unit": str,
    ...extras}``.
    """
    return {
        "schema": BENCH_SCHEMA,
        "created_unix": time.time(),
        "name": name,
        "meta": dict(meta or {}),
        "metrics": {k: dict(v) for k, v in metrics.items()},
    }


def validate_bench(doc) -> None:
    if not isinstance(doc, dict):
        raise ValueError("bench doc must be a JSON object")
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"expected schema {BENCH_SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        raise ValueError("bench doc needs a non-empty name")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("bench doc needs a non-empty metrics object")
    for k, m in metrics.items():
        if not isinstance(m, dict):
            raise ValueError(f"metric {k!r} must be an object")
        if not isinstance(m.get("value"), (int, float)):
            raise ValueError(f"metric {k!r} needs a numeric value")
        if not isinstance(m.get("unit"), str):
            raise ValueError(f"metric {k!r} needs a unit string")


def write_bench_summary(out_dir, name: str, metrics: dict,
                        meta=None) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
    doc = bench_summary(name, metrics, meta)
    validate_bench(doc)
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path
