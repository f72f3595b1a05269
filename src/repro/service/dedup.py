"""Cross-tenant problem-setup deduplication.

Building a coupled case — meshes, initial problems, partition
layouts, interface routing — is pure in the config fields hashed by
:func:`~repro.coupler.setup.setup_fingerprint`, so the service keeps
one :class:`~repro.coupler.setup.DriverSetup` per fingerprint and
hands it to every driver (first submission builds, every later
identical case adopts). Combined with the existing process-wide plan
cache and on-disk compiled-kernel cache this makes the second tenant's
identical case pay ~zero setup — a claim the cache counters
(``service.setup.hit`` / ``service.setup.miss``, surfaced in the
metrics-doc ``caches`` section) and the service benchmark verify.

Per-fingerprint build locks serialize concurrent first submissions of
the *same* case (one builds, the others wait and adopt) without
serializing builds of different cases.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.coupler.driver import CoupledDriver, CoupledRunConfig
from repro.coupler.setup import (
    DriverSetup,
    build_driver_setup,
    setup_fingerprint,
)

__all__ = ["SetupCache", "SetupCacheStats"]


@dataclass
class SetupCacheStats:
    """Counter-verified dedup accounting."""

    hits: int = 0
    misses: int = 0
    build_seconds: float = 0.0     #: total spent building on misses
    hit_seconds: float = 0.0       #: total spent serving hits
    #: per-fingerprint build cost, for "second tenant pays < 10%" proofs
    build_cost: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "build_seconds": self.build_seconds,
                "hit_seconds": self.hit_seconds,
                "entries": len(self.build_cost)}


class SetupCache:
    """Shared, thread-safe DriverSetup cache keyed by setup fingerprint.

    ``recorder`` (optional, a
    :class:`~repro.telemetry.recorder.RankRecorder`) receives
    ``service.setup.hit`` / ``service.setup.miss`` counters under the
    cache's own lock, so a service-level metrics doc carries the dedup
    evidence regardless of which worker thread triggered the build.
    """

    def __init__(self, recorder=None) -> None:
        self._entries: dict[str, DriverSetup] = {}
        self._building: dict[str, threading.Lock] = {}
        self._lock = threading.Lock()
        self._recorder = recorder
        self.stats = SetupCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str) -> None:
        if self._recorder is not None:
            self._recorder.counter(name)

    def get(self, cfg: CoupledRunConfig) -> DriverSetup:
        """The (possibly shared) setup for ``cfg``; builds on miss."""
        t0 = time.perf_counter()
        key = setup_fingerprint(cfg)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self.stats.hit_seconds += time.perf_counter() - t0
                self._count("service.setup.hit")
                return entry
            gate = self._building.setdefault(key, threading.Lock())
        with gate:
            # first holder builds; laggards find the entry published
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self.stats.hits += 1
                    self.stats.hit_seconds += time.perf_counter() - t0
                    self._count("service.setup.hit")
                    return entry
            built = build_driver_setup(cfg)
            dt = time.perf_counter() - t0
            with self._lock:
                self._entries[key] = built
                self._building.pop(key, None)
                self.stats.misses += 1
                self.stats.build_seconds += dt
                self.stats.build_cost[key] = dt
                self._count("service.setup.miss")
            return built

    def driver_factory(self):
        """A ``cfg -> CoupledDriver`` factory backed by this cache.

        Drop-in for :func:`repro.resilience.run_resilient`'s
        ``driver_factory`` — retries and concurrent tenants all adopt
        the cached setup.
        """
        def factory(cfg: CoupledRunConfig) -> CoupledDriver:
            return CoupledDriver(cfg, shared=self.get(cfg))

        return factory
