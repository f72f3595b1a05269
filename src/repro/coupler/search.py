"""Donor search strategies: brute force vs ADT, scalar and batched.

Both searches answer the same question the JM76 coupler must answer at
every time step: *which donor quad contains each (moved) target point,
and with what bilinear weights?* The brute-force scan is JM76's
original algorithm; the ADT binary search is the improvement the paper
quantifies in Table II. Both count their element comparisons so the
benchmark can report search effort independent of wall-clock noise.

Three layers, slowest to fastest:

* ``find(y, z)`` — the original one-point-at-a-time query;
* ``find_batch(y, z)`` — array-in/array-out over all pending targets
  (vectorized containment for brute force, level-synchronous tree
  descent for the ADT), donor-for-donor and weight-for-weight
  **bitwise identical** to a loop of ``find`` calls, with the same
  ``SearchStats`` accounting;
* :class:`IncrementalSearch` — persists donors across coupling
  rounds: under rotation the target motion is a known circumferential
  shift, so each cached donor is re-validated with a single O(1)
  containment test and only the targets whose donor changed (the
  O(nt·dθ/pitch) fraction crossing a quad boundary) re-enter
  ``find_batch``.

Donor selection is deterministic across all layers: the containing
quad with the **lowest index** wins (ties can only occur on shared
quad edges/corners and the duplicated periodic seam quad, where every
candidate interpolates to the bitwise-identical value).

``DEFAULT_EPS`` is the single containment tolerance both search kinds
use (the raw :class:`~repro.coupler.adt.ADTree` keeps a tighter purely
geometric default); misses are counted identically in scalar and batch
mode: one ``stats.misses`` bump per target with no containing quad,
which ``find``/``find_batch`` report as ``quad == -1`` with zero
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coupler.adt import ADTree

#: unified containment tolerance of both search strategies, threaded
#: through ``find`` and ``find_batch``
DEFAULT_EPS = 1e-9

#: brute-force batch queries build an (n_points, n_boxes) containment
#: matrix; chunk the point axis so it never exceeds ~this many cells
_BF_CHUNK_CELLS = 4_000_000


@dataclass
class SearchStats:
    """Accumulated effort counters of one search object.

    The first four fields are the classic per-query effort counters;
    the last four account for the incremental donor cache: ``cache_hits``
    targets were served by re-validating a cached donor, ``revalidated``
    O(1) containment checks were performed on cached donors,
    ``researched`` targets fell back to a full search after their donor
    changed, and ``comparisons_saved`` estimates the comparisons a
    from-scratch search would have spent minus what the incremental
    path actually spent (calibrated from the first full round).
    """

    queries: int = 0
    comparisons: int = 0
    build_ops: int = 0
    misses: int = 0
    cache_hits: int = 0
    revalidated: int = 0
    researched: int = 0
    comparisons_saved: int = 0

    def merge(self, other: "SearchStats") -> None:
        self.queries += other.queries
        self.comparisons += other.comparisons
        self.build_ops += other.build_ops
        self.misses += other.misses
        self.cache_hits += other.cache_hits
        self.revalidated += other.revalidated
        self.researched += other.researched
        self.comparisons_saved += other.comparisons_saved


@dataclass
class DonorHit:
    """Result of one point query."""

    quad: int                 #: donor quad index (-1 = not found)
    weights: np.ndarray       #: (4,) bilinear corner weights


@dataclass
class BatchHits:
    """Result of one batched query: per-target donors and weights."""

    quads: np.ndarray         #: (n,) int64 donor quad indices (-1 = miss)
    weights: np.ndarray       #: (n, 4) bilinear corner weights (0 on miss)


@dataclass(frozen=True)
class DonorGeometry:
    """Donor quads of one interface side: extents plus corner nodes.

    Replaces the old pattern of monkey-patching a ``_corners`` array
    onto search objects: the boxes and the flat grid positions of each
    quad's four corners travel together, and searches built from one
    carry ``.corners`` as a real attribute.
    """

    boxes: np.ndarray         #: (K, 4) [ymin, zmin, ymax, zmax]
    corners: np.ndarray       #: (K, 4) flat donor-grid corner positions

    def __post_init__(self) -> None:
        if self.boxes.shape[0] != self.corners.shape[0]:
            raise ValueError(
                f"boxes/corners disagree: {self.boxes.shape[0]} quads vs "
                f"{self.corners.shape[0]} corner rows")


def _bilinear_weights(box: np.ndarray, y: float, z: float) -> np.ndarray:
    """Corner weights of point (y, z) in rectangle ``box``.

    Corner order matches quad construction: (y0,z0), (y1,z0), (y1,z1),
    (y0,z1). Degenerate extents fall back to 0.5/0.5 splits.
    """
    wy = (y - box[0]) / (box[2] - box[0]) if box[2] > box[0] else 0.5
    wz = (z - box[1]) / (box[3] - box[1]) if box[3] > box[1] else 0.5
    wy = min(max(wy, 0.0), 1.0)
    wz = min(max(wz, 0.0), 1.0)
    return np.array([(1 - wy) * (1 - wz), wy * (1 - wz), wy * wz,
                     (1 - wy) * wz])


def bilinear_weights_batch(boxes: np.ndarray, y: np.ndarray,
                           z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_bilinear_weights`: (n, 4) boxes, (n,) points.

    Performs the identical floating-point operations per element, so
    the result is bitwise equal to a loop of scalar calls.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    dy = boxes[:, 2] - boxes[:, 0]
    dz = boxes[:, 3] - boxes[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        wy = np.where(dy > 0, (y - boxes[:, 0]) / dy, 0.5)
        wz = np.where(dz > 0, (z - boxes[:, 1]) / dz, 0.5)
    wy = np.clip(wy, 0.0, 1.0)
    wz = np.clip(wz, 0.0, 1.0)
    return np.stack([(1 - wy) * (1 - wz), wy * (1 - wz), wy * wz,
                     (1 - wy) * wz], axis=1)


def _batch_from_quads(boxes: np.ndarray, quads: np.ndarray, y: np.ndarray,
                      z: np.ndarray) -> BatchHits:
    """Assemble a :class:`BatchHits` from resolved donor indices."""
    weights = np.zeros((quads.size, 4))
    ok = quads >= 0
    if ok.any():
        weights[ok] = bilinear_weights_batch(boxes[quads[ok]], y[ok], z[ok])
    return BatchHits(quads=quads, weights=weights)


class BruteForceSearch:
    """JM76's original search: test every donor quad for every target."""

    name = "bruteforce"

    def __init__(self, boxes: np.ndarray,
                 corners: np.ndarray | None = None) -> None:
        self.boxes = np.ascontiguousarray(boxes, dtype=np.float64)
        self.corners = corners
        self.stats = SearchStats()

    def find(self, y: float, z: float, eps: float = DEFAULT_EPS) -> DonorHit:
        self.stats.queries += 1
        boxes = self.boxes
        self.stats.comparisons += boxes.shape[0]
        inside = np.nonzero(
            (boxes[:, 0] - eps <= y) & (y <= boxes[:, 2] + eps)
            & (boxes[:, 1] - eps <= z) & (z <= boxes[:, 3] + eps)
        )[0]
        if inside.size == 0:
            self.stats.misses += 1
            return DonorHit(quad=-1, weights=np.zeros(4))
        k = int(inside[0])
        return DonorHit(quad=k, weights=_bilinear_weights(boxes[k], y, z))

    def find_batch(self, y: np.ndarray, z: np.ndarray,
                   eps: float = DEFAULT_EPS) -> BatchHits:
        """Array query: lowest-index containing quad per target."""
        y = np.ascontiguousarray(y, dtype=np.float64)
        z = np.ascontiguousarray(z, dtype=np.float64)
        boxes = self.boxes
        n = y.size
        K = boxes.shape[0]
        self.stats.queries += n
        self.stats.comparisons += n * K
        quads = np.full(n, -1, dtype=np.int64)
        chunk = max(1, _BF_CHUNK_CELLS // max(K, 1))
        for s in range(0, n, chunk):
            e = min(n, s + chunk)
            yy = y[s:e, None]
            zz = z[s:e, None]
            inside = ((boxes[None, :, 0] - eps <= yy)
                      & (yy <= boxes[None, :, 2] + eps)
                      & (boxes[None, :, 1] - eps <= zz)
                      & (zz <= boxes[None, :, 3] + eps))
            hit = inside.any(axis=1)
            # argmax over booleans = first True = lowest quad index
            quads[s:e][hit] = np.argmax(inside[hit], axis=1)
        self.stats.misses += int((quads < 0).sum())
        return _batch_from_quads(boxes, quads, y, z)


class ADTSearch:
    """Binary-tree search via the alternating digital tree."""

    name = "adt"

    def __init__(self, boxes: np.ndarray,
                 corners: np.ndarray | None = None) -> None:
        self.boxes = np.ascontiguousarray(boxes, dtype=np.float64)
        self.corners = corners
        self.tree = ADTree(self.boxes)
        self.stats = SearchStats(build_ops=self.tree.build_ops)

    def find(self, y: float, z: float, eps: float = DEFAULT_EPS) -> DonorHit:
        self.stats.queries += 1
        hits, tests = self.tree.candidates(y, z, eps=eps)
        self.stats.comparisons += tests
        if not hits:
            self.stats.misses += 1
            return DonorHit(quad=-1, weights=np.zeros(4))
        k = min(hits)
        return DonorHit(quad=k, weights=_bilinear_weights(self.boxes[k], y, z))

    def find_batch(self, y: np.ndarray, z: np.ndarray,
                   eps: float = DEFAULT_EPS) -> BatchHits:
        """Level-synchronous tree descent over all targets at once."""
        y = np.ascontiguousarray(y, dtype=np.float64)
        z = np.ascontiguousarray(z, dtype=np.float64)
        self.stats.queries += y.size
        quads, tests = self.tree.candidates_batch(y, z, eps=eps)
        self.stats.comparisons += tests
        self.stats.misses += int((quads < 0).sum())
        return _batch_from_quads(self.boxes, quads, y, z)


class IncrementalSearch:
    """Donor cache over a search: re-validate instead of re-searching.

    Between coupling rounds the relative target motion is a known 1-D
    circumferential shift, so a target's donor from the previous round
    is almost always still its donor. ``query`` therefore checks each
    cached donor with one O(1) containment test (1 comparison) and
    sends only the failures — targets whose shifted position crossed a
    quad boundary, plus any previous misses — through the wrapped
    search's ``find_batch``. Results are donor-for-donor identical to
    a from-scratch batch query because re-validation uses the same
    containment predicate and overlapping quads interpolate to the
    bitwise-identical value (see module docstring).

    The cache is exposed for checkpointing (``cache``/``restore_cache``)
    so a resumed coupled run replays the exact counter trajectory of an
    uninterrupted one.
    """

    def __init__(self, kind: str, boxes: np.ndarray,
                 corners: np.ndarray | None = None,
                 eps: float = DEFAULT_EPS) -> None:
        self.search = make_search(kind, boxes, corners)
        self.boxes = self.search.boxes
        self.eps = eps
        self._cached: np.ndarray | None = None
        #: from-scratch comparisons/query, calibrated on the first round
        self._baseline_cpq: float | None = None

    @property
    def name(self) -> str:
        return f"incremental-{self.search.name}"

    @property
    def corners(self) -> np.ndarray | None:
        return self.search.corners

    @property
    def stats(self) -> SearchStats:
        return self.search.stats

    @property
    def cache(self) -> np.ndarray | None:
        """Cached donor quad per target slot (int64), None before round 1."""
        return None if self._cached is None else self._cached.copy()

    def restore_cache(self, cached: np.ndarray | None,
                      baseline_cpq: float | None = None) -> None:
        """Adopt a checkpointed donor cache (and savings baseline)."""
        self._cached = None if cached is None else \
            np.ascontiguousarray(cached, dtype=np.int64)
        if baseline_cpq is not None and baseline_cpq > 0:
            self._baseline_cpq = float(baseline_cpq)

    @property
    def baseline_comparisons_per_query(self) -> float | None:
        return self._baseline_cpq

    def query(self, y: np.ndarray, z: np.ndarray) -> BatchHits:
        """Batched donor query with cross-round donor caching."""
        y = np.ascontiguousarray(y, dtype=np.float64)
        z = np.ascontiguousarray(z, dtype=np.float64)
        stats = self.stats
        eps = self.eps
        n = y.size
        cached = self._cached
        if cached is None or cached.size != n:
            before = stats.comparisons
            hits = self.search.find_batch(y, z, eps=eps)
            stats.researched += n
            if n and self._baseline_cpq is None:
                self._baseline_cpq = (stats.comparisons - before) / n
            self._cached = hits.quads.copy()
            return hits

        before = stats.comparisons
        quads = cached.copy()
        have = quads >= 0
        valid = np.zeros(n, dtype=bool)
        if have.any():
            b = self.boxes[quads[have]]
            yy = y[have]
            zz = z[have]
            stats.comparisons += int(have.sum())
            stats.revalidated += int(have.sum())
            valid[have] = ((b[:, 0] - eps <= yy) & (yy <= b[:, 2] + eps)
                           & (b[:, 1] - eps <= zz) & (zz <= b[:, 3] + eps))
        stats.cache_hits += int(valid.sum())
        stats.queries += int(valid.sum())
        redo = ~valid
        if redo.any():
            sub = self.search.find_batch(y[redo], z[redo], eps=eps)
            stats.researched += int(redo.sum())
            quads[redo] = sub.quads
        self._cached = quads.copy()
        if self._baseline_cpq is not None:
            scratch = int(round(self._baseline_cpq * n))
            spent = stats.comparisons - before
            stats.comparisons_saved += max(0, scratch - spent)
        return _batch_from_quads(self.boxes, quads, y, z)


def make_search(kind: str, boxes: np.ndarray,
                corners: np.ndarray | None = None):
    """Factory for a search strategy by name."""
    if kind == "bruteforce":
        return BruteForceSearch(boxes, corners)
    if kind == "adt":
        return ADTSearch(boxes, corners)
    raise ValueError(f"unknown search kind {kind!r}; use 'bruteforce' or 'adt'")
