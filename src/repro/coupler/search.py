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
  rounds: under rotation the target motion is a prescribed
  circumferential shift, so each target's donor is *predicted* from
  its cached one (the analytic interface mapping of sliding-mesh
  methods), confirmed by one containment test or a walk of at most
  two columns either way, and closed over its ε-neighbours; only the
  round-0 targets and those the walk does not resolve run
  ``find_batch``.

Donor selection is deterministic across all layers: the containing
quad with the **lowest index** wins. Several quads contain a point
only on shared quad edges/corners (within ε) and at the duplicated
periodic seam quad; the incremental cache resolves those ties exactly
as ``find_batch`` does, via ``DonorGeometry.neighbours``.

``DEFAULT_EPS`` is the single containment tolerance both search kinds
use (the raw :class:`~repro.coupler.adt.ADTree` keeps a tighter purely
geometric default); misses are counted identically in scalar and batch
mode: one ``stats.misses`` bump per target with no containing quad,
which ``find``/``find_batch`` report as ``quad == -1`` with zero
weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.coupler.adt import ADTree, _inside, check_finite

#: unified containment tolerance of both search strategies, threaded
#: through ``find`` and ``find_batch``
DEFAULT_EPS = 1e-9

#: brute-force batch queries build an (n_points, n_boxes) containment
#: matrix; chunk the point axis so it never exceeds ~this many cells
_BF_CHUNK_CELLS = 4_000_000

#: bucket count cap per axis of the ``DonorGeometry.neighbours`` hash
_MAX_BUCKETS = 4096

#: column offsets from the predicted column, tried in order (0 first)
_WALK = (0, -1, 1, -2, 2)

#: ``DonorGeometry.sides`` bits of the (left, below) and (right, above)
#: sides, matching a box's [ymin, zmin] and [ymax, zmax] halves
_LOW_SIDES = np.array([1, 4])
_HIGH_SIDES = np.array([2, 8])


@dataclass
class SearchStats:
    """Accumulated effort counters of one search object.

    The first four fields are the classic per-query effort counters;
    the last four account for the incremental donor cache: ``cache_hits``
    targets were served from a donor predicted off the cached one,
    ``revalidated`` containment tests were made on predicted donors
    (the prediction and its walk), ``researched`` targets fell back to
    a full search, and ``comparisons_saved`` estimates the comparisons
    a from-scratch search would have spent minus what the incremental
    path actually spent (calibrated from the first full round).
    ``comparisons`` counts every box test, the neighbour closure's too.
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
    """Donor quads of one interface side: extents, corner nodes, and the
    grid structure the donor cache predicts with.

    The boxes and the flat grid positions of each quad's four corners
    travel together, and searches built from one carry ``.corners`` as
    a real attribute. The structure :class:`IncrementalSearch` needs is
    derived vectorised on first use and cached on the object (one per
    side, see ``SideGeometry.donor_geometry``):

    * ``cells`` — each quad's (row, column) in the donor grid;
    * ``slots`` — (row, column) → the quads of that cell, lowest index
      first (the periodic seam cell holds its duplicate too);
    * ``neighbours`` — N(k), the quads whose ``DEFAULT_EPS``-inflated
      boxes intersect quad k's: every quad that contains a point quad
      k contains is in N(k);
    * ``sides`` — which sides of quad k each neighbour lies beyond, so
      only points near those sides are tested against it.
    """

    boxes: np.ndarray         #: (K, 4) [ymin, zmin, ymax, zmax]
    corners: np.ndarray       #: (K, 4) flat donor-grid corner positions
    #: circumferential period L of the side (0: the side does not wrap)
    period: float = 0.0

    def __post_init__(self) -> None:
        if self.boxes.shape[0] != self.corners.shape[0]:
            raise ValueError(
                f"boxes/corners disagree: {self.boxes.shape[0]} quads vs "
                f"{self.corners.shape[0]} corner rows")

    @cached_property
    def _columns(self) -> int:
        """Grid row length ``nt``: corner 3 sits one row above corner 0."""
        stride = self.corners[:, 3] - self.corners[:, 0]
        if (stride != stride[0]).any() or stride[0] <= 0:
            raise ValueError("corners do not come from one structured grid")
        return int(stride[0])

    @cached_property
    def cells(self) -> np.ndarray:
        """(K, 2) int64 (row, column) of each quad, read off corner 0;
        a seam duplicate shares its original's cell."""
        first = self.corners[:, 0].astype(np.int64)
        nt = self._columns
        return np.stack([first // nt, first % nt], axis=1)

    @cached_property
    def slots(self) -> np.ndarray:
        """(rows, nt, c) int64 quads of each cell, ascending, -1 padded."""
        nt = self._columns
        flat = self.cells[:, 0] * nt + self.cells[:, 1]
        rows = int(flat.max()) // nt + 1
        quads, rank = _ranked(flat)
        out = np.full((rows * nt, int(rank.max()) + 1), -1, dtype=np.int64)
        out[flat[quads], rank] = quads
        return out.reshape(rows, nt, -1)

    @cached_property
    def neighbours(self) -> np.ndarray:
        """(K, m) int64 N(k) per quad: ascending indices of the other
        quads whose ``DEFAULT_EPS``-inflated boxes intersect quad k's,
        -1 padded.

        The intersection test is the containment predicate's own
        floating-point expression, so two quads that both contain a
        point are always each other's neighbours.
        """
        K = self.boxes.shape[0]
        a, b = _touching_pairs(self.boxes, DEFAULT_EPS)
        rows, rank = _ranked(a, b)
        out = np.full((K, int(rank.max(initial=-1)) + 1), -1, dtype=np.int64)
        out[a[rows], rank] = b[rows]
        return out

    @cached_property
    def sides(self) -> np.ndarray:
        """(K, m) uint8, aligned with ``neighbours``: the sides of quad
        k's box that each neighbour lies beyond (bits 1, 2, 4, 8: left,
        right, below, above; 0 when it overlaps k's interior).

        A neighbour beyond a side contains a point of k only if the
        point lies within ``DEFAULT_EPS`` of that side, so a point away
        from all of a neighbour's sides need not be tested against it.
        """
        k = self.boxes[:, None, :]
        o = self.boxes[self.neighbours]
        return ((o[..., 2:] <= k[..., :2]) @ _LOW_SIDES
                + (o[..., :2] >= k[..., 2:]) @ _HIGH_SIDES).astype(np.uint8)


def _ranked(key: np.ndarray, tie: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Order of ``key`` (ties by ``tie``, else by position) and each
    entry's rank within its run of equal keys, in that order."""
    order = (np.lexsort((tie, key)) if tie is not None
             else np.argsort(key, kind="stable"))
    sorted_key = key[order]
    rank = np.arange(key.size) - np.searchsorted(sorted_key, sorted_key)
    return order, rank


def _touching_pairs(boxes: np.ndarray, eps: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """All (a, b), a != b, whose ``eps``-inflated boxes intersect.

    Boxes are hashed by their lower-left corner into buckets at least
    as large as the largest box (plus slack), so two touching boxes
    always sit in the same or adjacent buckets; the exact predicate
    then filters the pairs of each box with the 3x3 buckets around it.
    """
    slack = 8 * (eps + float(np.spacing(np.abs(boxes).max())))
    low = boxes[:, :2]
    origin = low.min(axis=0)
    size = np.maximum((boxes[:, 2:] - low).max(axis=0) + slack,
                      (low.max(axis=0) - origin) / _MAX_BUCKETS)
    cell = np.floor((low - origin) / size).astype(np.int64)
    stride = int(cell[:, 0].max()) + 2   # y +- 1 never aliases
    key = cell[:, 1] * stride + cell[:, 0]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    pa: list[np.ndarray] = []
    pb: list[np.ndarray] = []
    for dz, dy in itertools.product((-1, 0, 1), repeat=2):
        want = key + dz * stride + dy
        lo = np.searchsorted(sorted_key, want, "left")
        cnt = np.searchsorted(sorted_key, want, "right") - lo
        a = np.repeat(np.arange(key.size), cnt)
        run = np.arange(a.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        b = order[np.repeat(lo, cnt) + run]
        A = boxes[a]
        B = boxes[b]
        keep = ((a != b)
                & (A[:, 0] - eps <= B[:, 2] + eps)
                & (B[:, 0] - eps <= A[:, 2] + eps)
                & (A[:, 1] - eps <= B[:, 3] + eps)
                & (B[:, 1] - eps <= A[:, 3] + eps))
        pa.append(a[keep])
        pb.append(b[keep])
    return np.concatenate(pa), np.concatenate(pb)


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
        check_finite(self.boxes)
        self.corners = corners
        self.stats = SearchStats()

    def find(self, y: float, z: float, eps: float = DEFAULT_EPS) -> DonorHit:
        self.stats.queries += 1
        boxes = self.boxes
        self.stats.comparisons += boxes.shape[0]
        inside = np.nonzero(_inside(boxes, y, z, eps))[0]
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
            inside = _inside(boxes[None], y[s:e, None], z[s:e, None], eps)
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
    """Donor cache over a search: predict each donor instead of searching.

    The relative target motion is a prescribed circumferential shift, so
    a target's donor this round follows from its cached donor ``c`` and
    its new position alone: the predicted column is
    ``col(c) + rint(wrap_L(y - centre_y(c)) / width(c))`` in ``c``'s
    grid row. ``query`` tests the predicted quad with the containment
    predicate and, on a miss, walks up to two columns either way
    (``_WALK``), trying every quad of each cell. An accepted quad ``a``
    is then *closed*: the donor is the lowest index in ``{a} ∪ N(a)``
    that contains the point (only lower-index neighbours can win, and
    only those beyond sides of ``a`` the point lies within ε of, see
    ``DonorGeometry.sides``, are tested). Any quad
    containing the point is in N(a), so the donor is exactly the one a
    from-scratch ``find_batch`` picks, and so are its weights. Targets
    the walk does not resolve — and every target on the first round or
    after a miss — go through the wrapped search's ``find_batch``.

    A target that did not move is the offset-0 prediction: one
    containment test re-validates its cached quad.

    The cache is exposed for checkpointing (``cache``/``restore_cache``)
    so a resumed coupled run replays the exact counter trajectory of an
    uninterrupted one.
    """

    def __init__(self, kind: str, geometry: DonorGeometry) -> None:
        self.geometry = geometry
        self.search = make_search(kind, geometry.boxes, geometry.corners)
        self.boxes = self.search.boxes
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
        """Batched donor query, predicted from the previous round's donors."""
        y = np.ascontiguousarray(y, dtype=np.float64)
        z = np.ascontiguousarray(z, dtype=np.float64)
        stats = self.stats
        n = y.size
        cached = self._cached
        before = stats.comparisons
        if cached is None or cached.size != n:
            hits = self.search.find_batch(y, z)
            stats.researched += n
            if n and self._baseline_cpq is None:
                self._baseline_cpq = (stats.comparisons - before) / n
            self._cached = hits.quads.copy()
            return hits

        quads = self._predict(cached, y, z)
        redo = quads < 0
        hits = n - int(redo.sum())
        stats.cache_hits += hits
        stats.queries += hits
        if hits < n:
            sub = self.search.find_batch(y[redo], z[redo])
            stats.researched += n - hits
            quads[redo] = sub.quads
        self._cached = quads.copy()
        if self._baseline_cpq is not None:
            scratch = int(round(self._baseline_cpq * n))
            spent = stats.comparisons - before
            stats.comparisons_saved += max(0, scratch - spent)
        return _batch_from_quads(self.boxes, quads, y, z)

    def _predict(self, cached: np.ndarray, y: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
        """Donor per target from its cached one (-1: not resolved)."""
        geo = self.geometry
        boxes = self.boxes
        stats = self.stats
        eps = DEFAULT_EPS
        donor = np.full(y.size, -1, dtype=np.int64)
        live = np.nonzero(cached >= 0)[0]
        if live.size == 0:
            return donor
        c = cached[live]
        yl = y[live]
        zl = z[live]
        b = boxes[c]
        width = b[:, 2] - b[:, 0]
        dy = yl - 0.5 * (b[:, 0] + b[:, 2])
        if geo.period > 0:
            dy -= geo.period * np.rint(dy / geo.period)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(width > 0, np.rint(dy / width), 0.0)
        slots = geo.slots
        nt = slots.shape[1]
        row = geo.cells[c, 0]
        col = (geo.cells[c, 1] + step.astype(np.int64)) % nt

        # predict, then walk: the containment predicate accepts
        accepted = np.full(live.size, -1, dtype=np.int64)
        pending = np.arange(live.size)
        for off, copy in itertools.product(_WALK, range(slots.shape[2])):
            q = slots[row[pending], (col[pending] + off) % nt, copy]
            tried = pending[q >= 0]
            q = q[q >= 0]
            stats.comparisons += tried.size
            stats.revalidated += tried.size
            inside = _inside(boxes[q], yl[tried], zl[tried], eps)
            accepted[tried[inside]] = q[inside]
            pending = pending[accepted[pending] < 0]
            if pending.size == 0:
                break

        # close: a lower-index neighbour containing the point wins. It
        # can only if the point lies within ε of every side of the
        # accepted quad that the neighbour lies beyond.
        got = np.nonzero(accepted >= 0)[0]
        a = accepted[got]
        yg = yl[got]
        zg = zl[got]
        ab = boxes[a]
        p = np.stack([yg, zg], axis=1)
        near = ((p <= ab[:, :2] + eps) @ _LOW_SIDES
                + (p >= ab[:, 2:] - eps) @ _HIGH_SIDES)
        nb = geo.neighbours[a]
        test = ((nb >= 0) & (nb < a[:, None])
                & ((geo.sides[a] & ~near[:, None]) == 0))
        stats.comparisons += int(test.sum())
        rows = np.nonzero(test.any(axis=1))[0]
        nb = nb[rows]
        inside = test[rows] & _inside(boxes[nb], yg[rows, None],
                                      zg[rows, None], eps)
        K = len(boxes)
        a[rows] = np.minimum(a[rows],
                             np.where(inside, nb, K).min(axis=1, initial=K))
        donor[live[got]] = a
        return donor


def make_search(kind: str, boxes: np.ndarray,
                corners: np.ndarray | None = None):
    """Factory for a search strategy by name."""
    if kind == "bruteforce":
        return BruteForceSearch(boxes, corners)
    if kind == "adt":
        return ADTSearch(boxes, corners)
    raise ValueError(f"unknown search kind {kind!r}; use 'bruteforce' or 'adt'")
