"""Alternating digital tree (ADT) over 2-D bounding boxes.

The ADT (Bonet & Peraire) is the binary search structure JM76 adopted
to replace its brute-force donor search [paper §III-B]: donor elements
are sorted recursively along alternating coordinate directions; each
subtree keeps the union bounding box of its elements, so a point query
descends only subtrees whose box contains the point.

The tree is built over *boxes* (donor quad extents) and queried with
*points* (shifted target positions); it returns candidate boxes whose
extent contains the point — exact containment/weights are the caller's
job. Every box test is counted so benchmarks can report search effort
in comparisons, not just wall-clock.

The tree is flat arrays, built and queried one level at a time: every
internal node of a level splits along the same axis, so one stable
``lexsort`` by (segment, centre) sorts a whole level; a batched query
descends ``(node, point)`` pair arrays, one bounding-box test per live
pair per level. Nodes are numbered level by level (breadth first).
"""

from __future__ import annotations

import numpy as np

#: below this many boxes a subtree is a leaf scanned linearly
LEAF_SIZE = 8


def check_finite(boxes: np.ndarray) -> None:
    """Reject boxes with a NaN or infinite extent: one such box makes
    every enclosing bounding box fail every containment test."""
    bad = ~np.isfinite(boxes).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"box {i} is not finite: {boxes[i].tolist()}")


def _inside(b: np.ndarray, y, z, eps: float) -> np.ndarray:
    """The containment predicate: (y, z) in box ``b`` inflated by
    ``eps`` (``b``'s last axis is [ymin, zmin, ymax, zmax]; broadcasts)."""
    return ((b[..., 0] - eps <= y) & (y <= b[..., 2] + eps)
            & (b[..., 1] - eps <= z) & (z <= b[..., 3] + eps))


def _ranges(lo: np.ndarray, cnt: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ranges ``lo[i] .. lo[i] + cnt[i] - 1`` and, per
    entry, the ``i`` it came from."""
    seg = np.repeat(np.arange(cnt.size), cnt)
    pos = np.arange(seg.size) - np.repeat(np.cumsum(cnt) - cnt, cnt) + lo[seg]
    return pos, seg


class ADTree:
    """Static ADT over ``boxes`` with shape (K, 4): [ymin, zmin, ymax, zmax].

    Node ``i`` covers ``perm[lo[i]:hi[i]]``, has bounding box
    ``bbox[i]`` and children ``left[i]``/``right[i]`` (-1 on a leaf).
    """

    def __init__(self, boxes: np.ndarray, leaf_size: int = LEAF_SIZE) -> None:
        boxes = np.ascontiguousarray(boxes, dtype=np.float64)
        if boxes.ndim != 2 or boxes.shape[1] != 4:
            raise ValueError(f"boxes must be (K, 4), got {boxes.shape}")
        check_finite(boxes)
        if (boxes[:, 0] > boxes[:, 2]).any() or (boxes[:, 1] > boxes[:, 3]).any():
            raise ValueError("boxes must have min <= max in both dimensions")
        self.boxes = boxes
        self.leaf_size = max(1, leaf_size)
        self.perm = np.arange(boxes.shape[0], dtype=np.int64)
        self.build_ops = 0
        self._build()

    # -- construction ----------------------------------------------------
    def _build(self) -> None:
        """Split one level per iteration, then fill the boxes bottom-up.

        Each node sorts its range by box centre along the level's axis
        (stably) and hands the lower half to ``left``; sorting a level's
        ranges together by (range, centre) is the same permutation.
        """
        boxes, perm = self.boxes, self.perm
        n = boxes.shape[0]
        lo = np.zeros(min(n, 1), dtype=np.int64)
        hi = np.full(lo.size, n, dtype=np.int64)
        levels: list[tuple[np.ndarray, ...]] = []
        first = 0                           # id of the level's first node
        axis = 0
        while lo.size:
            size = hi - lo
            split = np.nonzero(size > self.leaf_size)[0]
            left = np.full(lo.size, -1, dtype=np.int64)
            left[split] = first + lo.size + 2 * np.arange(split.size)
            levels.append((lo, hi, left))
            self.build_ops += int(size.sum())
            first += lo.size
            slo, shi = lo[split], hi[split]
            pos, seg = _ranges(slo, shi - slo)
            idx = perm[pos]
            centers = 0.5 * (boxes[idx, axis] + boxes[idx, axis + 2])
            perm[pos] = idx[np.lexsort((centers, seg))]
            mid = slo + (shi - slo) // 2
            lo = np.stack([slo, mid], axis=1).ravel()
            hi = np.stack([mid, shi], axis=1).ravel()
            axis ^= 1
        self.depth = len(levels)
        parts = list(zip(*levels)) or [[np.empty(0, dtype=np.int64)]] * 3
        self.lo, self.hi, self.left = (np.concatenate(p) for p in parts)
        self.right = np.where(self.left < 0, -1, self.left + 1)

        # leaves tile [0, n): one reduceat over the sorted boxes
        bbox = np.empty((self.lo.size, 4))
        leaves = np.nonzero(self.left < 0)[0]
        leaves = leaves[np.argsort(self.lo[leaves])]
        ordered = boxes[perm]
        if leaves.size:
            bbox[leaves, :2] = np.minimum.reduceat(ordered[:, :2],
                                                   self.lo[leaves], axis=0)
            bbox[leaves, 2:] = np.maximum.reduceat(ordered[:, 2:],
                                                   self.lo[leaves], axis=0)
        # children always sit on the next level: deepest level first
        end = self.lo.size
        for level_lo, _, level_left in reversed(levels):
            ids = np.arange(end - level_lo.size, end)
            end -= level_lo.size
            inner = ids[level_left >= 0]
            a, b = bbox[self.left[inner]], bbox[self.right[inner]]
            bbox[inner, :2] = np.minimum(a[:, :2], b[:, :2])
            bbox[inner, 2:] = np.maximum(a[:, 2:], b[:, 2:])
        self.bbox = bbox

    @property
    def size(self) -> int:
        return self.boxes.shape[0]

    # -- queries ----------------------------------------------------------
    def candidates(self, y: float, z: float, eps: float = 1e-12
                   ) -> tuple[list[int], int]:
        """Boxes containing point ``(y, z)`` and the number of tests made
        (depth-first, right subtree first)."""
        if not self.lo.size:
            return [], 0
        out: list[int] = []
        tests = 0
        stack = [0]
        while stack:
            i = stack.pop()
            b = self.bbox[i]
            tests += 1
            if not (b[0] - eps <= y <= b[2] + eps
                    and b[1] - eps <= z <= b[3] + eps):
                continue
            if self.left[i] < 0:
                for k in self.perm[self.lo[i]:self.hi[i]]:
                    box = self.boxes[k]
                    tests += 1
                    if (box[0] - eps <= y <= box[2] + eps
                            and box[1] - eps <= z <= box[3] + eps):
                        out.append(int(k))
            else:
                stack.append(int(self.left[i]))
                stack.append(int(self.right[i]))
        return out, tests

    def candidates_batch(self, y: np.ndarray, z: np.ndarray,
                         eps: float = 1e-12) -> tuple[np.ndarray, int]:
        """Lowest-index containing box per point, plus total tests made.

        The level-synchronous counterpart of :meth:`candidates`: the
        live ``(node, point)`` pairs descend the tree a level at a
        time, one bounding-box test per pair; pairs that reach a leaf
        expand onto its boxes. Every pair is a test the per-point
        descent makes too, so the count is the same and ``SearchStats``
        comparisons stay comparable between the scalar and batch paths.
        Returns ``(best, tests)`` where ``best[i]`` is the smallest
        index of a box containing point ``i`` (``-1`` = no box).
        """
        y = np.ascontiguousarray(y, dtype=np.float64)
        z = np.ascontiguousarray(z, dtype=np.float64)
        n = y.size
        tests = 0
        if not self.lo.size or n == 0:
            return np.full(n, -1, dtype=np.int64), tests
        ylo, zlo, yhi, zhi = (self.bbox[:, 0] - eps, self.bbox[:, 1] - eps,
                              self.bbox[:, 2] + eps, self.bbox[:, 3] + eps)
        best = np.full(n, self.size, dtype=np.int64)
        node = np.zeros(n, dtype=np.int64)
        pt = np.arange(n)
        yp, zp = y, z                       # y[pt], z[pt]
        while node.size:
            tests += node.size
            keep = ((ylo.take(node) <= yp) & (yp <= yhi.take(node))
                    & (zlo.take(node) <= zp) & (zp <= zhi.take(node)))
            node, pt, yp, zp = node[keep], pt[keep], yp[keep], zp[keep]
            leaf = self.left.take(node) < 0
            lo = self.lo.take(node[leaf])
            pos, seg = _ranges(lo, self.hi.take(node[leaf]) - lo)
            tests += pos.size
            k = self.perm.take(pos)
            q = pt[leaf].take(seg)
            hit = _inside(self.boxes[k], y.take(q), z.take(q), eps)
            np.minimum.at(best, q[hit], k[hit])
            inner = ~leaf
            node, pt, yp, zp = node[inner], pt[inner], yp[inner], zp[inner]
            node = np.concatenate([self.left.take(node),
                                   self.right.take(node)])
            pt = np.concatenate([pt, pt])
            yp = np.concatenate([yp, yp])
            zp = np.concatenate([zp, zp])
        best[best == self.size] = -1
        return best, tests
