"""Per-node and per-cell reference builders of the coupler's and the
plan's one-time set-up structures.

These are the straightforward implementations the array code in
``src/`` must reproduce exactly:

* :class:`RecursiveADTree` — the alternating digital tree built by
  recursion, one node and one stable ``argsort`` at a time, queried by
  a per-node stack walk (:meth:`~RecursiveADTree.candidates`) and a
  per-node frontier of pending-point sets
  (:meth:`~RecursiveADTree.candidates_batch`);
* :func:`donor_quads_loop` — a side's donor quads emitted cell by cell;
* :func:`first_fit_block_colors` — OP2's sequential first-fit block
  colouring with arbitrary-precision Python-int colour masks.

``tests/test_setup_structures.py`` holds
:class:`~repro.coupler.adt.ADTree`,
:meth:`~repro.coupler.interface.SideGeometry.donor_quads` and
:func:`~repro.op2.plan.build_block_plan` equal to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.op2.plan import conflict_units


@dataclass
class _Node:
    lo: int                 #: range into the permutation array
    hi: int
    bbox: np.ndarray        #: (4,) [ymin, zmin, ymax, zmax] of the subtree
    left: int = -1          #: child node indices (-1 = leaf)
    right: int = -1


class RecursiveADTree:
    """Static ADT over ``boxes`` (K, 4), nodes in depth-first order."""

    def __init__(self, boxes: np.ndarray, leaf_size: int = 8) -> None:
        boxes = np.ascontiguousarray(boxes, dtype=np.float64)
        self.boxes = boxes
        self.leaf_size = max(1, leaf_size)
        self.perm = np.arange(boxes.shape[0], dtype=np.int64)
        self.nodes: list[_Node] = []
        self.build_ops = 0
        if boxes.shape[0]:
            self._build(0, boxes.shape[0], axis=0)

    def _build(self, lo: int, hi: int, axis: int) -> int:
        idx = self.perm[lo:hi]
        sub = self.boxes[idx]
        bbox = np.array([sub[:, 0].min(), sub[:, 1].min(),
                         sub[:, 2].max(), sub[:, 3].max()])
        node_id = len(self.nodes)
        self.nodes.append(_Node(lo=lo, hi=hi, bbox=bbox))
        self.build_ops += hi - lo
        if hi - lo > self.leaf_size:
            centers = 0.5 * (sub[:, axis] + sub[:, axis + 2])
            order = np.argsort(centers, kind="stable")
            self.perm[lo:hi] = idx[order]
            mid = lo + (hi - lo) // 2
            left = self._build(lo, mid, axis ^ 1)
            right = self._build(mid, hi, axis ^ 1)
            self.nodes[node_id].left = left
            self.nodes[node_id].right = right
        return node_id

    @property
    def size(self) -> int:
        return self.boxes.shape[0]

    @property
    def depth(self) -> int:
        def walk(i: int) -> int:
            node = self.nodes[i]
            if node.left < 0:
                return 1
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0) if self.nodes else 0

    def candidates(self, y: float, z: float, eps: float = 1e-12
                   ) -> tuple[list[int], int]:
        """Boxes containing point ``(y, z)`` and the number of tests made."""
        if not self.nodes:
            return [], 0
        out: list[int] = []
        tests = 0
        stack = [0]
        while stack:
            node = self.nodes[stack.pop()]
            b = node.bbox
            tests += 1
            if not (b[0] - eps <= y <= b[2] + eps
                    and b[1] - eps <= z <= b[3] + eps):
                continue
            if node.left < 0:
                for k in self.perm[node.lo:node.hi]:
                    box = self.boxes[k]
                    tests += 1
                    if (box[0] - eps <= y <= box[2] + eps
                            and box[1] - eps <= z <= box[3] + eps):
                        out.append(int(k))
            else:
                stack.append(node.left)
                stack.append(node.right)
        return out, tests

    def candidates_batch(self, y: np.ndarray, z: np.ndarray,
                         eps: float = 1e-12) -> tuple[np.ndarray, int]:
        """Lowest-index containing box per point, plus total tests made,
        from a frontier of ``(node, pending-point-set)`` pairs."""
        y = np.ascontiguousarray(y, dtype=np.float64)
        z = np.ascontiguousarray(z, dtype=np.float64)
        n = y.size
        best = np.full(n, -1, dtype=np.int64)
        tests = 0
        if not self.nodes or n == 0:
            return best, tests
        frontier: list[tuple[int, np.ndarray]] = [(0, np.arange(n))]
        while frontier:
            nxt: list[tuple[int, np.ndarray]] = []
            for node_id, idx in frontier:
                node = self.nodes[node_id]
                b = node.bbox
                tests += idx.size
                yi = y[idx]
                zi = z[idx]
                keep = idx[(b[0] - eps <= yi) & (yi <= b[2] + eps)
                           & (b[1] - eps <= zi) & (zi <= b[3] + eps)]
                if keep.size == 0:
                    continue
                if node.left < 0:
                    leaf = self.perm[node.lo:node.hi]
                    boxes = self.boxes[leaf]
                    tests += keep.size * leaf.size
                    yk = y[keep, None]
                    zk = z[keep, None]
                    inside = ((boxes[None, :, 0] - eps <= yk)
                              & (yk <= boxes[None, :, 2] + eps)
                              & (boxes[None, :, 1] - eps <= zk)
                              & (zk <= boxes[None, :, 3] + eps))
                    hit = inside.any(axis=1)
                    if hit.any():
                        cand = np.where(inside, leaf[None, :], self.size)
                        local_best = cand.min(axis=1)[hit]
                        rows = keep[hit]
                        cur = best[rows]
                        upd = (cur < 0) | (local_best < cur)
                        best[rows[upd]] = local_best[upd]
                else:
                    nxt.append((node.left, keep))
                    nxt.append((node.right, keep))
            frontier = nxt
        return best, tests


def donor_quads_loop(side) -> tuple[np.ndarray, np.ndarray]:
    """(boxes (K, 4), corner positions (K, 4)) of ``side``'s donor grid,
    one cell at a time; a seam quad is followed by its copy shifted by
    -L."""
    nr, nt = side.grid_shape
    y2 = side.y.reshape(nr, nt)
    z2 = side.z.reshape(nr, nt)
    L = side.circumference
    boxes: list[list[float]] = []
    corners: list[list[int]] = []
    for iz in range(nr - 1):
        for it in range(nt):
            itp = (it + 1) % nt
            y0 = y2[iz, it]
            y1 = y2[iz, itp] if itp > it else y2[iz, it] + (L - y2[iz, it]
                                                           + y2[iz, 0])
            z0 = z2[iz, it]
            z1 = z2[iz + 1, it]
            pos = [iz * nt + it, iz * nt + itp,
                   (iz + 1) * nt + itp, (iz + 1) * nt + it]
            boxes.append([y0, z0, y1, z1])
            corners.append(pos)
            if y1 > L:
                boxes.append([y0 - L, z0, y1 - L, z1])
                corners.append(pos)
    return np.array(boxes), np.array(corners, dtype=np.int64)


def first_fit_block_colors(args, extent: int, block_size: int
                           ) -> tuple[np.ndarray, int]:
    """Block colours and colour count of a loop's block plan: blocks in
    order, each taking the lowest colour not yet on any target of any
    column that writes the same target set, masks as Python ints."""
    units = conflict_units(args, extent)
    nblocks = max(1, -(-extent // block_size))
    colors = np.full(nblocks, -1, dtype=np.int32)
    masks = [[0] * u.target_size for u in units]
    columns = [u.columns for u in units]
    ncolors = 0
    for b in range(nblocks):
        rows = range(b * block_size, min((b + 1) * block_size, extent))
        used = 0
        for mask, cols in zip(masks, columns):
            for col in cols:
                for r in rows:
                    used |= mask[col[r]]
        c = 0
        while used >> c & 1:
            c += 1
        colors[b] = c
        ncolors = max(ncolors, c + 1)
        for mask, cols in zip(masks, columns):
            for col in cols:
                for r in rows:
                    mask[col[r]] |= 1 << c
    return colors, ncolors
