"""Array-backed kd-tree over d-dimensional points.

The tree serves the two hierarchical jobs: the dual-tree pair counter and
the node-pruned EM E-step. (Fixed-radius point searches use the sorted cell
keys in `sphere`.) Nodes are stored in flat arrays; each node covers a
contiguous slice of the permuted point index, and carries an axis-aligned
bounding box over its points.
"""

from __future__ import annotations

import numpy as np


class KdTree:
    """Static kd-tree. Points are immutable after construction; all
    accessors are read-only and safe for concurrent callers."""

    def __init__(self, points: np.ndarray, leaf_size: int = 32):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be (N, d)")
        self.points = points
        self.leaf_size = int(leaf_size)
        n = len(points)
        self.perm = np.arange(n, dtype=np.int64)

        starts, ends, lefts, rights, los, his = [], [], [], [], [], []

        def build(start: int, end: int) -> int:
            node = len(starts)
            starts.append(start)
            ends.append(end)
            lefts.append(-1)
            rights.append(-1)
            sub = points[self.perm[start:end]]
            if end > start:
                lo = sub.min(axis=0)
                hi = sub.max(axis=0)
            else:
                lo = np.zeros(points.shape[1])
                hi = np.zeros(points.shape[1])
            los.append(lo)
            his.append(hi)
            if end - start > self.leaf_size:
                axis = int(np.argmax(hi - lo))
                mid = (start + end) // 2
                local = self.perm[start:end]
                order = np.argsort(points[local, axis], kind="stable")
                self.perm[start:end] = local[order]
                lefts[node] = build(start, mid)
                rights[node] = build(mid, end)
            return node

        if n:
            build(0, n)
        else:
            starts, ends, lefts, rights = [0], [0], [-1], [-1]
            los, his = [np.zeros(points.shape[1])], [np.zeros(points.shape[1])]
        self.node_start = np.asarray(starts, dtype=np.int64)
        self.node_end = np.asarray(ends, dtype=np.int64)
        self.node_left = np.asarray(lefts, dtype=np.int64)
        self.node_right = np.asarray(rights, dtype=np.int64)
        self.node_lo = np.asarray(los, dtype=np.float64)
        self.node_hi = np.asarray(his, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return len(self.node_start)

    def is_leaf(self, node: int) -> bool:
        return self.node_left[node] < 0

    def node_indices(self, node: int) -> np.ndarray:
        """Original indices of the points under a node."""
        return self.perm[self.node_start[node]:self.node_end[node]]

    def node_count(self, node: int) -> int:
        return int(self.node_end[node] - self.node_start[node])

    # -- box geometry helpers -------------------------------------------------

    def box_min_sqdist(self, node: int, q: np.ndarray) -> float:
        """Squared Euclidean distance from q to the node's bounding box."""
        d = np.maximum(0.0, np.maximum(self.node_lo[node] - q, q - self.node_hi[node]))
        return float(d @ d)

    def box_max_sqdist(self, node: int, q: np.ndarray) -> float:
        d = np.maximum(self.node_hi[node] - q, q - self.node_lo[node])
        return float(d @ d)

    def box_pair_sqdist_bounds(self, node_a: int, node_b: int,
                               other: KdTree | None = None) -> tuple[float, float]:
        """(min, max) squared Euclidean distance between the box of `node_a`
        and the box of `node_b` of `other` (this tree when None)."""
        other = self if other is None else other
        gap = np.maximum(0.0, np.maximum(self.node_lo[node_a] - other.node_hi[node_b],
                                         other.node_lo[node_b] - self.node_hi[node_a]))
        far = np.maximum(self.node_hi[node_a] - other.node_lo[node_b],
                         other.node_hi[node_b] - self.node_lo[node_a])
        return float(gap @ gap), float(far @ far)
