"""Array-backed kd-tree over d-dimensional points.

The tree serves the two hierarchical jobs: the dual-tree pair counter and
the node-pruned EM E-step. (Fixed-radius point searches use the sorted cell
keys in `sphere`.) Nodes are stored in flat arrays; each node covers a
contiguous slice of the permuted point index, and carries an axis-aligned
bounding box over its points. Nodes are numbered in pre-order, so the
descendants of node v are the ids v+1 … node_last[v]. The pair counter walks
the tree one level at a time, bounding every node pair of a level with one
call to `box_sqdist_bounds`; the E-step bounds every node in one call and
reads the walk's order from `level_order`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ValidationError
from .sphere import row_dots


class KdTree:
    """Static kd-tree. Points are immutable after construction; all
    accessors are read-only and safe for concurrent callers."""

    def __init__(self, points: np.ndarray, leaf_size: int = 32):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be (N, d)")
        if leaf_size < 1:
            raise ValidationError(f"leaf_size must be >= 1, got {leaf_size}")
        self.points = points
        self.leaf_size = int(leaf_size)
        n = len(points)
        self.perm = np.arange(n, dtype=np.int64)

        starts, ends, lefts, rights, lasts, los, his = [], [], [], [], [], [], []

        def build(start: int, end: int) -> int:
            node = len(starts)
            starts.append(start)
            ends.append(end)
            lefts.append(-1)
            rights.append(-1)
            lasts.append(node)
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
                lasts[node] = len(starts) - 1
            return node

        if n:
            build(0, n)
        else:
            starts, ends, lefts, rights, lasts = [0], [0], [-1], [-1], [0]
            los, his = [np.zeros(points.shape[1])], [np.zeros(points.shape[1])]
        self.node_start = np.asarray(starts, dtype=np.int64)
        self.node_end = np.asarray(ends, dtype=np.int64)
        self.node_left = np.asarray(lefts, dtype=np.int64)
        self.node_right = np.asarray(rights, dtype=np.int64)
        self.node_last = np.asarray(lasts, dtype=np.int64)
        self.node_lo = np.asarray(los, dtype=np.float64)
        self.node_hi = np.asarray(his, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return len(self.node_start)

    @cached_property
    def level_order(self) -> np.ndarray:
        """Every node id in the order of a walk that takes one level per
        step, from the root: each level is the left children of the level
        before's inner nodes, in its order, then their right children."""
        levels, level = [], np.zeros(1, dtype=np.int64)
        while len(level):
            levels.append(level)
            inner = level[self.node_left[level] >= 0]
            level = np.concatenate([self.node_left[inner], self.node_right[inner]])
        return np.concatenate(levels)

    def node_indices(self, node: int) -> np.ndarray:
        """Original indices of the points under a node."""
        return self.perm[self.node_start[node]:self.node_end[node]]

    def nodes_indices(self, nodes: np.ndarray) -> np.ndarray:
        """Original indices of the points under each of `nodes`, concatenated
        in the order given."""
        start = self.node_start[nodes]
        count = self.node_end[nodes] - start
        first = np.repeat(start - (np.cumsum(count) - count), count)
        return self.perm[first + np.arange(count.sum())]


def box_sqdist_bounds(lo_a, hi_a, lo_b, hi_b) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) squared Euclidean distance between the boxes [lo_a, hi_a]
    and [lo_b, hi_b], one pair per row of the broadcast leading axes (the
    last axis holds the coordinates). A point is a box with lo == hi.

    Each sum of squares is a `row_dots`, bit for bit `g @ g` on one row,
    so a bound is the one a per-node computation gives.
    """
    gap = np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a))
    far = np.maximum(hi_a - lo_b, hi_b - lo_a)
    return row_dots(gap, gap), row_dots(far, far)
