import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine.errors import ValidationError
from skymine.kdtree import KdTree, box_sqdist_bounds


def random_points(seed, n, d=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(-1, 1, (n, d))


class TestStructure:
    def test_leaves_partition_points(self):
        pts = random_points(0, 500)
        tree = KdTree(pts, leaf_size=16)
        leaves = [i for i in range(tree.n_nodes) if tree.is_leaf(i)]
        covered = np.concatenate([tree.node_indices(i) for i in leaves])
        assert sorted(covered.tolist()) == list(range(500))

    def test_boxes_contain_their_points(self):
        pts = random_points(1, 300)
        tree = KdTree(pts, leaf_size=8)
        for node in range(tree.n_nodes):
            sub = pts[tree.node_indices(node)]
            assert np.all(sub >= tree.node_lo[node] - 1e-15)
            assert np.all(sub <= tree.node_hi[node] + 1e-15)

    def test_empty_tree(self):
        tree = KdTree(np.empty((0, 3)))
        assert tree.n_nodes == 1 and tree.is_leaf(0)
        assert tree.node_indices(0).size == 0
        assert tree.nodes_indices(np.array([0])).size == 0

    def test_nodes_indices_concatenates_in_order(self):
        tree = KdTree(random_points(2, 200), leaf_size=8)
        nodes = np.array([5, 0, 5, tree.n_nodes - 1])
        want = np.concatenate([tree.node_indices(int(i)) for i in nodes])
        assert np.array_equal(tree.nodes_indices(nodes), want)
        assert tree.nodes_indices(nodes[:0]).size == 0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            KdTree(np.zeros(5))

    @pytest.mark.parametrize("leaf_size", [0, -1])
    def test_rejects_leaf_size_below_one(self, leaf_size):
        with pytest.raises(ValidationError, match="leaf_size must be >= 1"):
            KdTree(random_points(9, 3, 2), leaf_size=leaf_size)
        assert KdTree(random_points(9, 3, 2), leaf_size=1).n_nodes == 5


class TestBounds:
    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_pair_bounds_enclose_true_distances(self, seed):
        pts = random_points(seed, 120)
        tree = KdTree(pts, leaf_size=8)
        rng = np.random.Generator(np.random.PCG64(seed))
        a, b = rng.integers(0, tree.n_nodes, 2)
        other = KdTree(random_points(seed + 1, 90), leaf_size=8)
        c = rng.integers(0, other.n_nodes)
        for tb, b in ((tree, int(b)), (other, int(c))):
            dmin2, dmax2 = box_sqdist_bounds(tree.node_lo[int(a)], tree.node_hi[int(a)],
                                             tb.node_lo[b], tb.node_hi[b])
            pa = pts[tree.node_indices(int(a))]
            pb = tb.points[tb.node_indices(b)]
            diff = pa[:, None, :] - pb[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            assert d2.min() >= dmin2 - 1e-12
            assert d2.max() <= dmax2 + 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_bounds_equal_per_pair_dot(self, d):
        """Bounds for many box pairs at once are bit for bit the per-pair
        `g @ g` of the same gaps, and a point is a box with lo == hi."""
        tree = KdTree(random_points(3, 400, d) * 1e3, leaf_size=4)
        rng = np.random.Generator(np.random.PCG64(d))
        a, b = rng.integers(0, tree.n_nodes, (2, 500))
        dmin2, dmax2 = box_sqdist_bounds(tree.node_lo[a], tree.node_hi[a],
                                         tree.node_lo[b], tree.node_hi[b])
        for i, (na, nb) in enumerate(zip(a, b)):
            lo_a, hi_a, lo_b, hi_b = (tree.node_lo[na], tree.node_hi[na],
                                      tree.node_lo[nb], tree.node_hi[nb])
            gap = np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a))
            far = np.maximum(hi_a - lo_b, hi_b - lo_a)
            assert dmin2[i] == gap @ gap and dmax2[i] == far @ far
        q = tree.points[:7]
        near, far = box_sqdist_bounds(tree.node_lo[:, None], tree.node_hi[:, None], q, q)
        assert near.shape == far.shape == (tree.n_nodes, 7)
        inside = np.all((q >= tree.node_lo[0]) & (q <= tree.node_hi[0]), axis=1)
        assert np.all(near[0][inside] == 0.0)
