import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine.kdtree import KdTree


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

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            KdTree(np.zeros(5))


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
            dmin2, dmax2 = tree.box_pair_sqdist_bounds(int(a), b, tb)
            pa = pts[tree.node_indices(int(a))]
            pb = tb.points[tb.node_indices(b)]
            diff = pa[:, None, :] - pb[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            assert d2.min() >= dmin2 - 1e-12
            assert d2.max() <= dmax2 + 1e-12
