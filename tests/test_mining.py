import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import cli, mining, sphere, store
from skymine.errors import EXIT_OK, ValidationError


def uniform_sphere(seed, n):
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.uniform(-1, 1, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    return np.stack([np.sqrt(1 - z ** 2) * np.cos(phi),
                     np.sqrt(1 - z ** 2) * np.sin(phi), z], axis=1)


DEG_BINS = np.radians(np.array([0.5, 1, 2, 4, 8, 16, 32, 64, 128]))


class TestPairCounting:
    def test_dual_tree_equals_naive(self, naive_pair_count):
        pts = uniform_sphere(1, 2000)
        dual = mining.pair_count(pts, DEG_BINS)
        naive = naive_pair_count(pts, DEG_BINS)
        assert np.array_equal(dual.counts, naive.counts)
        assert dual.total_pairs == naive.total_pairs == 2000 * 1999 // 2

    @given(st.integers(0, 10_000), st.integers(2, 200))
    @settings(max_examples=25, deadline=None)
    def test_dual_tree_equals_naive_property(self, naive_pair_count, seed, n):
        pts = uniform_sphere(seed, n)
        dual = mining.pair_count(pts, DEG_BINS, leaf_size=8)
        naive = naive_pair_count(pts, DEG_BINS)
        assert np.array_equal(dual.counts, naive.counts)

    def test_full_sphere_bins_capture_every_pair(self):
        pts = uniform_sphere(2, 500)
        edges = np.array([0.0, np.pi / 2, np.pi])
        h = mining.pair_count(pts, edges)
        assert int(h.counts.sum()) == h.total_pairs

    def test_duplicate_points_count_once_per_pair(self, naive_pair_count):
        pts = np.repeat(uniform_sphere(3, 1), 5, axis=0)
        edges = np.array([0.0, 0.01])
        for h in (mining.pair_count(pts, edges), naive_pair_count(pts, edges)):
            assert int(h.counts[0]) == 10  # C(5, 2), zero-distance in first bin

    def test_two_points_known_bin(self):
        pts = np.stack([sphere.radec_to_unit(0.0, 0.0),
                        sphere.radec_to_unit(3.0, 0.0)])
        h = mining.pair_count(pts, DEG_BINS)
        assert h.counts.tolist() == [0, 0, 1, 0, 0, 0, 0, 0]

    def test_boundary_pair_goes_to_upper_bin(self):
        # separation exactly on an interior edge: half-open bins put it above
        pts = np.stack([sphere.radec_to_unit(0.0, 0.0),
                        sphere.radec_to_unit(0.0, 2.0)])
        h = mining.pair_count(pts, DEG_BINS)
        assert h.counts.tolist() == [0, 0, 1, 0, 0, 0, 0, 0]

    def test_pruning_effectiveness_at_10k(self):
        pts = uniform_sphere(4, 10_000)
        edges = np.radians(np.array([0.1, 0.5, 1.0, 2.0]))
        h = mining.pair_count(pts, edges)
        assert h.distance_evaluations < 0.25 * 10_000 * 9_999 / 2

    def test_cross_counts_match_brute_force(self):
        a = uniform_sphere(5, 300)
        b = uniform_sphere(6, 400)
        h = mining.pair_count(a, DEG_BINS, b)
        edges2 = mining._chord2_edges(DEG_BINS)
        counts = np.zeros(len(DEG_BINS) - 1, dtype=np.int64)
        mining._bin_d2(mining._pairwise_d2(a, b).ravel(), edges2, counts)
        assert np.array_equal(h.counts, counts)
        assert h.total_pairs == 300 * 400

    def test_bad_edges(self):
        pts = uniform_sphere(7, 10)
        with pytest.raises(ValidationError):
            mining.pair_count(pts, [0.2, 0.1])
        with pytest.raises(ValidationError):
            mining.pair_count(pts, [0.1, 4.0])
        with pytest.raises(ValidationError):
            mining.pair_count(pts[:1], DEG_BINS)
        with pytest.raises(ValidationError):
            mining.pair_count(pts, DEG_BINS, pts[:0])


class TestCorrelation:
    def test_data_equals_randoms_gives_zero(self):
        pts = uniform_sphere(8, 800)
        est = mining.correlation_ls(pts, pts, DEG_BINS)
        valid = est.rr > 0
        assert valid.any()
        assert np.allclose(est.w[valid], 0.0, atol=1e-12)

    def test_null_within_three_sigma(self):
        data = uniform_sphere(9, 1500)
        randoms = uniform_sphere(10, 3000)
        est = mining.correlation_ls(data, randoms, DEG_BINS)
        valid = (est.rr > 0) & (est.dd > 0)
        assert valid.sum() >= 6
        assert np.all(np.abs(est.w[valid]) < 3.0 * est.err[valid])

    def test_injected_clustering_positive(self):
        rng = np.random.Generator(np.random.PCG64(11))
        base = uniform_sphere(11, 400)
        # add a tight companion to every point: excess pairs at small scales
        jitter = rng.normal(0, np.radians(0.2), (400, 3))
        companions = base + jitter
        companions /= np.linalg.norm(companions, axis=1, keepdims=True)
        data = np.concatenate([base, companions])
        randoms = uniform_sphere(12, 4000)
        est = mining.correlation_ls(data, randoms, DEG_BINS)
        assert est.w[0] > 3.0 * est.err[0]

    def test_mode_agreement(self, naive_pair_count):
        """The estimator's dual-tree counts agree with the naive oracle."""
        data = uniform_sphere(13, 300)
        randoms = uniform_sphere(14, 500)
        a = mining.correlation_ls(data, randoms, DEG_BINS)
        dd = naive_pair_count(data, DEG_BINS).counts
        rr = naive_pair_count(randoms, DEG_BINS).counts
        dr = np.zeros(len(DEG_BINS) - 1, dtype=np.int64)
        mining._bin_d2(mining._pairwise_d2(data, randoms).ravel(),
                       mining._chord2_edges(DEG_BINS), dr)
        assert np.array_equal(a.dd, dd)
        assert np.array_equal(a.rr, rr)
        assert np.array_equal(a.dr, dr)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = ((dd / (300 * 300 / 2.0) - 2.0 * dr / (300 * 500) + rr / (500 * 500 / 2.0))
                 / (rr / (500 * 500 / 2.0)))
        assert np.allclose(a.w, np.where(rr > 0, w, np.nan), equal_nan=True)

    def test_csv_lines(self, capsys, reference_store):
        """`corr` prints the header, then one row per bin with its edges in
        degrees and the data pair count of the master positions."""
        code = cli.run(["corr", "--store", str(reference_store), "--bins-deg", "1,10,3",
                        "--randoms", "200", "--seed", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "bin_lo_deg,bin_hi_deg,dd,dr,rr,w,err"
        assert [ln.split(",")[:2] for ln in lines[1:]] == [
            ["1.000000", "4.000000"], ["4.000000", "7.000000"], ["7.000000", "10.000000"]]
        masters = store.read_masters(reference_store)
        unit = sphere.radec_to_unit(masters["ra"], masters["dec"])
        dd = mining.pair_count(unit, np.radians(np.linspace(1, 10, 4))).counts
        assert [int(ln.split(",")[2]) for ln in lines[1:]] == dd.tolist()

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            mining.correlation_ls(uniform_sphere(17, 1), uniform_sphere(18, 100),
                                  DEG_BINS)


def gaussian_blobs(seed, spec):
    """spec: list of (n, mean, cov) in feature space."""
    rng = np.random.Generator(np.random.PCG64(seed))
    chunks = [rng.multivariate_normal(mean, cov, n) for n, mean, cov in spec]
    return np.concatenate(chunks)


class TestEM:
    def test_k1_matches_closed_form(self):
        pts = gaussian_blobs(20, [(2000, [1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])])
        model, _ = mining.em_fit(pts, k=1, mode="exact")
        assert np.allclose(model.means[0], pts.mean(axis=0), atol=1e-9)
        want_cov = np.cov(pts.T, bias=True)
        assert np.allclose(model.covariances[0], want_cov, atol=1e-4)
        assert model.weights[0] == 1.0

    def test_monotone_log_likelihood(self):
        pts = gaussian_blobs(21, [(500, [0, 0], np.eye(2) * 0.2),
                                  (500, [4, 4], np.eye(2) * 0.3)])
        model, _ = mining.em_fit(pts, k=2, mode="exact")
        lls = np.asarray(model.log_likelihoods)
        assert np.all(np.diff(lls) >= -1e-7 * np.abs(lls[:-1]))

    def test_three_blob_recovery(self):
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        pts = gaussian_blobs(22, [(700, c, np.eye(2) * 0.25) for c in centers])
        model, _ = mining.em_fit(pts, k=3, mode="exact", seed=1)
        got = model.means[np.lexsort((model.means[:, 1], model.means[:, 0]))]
        want = centers[np.lexsort((centers[:, 1], centers[:, 0]))]
        # within 0.1 cluster sigma (sigma = 0.5)
        assert np.all(np.linalg.norm(got - want, axis=1) < 0.1 * 0.5)
        assert np.allclose(model.weights, 1 / 3, atol=0.02)

    def test_kd_matches_exact_with_fewer_evaluations(self):
        pts = gaussian_blobs(23, [(1500, [0, 0], np.eye(2) * 0.2),
                                  (1500, [5, 5], np.eye(2) * 0.3)])
        exact, ex_stats = mining.em_fit(pts, k=2, mode="exact", seed=0)
        kd, kd_stats = mining.em_fit(pts, k=2, mode="kd", seed=0)
        order_e = np.argsort(exact.means[:, 0])
        order_k = np.argsort(kd.means[:, 0])
        assert np.allclose(kd.means[order_k], exact.means[order_e], atol=1e-3)
        assert np.allclose(kd.weights[order_k], exact.weights[order_e], atol=1e-3)
        assert kd_stats.responsibility_evaluations < ex_stats.responsibility_evaluations
        assert kd_stats.nodes_pruned > 0

    def test_kd_log_likelihood_monotone(self):
        pts = gaussian_blobs(24, [(1000, [0, 0], np.eye(2) * 0.3),
                                  (1000, [6, 1], np.eye(2) * 0.4)])
        model, _ = mining.em_fit(pts, k=2, mode="kd", seed=0)
        lls = np.asarray(model.log_likelihoods)
        assert np.all(np.diff(lls) >= -1e-6 * np.abs(lls[:-1]))

    def test_seed_determinism(self):
        pts = gaussian_blobs(25, [(400, [0, 0], np.eye(2)), (400, [5, 5], np.eye(2))])
        a, _ = mining.em_fit(pts, k=2, seed=7)
        b, _ = mining.em_fit(pts, k=2, seed=7)
        assert np.array_equal(a.means, b.means)
        assert a.log_likelihoods == b.log_likelihoods

    def test_translation_equivariance(self):
        pts = gaussian_blobs(26, [(600, [0, 0], np.eye(2) * 0.5),
                                  (600, [4, 0], np.eye(2) * 0.5)])
        shift = np.array([100.0, -50.0])
        a, _ = mining.em_fit(pts, k=2, seed=3)
        b, _ = mining.em_fit(pts + shift, k=2, seed=3)
        oa = np.argsort(a.means[:, 0])
        ob = np.argsort(b.means[:, 0])
        assert np.allclose(b.means[ob], a.means[oa] + shift, atol=1e-6)
        assert np.allclose(b.covariances[ob], a.covariances[oa], atol=1e-6)

    def test_one_dim_input(self):
        rng = np.random.Generator(np.random.PCG64(27))
        x = np.concatenate([rng.normal(0, 1, 500), rng.normal(10, 1, 500)])
        model, _ = mining.em_fit(x, k=2, seed=0)
        assert sorted(model.means.ravel().tolist()) == pytest.approx([0.0, 10.0], abs=0.2)

    def test_validation(self):
        pts = gaussian_blobs(28, [(10, [0, 0], np.eye(2))])
        with pytest.raises(ValidationError):
            mining.em_fit(pts, k=0)
        with pytest.raises(ValidationError):
            mining.em_fit(pts, k=11)
        with pytest.raises(ValidationError):
            mining.em_fit(pts, k=2, mode="approx")
        bad = pts.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            mining.em_fit(bad, k=2)

    def test_model_json_round_trip(self):
        pts = gaussian_blobs(29, [(300, [0, 0], np.eye(2))])
        model, _ = mining.em_fit(pts, k=1)
        again = mining.MixtureModel.from_json(model.to_json())
        assert np.allclose(again.means, model.means)
        assert again.mode == model.mode and again.n_iter == model.n_iter


class TestOutlierScores:
    def test_far_point_scores_higher(self):
        pts = gaussian_blobs(30, [(1000, [0, 0], np.eye(2))])
        model, _ = mining.em_fit(pts, k=1)
        scores = mining.outlier_scores(model, np.array([[0.0, 0.0], [50.0, 50.0]]))
        assert scores[1] > scores[0] + 100

    def test_score_is_negative_log_density(self):
        pts = gaussian_blobs(31, [(2000, [0.0], [[1.0]])])
        model, _ = mining.em_fit(pts, k=1)
        s = mining.outlier_scores(model, np.array([0.0, 1.0, 2.0]))
        # quadratic growth in standardized distance
        assert s[2] - s[1] > s[1] - s[0] > 0

    def test_dimension_mismatch(self):
        pts = gaussian_blobs(32, [(100, [0, 0], np.eye(2))])
        model, _ = mining.em_fit(pts, k=1)
        with pytest.raises(ValidationError):
            mining.outlier_scores(model, np.zeros((5, 3)))
