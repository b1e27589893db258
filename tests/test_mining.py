import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit, logsumexp

from skymine import cli, mining, skygen, sphere, store
from skymine.errors import EXIT_OK, ValidationError
from skymine.kdtree import KdTree, box_sqdist_bounds

from conftest import pairwise_d2


def model_from_json(text):
    """The `MixtureModel` that `MixtureModel.to_json` (and `em`) wrote."""
    d = json.loads(text)
    return mining.MixtureModel(np.asarray(d["weights"]), np.asarray(d["means"]),
                               np.asarray(d["covariances"]), d["log_likelihoods"],
                               d["n_iter"], d.get("seed"), d.get("mode", "exact"))


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
        mining._bin_d2(pairwise_d2(a, b).ravel(), edges2, counts)
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
        with pytest.raises(ValidationError, match="leaf_size must be >= 1"):
            mining.pair_count(pts, DEG_BINS, leaf_size=0)


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
        mining._bin_d2(pairwise_d2(data, randoms).ravel(),
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
        with pytest.raises(ValidationError, match="leaf_size must be >= 1"):
            mining.em_fit(pts, k=2, mode="kd", leaf_size=0)
        bad = pts.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            mining.em_fit(bad, k=2)

    @pytest.mark.parametrize("mode", ["exact", "kd"])
    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_tau_must_be_finite_and_non_negative(self, monkeypatch, mode, tau):
        """A bad tau is refused before any work: seeding is never reached."""
        def no_work(*args):
            raise AssertionError("EM started before tau was checked")

        monkeypatch.setattr(mining, "_init_means", no_work)
        pts = gaussian_blobs(28, [(10, [0, 0], np.eye(2))])
        with pytest.raises(ValidationError, match="tau must be finite and >= 0"):
            mining.em_fit(pts, k=2, mode=mode, tau=tau)

    @pytest.mark.parametrize("mode", ["exact", "kd"])
    @pytest.mark.parametrize("tol, max_iter, message", [
        (np.nan, 20, "tol must be finite and >= 0"),
        (np.inf, 20, "tol must be finite and >= 0"),
        (-1.0, 20, "tol must be finite and >= 0"),
        (-1e-300, 20, "tol must be finite and >= 0"),
        (0.0, 0, "max_iter must be >= 1"),
        (0.0, -3, "max_iter must be >= 1"),
        (0.0, 2.5, "max_iter must be an integer"),
    ])
    def test_tol_and_max_iter_are_checked_first(self, monkeypatch, mode, tol, max_iter,
                                                message):
        """A bad tol or max_iter is refused before any work, rather than
        returning the seeds as a fitted model or running every iteration."""
        def no_work(*args):
            raise AssertionError("EM started before tol and max_iter were checked")

        monkeypatch.setattr(mining, "_init_means", no_work)
        pts = gaussian_blobs(28, [(10, [0, 0], np.eye(2))])
        with pytest.raises(ValidationError, match=message):
            mining.em_fit(pts, k=2, mode=mode, tol=tol, max_iter=max_iter)

    @pytest.mark.parametrize("mode", ["exact", "kd"])
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, mode, seed):
        """Refused by name, not left to numpy's ValueError or TypeError."""
        pts = gaussian_blobs(28, [(10, [0, 0], np.eye(2))])
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            mining.em_fit(pts, k=2, mode=mode, seed=seed)

    @pytest.mark.parametrize("mode", ["exact", "kd"])
    def test_tol_and_max_iter_at_their_bounds_are_accepted(self, mode):
        pts = gaussian_blobs(28, [(100, [0, 0], np.eye(2)), (100, [5, 5], np.eye(2))])
        assert mining.em_fit(pts, k=2, mode=mode, tol=0.0, max_iter=1)[0].n_iter == 1
        assert mining.em_fit(pts, k=2, mode=mode, tol=0.0, max_iter=20)[0].n_iter == 20

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_tau_at_its_bounds_is_accepted(self, tau):
        pts = gaussian_blobs(28, [(100, [0, 0], np.eye(2)), (100, [5, 5], np.eye(2))])
        model, _ = mining.em_fit(pts, k=2, mode="kd", tau=tau, max_iter=3)
        assert model.n_iter == 3

    def test_model_json_round_trip(self):
        pts = gaussian_blobs(29, [(300, [0, 0], np.eye(2))])
        model, _ = mining.em_fit(pts, k=1)
        again = model_from_json(model.to_json())
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


# ---------------------------------------------------------------------------
# Oracles for EM's two elementwise kernels.

def reference_logpdfs(points, means, covs):
    """(N, k) Gaussian log densities one point at a time, through a general
    solve and a log-determinant instead of a Cholesky factor."""
    n, d = points.shape
    out = np.empty((n, len(means)))
    for j, (mean, cov) in enumerate(zip(means, covs)):
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        for i in range(n):
            diff = points[i] - mean
            out[i, j] = -0.5 * (diff @ np.linalg.solve(cov, diff) + logdet
                                + d * np.log(2.0 * np.pi))
    return out


def reference_tight_nodes(hi, lo, tau):
    """`mining._tight_nodes` as it was, with the log-sum-exp over the other
    components taken by `scipy.special.logsumexp`."""
    k = hi.shape[1]
    if k == 1:
        return np.ones(len(hi), dtype=bool)
    others = np.where(np.eye(k, dtype=bool), -np.inf, 0.0)
    rest_hi, rest_lo = logsumexp(np.stack([hi, lo])[:, :, None, :] + others, axis=3)
    spread = expit(hi - rest_lo) - expit(lo - rest_hi)
    return ~np.any(spread > tau, axis=1)


def reference_row_spreads(hi, lo):
    """Each node's widest responsibility interval, as `mining._tight_nodes`
    computed it with the components on the last axis (one small numpy
    reduction per node)."""
    k = hi.shape[1]
    others = np.where(np.eye(k, dtype=bool), -np.inf, 0.0)
    terms = np.stack([hi, lo])[:, :, None, :] + others
    top = terms.max(axis=3)
    terms -= top[..., None]
    rest_hi, rest_lo = top + np.log(np.exp(terms, out=terms).sum(axis=3))
    return (expit(hi - rest_lo) - expit(lo - rest_hi)).max(axis=1)


def expit_spreads(hi, lo):
    """(k, nodes) responsibility spreads as `mining._tight_nodes` computed
    them before it left scipy: the same log-sum-exp columns, and the
    logistic function through `scipy.special.expit`."""
    k, n = hi.shape[1], len(hi)
    others = np.where(np.eye(k, dtype=bool), -np.inf, 0.0)
    terms = np.stack([hi.T, lo.T])[:, None] + others[:, :, None]
    top = terms.max(axis=2)
    terms = np.exp(terms - top[:, :, None])
    rest_hi, rest_lo = top + np.log(mining._sum_in_row_order(terms, axis=2))
    return expit(hi.T - rest_lo) - expit(lo.T - rest_hi)


# exp(-x) overflows below -709.78 and underflows to 0 above 745.13, and
# 1 + exp(-x) rounds to 1 from about 36.7: these values and their
# neighbours, and 0, which puts a difference of two bounds on an edge itself
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan] + [
    v for edge in (36.7, 37.0, 709.782712893384, 745.1332191019411) for x in (edge, -edge)
    for v in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]
BOUNDS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-800.0, 800.0),
                   st.floats(-40.0, 40.0))


def random_covariances(rng, k, d):
    """k symmetric positive definite (d, d) matrices with condition numbers
    up to about 100."""
    q = np.linalg.qr(rng.normal(size=(k, d, d)))[0]
    lam = rng.uniform(0.1, 10.0, (k, 1, d))
    covs = (q * lam) @ q.transpose(0, 2, 1)
    return 0.5 * (covs + covs.transpose(0, 2, 1))


class TestEmKernels:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_component_logpdfs_match_per_point_oracle(self, d, k):
        """The forward substitution gives every point's log density within
        1e-12 of the oracle, at a covariance on EM's floor and for points
        far from every mean."""
        rng = np.random.Generator(np.random.PCG64(100 * d + k))
        means = rng.normal(0.0, 3.0, (k, d))
        covs = random_covariances(rng, k, d)
        near = means[rng.integers(k, size=150)] + rng.normal(0.0, 2.0, (150, d))
        far = rng.normal(0.0, 1.0, (20, d)) * 1e4
        points = np.concatenate([near, far])
        covs[-1] = mining._covariance_floor(points)
        got = mining._component_logpdfs(points, means, covs)
        np.testing.assert_allclose(got, reference_logpdfs(points, means, covs),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_logsumexp_matches_scipy_bit_for_bit(self, k):
        """Every row's bits equal scipy's, for row sums in order (k < 8) and
        pairwise (k >= 8), with tied maxima, rows of -inf, +inf and NaN
        entries, and entries 800 log-units apart."""
        rng = np.random.Generator(np.random.PCG64(700 + k))
        n = 3000
        a = rng.normal(-30.0, 8.0, (n, k))
        a[0::9, :] = a[0::9, :1]                          # every entry tied
        a[1::9, -1] = a[1::9, 0]                          # two maxima tied
        a[2::9, :] = -np.inf
        a[3::9, rng.integers(k)] = np.inf
        a[4::9, -1] = np.nan
        a[5::9, 0] += 800.0
        a[6::9, -1] -= 800.0
        a[7::9, 1:] = -np.inf
        with np.errstate(all="ignore"):
            want = logsumexp(a, axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mining._logsumexp(a)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert np.isnan(got[4::9]).all() and np.isneginf(got[2::9]).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 9])
    def test_tight_nodes_match_logsumexp_body(self, k):
        """The numpy log-sum-exp picks the same nodes as scipy's, without a
        warning, also where one component lies 750 log-units from the
        others."""
        rng = np.random.Generator(np.random.PCG64(60 + k))
        n = 4000
        hi = rng.normal(-20.0, 6.0, (n, k))
        width = rng.exponential(1.0, (n, k)) * 10.0 ** rng.integers(-7, 1, (n, 1))
        lo = hi - width
        far = rng.random(n) < 0.25
        shift = np.where(rng.random(n) < 0.5, 750.0, -750.0)[far, None]
        hi[far, :1] += shift
        lo[far, :1] += shift
        for tau in (0.0, 1e-4, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = mining._tight_nodes(hi, lo, tau)
            want = reference_tight_nodes(hi, lo, tau)
            np.testing.assert_array_equal(got, want)
            if k > 1 and tau == 1e-4:   # the test separates nodes either way
                assert 0 < want.sum() < n
            if k > 2 and tau == 1e-4:   # a far component pins only itself
                assert 0 < want[far].sum() < far.sum()


    @pytest.mark.parametrize("k", range(2, 13))
    def test_tight_nodes_decide_at_the_row_layout_spread(self, k):
        """The column layout gives each node the spread bits of the row
        layout: a node is tight at tau equal to its row-layout spread, and
        not one ulp below it."""
        rng = np.random.Generator(np.random.PCG64(80 + k))
        n = 100
        # components of like size, so that the order of a sum shows in its bits
        hi = rng.normal(0.0, 0.5, (n, k))
        lo = hi - rng.exponential(1.0, (n, k)) * 10.0 ** rng.integers(-7, 1, (n, 1))
        hi[::10, 0] += 750.0
        lo[::10, 0] += 750.0
        spreads = reference_row_spreads(hi, lo)
        for i, spread in enumerate(spreads.tolist()):   # all nodes in each call
            assert mining._tight_nodes(hi, lo, spread)[i]
            if spread > 0:
                assert not mining._tight_nodes(hi, lo, np.nextafter(spread, -np.inf))[i]


class TestTightNodesProperty:
    """`mining._tight_nodes` decides every node as the `expit` form does."""

    @given(st.data(), st.integers(1, 30), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_same_booleans_as_expit(self, data, n, k):
        hi = data.draw(arrays(np.float64, (n, k), elements=BOUNDS, fill=st.nothing()))
        lo = data.draw(arrays(np.float64, (n, k), elements=BOUNDS, fill=st.nothing()))
        with np.errstate(all="ignore"):
            spreads = expit_spreads(hi, lo) if k > 1 else np.zeros((1, n))
        taus = [0.0, 1e-300, 1e-4, 1e-2, 0.3, 1.0, data.draw(st.floats(0.0, 1.0))]
        # tau exactly at each spread, and one ulp below it
        for spread in spreads[np.isfinite(spreads) & (spreads > 0)].tolist():
            taus += [spread, np.nextafter(spread, -np.inf)]
        for tau in taus:
            with np.errstate(all="ignore"):
                got = mining._tight_nodes(hi, lo, tau)
            np.testing.assert_array_equal(got, ~np.any(spreads > tau, axis=0))

    def test_subnormal_spreads_as_tau(self):
        """Between -709.78 and -708.4 the logistic values are subnormal, and
        through numpy's AVX-512 `exp` they differ from `expit`'s by one
        subnormal step in about 0.3% of them (in some of these spreads); at
        tau equal to each spread, and one step below, every node is decided
        as with `expit`."""
        rng = np.random.Generator(np.random.PCG64(9))
        n = 500
        hi = np.zeros((n, 2))
        hi[:, 0] = rng.uniform(-709.78, -708.0, n)
        lo = hi - np.stack([rng.uniform(0.0, 0.1, n), np.zeros(n)], axis=1)
        spreads = expit_spreads(hi, lo)
        assert (spreads[0] > 0).all() and (spreads[0] < 2.3e-308).any()
        for tau in spreads[0].tolist():
            for t in (tau, np.nextafter(tau, -np.inf)):
                np.testing.assert_array_equal(mining._tight_nodes(hi, lo, t),
                                              ~np.any(spreads > t, axis=0))


def imported_modules(path):
    """Every module name a source file's import statements name, with
    `from m import x` also giving m.x."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def skymine_imports():
    """{source file: the module names its imports name}, over src/skymine."""
    package = Path(mining.__file__).parent
    return {path.relative_to(package): imported_modules(path)
            for path in package.rglob("*.py")}


def test_no_module_imports_scipy():
    """No module under src/skymine imports scipy: the program runs on numpy
    and click alone. scipy bundles an OpenBLAS of its own, apart from
    numpy's. When `em` solved through scipy.linalg, that second library's
    worker threads held the CPUs that numpy's BLAS needed next: in the
    `mine` benchmark cycle (2 CPUs), `lc`, which runs right after `em`, took
    a median 90 ms against 54 ms once EM used numpy alone. Importing scipy's
    `expit` and csgraph also took most of the CLI's start-up (0.5 s against
    0.2 s without them). scipy stays in the tests as an oracle."""
    found = skymine_imports()
    assert "numpy" in found[Path("mining.py")]   # the scan sees imports
    bad = sorted(f"{path}: {name}" for path, names in found.items() for name in names
                 if name == "scipy" or name.startswith("scipy."))
    assert bad == []


# ---------------------------------------------------------------------------
# Oracles: the recursive tree walks that the level-at-a-time walks replace.

def _is_leaf(tree, node):
    return tree.node_left[node] < 0


def _node_count(tree, node):
    return int(tree.node_end[node] - tree.node_start[node])


def _box_min_sqdist(tree, node, q):
    d = np.maximum(0.0, np.maximum(tree.node_lo[node] - q, q - tree.node_hi[node]))
    return float(d @ d)


def _box_max_sqdist(tree, node, q):
    d = np.maximum(tree.node_hi[node] - q, q - tree.node_lo[node])
    return float(d @ d)


def _box_pair_sqdist_bounds(tree_a, node_a, tree_b, node_b):
    gap = np.maximum(0.0, np.maximum(tree_a.node_lo[node_a] - tree_b.node_hi[node_b],
                                     tree_b.node_lo[node_b] - tree_a.node_hi[node_a]))
    far = np.maximum(tree_a.node_hi[node_a] - tree_b.node_lo[node_b],
                     tree_b.node_hi[node_b] - tree_a.node_lo[node_a])
    return float(gap @ gap), float(far @ far)


def reference_kd_estep(tree, points, node_aggr, weights, means, covs, tau, stats):
    """The recursive node-pruned E-step, one node and one component at a time."""
    counts, sums, sqsums = node_aggr
    k = len(weights)
    d = points.shape[1]
    log_w = np.log(weights)

    chols = [np.linalg.cholesky(covs[j]) for j in range(k)]
    logdets = [2.0 * np.sum(np.log(np.diag(c))) for c in chols]
    eigvals = [np.linalg.eigvalsh(covs[j]) for j in range(k)]
    lam_min = np.array([e[0] for e in eigvals])
    lam_max = np.array([e[-1] for e in eigvals])
    log_norm = np.array([-0.5 * (logdets[j] + d * np.log(2.0 * np.pi))
                         for j in range(k)])

    nk = np.zeros(k)
    sum_x = np.zeros((k, d))
    sum_xx = np.zeros((k, d, d))
    ll = [0.0]

    def points_estep(idx):
        pts = points[idx]
        logp = mining._component_logpdfs(pts, means, covs)
        stats.responsibility_evaluations += len(idx) * k
        joint = logp + log_w
        norm = logsumexp(joint, axis=1)
        resp = np.exp(joint - norm[:, None])
        ll[0] += float(np.sum(norm))
        for j in range(k):
            nk[j] += resp[:, j].sum()
            sum_x[j] += resp[:, j] @ pts
            sum_xx[j] += (resp[:, j][:, None] * pts).T @ pts

    def visit(node):
        cnt = counts[node]
        if cnt == 0:
            return
        dmin2 = np.array([_box_min_sqdist(tree, node, means[j]) for j in range(k)])
        dmax2 = np.array([_box_max_sqdist(tree, node, means[j]) for j in range(k)])
        hi = log_w + (log_norm - 0.5 * dmin2 / lam_max)
        lo = log_w + (log_norm - 0.5 * dmax2 / lam_min)
        spread_ok = True
        for j in range(k):
            if k == 1:
                break
            rest_hi = logsumexp(np.delete(hi, j))
            rest_lo = logsumexp(np.delete(lo, j))
            r_max = 1.0 / (1.0 + np.exp(rest_lo - hi[j]))
            r_min = 1.0 / (1.0 + np.exp(rest_hi - lo[j]))
            if r_max - r_min > tau:
                spread_ok = False
                break
        if spread_ok:
            stats.nodes_pruned += 1
            centroid = (sums[node] / cnt)[None, :]
            logp_c = mining._component_logpdfs(centroid, means, covs)[0]
            stats.responsibility_evaluations += k
            joint = logp_c + log_w
            norm = logsumexp(joint)
            resp = np.exp(joint - norm)
            ll[0] += float(cnt * norm)
            for j in range(k):
                nk[j] += resp[j] * cnt
                sum_x[j] += resp[j] * sums[node]
                sum_xx[j] += resp[j] * sqsums[node]
            return
        if _is_leaf(tree, node):
            points_estep(tree.node_indices(node))
            return
        visit(int(tree.node_left[node]))
        visit(int(tree.node_right[node]))

    visit(0)
    nk = np.maximum(nk, 1e-12)
    return nk, sum_x, sum_xx, ll[0]


def reference_pair_count(points, bin_edges_rad, others=None, leaf_size=32):
    """The recursive dual-tree pair counter, one node pair at a time."""
    a_pts = np.asarray(points, dtype=np.float64)
    b_pts = a_pts if others is None else np.asarray(others, dtype=np.float64)
    edges2 = mining._chord2_edges(bin_edges_rad)
    counts = np.zeros(len(edges2) - 1, dtype=np.int64)
    tree_a = KdTree(a_pts, leaf_size=leaf_size)
    tree_b = tree_a if others is None else KdTree(b_pts, leaf_size=leaf_size)
    evals = [0]

    def visit_cross(na, nb):
        dmin2, dmax2 = _box_pair_sqdist_bounds(tree_a, na, tree_b, nb)
        if dmax2 < edges2[0] or dmin2 > edges2[-1]:
            return
        k = int(np.searchsorted(edges2, dmin2, side="right")) - 1
        if 0 <= k < len(edges2) - 1 and dmin2 >= edges2[k] and dmax2 < edges2[k + 1]:
            counts[k] += _node_count(tree_a, na) * _node_count(tree_b, nb)
            return
        a_leaf, b_leaf = _is_leaf(tree_a, na), _is_leaf(tree_b, nb)
        if a_leaf and b_leaf:
            ia, ib = tree_a.node_indices(na), tree_b.node_indices(nb)
            d2 = pairwise_d2(a_pts[ia], b_pts[ib]).ravel()
            evals[0] += len(ia) * len(ib)
            mining._bin_d2(d2, edges2, counts)
            return
        if b_leaf or (not a_leaf and _node_count(tree_a, na) >= _node_count(tree_b, nb)):
            visit_cross(int(tree_a.node_left[na]), nb)
            visit_cross(int(tree_a.node_right[na]), nb)
        else:
            visit_cross(na, int(tree_b.node_left[nb]))
            visit_cross(na, int(tree_b.node_right[nb]))

    def visit_self(node):
        if _is_leaf(tree_a, node):
            idx = tree_a.node_indices(node)
            if len(idx) < 2:
                return
            d2 = pairwise_d2(a_pts[idx], a_pts[idx])
            iu = np.triu_indices(len(idx), k=1)
            evals[0] += len(iu[0])
            mining._bin_d2(d2[iu], edges2, counts)
            return
        left, right = int(tree_a.node_left[node]), int(tree_a.node_right[node])
        visit_self(left)
        visit_self(right)
        visit_cross(left, right)

    if others is None:
        visit_self(0)
    else:
        visit_cross(0, 0)
    return counts, evals[0]


def blob_points(seed, k, n=600, duplicates=False):
    """k Gaussian blobs away from the origin (no sum lies near zero); with
    `duplicates`, every point appears three times."""
    centers = [[3.0, 5.0], [8.0, 6.0], [5.0, 10.0]][:k]
    pts = gaussian_blobs(seed, [(n // k, c, np.eye(2) * 0.5) for c in centers])
    return np.repeat(pts[::3], 3, axis=0) if duplicates else pts


def estep_parameters(points, k, seed=0):
    """(weights, means, covs) after three exact EM iterations."""
    model, _ = mining.em_fit(points, k, mode="exact", tol=0.0, max_iter=3, seed=seed)
    return model.weights, model.means, model.covariances


def both_esteps(points, k, leaf_size, tau):
    """Run the E-step and its oracle on the same parameters; assert equal
    counters and sums. Only the oracle may overflow."""
    tree = KdTree(points, leaf_size=leaf_size)
    aggr = mining._node_aggregates(tree, points)
    params = estep_parameters(points, k)
    got_stats, want_stats = mining.KdTreeStats(), mining.KdTreeStats()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mining._kd_estep(tree, points, aggr, *params, tau, got_stats)
    with np.errstate(over="ignore"):
        want = reference_kd_estep(tree, points, aggr, *params, tau, want_stats)
    assert got_stats.nodes_pruned == want_stats.nodes_pruned
    assert got_stats.responsibility_evaluations == want_stats.responsibility_evaluations
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
    return got_stats


class TestKdEstepOracle:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("leaf_size", [1, 8, 64])
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_recursive_walk(self, k, leaf_size, duplicates):
        stats = both_esteps(blob_points(40 + k, k, duplicates=duplicates), k,
                            leaf_size, 1e-4)
        if k > 1:  # some nodes pruned, some leaves opened
            assert stats.nodes_pruned > 0
            assert stats.responsibility_evaluations > stats.nodes_pruned * k

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("leaf_size", [1, 8, 64])
    def test_tau_zero_prunes_nothing(self, k, leaf_size):
        pts = blob_points(43, k)
        stats = both_esteps(pts, k, leaf_size, 0.0)
        assert stats.nodes_pruned == 0
        assert stats.responsibility_evaluations == len(pts) * k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_large_tau_prunes_the_root(self, k):
        stats = both_esteps(blob_points(44, k), k, 8, 1.0)
        assert stats.nodes_pruned == 1
        assert stats.responsibility_evaluations == k

    @pytest.mark.parametrize("k", [2, 3])
    def test_far_components_without_overflow(self, k):
        """Components many sigma apart drive the oracle's exp() past float
        range; the log-space bounds agree with it and raise no warning."""
        pts = blob_points(45, k) * np.array([1.0, 40.0])
        both_esteps(pts, k, 8, 1e-4)
        tree = KdTree(pts, leaf_size=8)
        with pytest.raises(FloatingPointError), np.errstate(over="raise"):
            reference_kd_estep(tree, pts, mining._node_aggregates(tree, pts),
                               *estep_parameters(pts, k), 1e-4, mining.KdTreeStats())

    @pytest.mark.parametrize("k", [2, 3])
    def test_em_fit_matches_recursive_walk(self, monkeypatch, k):
        pts = blob_points(46, k, n=1500)
        got, got_stats = mining.em_fit(pts, k, mode="kd", tol=0.0, max_iter=15, seed=1)
        monkeypatch.setattr(mining, "_kd_estep", reference_kd_estep)
        with np.errstate(over="ignore"):
            want, want_stats = mining.em_fit(pts, k, mode="kd", tol=0.0, max_iter=15, seed=1)
        assert got_stats.nodes_pruned == want_stats.nodes_pruned > 0
        assert got_stats.responsibility_evaluations == want_stats.responsibility_evaluations
        for name in ("weights", "means", "covariances", "log_likelihoods"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-9)


def reference_walk_estep(tree, points, node_aggr, weights, means, covs, tau, stats):
    """The level walk that `mining._kd_estep` replaced, kept as its oracle.

    It handles one tree level per step: one `box_sqdist_bounds` and one
    `_tight_nodes` call over the frontier's nodes. A tight node is pruned,
    an open leaf keeps its points, and an open inner node is replaced by its
    children (the left children first, then the right). Then the pruned
    centroids and the open leaves' points are each scored in one call."""
    counts, sums, sqsums = node_aggr
    k = len(weights)
    d = points.shape[1]
    log_w = np.log(weights)
    chols = np.linalg.cholesky(covs)
    logdets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    eigvals = np.linalg.eigvalsh(covs)
    lam_min, lam_max = eigvals[:, 0], eigvals[:, -1]
    log_norm = -0.5 * (logdets + d * np.log(2.0 * np.pi))

    pruned, leaves = [], []
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        lo_box, hi_box = tree.node_lo[frontier, None], tree.node_hi[frontier, None]
        dmin2, dmax2 = box_sqdist_bounds(lo_box, hi_box, means, means)
        hi = log_w + (log_norm - 0.5 * dmin2 / lam_max)
        lo = log_w + (log_norm - 0.5 * dmax2 / lam_min)
        tight = mining._tight_nodes(hi, lo, tau)
        pruned.append(frontier[tight])
        frontier = frontier[~tight]
        leaf = tree.node_left[frontier] < 0
        leaves.append(frontier[leaf])
        frontier = np.concatenate([tree.node_left[frontier[~leaf]],
                                   tree.node_right[frontier[~leaf]]])

    nk = np.zeros(k)
    sum_x = np.zeros((k, d))
    sum_xx = np.zeros((k, d, d))
    ll = 0.0
    pruned = np.concatenate(pruned)
    if len(pruned):
        stats.nodes_pruned += len(pruned)
        stats.responsibility_evaluations += len(pruned) * k
        cnt = counts[pruned]
        resp, norm = mining._responsibilities(sums[pruned] / cnt[:, None], means, covs,
                                              log_w)
        ll += float(cnt @ norm)
        nk += cnt @ resp
        sum_x += resp.T @ sums[pruned]
        sum_xx += np.einsum("nj,nab->jab", resp, sqsums[pruned])
    idx = tree.nodes_indices(np.concatenate(leaves))
    if len(idx):
        stats.responsibility_evaluations += len(idx) * k
        pts = points[idx]
        resp, norm = mining._responsibilities(pts, means, covs, log_w)
        ll += float(np.sum(norm))
        nk += resp.sum(axis=0)
        sum_x += resp.T @ pts
        for j in range(k):
            sum_xx[j] += (resp[:, j][:, None] * pts).T @ pts
    return np.maximum(nk, 1e-12), sum_x, sum_xx, ll


def leaf_depths(tree):
    """The depth of every leaf, from the root's 0."""
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for v in range(tree.n_nodes):   # pre-order: a parent comes before its children
        if tree.node_left[v] >= 0:
            depth[tree.node_left[v]] = depth[tree.node_right[v]] = depth[v] + 1
    return set(depth[tree.node_left < 0].tolist())


def assert_one_pass_equals_walk(points, k, leaf_size, tau, seed=0):
    """The one-pass E-step returns the walk's bits and counters."""
    tree = KdTree(points, leaf_size=leaf_size)
    aggr = mining._node_aggregates(tree, points)
    params = estep_parameters(points, k, seed)
    got_stats, want_stats = mining.KdTreeStats(), mining.KdTreeStats()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mining._kd_estep(tree, points, aggr, *params, tau, got_stats)
    want = reference_walk_estep(tree, points, aggr, *params, tau, want_stats)
    assert got_stats == want_stats
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    return tree, got_stats


class TestKdEstepWalk:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.0, 1e-4, 1e-2, 0.5, 1.0])
    @pytest.mark.parametrize("leaf_size", [1, 8, 64])
    def test_one_pass_equals_level_walk(self, k, tau, leaf_size):
        pts = blob_points(50 + k, k)
        stats = assert_one_pass_equals_walk(pts, k, leaf_size, tau)[1]
        if k == 1 or tau == 1.0:   # the root is tight
            assert stats.nodes_pruned == 1 and stats.responsibility_evaluations == k
        elif tau == 0.0:
            assert stats.nodes_pruned == 0
            assert stats.responsibility_evaluations == len(pts) * k

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n, leaf_size", [(129, 64), (2049, 16), (1000, 3)])
    def test_leaves_at_two_depths(self, k, n, leaf_size):
        """Where leaves sit at two depths, the walk meets a shallow leaf in
        an earlier level than deeper nodes with lower ids."""
        pts = blob_points(60 + k, k, n=3 * n)[:n]
        for tau in (0.0, 1e-4, 1e-2):
            tree = assert_one_pass_equals_walk(pts, k, leaf_size, tau)[0]
            assert len(leaf_depths(tree)) == 2

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
           n=st.integers(3, 400), leaf_size=st.sampled_from([1, 2, 5, 8, 16, 64]),
           tau=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0]))
    @settings(deadline=None)
    def test_one_pass_equals_level_walk_property(self, seed, k, n, leaf_size, tau):
        """Random blobs: k centres and spreads, n points, leaf size and tau."""
        rng = np.random.Generator(np.random.PCG64(seed))
        centers = rng.uniform(-10.0, 10.0, (k, 2))
        pts = centers[rng.integers(k, size=n)] + rng.normal(size=(n, 2)) * rng.uniform(
            0.05, 3.0, (k, 2))[rng.integers(k, size=n)]
        assert_one_pass_equals_walk(pts, k, leaf_size, tau, seed=seed % 1000)


def skygen_positions(seed, n_objects=150, passes=8):
    """Detection positions of a seeded survey: tight per-object clumps."""
    cfg = skygen.SurveyConfig(n_objects=n_objects, passes=passes, seed=seed,
                              mover_fraction=0.05, position_noise_arcsec=0.05)
    det = skygen.generate_survey(cfg)[1]
    return sphere.radec_to_unit(det["ra"], det["dec"])


def edge_points():
    """Points 0.5 degrees apart along the equator and a meridian, binned at
    edges that many of their pair separations hit exactly."""
    steps = np.arange(0.0, 40.0, 0.5)
    pts = np.concatenate([sphere.radec_to_unit(steps, np.zeros_like(steps)),
                          sphere.radec_to_unit(np.zeros_like(steps), steps),
                          sphere.radec_to_unit(steps[:20], np.zeros(20))])
    return pts, np.radians(np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))


def assert_pair_counts_match(points, edges, others=None, leaf_size=32):
    got = mining.pair_count(points, edges, others, leaf_size=leaf_size)
    counts, evals = reference_pair_count(points, edges, others, leaf_size=leaf_size)
    assert np.array_equal(got.counts, counts)
    assert got.distance_evaluations == evals
    return got


def reference_bin_d2(d2, edges2):
    """Per-value histogram: bins half-open [lo, hi), the last one closed."""
    counts = np.zeros(len(edges2) - 1, dtype=np.int64)
    for v in d2.tolist():
        for b in range(len(counts)):
            if edges2[b] <= v < edges2[b + 1] or (b == len(counts) - 1 and v == edges2[-1]):
                counts[b] += 1
                break
    return counts


class TestPairCountOracle:
    @pytest.mark.parametrize("leaf_size", [1, 8, 32])
    def test_skygen_self_and_cross(self, leaf_size):
        a, b = skygen_positions(1), skygen_positions(2, n_objects=90)
        edges = np.radians(np.array([1e-5, 1e-4, 0.01, 1.0, 5.0, 30.0]))
        assert assert_pair_counts_match(a, edges, leaf_size=leaf_size).counts[0] > 0
        assert_pair_counts_match(a, edges, b, leaf_size=leaf_size)
        assert_pair_counts_match(b, edges, a, leaf_size=leaf_size)

    def test_corr_bins_on_uniform_points(self):
        a, b = uniform_sphere(50, 1500), uniform_sphere(51, 2000)
        edges = np.radians(np.linspace(0.5, 20, 6))
        for others in (None, b):
            h = assert_pair_counts_match(a, edges, others)
            assert h.distance_evaluations > 0

    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    def test_points_on_bin_edges(self, leaf_size):
        pts, edges = edge_points()
        d2 = pairwise_d2(pts, pts)
        assert np.isin(d2, mining._chord2_edges(edges)).sum() > 100
        assert_pair_counts_match(pts, edges, leaf_size=leaf_size)
        assert_pair_counts_match(pts[:90], edges, pts[90:], leaf_size=leaf_size)

    @pytest.mark.parametrize("edges_deg", [np.linspace(0.5, 5.0, 6), np.linspace(0.5, 5.0, 201),
                                           np.array([0.0, 1.0]), np.array([0.0, 1e-9, 90.0])])
    def test_bin_d2_matches_per_value_loop(self, edges_deg):
        """Values on each edge and one ulp either side, below the first edge,
        above the last, on the closed last edge, NaN, and a batch with no
        value in any bin."""
        edges2 = mining._chord2_edges(np.radians(edges_deg))
        rng = np.random.Generator(np.random.PCG64(len(edges2)))
        d2 = np.concatenate([edges2, np.nextafter(edges2, -np.inf),
                             np.nextafter(edges2, np.inf), [0.0, 4.0, np.nan],
                             [edges2[0] / 2, edges2[-1] * 2],
                             rng.uniform(0.0, 1.5 * edges2[-1], 2000)])
        rng.shuffle(d2)
        counts = np.zeros(len(edges2) - 1, dtype=np.int64)
        mining._bin_d2(d2, edges2, counts)
        assert counts.tolist() == reference_bin_d2(d2, edges2).tolist()
        mining._bin_d2(np.array([edges2[-1] * 2, np.nextafter(edges2[0], -np.inf)]),
                       edges2, counts)
        assert counts.tolist() == reference_bin_d2(d2, edges2).tolist()

    def test_duplicates_and_tiny_sets(self):
        pts = np.repeat(uniform_sphere(52, 40), 4, axis=0)
        edges = np.radians(np.array([0.0, 1e-9, 10.0, 90.0]))
        assert_pair_counts_match(pts, edges, leaf_size=3)
        assert_pair_counts_match(pts[:2], edges)
        assert_pair_counts_match(pts[:1], edges, pts[1:2])


@pytest.fixture(scope="module")
def mine_shaped_store(tmp_path_factory):
    """A mastered 1,000-object, 40-pass survey, the `mine` benchmark's shape."""
    out = tmp_path_factory.mktemp("mine") / "store"
    cfg = skygen.SurveyConfig(n_objects=1000, passes=40, seed=1, periodic_fraction=0.1,
                              transient_fraction=0.05, mover_fraction=0.05,
                              position_noise_arcsec=0.05)
    store.ingest_detections(skygen.generate_survey(cfg)[1], 4, out)
    store.build_indexes(out, 1.0)
    store.build_master(out, 1.0)
    return out


def test_kd_em_on_mine_store_raises_no_warning(capsys, mine_shaped_store):
    argv = ["em", "--store", str(mine_shaped_store), "--seed", "1", "--tol", "0",
            "--max-iter", "20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(argv + ["--mode", "kd"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "Warning" not in captured.err
    kd = model_from_json(captured.out)
    assert cli.run(argv + ["--mode", "exact"]) == EXIT_OK
    exact = model_from_json(capsys.readouterr().out)
    assert kd.n_iter == exact.n_iter == 20
    assert np.all(np.isfinite(kd.means)) and np.all(np.isfinite(kd.covariances))
